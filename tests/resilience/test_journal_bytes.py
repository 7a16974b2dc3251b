"""Both journals against torn, garbled and arbitrary bytes — one reader.

The torn-tail rule: a record is committed by its newline.

A crash can tear the log at any byte.  Whatever the offset, recovery
must return a prefix of what was written, the recovered process must be
able to keep appending, and the *next* recovery must see that prefix
plus everything appended since — never an exception, never a silently
dropped acknowledged record.  The one-byte tear (only the final newline
lost) is the case that used to poison the log one run later: the
reader accepted the unterminated line as a record, the next append was
glued onto it, and the glued line was corrupt.

The tear suite is deterministic — every offset of the last two records
is driven, no seeds.  Typed-error pins for damage that is *not* a torn
tail (deeply nested garbage lines, corrupt checkpoints) and the
hypothesis byte properties over :meth:`Journal.load` (ROADMAP 5(d))
follow; both record codecs run through all of it.
"""

import json
import math
import os
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.geometry.vectors import Vector
from repro.mod.database import MovingObjectDatabase
from repro.io import update_from_dict
from repro.mod.updates import New
from repro.replication import (
    SERVER_CHECKPOINT_FILENAME,
    SERVER_WAL_FILENAME,
    DurableQueryServer,
    ServerWal,
    load_server_state,
    recover_server,
)
from repro.replication.journal import _decode_record
from repro.resilience.wal import (
    CHECKPOINT_FILENAME,
    WAL_FILENAME,
    WalCorruptionError,
    WriteAheadLog,
    recover,
)


def _new(oid, t):
    return New(oid, float(t), Vector([1.0, 0.0]), Vector([float(t), 0.0]))


class _DatabaseLog:
    """Drive :class:`WriteAheadLog` + :func:`recover` as 'a journal of
    keys'."""

    cls = WriteAheadLog
    decode = staticmethod(update_from_dict)
    filename = WAL_FILENAME
    checkpoint = CHECKPOINT_FILENAME

    @staticmethod
    def write(directory, keys):
        with WriteAheadLog(directory) as wal:
            for key in keys:
                wal.append(_new(key, int(key[1:])))

    @staticmethod
    def read(directory, repair):
        _, log = recover(directory, repair=repair)
        return [update.oid for update in log.updates]


class _ServerLog:
    """Drive :class:`ServerWal` + :func:`load_server_state` likewise."""

    cls = ServerWal
    decode = staticmethod(_decode_record)
    filename = SERVER_WAL_FILENAME
    checkpoint = SERVER_CHECKPOINT_FILENAME

    @staticmethod
    def write(directory, keys):
        _, tail = load_server_state(directory, repair=False)
        start = tail[-1]["seq"] if tail else 0
        with ServerWal(directory, start_seq=start) as journal:
            for key in keys:
                journal.append("update", key=key)

    @staticmethod
    def read(directory, repair):
        _, tail = load_server_state(directory, repair=repair)
        return [record["key"] for record in tail]


JOURNALS = [_DatabaseLog, _ServerLog]
ORIGINAL = ["k1", "k2", "k3", "k4", "k5"]
LATER = ["k6", "k7"]


@pytest.mark.parametrize("repair", [True, False])
@pytest.mark.parametrize("journal", JOURNALS)
def test_tear_at_every_offset_of_the_last_two_records(
    journal, repair, tmp_path
):
    pristine = tmp_path / "pristine"
    journal.write(str(pristine), ORIGINAL)
    raw = (pristine / journal.filename).read_bytes()
    lines = raw.splitlines(keepends=True)
    assert len(lines) == len(ORIGINAL)
    first = len(raw) - len(lines[-1]) - len(lines[-2])
    for offset in range(first, len(raw) + 1):
        directory = tmp_path / f"cut{offset}"
        directory.mkdir()
        path = directory / journal.filename
        path.write_bytes(raw[:offset])
        # Only whole lines survive: the records whose newline made it.
        survivors = ORIGINAL[: raw[:offset].count(b"\n")]
        assert journal.read(str(directory), repair) == survivors, offset
        journal.write(str(directory), LATER)
        assert path.read_bytes().endswith(b"\n"), offset
        assert (
            journal.read(str(directory), repair) == survivors + LATER
        ), offset


@pytest.mark.parametrize("journal", JOURNALS)
def test_unterminated_but_parseable_line_is_not_a_record(journal, tmp_path):
    journal.write(str(tmp_path), ORIGINAL)
    path = tmp_path / journal.filename
    os.truncate(path, path.stat().st_size - 1)  # the final newline only
    assert journal.read(str(tmp_path), repair=False) == ORIGINAL[:-1]
    # Without repair the reader left the tail on disk; opening for
    # append cuts it off before the first write.
    journal.write(str(tmp_path), [])
    assert path.read_bytes().endswith(b"\n")
    assert journal.read(str(tmp_path), repair=False) == ORIGINAL[:-1]


def test_one_byte_tear_through_the_durable_server(tmp_path):
    """The issue's reproduction, end to end, default settings."""
    directory = str(tmp_path)
    db = MovingObjectDatabase(initial_time=0.0)
    server = DurableQueryServer(db, directory=directory)
    server.register_knn([0.0, 0.0], k=1)
    for i in range(3):
        db.apply(_new(f"o{i}", 1 + i))
    server.journal.close()
    path = os.path.join(directory, SERVER_WAL_FILENAME)
    os.truncate(path, os.path.getsize(path) - 1)

    recovered = recover_server(directory)
    assert sorted(recovered.db.object_ids) == ["o0", "o1"]
    for i in range(2):
        recovered.db.apply(_new(f"p{i}", 10 + i))  # acknowledged
    recovered.journal.close()  # crash

    again = recover_server(directory)
    assert sorted(again.db.object_ids) == ["o0", "o1", "p0", "p1"]
    again.shutdown()


# -- damage that is not a torn tail gets a typed error ----------------------
DEEP = b"[" * 200_000  # 200 kB: nests past any JSON parser's depth


@pytest.mark.parametrize("journal", JOURNALS)
@pytest.mark.parametrize("terminated", [True, False])
def test_deeply_nested_garbage_tail_is_a_torn_tail(
    journal, terminated, tmp_path
):
    journal.write(str(tmp_path), ORIGINAL)
    path = tmp_path / journal.filename
    with open(path, "ab") as handle:
        handle.write(DEEP + (b"\n" if terminated else b""))
    assert journal.read(str(tmp_path), repair=True) == ORIGINAL
    journal.write(str(tmp_path), LATER)
    assert journal.read(str(tmp_path), repair=True) == ORIGINAL + LATER


@pytest.mark.parametrize("journal", JOURNALS)
def test_deeply_nested_garbage_before_a_record_is_corruption(
    journal, tmp_path
):
    journal.write(str(tmp_path), ORIGINAL)
    path = tmp_path / journal.filename
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2] + [DEEP + b"\n"] + lines[2:]))
    with pytest.raises(WalCorruptionError):
        journal.read(str(tmp_path), repair=True)


@pytest.mark.parametrize(
    "damage",
    [b"{not json", b"[1, 2, 3]", b"null", b"17", b"\xff\xfe", b"", DEEP],
    ids=["torn", "list", "null", "number", "not-utf8", "empty", "deep"],
)
@pytest.mark.parametrize("journal", JOURNALS)
def test_corrupt_checkpoint_is_a_typed_error(journal, damage, tmp_path):
    """A checkpoint lands by atomic replace, so a damaged one is never a
    crash artifact: same typed error as a corrupt log line."""
    journal.write(str(tmp_path), ORIGINAL)
    (tmp_path / journal.checkpoint).write_bytes(damage)
    with pytest.raises(WalCorruptionError):
        journal.read(str(tmp_path), repair=True)


def test_recover_without_a_directory_is_an_empty_database(tmp_path):
    db, log = recover(str(tmp_path / "never-written"))
    assert log.updates == [] and db.last_update_time == -math.inf
    assert load_server_state(str(tmp_path / "never-written")) == (None, [])


# -- arbitrary bytes (hypothesis) -------------------------------------------
def _pristine(journal):
    """``(log bytes, decoded records)`` of a clean log of ORIGINAL."""
    with tempfile.TemporaryDirectory() as directory:
        journal.write(directory, ORIGINAL)
        with open(os.path.join(directory, journal.filename), "rb") as handle:
            return handle.read(), _load(journal, directory, False)[1]


def _load(journal, directory, repair):
    return journal.cls.load(directory, repair, journal.decode)


PRISTINE = {journal: _pristine(journal) for journal in JOURNALS}


def _is_record(chunk: bytes, decode) -> bool:
    """The oracle's reading of one newline-terminated chunk."""
    try:
        decode(json.loads(chunk.decode("utf-8")))
    except Exception:
        return False
    return True


@pytest.mark.parametrize("journal", JOURNALS)
@settings(max_examples=150)
@given(suffix=st.binary(max_size=120), repair=st.booleans())
@example(suffix=b'{"seq": 9, "op": "update"}', repair=True)
@example(suffix=b'{"seq": 9, "op": "update"}\n', repair=True)
@example(suffix=b"\xff\n\n{]\n  ", repair=False)
def test_any_bytes_after_a_valid_log_leave_its_records(
    journal, suffix, repair
):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, journal.filename)
        with open(path, "wb") as handle:
            handle.write(PRISTINE[journal][0] + suffix)
        terminated = suffix.split(b"\n")[:-1]
        extra = [c for c in terminated if _is_record(c, journal.decode)]
        try:
            _, records = _load(journal, directory, repair)
        except WalCorruptionError:
            # Only when the suffix itself holds an intact record
            # behind a garbled line.
            assert extra
            return
        assert records[: len(ORIGINAL)] == PRISTINE[journal][1]
        assert len(ORIGINAL) <= len(records) <= len(ORIGINAL) + len(extra)
        if repair and not extra:
            journal.write(directory, LATER)
            with open(path, "rb") as handle:
                assert handle.read().endswith(b"\n")
            assert journal.read(directory, True) == ORIGINAL + LATER


@pytest.mark.parametrize("journal", JOURNALS)
@settings(max_examples=150)
@given(
    junk=st.binary(min_size=1, max_size=120),
    before=st.integers(0, len(ORIGINAL) - 1),
    repair=st.booleans(),
)
def test_any_bytes_before_an_intact_record_are_corruption(
    journal, junk, before, repair
):
    chunks = junk.split(b"\n")
    assume(
        any(c.strip() and not _is_record(c, journal.decode) for c in chunks)
    )
    lines = PRISTINE[journal][0].splitlines(keepends=True)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, journal.filename)
        with open(path, "wb") as handle:
            handle.write(
                b"".join(lines[:before] + [junk + b"\n"] + lines[before:])
            )
        size = os.path.getsize(path)
        with pytest.raises(WalCorruptionError):
            _load(journal, directory, repair)
        assert os.path.getsize(path) == size  # never "repaired" away


@pytest.mark.parametrize("journal", JOURNALS)
@settings(max_examples=150)
@given(raw=st.binary(max_size=200))
@example(raw=b"{}")
@example(raw=b'{"seq": 2}')
@example(raw=b"NaN")
def test_any_bytes_as_the_checkpoint_load_or_raise_typed(journal, raw):
    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, journal.checkpoint), "wb") as handle:
            handle.write(raw)
        try:
            checkpoint, records = _load(journal, directory, True)
        except WalCorruptionError:
            return
        assert isinstance(checkpoint, dict) and records == []
