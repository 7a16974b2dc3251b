"""Request-id replay is bounded by a count, not by time.

``QueryServer`` keeps the last ``REPLY_RETENTION`` (1,024) mutating
responses across all clients, while ``RemoteQueryClient`` resends a
request only after its 5 s timeout.  Above about 205 mutating requests
per second a retried id finds its reply evicted and the verb runs
again.  The bound stays a count: the replies ride in every server
snapshot, so keeping 5 s of them would grow the snapshot that recovery
reads.
"""

import time

import pytest

from repro.core.api import serve
from repro.server.server import REPLY_RETENTION
from repro.workloads.generator import random_linear_mod


@pytest.mark.xfail(
    strict=True,
    reason="not met: replies are evicted by count (REPLY_RETENTION = "
    "1,024), and 1,025 newer replies inside one second evict one a "
    "client would still retry",
)
def test_a_retry_inside_the_resend_window_still_replays():
    server = serve(random_linear_mod(4, seed=1))
    first = {"ok": True, "result": {"session": 1}}
    started = time.monotonic()
    server.remember_reply("first", first)
    for n in range(REPLY_RETENTION + 1):
        server.remember_reply(f"later-{n}", {"ok": True, "result": n})
    assert time.monotonic() - started < 1.0
    assert server.reply("first") == first
