"""The kinetic tournament: every curve a rank reading never reads.

A rank reading (k-NN, several k at once) reads ranks ``< K`` of the
precedence relation and nothing else, so a capped engine keeps only the
``K`` lowest curves in its :class:`~repro.sweep.object_list.SweepOrder`
and holds every other curve — the *outsiders* — here: a balanced tree
over the outsiders (Basch–Guibas–Hershberger's kinetic tournament).
Each internal node holds the lower of its two children's winners and
one *certificate*, the first flip of those two winners, scheduled in
the engine's event queue under the pair's own key.  The root's winner —
the *champion* — is the curve at rank ``K`` of the full order.

Two curves that cross are adjacent in the full order at that instant,
so a certificate that fires is a swap of the full order: the loser
becomes the node's winner, and the nodes above that held the old winner
now hold the new one (structurally — no key is read).  Keys are read
only where a curve arrives or departs, and they are the order's own
(:func:`~repro.sweep.object_list.order_key`: forward Taylor expansion,
then sequence number), so exact ties break in database insertion order
exactly as an insertion into the full order would.

The tree is an array over ``2 * capacity`` slots: node ``u`` has
children ``2u`` and ``2u + 1``, leaves are ``[capacity, 2 capacity)``,
the root is node ``1``.  An outsider's leaf index is kept on its entry
(``CurveEntry.leaf``).  A full tree doubles (the old tree becomes the
new root's left subtree); an emptied leaf is reused.

This module decides *which* pairs are certified; the engine computes
each certificate (``schedule(below, above, just_swapped)``) and drops it
(``drop(a, b)``), so every flip test is the engine's.  Every node the
tournament visits — building, climbing, copying into a doubled tree —
is one counted step (``steps``), which the engine books as an order
rank step: the tree's work is primitive work like the treap's.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.sweep.curves import CurveEntry
from repro.sweep.object_list import order_key

Schedule = Callable[..., None]
Drop = Callable[[CurveEntry, CurveEntry], None]


class KineticTournament:
    """A kinetic tournament over the outsiders of a capped order.

    ``entries`` are the outsiders in precedence order (lowest first).
    The tree is built structurally — a node's winner is the child winner
    of lower rank — and the engine's pending event for each *leaf* pair
    ``(entries[2j], entries[2j + 1])`` (adjacent in the order they came
    from) already is that pair's certificate: only the nodes above the
    leaves are certified here.
    """

    def __init__(
        self, entries: Sequence[CurveEntry], schedule: Schedule, drop: Drop
    ) -> None:
        self._schedule = schedule
        self._drop = drop
        capacity = 1
        while capacity < len(entries):
            capacity *= 2
        self._capacity = capacity
        #: Nodes visited (one O(1) step each), building included.
        self.steps = capacity - 1
        self._win: List[Optional[CurveEntry]] = [None] * (2 * capacity)
        self._lose: List[Optional[CurveEntry]] = [None] * capacity
        for i, entry in enumerate(entries):
            self._win[capacity + i] = entry
            entry.leaf = capacity + i
        # Free leaves as a stack; the lowest index is handed out first.
        self._free = list(range(2 * capacity - 1, capacity + len(entries) - 1, -1))
        win, lose = self._win, self._lose
        for u in range(capacity - 1, 0, -1):
            a, b = win[2 * u], win[2 * u + 1]
            win[u] = b if a is None else a
            if a is not None and b is not None:
                lose[u] = b
                if 2 * u < capacity:
                    schedule(a, b)

    # -- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return self._capacity - len(self._free)

    @property
    def champion(self) -> Optional[CurveEntry]:
        """The lowest outsider (rank ``K`` of the full order), if any."""
        return self._win[1]

    def pairs(self) -> Iterator[Tuple[CurveEntry, CurveEntry]]:
        """Every certified ``(winner, loser)`` pair, root first."""
        win, lose = self._win, self._lose
        for u in range(1, self._capacity):
            if lose[u] is not None:
                yield win[u], lose[u]

    # -- events ---------------------------------------------------------------
    def fire(self, a: CurveEntry, b: CurveEntry) -> None:
        """The certificate of ``a`` and ``b`` failed: they swapped."""
        # The node that certified them: the two leaves' (same-depth)
        # common ancestor, read off the bits where their indices differ.
        u = a.leaf >> (a.leaf ^ b.leaf).bit_length()
        steps = 1
        win, lose = self._win, self._lose
        old, new = win[u], lose[u]
        win[u], lose[u] = new, old
        self._schedule(new, old, True)
        # Every ancestor that held ``old`` now holds ``new`` (it was
        # right above ``old``); the first that did not keeps its winner
        # and certifies it against ``new`` instead.
        while u > 1:
            u >>= 1
            steps += 1
            other = lose[u]
            if win[u] is old:
                win[u] = new
                if other is not None:
                    self._drop(old, other)
                    self._schedule(new, other)
            else:
                self._drop(win[u], old)
                lose[u] = new
                self._schedule(win[u], new)
                break
        self.steps += steps

    def replace_champion(self, entry: CurveEntry) -> None:
        """A boundary swap: ``entry`` (rank ``K - 1`` until now) takes
        the champion's leaf and, being below every outsider, its place
        at every node up to the root."""
        win, lose = self._win, self._lose
        old = win[1]
        u = old.leaf
        old.leaf = None
        entry.leaf = u
        win[u] = entry
        self.steps += u.bit_length()  # the leaf and every node above it
        while u > 1:
            u >>= 1
            win[u] = entry
            other = lose[u]
            if other is not None:
                self._drop(old, other)
                self._schedule(entry, other)

    def push_min(self, entry: CurveEntry) -> None:
        """Admit ``entry``, known to lie below every outsider (it just
        left rank ``K - 1``): it wins every node on its path."""
        u = self._take_leaf(entry)
        win, lose = self._win, self._lose  # after a growth
        self.steps += u.bit_length()
        while u > 1:
            sibling = win[u ^ 1]
            u >>= 1
            if lose[u] is not None:
                self._drop(win[u], lose[u])
            win[u], lose[u] = entry, sibling
            if sibling is not None:
                self._schedule(entry, sibling)

    def insert(self, entry: CurveEntry, t: float) -> None:
        """Admit ``entry`` at time ``t`` by key."""
        self._climb(self._take_leaf(entry), t)

    def remove(self, entry: CurveEntry, t: float) -> None:
        """Let ``entry`` go at time ``t``; the nodes it won re-decide by
        key."""
        u = entry.leaf
        entry.leaf = None
        self._win[u] = None
        self._free.append(u)
        self._climb(u, t)

    def recertify(self, entry: CurveEntry) -> None:
        """``entry``'s curve was replaced continuously at the sweep
        time: the order stands, its certificates are redone."""
        win, lose = self._win, self._lose
        u = entry.leaf
        steps = 1
        while u > 1:
            u >>= 1
            steps += 1
            if win[u] is entry:
                if lose[u] is not None:
                    self._drop(entry, lose[u])
                    self._schedule(entry, lose[u])
            else:
                self._drop(win[u], entry)
                self._schedule(win[u], entry)
                break
        self.steps += steps

    # -- internals ------------------------------------------------------------
    def _climb(self, u: int, t: float) -> None:
        """The winner of node ``u`` changed: re-decide its ancestors by
        key at ``t`` while their winner changes."""
        win, lose = self._win, self._lose
        keys = {}

        def key(entry: CurveEntry):
            k = keys.get(entry.seq)
            if k is None:
                k = keys[entry.seq] = order_key(entry, t)
            return k

        steps = 1
        while u > 1:
            u >>= 1
            steps += 1
            held, other = win[u], lose[u]
            if other is not None:
                self._drop(held, other)
            a, b = win[2 * u], win[2 * u + 1]
            if a is None or b is None:
                win[u], lose[u] = (b if a is None else a), None
            else:
                if key(b) < key(a):
                    a, b = b, a
                win[u], lose[u] = a, b
                self._schedule(a, b)
            if win[u] is held:
                break
        self.steps += steps

    def _take_leaf(self, entry: CurveEntry) -> int:
        if not self._free:
            self._grow()
        u = self._free.pop()
        self._win[u] = entry
        entry.leaf = u
        return u

    def _grow(self) -> None:
        """Double a full tree: the old tree becomes the left subtree of
        a new root (node ``u`` at depth ``d`` moves to ``u + 2**d``),
        the new right half is all free leaves."""
        old = self._capacity
        capacity = 2 * old
        self.steps += 2 * old - 1  # every old node is copied once
        win: List[Optional[CurveEntry]] = [None] * (2 * capacity)
        lose: List[Optional[CurveEntry]] = [None] * capacity
        level = 1
        while level <= old:
            for u in range(level, 2 * level):
                win[u + level] = self._win[u]
                if u < old:
                    lose[u + level] = self._lose[u]
            level *= 2
        win[1] = self._win[1]
        for u in range(capacity, capacity + old):
            if win[u] is not None:
                win[u].leaf = u
        self._win, self._lose, self._capacity = win, lose, capacity
        self._free = list(range(2 * capacity - 1, capacity + old - 1, -1))

    # -- test hooks -----------------------------------------------------------
    def _validate(self, t: float) -> None:
        """Assert the tournament's invariants at sweep time ``t`` (tests
        only): leaves point back at their slots, and every internal
        node's winner is the key-min of its two children's winners."""
        win, lose, capacity = self._win, self._lose, self._capacity
        assert len(win) == 2 * capacity and len(lose) == capacity
        free = set(self._free)
        assert len(free) == len(self._free)
        for u in range(capacity, 2 * capacity):
            assert (win[u] is None) == (u in free)
            if win[u] is not None:
                assert win[u].leaf == u and win[u].node is None
        for u in range(capacity - 1, 0, -1):
            a, b = win[2 * u], win[2 * u + 1]
            if a is None or b is None:
                assert win[u] is (b if a is None else a) and lose[u] is None
                continue
            low, high = (a, b) if order_key(a, t) < order_key(b, t) else (b, a)
            assert win[u] is low and lose[u] is high, (
                f"node {u}: holds {win[u]!r} over {lose[u]!r}, keys say "
                f"{low!r} over {high!r} at t={t}"
            )
