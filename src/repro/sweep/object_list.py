"""The object list ``L``: a treap over the current curve order.

Lemma 9 asks for a balanced binary search tree over the objects sorted
by the precedence relation, supporting O(log N) insertion and deletion.
We use a treap (randomized balance) augmented with

- *subtree sizes*, giving O(log N) ``rank`` and ``at_rank`` queries
  (needed by the k-NN view to locate the answer boundary), and
- *doubly-linked neighbor pointers* on the entries themselves, giving
  O(1) access to the immediate neighbors that intersection detection
  revolves around (Lemma 7).

The tree is ordered by curve value at the *current sweep time*.  After
the initial insertion the order is maintained purely structurally: an
intersection event exchanges two adjacent entries by swapping node
payloads in O(1), so the stored order always equals the precedence
relation even while float values sit inside a crossing's tolerance
window.  A capped engine (one that serves rank readings only) keeps its
lowest ``K`` entries here: it cuts the rest off once (``truncate``),
and moves entries across rank ``K`` structurally (``replace``,
``append``), never by key.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.sweep.curves import CurveEntry


class _Node:
    __slots__ = ("entry", "priority", "left", "right", "parent", "size")

    def __init__(self, entry: CurveEntry, priority: float) -> None:
        self.entry = entry
        self.priority = priority
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.parent: Optional[_Node] = None
        self.size = 1


def _size(node: Optional[_Node]) -> int:
    return node.size if node is not None else 0


def order_key(entry: CurveEntry, t: float) -> tuple:
    """The order's key for ``entry`` at ``t`` (see :meth:`SweepOrder.insert`):
    the forward Taylor expansion, then the entry sequence number.  Every
    reading that places a curve by key — the order's insert, a capped
    engine's tournament — compares these and nothing else."""
    return (*entry.curve.forward_taylor(t), entry.seq)


class SweepOrder:
    """The ordered list of curve entries along the sweep line."""

    def __init__(self, seed: int = 0x5EED) -> None:
        self._root: Optional[_Node] = None
        self._rng = random.Random(seed)
        self._first: Optional[CurveEntry] = None
        self._last: Optional[CurveEntry] = None
        #: Primitive operation counters: every counted step is one
        #: O(1) tree move, so sums of these are the quantities the
        #: paper's O(log N)-per-operation claims bound.  Plain ints,
        #: always on (same philosophy as ``SweepStats``).
        self.descend_steps = 0  # comparisons while descending in insert
        self.rotations = 0  # rebalancing rotations (insert + delete)
        self.rank_steps = 0  # parent/child hops in rank()/at_rank()

    def operation_counts(self) -> dict:
        """Snapshot of the treap's primitive operation counters."""
        return {
            "order_descend_steps": self.descend_steps,
            "order_rotations": self.rotations,
            "order_rank_steps": self.rank_steps,
        }

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return _size(self._root)

    @property
    def is_empty(self) -> bool:
        """True when no entries are stored."""
        return self._root is None

    @property
    def first(self) -> Optional[CurveEntry]:
        """Lowest entry (rank 0), or None when empty."""
        return self._first

    @property
    def last(self) -> Optional[CurveEntry]:
        """Highest entry, or None when empty."""
        return self._last

    def __iter__(self) -> Iterator[CurveEntry]:
        entry = self._first
        while entry is not None:
            yield entry
            entry = entry.next

    def __contains__(self, entry: CurveEntry) -> bool:
        return entry.node is not None and self._owns(entry.node)

    def _owns(self, node: _Node) -> bool:
        while node.parent is not None:
            node = node.parent
        return node is self._root

    def entries(self) -> List[CurveEntry]:
        """All entries in precedence order."""
        return list(self)

    def rank(self, entry: CurveEntry) -> int:
        """Zero-based rank of ``entry`` in the order, in O(log N)."""
        node = entry.node
        if node is None:
            raise KeyError(f"{entry!r} is not in the order")
        rank = _size(node.left)
        steps = 0
        while node.parent is not None:
            steps += 1
            if node.parent.right is node:
                rank += _size(node.parent.left) + 1
            node = node.parent
        self.rank_steps += steps
        return rank

    def at_rank(self, rank: int) -> CurveEntry:
        """Entry at a zero-based rank, in O(log N)."""
        if rank < 0 or rank >= len(self):
            raise IndexError(f"rank {rank} out of range [0, {len(self)})")
        node = self._root
        while True:
            self.rank_steps += 1
            left = _size(node.left)
            if rank < left:
                node = node.left
            elif rank == left:
                return node.entry
            else:
                rank -= left + 1
                node = node.right

    # -- mutation -------------------------------------------------------------
    def insert(self, entry: CurveEntry, t: float) -> None:
        """Insert ``entry`` at its order position at time ``t``.

        The comparison key is the curve's *forward Taylor expansion* at
        ``t`` (value, then successive right-derivatives): exact value
        ties are broken by the order that holds immediately after ``t``,
        which keeps the list consistent with the first-nonzero-sign
        convention the intersection scheduler relies on.  (This also
        makes re-insertion at curve discontinuities use the post-jump
        value automatically.)  Full ties — curves identical near ``t``
        — fall back to the entry sequence number; any order among those
        is correct.
        """
        if entry.node is not None:
            raise ValueError(f"{entry!r} already in an order")
        node = _Node(entry, self._rng.random())
        entry.node = node
        key = order_key(entry, t)
        if self._root is None:
            self._root = node
            self._first = self._last = entry
            entry.prev = entry.next = None
            return
        current = self._root
        pred: Optional[CurveEntry] = None
        succ: Optional[CurveEntry] = None
        while True:
            self.descend_steps += 1
            other = current.entry
            if key < order_key(other, t):
                succ = other
                if current.left is None:
                    current.left = node
                    break
                current = current.left
            else:
                pred = other
                if current.right is None:
                    current.right = node
                    break
                current = current.right
        self._attach(node, current, pred, succ)

    def append(self, entry: CurveEntry) -> None:
        """Insert ``entry`` after the last entry, comparing no keys.

        For an entry known to rank right above everything in the order
        (a capped engine's champion, promoted when a member departs).
        """
        if entry.node is not None:
            raise ValueError(f"{entry!r} already in an order")
        node = _Node(entry, self._rng.random())
        entry.node = node
        current = self._root
        if current is None:
            self._root = node
            self._first = self._last = entry
            entry.prev = entry.next = None
            return
        self.descend_steps += 1
        while current.right is not None:
            self.descend_steps += 1
            current = current.right
        current.right = node
        self._attach(node, current, self._last, None)

    def replace(self, old: CurveEntry, new: CurveEntry) -> None:
        """Put ``new`` where ``old`` is, in O(1): ``new`` takes ``old``'s
        tree node and list position, ``old`` leaves the order."""
        node = old.node
        if node is None:
            raise KeyError(f"{old!r} is not in the order")
        if new.node is not None:
            raise ValueError(f"{new!r} already in an order")
        node.entry, new.node, old.node = new, node, None
        self._link(new, old.prev, old.next)
        old.prev = old.next = None

    def truncate(self, k: int) -> List[CurveEntry]:
        """Remove every entry at rank ``>= k``; return them lowest first.

        One treap split along the path to rank ``k`` (each hop a counted
        rank step): the subtrees hanging right of the cut are dropped
        whole, so no rotation is paid per removed entry.
        """
        if len(self) <= k:
            return []
        # Descend by rank: a node at rank >= k goes with its right
        # subtree; one below stays with its left subtree and takes, as
        # its right child, the next node that stays.
        kept: List[_Node] = []
        node, rest = self._root, k
        self._root = None
        while rest > 0:
            self.rank_steps += 1
            left = _size(node.left)
            if rest <= left:
                node = node.left
                continue
            parent = kept[-1] if kept else None
            if parent is None:
                self._root = node
            else:
                parent.right = node
            node.parent = parent
            kept.append(node)
            rest -= left + 1
            right, node.right = node.right, None
            node = right
        for node in reversed(kept):
            node.size = 1 + _size(node.left) + _size(node.right)
        # The highest node kept is the new last entry.
        last = kept[-1].entry if kept else None
        tail: List[CurveEntry] = []
        entry = self._first if last is None else last.next
        while entry is not None:
            tail.append(entry)
            following = entry.next
            entry.node = entry.prev = entry.next = None
            entry = following
        if last is None:
            self._first = None
        else:
            last.next = None
        self._last = last
        return tail

    def delete(self, entry: CurveEntry) -> None:
        """Remove ``entry`` from the order in O(log N)."""
        node = entry.node
        if node is None:
            raise KeyError(f"{entry!r} is not in the order")
        # Rotate the node down to a leaf, then detach.
        while node.left is not None or node.right is not None:
            if node.left is None:
                child = node.right
            elif node.right is None:
                child = node.left
            else:
                child = (
                    node.left
                    if node.left.priority > node.right.priority
                    else node.right
                )
            self._rotate_up(child)
        parent = node.parent
        if parent is None:
            self._root = None
        elif parent.left is node:
            parent.left = None
        else:
            parent.right = None
        walk = parent
        while walk is not None:
            walk.size -= 1
            walk = walk.parent
        entry.node = None
        self._unlink(entry)

    def swap_adjacent(self, below: CurveEntry, above: CurveEntry) -> None:
        """Exchange two adjacent entries in O(1).

        ``below`` must immediately precede ``above``; afterwards
        ``above`` precedes ``below`` — the adjacent transposition an
        intersection event performs.
        """
        if below.next is not above:
            raise ValueError(
                f"{below!r} does not immediately precede {above!r}"
            )
        node_b, node_a = below.node, above.node
        node_b.entry, node_a.entry = above, below
        below.node, above.node = node_a, node_b
        # Relink the doubly-linked list: p, below, above, s -> p, above, below, s
        p = below.prev
        s = above.next
        if p is not None:
            p.next = above
        else:
            self._first = above
        above.prev = p
        above.next = below
        below.prev = above
        below.next = s
        if s is not None:
            s.prev = below
        else:
            self._last = below

    # -- internals --------------------------------------------------------------
    def _attach(
        self,
        node: _Node,
        parent: _Node,
        pred: Optional[CurveEntry],
        succ: Optional[CurveEntry],
    ) -> None:
        """Finish an insertion below ``parent`` (the child link is set)."""
        node.parent = parent
        walk = parent
        while walk is not None:
            walk.size += 1
            walk = walk.parent
        self._bubble_up(node)
        self._link(node.entry, pred, succ)

    def _link(self, entry: CurveEntry, pred: Optional[CurveEntry], succ: Optional[CurveEntry]) -> None:
        entry.prev = pred
        entry.next = succ
        if pred is not None:
            pred.next = entry
        else:
            self._first = entry
        if succ is not None:
            succ.prev = entry
        else:
            self._last = entry

    def _unlink(self, entry: CurveEntry) -> None:
        if entry.prev is not None:
            entry.prev.next = entry.next
        else:
            self._first = entry.next
        if entry.next is not None:
            entry.next.prev = entry.prev
        else:
            self._last = entry.prev
        entry.prev = entry.next = None

    def _bubble_up(self, node: _Node) -> None:
        while node.parent is not None and node.priority > node.parent.priority:
            self._rotate_up(node)

    def _rotate_up(self, node: _Node) -> None:
        self.rotations += 1
        parent = node.parent
        grand = parent.parent
        if parent.left is node:
            parent.left = node.right
            if node.right is not None:
                node.right.parent = parent
            node.right = parent
        else:
            parent.right = node.left
            if node.left is not None:
                node.left.parent = parent
            node.left = parent
        parent.parent = node
        node.parent = grand
        if grand is None:
            self._root = node
        elif grand.left is parent:
            grand.left = node
        else:
            grand.right = node
        parent.size = 1 + _size(parent.left) + _size(parent.right)
        node.size = 1 + _size(node.left) + _size(node.right)

    # -- test hooks ----------------------------------------------------------------
    def _validate(self) -> None:
        """Assert structural invariants (tests only)."""
        seen: List[CurveEntry] = []

        def walk(node: Optional[_Node], parent: Optional[_Node]) -> int:
            if node is None:
                return 0
            assert node.parent is parent
            if parent is not None:
                assert node.priority <= parent.priority
            left = walk(node.left, node)
            seen.append(node.entry)
            right = walk(node.right, node)
            assert node.size == left + right + 1
            assert node.entry.node is node
            return node.size

        walk(self._root, None)
        assert seen == self.entries(), "in-order differs from linked list"
        if seen:
            assert self._first is seen[0] and self._last is seen[-1]
            assert self._first.prev is None and self._last.next is None

    def is_sorted_at(self, t: float, atol: float = 1e-7) -> bool:
        """Check the order agrees with curve values at time ``t``."""
        values = [e.value(t) for e in self if e.defined_at(t)]
        return all(a <= b + atol for a, b in zip(values, values[1:]))
