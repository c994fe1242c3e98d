"""Immutable undirected simple graphs, node sets, and selection matrices.

Nodes are identified by the integers ``1..n`` in every public interface.
Graphs are simple: no self-loops, no parallel edges. All types in this
module are immutable after construction and safe to share across threads.

Each value is checked once, where it enters from outside: public
constructors check their fields, and a value the library has just built,
valid by construction, goes through :func:`_built`, which checks nothing.

The JSON formats defined here are shared by every other module:
graphs are ``{"n": <int>, "edges": [[i, j], ...]}``, node sets are plain
JSON arrays of ints.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from functools import cached_property
from itertools import filterfalse
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError

__all__ = [
    "Graph",
    "NodeSet",
    "selection_matrix",
    "graph_from_json",
    "nodeset_from_json",
]


def _integral(value, what: str) -> int:
    """``value`` as an int; InputError unless it is an integral number."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be an integer, got {value!r}") from None
    # Rejects 1.5, "3" and True (which equals 1); 2.0 passes as 2.
    if i != value or isinstance(value, (bool, np.bool_)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return i


def _built(cls, **fields):
    """A ``cls`` with ``fields`` set as given, through no constructor and no
    check: only for values the library has built, valid by construction."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _nodes_within(s: Iterable[int], n: int) -> NodeSet:
    """``s`` as a NodeSet; InputError unless every member is at most ``n``."""
    ns = s if isinstance(s, NodeSet) else NodeSet(s)
    if ns.members and ns.members[-1] > n:
        raise InputError(f"node {ns.members[-1]} outside 1..{n}")
    return ns


class NodeSet:
    """An ascending, duplicate-free collection of 1-based node identifiers.

    Used for every node subset in the package: input nodes, output nodes,
    initially-black sets, derived sets, reconstruction targets.

    ``NodeSet(iterable)`` validates: every member must be an integral id of
    at least 1, and duplicates collapse. The library builds sets whose ids
    are valid by construction, such as a scan of ``range(1, n + 1)`` or a
    filter of an existing NodeSet, through :func:`_built`.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[int] = ()):
        seen = set()
        for m in members:
            node = m if type(m) is int else _integral(m, "node id")
            if node < 1:
                raise InputError(f"node identifiers are 1-based, got {node}")
            seen.add(node)
        self.members: tuple[int, ...] = tuple(sorted(seen))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node: object) -> bool:
        members = self.members
        try:
            i = bisect_left(members, node)
        except TypeError:  # not comparable with ints, so not a member
            return False
        return i < len(members) and members[i] == node

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeSet):
            return self.members == other.members
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"NodeSet({list(self.members)})"

    def union(self, other: Iterable[int]) -> "NodeSet":
        return NodeSet(self.members + tuple(other))

    def intersection(self, other: Iterable[int]) -> "NodeSet":
        return _built(NodeSet, members=tuple(filter(frozenset(other).__contains__, self.members)))

    def difference(self, other: Iterable[int]) -> "NodeSet":
        drop = frozenset(other)
        return _built(NodeSet, members=tuple(filterfalse(drop.__contains__, self.members)))

    def issubset(self, other: Iterable[int]) -> bool:
        return frozenset(self.members) <= frozenset(other)

    def to_json(self) -> list[int]:
        return list(self.members)


class Graph:
    """Undirected simple graph over nodes ``1..n``.

    Parameters
    ----------
    n : int
        Number of nodes; InputError if its row table cannot be allocated.
    edges : iterable of (int, int)
        Unordered node pairs. Duplicates (in either orientation) collapse
        to a single edge; self-loops are rejected. The build is linear for
        sorted input and O(m log m) otherwise; an ascending ``tuple`` of
        two ``int`` is kept as the stored edge, not copied.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), *,
                 _loops: list[int] | None = None):
        n = _integral(n, "node count")
        if n < 0:
            raise InputError(f"node count must be non-negative, got {n}")
        self.n = n
        try:  # one allocation for the whole row table, so a huge n fails at once
            adj: list[list[int]] = [[] for _ in [None] * (n + 1)]
        except (MemoryError, OverflowError):
            raise InputError(f"node count n is too large: {n}") from None

        canonical = []
        for pair in edges:
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise InputError(f"edge {pair!r} is not a pair of nodes") from None
            if type(i) is not int or type(j) is not int:
                i = _integral(i, "edge endpoint")
                j = _integral(j, "edge endpoint")
                pair = (i, j)
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError(f"edge ({i},{j}) has an endpoint outside 1..{n}")
            if i == j:
                if _loops is None:
                    raise InputError(f"self-loop ({i},{i}) not allowed in a simple graph")
                _loops.append(i)  # graph_from_json strips loops
                continue
            if i > j or type(pair) is not tuple:
                pair = (i, j) if i < j else (j, i)
            canonical.append(pair)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(dict.fromkeys(canonical)))

        # Row v gets its smaller neighbours from edges (i, v), then its
        # larger ones from edges (v, j); the sorted edge list yields both
        # runs ascending, so every row comes out ascending.
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        # Every node's sorted neighbour tuple, indexed by node id; entry 0 is empty.
        self.neighbour_rows: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))

    # -- basic queries ----------------------------------------------------

    def check_nodes(self, s: Iterable[int]) -> NodeSet:
        """Validate every member of ``s`` against this graph's node range."""
        return _nodes_within(s, self.n)

    @property
    def nodes(self) -> NodeSet:
        return _built(NodeSet, members=tuple(range(1, self.n + 1)))

    @cached_property
    def edge_index(self) -> np.ndarray:
        """Read-only ``(m, 2)`` array of 0-based edge ends, in ``edges`` order."""
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2) - 1
        ends.setflags(write=False)
        return ends

    def components(self) -> list[NodeSet]:
        """Connected components, each as a NodeSet, ordered by smallest member."""
        nbrs = self.neighbour_rows
        seen = bytearray(self.n + 1)
        out: list[NodeSet] = []
        start = seen.find(0, 1)  # smallest node not yet in a component
        while start != -1:
            seen[start] = 1
            comp = [start]
            for u in comp:  # BFS: the list grows while it is walked
                for w in nbrs[u]:
                    if not seen[w]:
                        seen[w] = 1
                        comp.append(w)
            comp.sort()
            out.append(_built(NodeSet, members=tuple(comp)))
            start = seen.find(0, start + 1)
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Graph):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


def selection_matrix(n: int, s: Iterable[int]) -> np.ndarray:
    """0/1 matrix picking out the columns of a node subset.

    Column ``j`` is the standard basis vector of the ``j``-th smallest
    member of ``s``, so the result has shape ``(n, len(s))`` and satisfies
    ``P.T @ P == I``. Row selection for output nodes is its transpose.
    """
    ns = _nodes_within(s, n)
    mat = np.zeros((n, len(ns)), dtype=float)
    for col, node in enumerate(ns):
        mat[node - 1, col] = 1.0
    return mat


def graph_from_json(obj: dict) -> Graph:
    """Build a Graph from the shared JSON format.

    Self-loops in the input are stripped with a warning rather than
    rejected: diagonal entries of network matrices are unconstrained, so
    a loop carries no extra information. :class:`Graph` checks every
    pair once, loops included, and reports the first invalid one in
    input order.
    """
    if not isinstance(obj, dict) or "n" not in obj:
        raise InputError('graph JSON must be an object with keys "n" and "edges"')
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, (list, tuple)):
        raise InputError(f'graph JSON "edges" must be an array of pairs, got {raw_edges!r}')
    loops: list[int] = []
    g = Graph(obj["n"], raw_edges, _loops=loops)
    if loops:
        warnings.warn(f"stripped {len(loops)} self-loop(s); diagonal weights are free anyway",
                      stacklevel=2)
    return g


def nodeset_from_json(obj: list) -> NodeSet:
    """Build a NodeSet from a JSON array of ints."""
    if not isinstance(obj, list):
        raise InputError("node set JSON must be an array of ints")
    return NodeSet(obj)
