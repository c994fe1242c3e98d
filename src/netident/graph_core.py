"""Immutable undirected simple graphs, node sets, and selection matrices.

Nodes are identified by the integers ``1..n`` in every public interface.
Graphs are simple: no self-loops, no parallel edges. All types in this
module are immutable after construction and safe to share across threads.

The JSON formats defined here are shared by every other module:
graphs are ``{"n": <int>, "edges": [[i, j], ...]}``, node sets are plain
JSON arrays of ints.
"""

from __future__ import annotations

import json
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
    "InducedSubgraph",
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
    at least 1, and duplicates collapse. The private :meth:`_trusted` wraps
    a tuple without any check; it is only for ids that are valid by
    construction, such as a scan of ``range(1, n + 1)`` or a filter of an
    existing NodeSet.
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

    @classmethod
    def _trusted(cls, members: tuple[int, ...]) -> "NodeSet":
        """Wrap ``members``, already ascending, distinct and 1-based, unchecked."""
        ns = object.__new__(cls)
        ns.members = members
        return ns

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

    def index(self, node: int) -> int:
        """Position of ``node`` in the ascending member list (0-based)."""
        if node not in self:
            raise InputError(f"node {node} is not a member of {self!r}")
        return bisect_left(self.members, node)

    def union(self, other: Iterable[int]) -> "NodeSet":
        return NodeSet(self.members + tuple(other))

    def intersection(self, other: Iterable[int]) -> "NodeSet":
        keep = frozenset(other)
        return NodeSet._trusted(tuple(filter(keep.__contains__, self.members)))

    def difference(self, other: Iterable[int]) -> "NodeSet":
        drop = frozenset(other)
        return NodeSet._trusted(tuple(filterfalse(drop.__contains__, self.members)))

    def issubset(self, other: Iterable[int]) -> bool:
        return frozenset(self.members) <= frozenset(other)

    def to_json(self) -> list[int]:
        return list(self.members)


class Graph:
    """Undirected simple graph over nodes ``1..n``.

    Parameters
    ----------
    n : int
        Number of nodes.
    edges : iterable of (int, int)
        Unordered node pairs. Duplicates (in either orientation) collapse
        to a single edge; self-loops are rejected.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = _integral(n, "node count")
        if n < 0:
            raise InputError(f"node count must be non-negative, got {n}")
        self.n = n

        canonical = set()
        for pair in edges:
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise InputError(f"edge {pair!r} is not a pair of nodes") from None
            if type(i) is not int:
                i = _integral(i, "edge endpoint")
            if type(j) is not int:
                j = _integral(j, "edge endpoint")
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError(f"edge ({i},{j}) has an endpoint outside 1..{n}")
            if i == j:
                raise InputError(f"self-loop ({i},{i}) not allowed in a simple graph")
            canonical.add((i, j) if i < j else (j, i))
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canonical))

        # Row v gets its smaller neighbours from edges (i, v), then its
        # larger ones from edges (v, j); the sorted edge list yields both
        # runs ascending, so every row comes out ascending.
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        self._neighbour_ids: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))

    # -- basic queries ----------------------------------------------------

    def _check_node(self, i: int) -> int:
        if type(i) is not int:
            i = _integral(i, "node id")
        if not (1 <= i <= self.n):
            raise InputError(f"node {i} outside 1..{self.n}")
        return i

    def check_nodes(self, s: Iterable[int]) -> NodeSet:
        """Validate every member of ``s`` against this graph's node range."""
        return _nodes_within(s, self.n)

    def neighbour_ids(self, i: int) -> tuple[int, ...]:
        """Neighbours of ``i`` as a plain sorted tuple (fast path)."""
        return self._neighbour_ids[self._check_node(i)]

    @property
    def neighbour_rows(self) -> tuple[tuple[int, ...], ...]:
        """Every node's sorted neighbour tuple, indexed by node id.

        Entry 0 is empty. For loops over many nodes: unlike
        :meth:`neighbour_ids`, no per-node range check.
        """
        return self._neighbour_ids

    def degree(self, i: int) -> int:
        return len(self.neighbour_ids(i))

    def has_edge(self, i: int, j: int) -> bool:
        self._check_node(j)
        return j in self._neighbour_ids[self._check_node(i)]

    @property
    def nodes(self) -> NodeSet:
        return NodeSet._trusted(tuple(range(1, self.n + 1)))

    @cached_property
    def edge_index(self) -> np.ndarray:
        """Read-only ``(m, 2)`` array of 0-based edge ends, in ``edges`` order."""
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2) - 1
        ends.setflags(write=False)
        return ends

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Bitset adjacency rows: bit ``j-1`` of entry ``i`` marks edge {i,j}.

        Entry 0 is unused. Built lazily; the subset-search code in
        ``zero_forcing`` is the main consumer.
        """
        rows = [0] * (self.n + 1)
        for i, j in self.edges:
            rows[i] |= 1 << (j - 1)
            rows[j] |= 1 << (i - 1)
        return tuple(rows)

    def components(self) -> list[NodeSet]:
        """Connected components, each as a NodeSet, ordered by smallest member."""
        nbrs = self._neighbour_ids
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
            out.append(NodeSet._trusted(tuple(comp)))
            start = seen.find(0, start + 1)
        return out

    # -- derived graphs ---------------------------------------------------

    def induced_subgraph(self, s: Iterable[int]) -> "InducedSubgraph":
        """Subgraph on ``s`` keeping exactly the edges with both ends in ``s``."""
        return InducedSubgraph(self, self.check_nodes(s))

    # -- identity and I/O -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Graph):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


class InducedSubgraph:
    """Induced subgraph of a parent graph on a chosen node set.

    The subgraph keeps an edge ``{i, j}`` exactly when both endpoints are
    selected and the edge exists in the parent. ``graph`` exposes the
    relabelled copy over ``1..len(nodes)``; the relabelling is always by
    ascending original id, so it is deterministic.
    """

    def __init__(self, parent: Graph, nodes: NodeSet):
        self.parent = parent
        self.nodes = parent.check_nodes(nodes)

    @cached_property
    def to_sub(self) -> dict[int, int]:
        """Original node id -> 1-based id in the relabelled subgraph."""
        return {orig: k + 1 for k, orig in enumerate(self.nodes)}

    @cached_property
    def to_parent(self) -> tuple[int, ...]:
        """1-based subgraph id -> original node id (index 0 unused)."""
        return (0,) + self.nodes.members

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges in original node ids, both ends inside ``nodes``.

        Read from the members' neighbour rows, so the cost follows the
        members' degrees, not the parent's edge count.
        """
        keep = frozenset(self.nodes)
        rows = self.parent.neighbour_rows
        return tuple((i, j) for i in self.nodes for j in rows[i] if j > i and j in keep)

    @cached_property
    def graph(self) -> Graph:
        """The relabelled subgraph over ``1..len(nodes)``."""
        m = self.to_sub
        return Graph(len(self.nodes), [(m[i], m[j]) for i, j in self.edges])

    def __repr__(self) -> str:
        return f"InducedSubgraph(nodes={list(self.nodes)}, edges={len(self.edges)})"


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


def graph_from_json(obj: dict | str) -> Graph:
    """Build a Graph from the shared JSON format.

    Self-loops in the input are stripped with a warning rather than
    rejected: diagonal entries of network matrices are unconstrained, so
    a loop carries no extra information.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "n" not in obj:
        raise InputError('graph JSON must be an object with keys "n" and "edges"')
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, (list, tuple)):
        raise InputError(f'graph JSON "edges" must be an array of pairs, got {raw_edges!r}')
    edges = []
    loops = 0
    for pair in raw_edges:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise InputError(f"edge entry {pair!r} is not a pair of ints")
        i, j = (_integral(v, "edge endpoint") for v in pair)
        if i == j:
            loops += 1
            continue
        edges.append((i, j))
    if loops:
        warnings.warn(
            f"stripped {loops} self-loop(s); diagonal weights are free anyway",
            stacklevel=2,
        )
    return Graph(obj["n"], edges)


def nodeset_from_json(obj: list | str) -> NodeSet:
    """Build a NodeSet from a JSON array of ints."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, list):
        raise InputError("node set JSON must be an array of ints")
    return NodeSet(obj)
