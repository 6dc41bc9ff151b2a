"""Causal graph representation and structural operations.

A :class:`CausalGraph` is an immutable DAG whose nodes are either observable
or latent (unobservable).  Latent confounding is modelled with explicit
latent nodes, not bidirected edges.  Node identity is name-based at the API
surface and index-based internally, and every ordered output uses the
canonical index order so results are deterministic.  Scoped questions
(ancestors or c-components inside the latent subgraph over a scope) are
walks on the index adjacency; the derived graphs (edge cuts, latent
subgraphs) serve as independent references, and the engine builds only
:meth:`CausalGraph.remove_barren_latents`.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Sequence

__all__ = [
    "GraphError",
    "CycleError",
    "GraphParseError",
    "CausalGraph",
    "parse_graph_text",
]


class GraphError(ValueError):
    """Invalid graph structure or invalid node reference."""


class CycleError(GraphError):
    """The edge set admits no topological order."""

    def __init__(self, cycle: Sequence[str]):
        self.cycle = tuple(cycle)
        super().__init__("graph contains a cycle: " + " -> ".join(self.cycle + (self.cycle[0],)))


class GraphParseError(GraphError):
    """Text-format parse failure, carrying the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               bool: "a boolean", type(None): "null"}


def json_field(obj, key: str, kind: type | tuple[type, ...]):
    """``obj[key]`` of decoded JSON, checked to be of type ``kind``.

    Raises ValueError when ``obj`` is not an object, lacks ``key``, or holds
    a value of another type (a boolean is not an integer)."""
    if type(obj) is not dict:
        raise ValueError(f"expected an object, got {_JSON_TYPES.get(type(obj), 'a number')}")
    try:
        value = obj[key]
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        raise ValueError(f"{key!r} must be " + " or ".join(_JSON_TYPES[k] for k in kinds))
    return value


def json_names(obj, key: str) -> frozenset[str]:
    """``obj[key]`` of decoded JSON as a set of names; ValueError unless it
    is a list of strings."""
    names = json_field(obj, key, list)
    if not set(map(type, names)) <= {str}:
        raise ValueError(f"{key!r} must be a list of strings")
    return frozenset(names)


Names = Iterable[str]


class CausalGraph:
    """Immutable DAG over named observable and latent nodes.

    Parameters
    ----------
    nodes:
        Iterable of ``(name, observable)`` pairs.  Declaration order fixes
        the canonical node index.
    edges:
        Iterable of ``(parent_name, child_name)`` pairs.

    Raises
    ------
    GraphError
        On duplicate names, self loops, duplicate edges, or undeclared
        endpoints.
    CycleError
        If the edges admit no topological order; the detected cycle is
        reported.
    """

    __slots__ = ("_names", "_obs", "_index", "_parents", "_children", "_edges", "_topo")

    def __init__(self, nodes: Iterable[tuple[str, bool]], edges: Iterable[tuple[str, str]] = ()):
        names: list[str] = []
        obs: list[bool] = []
        index: dict[str, int] = {}
        for name, observable in nodes:
            if name in index:
                raise GraphError(f"duplicate node name {name!r}")
            index[name] = len(names)
            names.append(name)
            obs.append(bool(observable))

        parents: list[list[int]] = [[] for _ in names]
        children: list[list[int]] = [[] for _ in names]
        edge_set: set[tuple[int, int]] = set()
        for pname, cname in edges:
            if pname not in index:
                raise GraphError(f"edge references undeclared node {pname!r}")
            if cname not in index:
                raise GraphError(f"edge references undeclared node {cname!r}")
            if pname == cname:
                raise GraphError(f"self loop on node {pname!r}")
            pair = (index[pname], index[cname])
            if pair in edge_set:
                raise GraphError(f"duplicate edge {pname!r} -> {cname!r}")
            edge_set.add(pair)
            parents[pair[1]].append(pair[0])
            children[pair[0]].append(pair[1])

        self._names = tuple(names)
        self._obs = tuple(obs)
        self._index = index
        self._parents = tuple(tuple(sorted(p)) for p in parents)
        self._children = tuple(tuple(sorted(c)) for c in children)
        self._edges = frozenset(edge_set)
        self._topo = self._toposort_all()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def build(
        cls,
        observed: Names = (),
        latent: Names = (),
        edges: Iterable[tuple[str, str]] = (),
    ) -> "CausalGraph":
        """Build from separate observed/latent name lists (observed first)."""
        nodes = [(n, True) for n in observed] + [(n, False) for n in latent]
        return cls(nodes, edges)

    def _toposort_all(self) -> tuple[int, ...]:
        # Kahn's algorithm with a min-index heap: the unique order in which
        # ties are always broken by ascending node index.
        indeg = [len(p) for p in self._parents]
        heap = [i for i, d in enumerate(indeg) if d == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(heap, c)
        if len(order) != len(self._names):
            raise CycleError(self._find_cycle())
        return tuple(order)

    def _find_cycle(self) -> list[str]:
        state = [0] * len(self._names)  # 0 unseen, 1 on stack, 2 done
        stack: list[int] = []

        def dfs(v: int) -> list[int] | None:
            state[v] = 1
            stack.append(v)
            for c in self._children[v]:
                if state[c] == 1:
                    return stack[stack.index(c):]
                if state[c] == 0:
                    found = dfs(c)
                    if found is not None:
                        return found
            stack.pop()
            state[v] = 2
            return None

        for start in range(len(self._names)):
            if state[start] == 0:
                found = dfs(start)
                if found is not None:
                    return [self._names[i] for i in found]
        raise AssertionError("cycle reported but not found")

    # -- basic accessors -------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def observable_names(self) -> tuple[str, ...]:
        return tuple(n for n, o in zip(self._names, self._obs) if o)

    @property
    def latent_names(self) -> tuple[str, ...]:
        return tuple(n for n, o in zip(self._names, self._obs) if not o)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self._names[p], self._names[c]) for p, c in sorted(self._edges)
        )

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return (
            self._names == other._names
            and self._obs == other._obs
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._names, self._obs, self._edges))

    def __repr__(self) -> str:
        return (
            f"CausalGraph(observed={list(self.observable_names)}, "
            f"latent={list(self.latent_names)}, edges={list(self.edges)})"
        )

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def is_observable(self, name: str) -> bool:
        return self._obs[self.index(name)]

    def parents_of(self, name: str) -> tuple[str, ...]:
        return tuple(self._names[i] for i in self._parents[self.index(name)])

    def sorted_nodes(self, names: Names) -> tuple[str, ...]:
        """Canonical (index) order of a node-name collection."""
        idx = self._resolve(names)
        return tuple(self._names[i] for i in sorted(idx))

    def _resolve(self, names: Names) -> frozenset[int]:
        if isinstance(names, str):
            raise GraphError("expected a collection of node names, got a bare string")
        return frozenset(self.index(n) for n in names)

    def _to_names(self, idx: Iterable[int]) -> frozenset[str]:
        return frozenset(self._names[i] for i in idx)

    # -- reachability ----------------------------------------------------------

    def _closure(self, seeds: frozenset[int], step: Sequence[tuple[int, ...]]) -> set[int]:
        out = set(seeds)
        frontier = list(seeds)
        while frontier:
            v = frontier.pop()
            for u in step[v]:
                if u not in out:
                    out.add(u)
                    frontier.append(u)
        return out

    def ancestors(self, c: Names) -> frozenset[str]:
        """Union of ``c`` and every node with a directed path into ``c``."""
        return self._to_names(self._closure(self._resolve(c), self._parents))

    def descendants(self, c: Names) -> frozenset[str]:
        """Union of ``c`` and every node reachable from ``c``."""
        return self._to_names(self._closure(self._resolve(c), self._children))

    def _observables(self, c: Names, caller: str) -> frozenset[int]:
        """The indices of ``c``; GraphError naming ``caller`` if one is latent."""
        cidx = self._resolve(c)
        for i in cidx:
            if not self._obs[i]:
                raise GraphError(
                    f"{caller}() requires observable nodes, got latent {self._names[i]!r}"
                )
        return cidx

    def _up(self, seeds: frozenset[int], scope: frozenset[int] = frozenset()) -> set[int]:
        """``seeds`` and every node with a directed path into them along
        parents that are latent or in ``scope``.

        For observable ``seeds`` within ``scope`` these are their ancestors
        in the latent subgraph over ``scope``, which holds every latent
        parent of its nodes; with no ``scope``, ``seeds`` and their dup.
        """
        parents, obs = self._parents, self._obs
        out = set(seeds)
        frontier = list(seeds)
        while frontier:
            for p in parents[frontier.pop()]:
                if p not in out and (p in scope or not obs[p]):
                    out.add(p)
                    frontier.append(p)
        return out

    def dup(self, c: Names) -> frozenset[str]:
        """Latent nodes with a directed path into ``c`` whose internal nodes
        are all latent.

        ``c`` must contain observable nodes only.
        """
        cidx = self._observables(c, "dup")
        return self._to_names(self._up(cidx) - cidx)

    def _ancestors_within(self, c: Names, scope: Names) -> frozenset[str]:
        """The observable ancestors of ``c`` (within ``scope``) in the latent
        subgraph over ``scope``."""
        sidx = self._resolve(scope)
        return self._to_names(self._up(self._resolve(c), sidx) & sidx)

    # -- derived graphs ----------------------------------------------------------

    def _subgraph(self, keep: set[int]) -> "CausalGraph":
        order = sorted(keep)
        nodes = [(self._names[i], self._obs[i]) for i in order]
        kept = set(order)
        edges = [
            (self._names[p], self._names[c])
            for p, c in sorted(self._edges)
            if p in kept and c in kept
        ]
        return CausalGraph(nodes, edges)

    def latent_subgraph(self, c: Names) -> "CausalGraph":
        """Subgraph on ``c`` plus its all-latent-path parents, with every
        edge between retained nodes."""
        return self._subgraph(self._up(self._observables(c, "latent_subgraph")))

    def _keep_edges(self, keep) -> "CausalGraph":
        """The graph with the edges ``(p, c)`` (indices) that ``keep`` accepts."""
        nodes = list(zip(self._names, self._obs))
        edges = [(self._names[p], self._names[c]) for p, c in sorted(self._edges) if keep(p, c)]
        return CausalGraph(nodes, edges)

    def cut_incoming(self, x: Names) -> "CausalGraph":
        """Delete every edge pointing into a node of ``x``; nodes unchanged."""
        xidx = self._resolve(x)
        return self._keep_edges(lambda p, c: c not in xidx)

    def cut_outgoing(self, x: Names) -> "CausalGraph":
        """Delete every edge leaving a node of ``x``; nodes unchanged."""
        xidx = self._resolve(x)
        return self._keep_edges(lambda p, c: p not in xidx)

    def remove_barren_latents(self) -> "CausalGraph":
        """Drop every latent node without an observable descendant.

        The kept nodes are the ancestors of the observables, so no kept
        latent ever depends on a dropped one.
        """
        keep = self._closure(frozenset(i for i, o in enumerate(self._obs) if o), self._parents)
        if len(keep) == len(self._names):
            return self
        return self._subgraph(keep)

    # -- orders and ancestral sets -------------------------------------------

    def topo_order(self, scope: Names) -> tuple[str, ...]:
        """Topological order of ``scope``, taken as the subsequence of the
        deterministic whole-graph order (ties broken by ascending index).

        Restricting the full order keeps precedence that is mediated by
        nodes outside ``scope`` (for example latent chains), which the
        factorization machinery relies on.
        """
        sidx = self._resolve(scope)
        return tuple(self._names[i] for i in self._topo if i in sidx)

    def is_ancestral(self, s: Names, within: Names) -> bool:
        """True iff ``s`` contains all of its observed ancestors inside the
        latent subgraph over ``within``."""
        sidx = self._resolve(s)
        if not sidx <= self._resolve(within):
            raise GraphError("s must be a subset of `within`")
        widx = self._observables(within, "is_ancestral")
        return self._up(sidx, widx) & widx == sidx

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nodes": [
                {"name": n, "observable": o} for n, o in zip(self._names, self._obs)
            ],
            "edges": [[p, c] for p, c in self.edges],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "CausalGraph":
        """Inverse of :meth:`to_json`; malformed input raises ValueError."""
        nodes = [
            (json_field(d, "name", str), json_field(d, "observable", bool))
            for d in json_field(data, "nodes", list)
        ]
        edges = json_field(data, "edges", list)
        for e in edges:
            if type(e) is not list or len(e) != 2 or not all(type(n) is str for n in e):
                raise GraphError("each edge must be a [parent, child] pair of names")
        return cls(nodes, [(p, c) for p, c in edges])

    def to_dot(self, name: str = "G") -> str:
        """GraphViz DOT rendering; latent nodes are drawn dashed."""
        def quoted(n: str) -> str:
            return '"' + n.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = [f"digraph {name} {{"]
        for n, o in zip(self._names, self._obs):
            style = "" if o else " [style=dashed]"
            lines.append(f"  {quoted(n)}{style};")
        for p, c in self.edges:
            lines.append(f"  {quoted(p)} -> {quoted(c)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> CausalGraph:
    """Parse the line-oriented graph format.

    One directive per line, ``#`` starts a comment::

        node <name> obs
        node <name> lat
        edge <parent> <child>

    Errors are reported with their line number; cycles are reported with the
    cycle itself.
    """
    nodes: list[tuple[str, bool]] = []
    declared: set[str] = set()
    edges: list[tuple[str, str]] = []
    seen_edges: set[tuple[str, str]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 3:
                raise GraphParseError(line_no, "expected: node <name> obs|lat")
            name, kind = parts[1], parts[2]
            if kind not in ("obs", "lat"):
                raise GraphParseError(line_no, f"unknown node kind {kind!r} (use obs or lat)")
            if name in declared:
                raise GraphParseError(line_no, f"duplicate node name {name!r}")
            declared.add(name)
            nodes.append((name, kind == "obs"))
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise GraphParseError(line_no, "expected: edge <parent> <child>")
            parent, child = parts[1], parts[2]
            if parent not in declared:
                raise GraphParseError(line_no, f"edge references undeclared node {parent!r}")
            if child not in declared:
                raise GraphParseError(line_no, f"edge references undeclared node {child!r}")
            if parent == child:
                raise GraphParseError(line_no, f"self loop on node {parent!r}")
            if (parent, child) in seen_edges:
                raise GraphParseError(line_no, f"duplicate edge {parent!r} -> {child!r}")
            seen_edges.add((parent, child))
            edges.append((parent, child))
        else:
            raise GraphParseError(line_no, f"unknown directive {parts[0]!r}")

    if not nodes:
        raise GraphParseError(0, "empty graph: no node declarations")
    return CausalGraph(nodes, edges)
