"""Generator and verifier for the clique-to-balanced-marriage reduction.

Given a graph and a clique size k, ``reduce_clique`` emits an instance in
which some stable matching has balance at most the computed target exactly
when the graph has a k-clique, and whose above-maximum parameter depends
on k alone.  ``verify_reduction`` checks that equivalence on one graph.
It walks the rotation chain of the reduced instance once, from its
man-optimal to its woman-optimal matching, and checks that these two are
the identity and the all-swapped assignments.  It then finds the least
balance by the bounded closed-set walk of ``oracle``, which skips every
part of the rotation poset that cannot beat the best balance found, and
compares that balance with clique brute force.  Every stable matching
has the shape the construction allows (a vertex subset chooses which
vertex pairs swap partners, an edge subset chooses which edge pairs
swap), but the engine does not rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .instance import (
    MAN,
    WOMAN,
    Instance,
    Matching,
    Person,
)
from .oracle import TooLarge, _chain, _least_balance

CLIQUE_VERTEX_LIMIT = 25


class GraphError(ValueError):
    """Graph input is malformed, or the clique size is below 1."""


class NotAClique(ValueError):
    """The supplied vertex set is not a clique of the requested size."""


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with fixed vertex and edge orders."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise GraphError(f"duplicate vertex {v!r}")
            seen.add(v)
        index = {v: i for i, v in enumerate(self.vertices)}
        known = set()
        for u, v in self.edges:
            if u not in index or v not in index:
                raise GraphError(f"edge ({u}, {v}) uses an unknown vertex")
            if u == v:
                raise GraphError(f"loop at {u!r}")
            if index[u] > index[v]:
                raise GraphError(f"edge ({u}, {v}) must list the earlier vertex first")
            if (u, v) in known:
                raise GraphError(f"duplicate edge ({u}, {v})")
            known.add((u, v))

    @staticmethod
    def build(vertices, edges) -> "Graph":
        """Normalize edge endpoint order by vertex position and build."""
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        normalized = []
        for u, v in edges:
            if u in index and v in index and index[u] > index[v]:
                u, v = v, u
            normalized.append((u, v))
        return Graph(vertices, tuple(normalized))

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in e)

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges


def parse_graph(text: str) -> Graph:
    """Read a graph from 'u v' edge lines; an optional 'vertices:' line
    declares isolated vertices and pins the vertex order."""
    declared: list[str] = []
    edges: list[tuple[str, str]] = []
    order: list[str] = []
    seen: set[str] = set()

    def note(v: str):
        if v not in seen:
            seen.add(v)
            order.append(v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            declared = line.partition(":")[2].split()
            for v in declared:
                note(v)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        note(parts[0])
        note(parts[1])
        edges.append((parts[0], parts[1]))
    return Graph.build(order, edges)


def serialize_graph(g: Graph) -> str:
    lines = ["vertices: " + " ".join(g.vertices)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReductionArtifact:
    """The generated instance plus the bookkeeping that ties it to the graph."""

    inst: Instance
    k_hat: int
    delta: int
    t: int
    fallback: bool
    graph: Graph
    k: int

    @property
    def name_maps(self) -> dict:
        """The person names of each vertex, edge and star, for the ``bsm reduce`` meta JSON.

        Empty on a fallback.  The names are read at the indices where
        ``reduce_clique`` lays out both sides.
        """
        if self.fallback:
            return {}
        men, women = self.inst.men, self.inst.women
        n_v, n_e = len(self.graph.vertices), len(self.graph.edges)

        def names(first, count, j):
            """The four people of item j of a group whose tier 1 starts at index ``first``."""
            return {
                f"{side}{s}": people[first + (s - 1) * count + j].name
                for side, people in (("m", men), ("w", women)) for s in (1, 2)
            }

        return {
            "vertices": {v: names(0, n_v, i) for i, v in enumerate(self.graph.vertices)},
            "edges": {f"{u} {v}": names(2 * n_v, n_e, j) for j, (u, v) in enumerate(self.graph.edges)},
            "star": {"m": men[-1].name, "w": women[-1].name},
        }


def _delta(n_v: int, n_e: int, k: int) -> int:
    return 2 * (n_v + n_e + n_v * n_e + n_v * n_e * n_e) - k * (
        4 + 4 * k + 2 * n_e + (k - 1) * n_v * n_e
    )


def clique_bruteforce(g: Graph, k: int) -> tuple[str, ...] | None:
    """First k-clique in lexicographic vertex order, or None."""
    if len(g.vertices) > CLIQUE_VERTEX_LIMIT:
        raise TooLarge(f"{len(g.vertices)} vertices exceeds the bound {CLIQUE_VERTEX_LIMIT}")
    if k < 1 or k > len(g.vertices):
        return None
    adjacent = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    for group in combinations(g.vertices, k):
        if all(b in adjacent[a] for a, b in combinations(group, 2)):
            return group
    return None


def _trivial_yes_instance() -> Instance:
    return Instance((), (), [], [], 0)


def _trivial_no_instance() -> Instance:
    return Instance((Person(MAN, "m"),), (Person(WOMAN, "w"),), [{0: 1}], [{0: 1}], 0)


def reduce_clique(g: Graph, k: int) -> ReductionArtifact:
    """Build the full reduction, or a trivial equivalent instance when the
    graph is small enough to settle by brute force.

    The fallback fires when the dummy count would be negative or the graph
    has at most k + k(k-1)/2 vertices.
    """
    if k < 1:
        raise GraphError("k must be at least 1")
    n_v, n_e = len(g.vertices), len(g.edges)
    delta = _delta(n_v, n_e, k)
    if delta < 0 or n_v <= k + k * (k - 1) // 2:
        clique = clique_bruteforce(g, k)
        inst = _trivial_yes_instance() if clique else _trivial_no_instance()
        t = 0 if clique else -1
        return ReductionArtifact(inst, 0, delta, t, True, g, k)

    V = g.vertices
    E = g.edges
    deg = {v: g.degree(v) for v in V}

    # Both sides list tier-1 vertex, tier-2 vertex, tier-1 edge, tier-2 edge,
    # dummy and star people in that order, so one index serves either side.
    iv = {(s, v): (s - 1) * n_v + i for i, v in enumerate(V) for s in (1, 2)}
    ie = {(s, j): 2 * n_v + (s - 1) * n_e + j for j in range(n_e) for s in (1, 2)}
    dummy = [2 * n_v + 2 * n_e + i for i in range(delta)]
    star = 2 * n_v + 2 * n_e + delta
    labels = [f"{s}_v{i + 1}" for s in (1, 2) for i in range(n_v)]
    labels += [f"{s}_e{j + 1}" for s in (1, 2) for j in range(n_e)]
    labels += [f"d{i + 1}" for i in range(delta)] + ["star"]
    men = tuple(Person(MAN, "m" + label) for label in labels)
    women = tuple(Person(WOMAN, "w" + label) for label in labels)
    m_rank: list[dict[int, int]] = [{} for _ in men]
    w_rank: list[dict[int, int]] = [{} for _ in women]

    # Each table is written best rank first.  When delta is small, only the
    # dummies that exist are referenced; the rank values of everyone else
    # stay put, so the tables may have gaps.
    # Vertex men: own partner, the two shared dummies, then the twin's partner.
    for v in V:
        for s in (1, 2):
            table = m_rank[iv[(s, v)]]
            table[iv[(s, v)]] = 1
            for rank, d in enumerate(dummy[:2], start=2):
                table[d] = rank
            table[iv[(3 - s, v)]] = 4

    # Edge men: own partner, both endpoint women of the same tier, twin's partner.
    for j, (u, v) in enumerate(E):
        for s in (1, 2):
            m_rank[ie[(s, j)]].update({ie[(s, j)]: 1, iv[(s, u)]: 2, iv[(s, v)]: 3, ie[(3 - s, j)]: 4})

    # Low-index dummy men also rank every edge woman and a tail of vertex women.
    n_ve = n_v * n_e
    vertex_women_order = [(1, v) for v in V] + [(2, v) for v in V]
    for i, d in enumerate(dummy, start=1):
        table = m_rank[d]
        table[d] = 1
        if i <= n_ve:
            for s in (1, 2):
                for j in range(n_e):
                    table[ie[(s, j)]] = (s - 1) * n_e + j + 2
            tail = [key for key in vertex_women_order if i <= n_e - deg[key[1]]]
            for pos, key in enumerate(tail, start=1):
                table[iv[key]] = 2 * n_e + pos + 1

    m_rank[star] = {d: i for i, d in enumerate(dummy, start=1)}
    m_rank[star][star] = delta + 1

    # Vertex women: the twin first, incident edge men at their edge's global
    # slot, acceptable dummies on the unused slots, own man last.
    for v in V:
        for s in (1, 2):
            table = w_rank[iv[(s, v)]]
            table[iv[(3 - s, v)]] = 1
            free = iter(dummy)
            for j, e in enumerate(E):
                if v in e:
                    table[ie[(s, j)]] = j + 2
                else:
                    d = next(free, None)
                    if d is not None:
                        table[d] = j + 2
            table[iv[(s, v)]] = n_e + 2

    # Edge women: the twin first, every low-index dummy man, own man last.
    for j in range(n_e):
        for s in (1, 2):
            table = w_rank[ie[(s, j)]]
            table[ie[(3 - s, j)]] = 1
            for rank, d in enumerate(dummy[:n_ve], start=2):
                table[d] = rank
            table[ie[(s, j)]] = n_ve + 2

    # Dummy women: own dummy, the star man, and (for the first two) all vertex men.
    for i, d in enumerate(dummy, start=1):
        table = w_rank[d]
        table[d] = 1
        table[star] = 2
        if i <= 2:
            for s in (1, 2):
                for pos, v in enumerate(V, start=1):
                    table[iv[(s, v)]] = (s - 1) * n_v + pos + 2

    w_rank[star] = {star: 1}

    t = 6 * (k + k * (k - 1) // 2)
    k_hat = len(men) + delta + t
    inst = Instance(men, women, m_rank, w_rank, k_hat)
    return ReductionArtifact(inst, k_hat, delta, t, False, g, k)


# --- swap candidates ----------------------------------------------------------

def _swap_partners(art: ReductionArtifact, chosen_vertices, chosen_edges) -> list[int]:
    """Candidate matching as each man's woman index: chosen vertex pairs and
    edge pairs swap partners, everyone else keeps the identity assignment.

    ``reduce_clique`` lists both sides in the same order (tier-1 vertex,
    tier-2 vertex, tier-1 edge, tier-2 edge, dummy, star), so the identity
    assignment pairs equal indices.
    """
    vertices = art.graph.vertices
    n_v, n_e = len(vertices), len(art.graph.edges)
    partner = list(range(len(art.inst.men)))
    chosen_vertices = set(chosen_vertices)
    for i, v in enumerate(vertices):
        if v in chosen_vertices:
            partner[i], partner[n_v + i] = n_v + i, i
    for j in set(chosen_edges):
        a = 2 * n_v + j
        partner[a], partner[a + n_e] = a + n_e, a
    return partner


def _swap_matching(art: ReductionArtifact, chosen_vertices, chosen_edges) -> Matching:
    """The candidate of ``_swap_partners`` as a people matching."""
    return art.inst.matching_from_arrays(_swap_partners(art, chosen_vertices, chosen_edges))


def witness_matching(art: ReductionArtifact, clique) -> Matching:
    """The stable matching certified by a k-clique: its vertex pairs and all
    edge pairs inside it swap, everything else stays put."""
    if art.fallback:
        raise ValueError("fallback artifacts carry no structured matchings")
    members = tuple(clique)
    if len(set(members)) != art.k:
        raise NotAClique(f"expected {art.k} distinct vertices, got {members!r}")
    for v in members:
        if v not in art.graph.vertices:
            raise NotAClique(f"unknown vertex {v!r}")
    for u, v in combinations(members, 2):
        if not art.graph.has_edge(u, v):
            raise NotAClique(f"missing edge ({u}, {v})")
    edge_ids = [j for j, (u, v) in enumerate(art.graph.edges) if u in members and v in members]
    return _swap_matching(art, members, edge_ids)


# --- end-to-end verification --------------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    clique: tuple[str, ...] | None
    clique_answer: bool
    reduction_answer: bool
    agree: bool
    fallback: bool
    delta: int
    k_hat: int
    t_expected: int
    t_actual: int | None
    optima_match: bool | None
    bal_opt: int | None

    @property
    def ok(self) -> bool:
        checks = self.t_actual is None or (
            self.t_actual == self.t_expected and bool(self.optima_match)
        )
        return self.agree and checks


def verify_reduction(g: Graph, k: int) -> ReductionReport:
    """Cross-check the reduction against clique brute force on one graph."""
    # Brute force first, to refuse a graph beyond its bound before building
    # the reduction; below k = 1, ``reduce_clique`` refuses the input.
    clique = clique_bruteforce(g, k) if k >= 1 else None
    art = reduce_clique(g, k)
    # Only the least balance and the two ends of the rotation chain are
    # needed.  A 10-vertex, 10-edge graph has about 20,000 stable matchings,
    # each with 1,573 pairs; the bounded walk visits about 2,500 of them.
    # A fallback instance carries k_hat = 0 as its target.
    chain = _chain(art.inst)
    bal_opt = _least_balance(chain)
    found, answer = clique is not None, bal_opt <= art.k_hat
    t_expected = 6 * (k + k * (k - 1) // 2)
    shared = (clique, found, answer, found == answer, art.fallback, art.delta, art.k_hat, t_expected)
    if art.fallback:
        return ReductionReport(*shared, None, None, None)
    optima_match = (
        chain.mu_m == _swap_partners(art, (), ())
        and chain.mu_w == _swap_partners(art, g.vertices, range(len(g.edges)))
    )
    return ReductionReport(*shared, art.k_hat - max(chain.costs[0], chain.o_w), optima_match, bal_opt)
