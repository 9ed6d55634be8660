"""Generator and verifier for the clique-to-balanced-marriage reduction.

Given a graph and a clique size k, ``reduce_clique`` emits an instance in
which some stable matching has balance at most the computed target exactly
when the graph has a k-clique, and whose above-maximum parameter depends
on k alone.  ``verify_reduction`` checks that equivalence on one graph.
It builds only the reduction's skeleton: its vertex, edge and star people,
without any dummy pair.  Each dummy pair is mutually first, so it is
matched in every stable matching and never blocks, as with the kernel's
happy-pair rule, and dropping it leaves every other rank value in place,
as a gapped rank function.  Each pair adds 1 to each side's cost, and the
star man ranks the star woman delta + 1 in full but 1 in the skeleton, so
the skeleton's chain adds 2·delta on the men's side and delta on the
women's.  No dummy moves, and a woman who gains no one adds no
predecessor, so the rotations are the full reduction's.  A verify walks
that chain once, from μ_M to μ_W, reading only the lists of the
2(|V| + |E|) vertex and edge men, who alone move.  It checks that μ_M and
μ_W are the identity and the all-swapped assignments, then finds the
least balance by ``oracle._least_balance`` and compares it with a
depth-first clique search.  The reduced poset is mostly one component, or
one large one beside a few of one to seven rotations, so a verify mostly
runs the oracle's closed-set walk under a bound that falls to each
balance found; when no component holds more than ``oracle._SPLIT_LIMIT``
rotations and two hold more than one (about one full reduction in nine
at 12 to 20 vertices and edges), it merges the components' cost fronts
instead.  Every stable matching
has the shape the construction allows (a vertex subset chooses which
vertex pairs swap partners, an edge subset chooses which edge pairs
swap), but the engine does not rely on it.

A reduction's people are named only when they are read: each side is a
``Roster``, which a verify, reading only how many people a side has,
never names, and which ``serialize`` or ``name_maps`` names once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, compress, count

from .instance import (
    MAN,
    WOMAN,
    Instance,
    Matching,
    Person,
    Roster,
)
from .oracle import _Chain, _chain, _least_balance


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

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges


def parse_graph(text: str) -> Graph:
    """Read a graph from 'u v' edge lines and at most one 'vertices:' line.

    The 'vertices:' line, wherever it stands, declares isolated vertices
    and pins the vertex order: the declared vertices come first, in its
    order, then each undeclared endpoint by first appearance.
    """
    declared: dict[str, None] | None = None
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if declared is not None:
                raise GraphError(f"line {lineno}: duplicate 'vertices:' line")
            declared = {}
            for v in line.partition(":")[2].split():
                if v in declared:
                    raise GraphError(f"line {lineno}: duplicate vertex {v!r}")
                declared[v] = None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        edges.append((parts[0], parts[1]))
    return Graph.build(dict.fromkeys([*(declared or ()), *(v for edge in edges for v in edge)]), edges)


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
    """First k-clique in lexicographic vertex order, or None.

    A depth-first search, despite the name: a partial clique grows by its
    candidates, the later vertices adjacent to all of it, lowest first, and
    a branch is cut once fewer candidates remain than it still needs.  The
    search keeps its own stack, so a clique of any size needs no recursion.
    """
    if k < 1 or k > len(g.vertices):
        return None
    index = {v: i for i, v in enumerate(g.vertices)}
    later = [0] * len(index)  # per vertex, a bit mask of its later neighbours
    for u, v in g.edges:  # a graph lists the earlier vertex of each edge first
        later[index[u]] |= 1 << index[v]
    group: list[int] = []
    untried: list[int] = []  # per member of the group, the candidates left beside it
    candidates = (1 << len(index)) - 1
    while len(group) < k:
        if candidates.bit_count() >= k - len(group):
            i = (candidates & -candidates).bit_length() - 1
            candidates ^= 1 << i
            group.append(i)
            untried.append(candidates)
            candidates &= later[i]
        elif group:
            group.pop()
            candidates = untried.pop()
        else:
            return None
    return tuple(g.vertices[i] for i in group)


def _plan(g: Graph, k: int) -> tuple[int, bool]:
    """The dummy count and whether ``reduce_clique`` falls back; k below 1 is refused."""
    if k < 1:
        raise GraphError("k must be at least 1")
    n_v = len(g.vertices)
    delta = _delta(n_v, len(g.edges), k)
    return delta, delta < 0 or n_v <= k + k * (k - 1) // 2


def _fallback(g: Graph, k: int, delta: int, clique: tuple[str, ...] | None) -> ReductionArtifact:
    """The trivial instance at target 0 that the clique search settled: no one on a yes, one pair on a no."""
    if clique:
        return ReductionArtifact(Instance((), (), [], [], 0), 0, delta, 0, True, g, k)
    inst = Instance((Person(MAN, "m"),), (Person(WOMAN, "w"),), [{0: 1}], [{0: 1}], 0)
    return ReductionArtifact(inst, 0, delta, -1, True, g, k)


def _names(letter: str, n_v: int, n_e: int, delta: int) -> list[str]:
    """One side's names in index order: tier-1 vertex, tier-2 vertex, tier-1 edge, tier-2 edge, dummy and star."""
    names = [f"{letter}{s}_v{i}" for s in (1, 2) for i in range(1, n_v + 1)]
    names += [f"{letter}{s}_e{j}" for s in (1, 2) for j in range(1, n_e + 1)]
    names += [f"{letter}d{i}" for i in range(1, delta + 1)]
    names.append(letter + "star")
    return names


def reduce_clique(g: Graph, k: int) -> ReductionArtifact:
    """Build the full reduction, or a trivial equivalent instance when the
    graph is small enough to settle by the clique search.

    The fallback fires when the dummy count would be negative or the graph
    has at most k + k(k-1)/2 vertices.  A full reduction's two sides are
    ``Roster``s, named on first read.

    Both sides list tier-1 vertex, tier-2 vertex, tier-1 edge, tier-2 edge,
    dummy and star people in that order, so one index serves either side:
    vertex i of tier s (0 or 1) is ``s*n_v + i``, edge j ``2*n_v + s*n_e + j``.
    Each table is written best rank first.  The entries a row group shares
    are built once per reduction, as a dict that each row merges: the vertex
    men's two dummies, the low-index dummy men's edge women and vertex-woman
    tails, the edge women's low-index dummy men and the first two dummy
    women's vertex men.

    The instance records ``contiguous``, so ``serialize`` scans no table:
    the tables are gap-free exactly when ``delta >= max(2, n_v * n_e)``.
    A row's ranks skip a value only where a dummy it would rank does not
    exist: the vertex men's two shared dummies (delta < 2) and the edge
    women's n_v·n_e low-index dummy men (delta < n_v·n_e, with an edge).
    A vertex woman's slot for a missed edge stays empty only when delta
    is below her miss count, at most n_e, so the edge women's rows have a
    gap then too.  Every other row group is gap-free at any delta.
    """
    delta, fallback = _plan(g, k)
    if fallback:
        return _fallback(g, k, delta, clique_bruteforce(g, k))
    return _build(g, k, delta, delta)


def _build(g: Graph, k: int, delta: int, kept: int) -> ReductionArtifact:
    """``reduce_clique``'s reduction with only its first ``kept`` of ``delta`` dummy pairs; ``k_hat`` is the full one's."""
    n_v, n_e = len(g.vertices), len(g.edges)
    n_ve, vs = n_v * n_e, 2 * n_v  # vs: the vertex people of a side, and the first edge index
    base = vs + 2 * n_e
    dummy = range(base, base + kept)
    star = base + kept
    men = Roster(MAN, star + 1, partial(_names, "m", n_v, n_e, kept))
    women = Roster(WOMAN, star + 1, partial(_names, "w", n_v, n_e, kept))
    index = {v: i for i, v in enumerate(g.vertices)}
    ends = [(index[u], index[v]) for u, v in g.edges]
    incident = [set() for _ in range(n_v)]  # per vertex, its edges' indices
    for j, (a, b) in enumerate(ends):
        incident[a].add(j)
        incident[b].add(j)

    # When few dummies are kept, only those are referenced; the rank values
    # of everyone else stay put, so the tables may have gaps.
    # Vertex men: own partner, the two shared dummies, then the twin's partner.
    shared = dict(zip(dummy[:2], count(2)))
    m_rank = [{x: 1, **shared, (x + n_v) % vs: 4} for x in range(vs)]

    # Edge men: own partner, both endpoint women of the same tier, twin's partner.
    m_rank += [
        {vs + s * n_e + j: 1, s * n_v + a: 2, s * n_v + b: 3, vs + (1 - s) * n_e + j: 4}
        for s in (0, 1) for j, (a, b) in enumerate(ends)
    ]

    # Dummy men: own dummy first.  The low-index ones also rank every edge
    # woman, in index order, and a tail of vertex women: dummy i ranks, in
    # index order, the vertex women whose vertex misses at least i edges, so
    # past the largest miss the tail is empty.
    edge_women = dict(zip(range(vs, base), count(2)))
    missed = [n_e - len(edges) for edges in incident] * 2  # per vertex woman, in index order
    low = dummy[:n_ve]
    tails = [
        dict(zip(compress(range(vs), map(i.__le__, missed)), count(2 * n_e + 2)))
        for i in range(1, min(max(missed), len(low)) + 1)
    ]
    m_rank += [{d: 1, **edge_women, **tail} for d, tail in zip(low, tails)]
    m_rank += [{d: 1, **edge_women} for d in low[len(tails):]]
    m_rank += [{d: 1} for d in dummy[n_ve:]]

    # The star man: every dummy woman in index order, then the star woman.
    m_rank.append(dict(zip(range(base, star + 1), count(1))))

    # Vertex women: the twin first, incident edge men at their edge's global
    # slot, the kept dummies in index order on the unused slots, own man
    # last.  The two tiers of a vertex fill the same slots.
    w_rank = [{(x + n_v) % vs: 1} for x in range(vs)]
    for i, edges in enumerate(incident):
        tier1, tier2, used = w_rank[i], w_rank[n_v + i], 0
        for j in range(n_e):
            if j in edges:
                tier1[vs + j] = tier2[vs + n_e + j] = j + 2
            elif used < kept:
                tier1[base + used] = tier2[base + used] = j + 2
                used += 1
    for x, table in enumerate(w_rank):
        table[x] = n_e + 2

    # Edge women: the twin first, every low-index dummy man, own man last.
    low_men = dict(zip(low, count(2)))
    w_rank += [
        {vs + (1 - s) * n_e + j: 1, **low_men, vs + s * n_e + j: n_ve + 2}
        for s in (0, 1) for j in range(n_e)
    ]

    # Dummy women: own dummy, the star man, and (for the first two) all
    # vertex men, tier 1 then tier 2, in index order.
    vertex_men = dict(zip(range(vs), count(3)))
    w_rank += [{d: 1, star: 2, **vertex_men} for d in dummy[:2]]
    w_rank += [{d: 1, star: 2} for d in dummy[2:]]
    w_rank.append({star: 1})

    t = 6 * (k + k * (k - 1) // 2)
    k_hat = base + 1 + 2 * delta + t  # the full instance's people per side, plus delta and t
    inst = Instance(men, women, m_rank, w_rank, k_hat)
    vars(inst)["contiguous"] = kept >= max(2, n_ve)
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
    return art.inst.matching_from_arrays(_swap_partners(art, members, edge_ids))


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


def _core(g: Graph, k: int, delta: int) -> tuple[ReductionArtifact, _Chain]:
    """The reduction's skeleton, with no dummy pair, and its rotation chain with the pairs' costs added (see ``verify_reduction``)."""
    core = _build(g, k, delta, 0)
    chain = _chain(core.inst)
    men, women = chain.costs
    return core, chain._replace(costs=(men + 2 * delta, women + delta), o_w=chain.o_w + delta)


def verify_reduction(g: Graph, k: int) -> ReductionReport:
    """Cross-check the reduction against a clique search on one graph.

    It reads the skeleton, with none of the delta dummy pairs (see the
    module docstring).  Its chain adds 2·delta to the men's cost, as each
    pair adds 1 and the star man ranks the star woman delta + 1 in full
    but 1 in the skeleton, and delta to the women's.  ``k_hat`` is the
    full reduction's.
    """
    delta, fallback = _plan(g, k)
    clique = clique_bruteforce(g, k)  # a fallback reuses it rather than searching again
    # Only the least balance and the two optima are needed.
    # ``random_graph(Random(1), 10, 10, plant_triangle=True)`` has 22,294
    # stable matchings, each with 41 pairs in the skeleton (1,573 in full);
    # the bounded walk visits 125 of them, as closed sets of rotations.
    # A fallback instance carries k_hat = 0 as its target.
    if fallback:
        art = _fallback(g, k, delta, clique)
        chain = _chain(art.inst)
    else:
        art, chain = _core(g, k, delta)
    bal_opt = _least_balance(chain)
    found, answer = clique is not None, bal_opt <= art.k_hat
    t_expected = 6 * (k + k * (k - 1) // 2)
    shared = (clique, found, answer, found == answer, art.fallback, art.delta, art.k_hat, t_expected)
    if art.fallback:
        return ReductionReport(*shared, None, None, None)
    optima_match = (
        art.inst.mu_m.by_man == _swap_partners(art, (), ())
        and art.inst.mu_w.by_man == _swap_partners(art, g.vertices, range(len(g.edges)))
    )
    return ReductionReport(*shared, art.k_hat - max(chain.costs[0], chain.o_w), optima_match, bal_opt)
