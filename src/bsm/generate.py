"""Seeded random instances and graphs for self-tests and experiments."""

from __future__ import annotations

import random

from .hardness import Graph
from .instance import MAN, WOMAN, Instance, Person, make_instance
from .oracle import _chain


def random_instance(
    rng: random.Random,
    n_men: int | None = None,
    n_women: int | None = None,
    density: float | None = None,
    max_side: int = 7,
) -> Instance:
    """A random mutual-acceptability instance with list-form preferences.

    ``density`` is the probability that a given man-woman pair find each
    other acceptable; None mixes full lists with sparse ones.
    """
    if n_men is None:
        n_men = rng.randint(1, max_side)
    if n_women is None:
        n_women = rng.randint(1, max_side)
    if density is None:
        density = 1.0 if rng.random() < 0.5 else rng.uniform(0.3, 0.9)
    men = tuple(Person(MAN, f"m{i + 1}") for i in range(n_men))
    women = tuple(Person(WOMAN, f"w{i + 1}") for i in range(n_women))
    accepted = {m: [w for w in women if rng.random() < density] for m in men}
    ranks: dict[Person, dict[Person, int]] = {}
    for m in men:
        order = accepted[m][:]
        rng.shuffle(order)
        ranks[m] = {w: i for i, w in enumerate(order, start=1)}
    for w in women:
        order = [m for m in men if w in accepted[m]]
        rng.shuffle(order)
        ranks[w] = {m: i for i, m in enumerate(order, start=1)}
    return make_instance(men, women, ranks)


def mutual_first_instance(n: int, full: bool = False) -> Instance:
    """Everyone ranks their index partner first; the identity matching is
    the unique stable matching.  ``full`` pads the remaining choices."""
    men = tuple(Person(MAN, f"m{i + 1}") for i in range(n))
    women = tuple(Person(WOMAN, f"w{i + 1}") for i in range(n))
    ranks: dict[Person, dict[Person, int]] = {}
    for i, m in enumerate(men):
        order = [women[i]] + ([w for j, w in enumerate(women) if j != i] if full else [])
        ranks[m] = {w: pos for pos, w in enumerate(order, start=1)}
    for i, w in enumerate(women):
        order = [men[i]] + ([m for j, m in enumerate(men) if j != i] if full else [])
        ranks[w] = {m: pos for pos, m in enumerate(order, start=1)}
    return make_instance(men, women, ranks)


def cyclic_instance(n: int) -> Instance:
    """Man i ranks women i, i+1, ... and woman i ranks men i+1, i+2, ...
    (indices mod n): n stable matchings, and many sad men left to branch over."""
    men = tuple(Person(MAN, f"m{i + 1}") for i in range(n))
    women = tuple(Person(WOMAN, f"w{i + 1}") for i in range(n))
    ranks: dict[Person, dict[Person, int]] = {}
    for i in range(n):
        ranks[men[i]] = {women[(i + j) % n]: j + 1 for j in range(n)}
        ranks[women[i]] = {men[(i + 1 + j) % n]: j + 1 for j in range(n)}
    return make_instance(men, women, ranks)


def planted_instance(rng: random.Random, n: int, cores: int, extra: int) -> Instance:
    """An n x n instance close to its optimum on both sides.

    ``cores`` cores of 6 to 8 per side each take a random full-list
    instance with at least 3 rotations.  Everyone else is in a
    mutually-first pair, which every stable matching holds.  A man outside
    the cores accepts up to ``extra`` more women outside them, and a woman
    up to ``extra`` more men, ranked below the first choice in random
    order: none of these pairs ever blocks.  Names are dealt at random, so
    no index tells a core from a pair.
    """
    sizes = [rng.randint(6, 8) for _ in range(cores)]
    if sum(sizes) > n:
        raise ValueError(f"{cores} cores of sizes {sizes} do not fit in {n} per side")
    # Each side's positions 0..n-1: the cores first, then the pairs.
    m_rank: list[dict[int, int]] = []
    w_rank: list[dict[int, int]] = []
    for size in sizes:
        core = random_instance(rng, size, size, 1.0)
        while len(_chain(core).moves) < 3:
            core = random_instance(rng, size, size, 1.0)
        base = len(m_rank)
        m_rank += [{base + w: r for w, r in table.items()} for table in core.m_rank]
        w_rank += [{base + m: r for m, r in table.items()} for table in core.w_rank]
    paired = range(len(m_rank), n)
    m_rank += [{i: 1} for i in paired]
    w_rank += [{i: 1} for i in paired]
    # The men take their extras in random order, so each side's come in
    # random order too.
    for i in rng.sample(paired, len(paired)):
        for _ in range(extra):
            j = rng.choice(paired)
            if len(w_rank[j]) <= extra and j not in m_rank[i]:
                m_rank[i][j] = len(m_rank[i]) + 1
                w_rank[j][i] = len(w_rank[j]) + 1
    men = tuple(Person(MAN, f"m{i + 1}") for i in range(n))
    women = tuple(Person(WOMAN, f"w{i + 1}") for i in range(n))
    man_at, woman_at = rng.sample(range(n), n), rng.sample(range(n), n)
    ranks: dict[Person, dict[Person, int]] = {}
    for i, table in enumerate(m_rank):
        ranks[men[man_at[i]]] = {women[woman_at[w]]: r for w, r in table.items()}
    for j, table in enumerate(w_rank):
        ranks[women[woman_at[j]]] = {men[man_at[m]]: r for m, r in table.items()}
    return make_instance(men, women, ranks)


def random_graph(
    rng: random.Random,
    n_vertices: int,
    n_edges: int,
    plant_triangle: bool = False,
) -> Graph:
    """A random simple graph on v1..vn with exactly ``n_edges`` edges when
    that many fit; ``plant_triangle`` forces a triangle on three random
    vertices."""
    vertices = tuple(f"v{i + 1}" for i in range(n_vertices))
    all_pairs = [
        (vertices[i], vertices[j])
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
    ]
    chosen: set[tuple[str, str]] = set()
    if plant_triangle:
        a, b, c = sorted(rng.sample(range(n_vertices), 3))
        chosen |= {
            (vertices[a], vertices[b]),
            (vertices[a], vertices[c]),
            (vertices[b], vertices[c]),
        }
    remaining = [p for p in all_pairs if p not in chosen]
    rng.shuffle(remaining)
    while len(chosen) < min(n_edges, len(all_pairs)) and remaining:
        chosen.add(remaining.pop())
    edges = [p for p in all_pairs if p in chosen]
    return Graph.build(vertices, edges)


def random_triangle_free_graph(rng: random.Random, n_vertices: int, n_edges: int) -> Graph:
    """A random bipartite (hence triangle-free) graph."""
    vertices = tuple(f"v{i + 1}" for i in range(n_vertices))
    left = set(rng.sample(range(n_vertices), n_vertices // 2))
    cross = [
        (vertices[i], vertices[j])
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
        if (i in left) != (j in left)
    ]
    rng.shuffle(cross)
    picked = set(cross[: min(n_edges, len(cross))])
    edges = [
        (vertices[i], vertices[j])
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
        if (vertices[i], vertices[j]) in picked
    ]
    return Graph.build(vertices, edges)
