"""Synthetic graph generators used as workload stand-ins.

The paper evaluates on eleven real-world graphs (Table 1).  Those inputs are
not redistributable at their original scale, so :mod:`repro.datasets` builds
structural stand-ins from the generators here, each chosen to match the
property the paper ties to an input's behaviour:

* :func:`planted_partition` — tunable community strength (strong → MG1/MG2,
  weak → NLPKKT240-like convergence dragging);
* :func:`chung_lu` — heavy-tailed degrees with tunable RSD (Soc-LiveJournal1,
  friendster);
* :func:`rmat` — skewed web-crawl-like structure (CNR, uk-2002);
* :func:`random_geometric` — uniform degree + strong geometric communities
  (Rgg_n_2_24_s0);
* :func:`grid_lattice` — near-constant degree, weak communities (Channel,
  NLPKKT240);
* :func:`road_with_spokes` — hub chains with single-degree "spoke" vertices,
  the §6.2 scenario where the vertex-following heuristic backfires
  (Europe-osm);
* :func:`relaxed_caveman` — clique-dominated collaboration structure
  (coPapersDBLP);
* plus small deterministic fixtures (:func:`path_graph`, :func:`star_graph`,
  :func:`cycle_graph`, :func:`complete_graph`, :func:`karate_club`,
  :func:`two_cliques_bridge`, :func:`clique_chain`).

All generators take a ``seed`` and are deterministic given it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.build import from_edge_array
from repro.graph.csr import CSRGraph
from repro.utils.errors import ValidationError
from repro.utils.rng import as_rng

__all__ = [
    "caveman_power_law",
    "chung_lu",
    "clique_chain",
    "complete_graph",
    "cycle_graph",
    "grid_lattice",
    "karate_club",
    "lfr_like",
    "path_graph",
    "planted_partition",
    "random_geometric",
    "relaxed_caveman",
    "rmat",
    "road_with_spokes",
    "star_graph",
    "two_cliques_bridge",
    "watts_strogatz",
]


def _dedupe_pairs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize and deduplicate undirected pairs, dropping self-loops."""
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return lo, hi
    key = lo * (hi.max() + 1) + hi
    _, first = np.unique(key, return_index=True)
    return lo[first], hi[first]


def _build(n: int, lo: np.ndarray, hi: np.ndarray) -> CSRGraph:
    edges = np.column_stack([lo, hi]) if lo.size else np.zeros((0, 2), np.int64)
    return from_edge_array(n, edges, combine="error")


# ---------------------------------------------------------------------------
# Random models
# ---------------------------------------------------------------------------
def planted_partition(
    num_communities: int,
    community_size: int,
    p_in: float,
    p_out: float,
    *,
    weight_range: "tuple[float, float] | None" = None,
    seed=None,
) -> CSRGraph:
    """Planted-partition (stochastic block) graph with equal-size blocks.

    Each intra-block pair is an edge with probability ``p_in``, each
    inter-block pair with probability ``p_out``.  Pair sampling is done by
    drawing a binomial count per block pair and then sampling distinct pairs,
    so the cost is proportional to the number of edges, not pairs.

    ``weight_range=(lo, hi)`` draws each edge weight uniformly from
    ``[lo, hi)`` — the similarity-score weights of homology graphs like
    MG1/MG2 [16]; the default is unweighted (all ones).

    Ground-truth community of vertex ``v`` is ``v // community_size``.
    """
    if num_communities <= 0 or community_size <= 0:
        raise ValidationError("num_communities and community_size must be positive")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValidationError("p_in and p_out must lie in [0, 1]")
    rng = as_rng(seed)
    n = num_communities * community_size
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []

    def sample_within(base: int, size: int, p: float) -> None:
        total_pairs = size * (size - 1) // 2
        if total_pairs == 0 or p == 0.0:
            return
        count = rng.binomial(total_pairs, p)
        if count == 0:
            return
        # Sample distinct pair indices, decode to (i, j) with i < j.
        idx = rng.choice(total_pairs, size=count, replace=False)
        # Pair index k -> (i, j): enumerate pairs row by row.
        i = (size - 2 - np.floor(
            np.sqrt(-8.0 * idx + 4 * size * (size - 1) - 7) / 2.0 - 0.5
        )).astype(np.int64)
        j = (idx + i + 1 - size * (size - 1) // 2
             + (size - i) * ((size - i) - 1) // 2).astype(np.int64)
        us.append(base + i)
        vs.append(base + j)

    def sample_between(base_a: int, base_b: int, size: int, p: float) -> None:
        total_pairs = size * size
        if total_pairs == 0 or p == 0.0:
            return
        count = rng.binomial(total_pairs, p)
        if count == 0:
            return
        idx = rng.choice(total_pairs, size=count, replace=False)
        us.append(base_a + idx // size)
        vs.append(base_b + idx % size)

    for a in range(num_communities):
        sample_within(a * community_size, community_size, p_in)
        for b in range(a + 1, num_communities):
            sample_between(a * community_size, b * community_size,
                           community_size, p_out)

    if not us:
        return CSRGraph.empty(n)
    u = np.concatenate(us)
    v = np.concatenate(vs)
    lo, hi = _dedupe_pairs(u, v)
    if weight_range is None:
        return _build(n, lo, hi)
    w_lo, w_hi = weight_range
    if not (0 < w_lo <= w_hi):
        raise ValidationError("weight_range must satisfy 0 < lo <= hi")
    weights = rng.uniform(w_lo, w_hi, size=lo.size)
    edges = np.column_stack([lo, hi])
    return from_edge_array(n, edges, weights, combine="error")


def chung_lu(expected_degrees, *, seed=None) -> CSRGraph:
    """Chung–Lu random graph with the given expected degree sequence.

    Edge ``{i, j}`` (``i != j``) is present with probability
    ``min(1, w_i w_j / W)``; sampled by drawing ``W/2`` endpoint pairs
    proportionally to the weights and deduplicating, which preserves the
    heavy tail at a cost linear in the edge count.
    """
    w = np.asarray(expected_degrees, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("expected_degrees must be a non-empty 1-D sequence")
    if np.any(w < 0):
        raise ValidationError("expected degrees must be non-negative")
    rng = as_rng(seed)
    n = w.size
    total = w.sum()
    if total == 0:
        return CSRGraph.empty(n)
    p = w / total
    m_target = max(1, int(round(total / 2.0)))
    u = rng.choice(n, size=m_target, p=p)
    v = rng.choice(n, size=m_target, p=p)
    lo, hi = _dedupe_pairs(u, v)
    return _build(n, lo, hi)


def power_law_degrees(n: int, gamma: float, k_min: float, k_max: float,
                      *, seed=None) -> np.ndarray:
    """Sample ``n`` expected degrees from a bounded power law ``P(k) ∝ k^-gamma``."""
    if gamma <= 1.0:
        raise ValidationError("gamma must exceed 1 for a normalizable power law")
    if not (0 < k_min < k_max):
        raise ValidationError("require 0 < k_min < k_max")
    rng = as_rng(seed)
    u = rng.random(n)
    a = 1.0 - gamma
    return (k_min**a + u * (k_max**a - k_min**a)) ** (1.0 / a)


def rmat(
    scale: int,
    edge_factor: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=0,
) -> CSRGraph:
    """R-MAT (Kronecker-style) graph on ``2**scale`` vertices.

    Samples ``edge_factor * 2**scale`` directed pairs by recursive quadrant
    selection (probabilities ``a, b, c, 1-a-b-c``), symmetrizes, dedupes and
    drops self-loops.  Matches the skew of web crawls like CNR/uk-2002.
    ``seed`` defaults to 0, so ``rmat(scale, edge_factor)`` names one
    graph; pass ``seed=None`` for fresh entropy.
    """
    if scale <= 0 or scale > 30:
        raise ValidationError("scale must lie in 1..30")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValidationError("quadrant probabilities must be non-negative")
    rng = as_rng(seed)
    n = 1 << scale
    m = edge_factor * n
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # Quadrants: [a | b / c | d] on (u-bit, v-bit).
        ubit = (r >= a + b).astype(np.int64)
        vbit = ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(np.int64)
        u |= ubit << bit
        v |= vbit << bit
    lo, hi = _dedupe_pairs(u, v)
    return _build(n, lo, hi)


def watts_strogatz(n: int, k: int, rewire_prob: float, *, seed=None
                   ) -> CSRGraph:
    """Watts–Strogatz small-world graph.

    Start from a ring lattice where every vertex connects to its ``k``
    nearest neighbors (``k`` even), then rewire each edge's far endpoint
    with probability ``rewire_prob``.  Small-world graphs interpolate
    between the lattice regime (high clustering, Channel-like ordering
    sensitivity) and the random regime (no communities) — useful for
    stress-testing detectors across that spectrum.
    """
    if n <= 0:
        raise ValidationError("n must be positive")
    if k < 2 or k % 2 != 0 or k >= n:
        raise ValidationError("k must be even with 2 <= k < n")
    if not 0.0 <= rewire_prob <= 1.0:
        raise ValidationError("rewire_prob must lie in [0, 1]")
    rng = as_rng(seed)
    ids = np.arange(n, dtype=np.int64)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for offset in range(1, k // 2 + 1):
        us.append(ids)
        vs.append((ids + offset) % n)
    u = np.concatenate(us)
    v = np.concatenate(vs).copy()
    rewire = rng.random(u.size) < rewire_prob
    v[rewire] = rng.integers(0, n, size=int(rewire.sum()))
    lo, hi = _dedupe_pairs(u, v)
    return _build(n, lo, hi)


def random_geometric(n: int, radius: float, *, dim: int = 2, seed=None) -> CSRGraph:
    """Random geometric graph on the unit cube ``[0, 1]^dim``.

    Vertices are uniform points; an edge joins every pair within Euclidean
    distance ``radius``.  Pair enumeration uses a KD-tree, so construction
    is near-linear for the sparse radii used here.  RGGs combine a uniform
    degree distribution with strong geometric community structure — the
    Rgg_n_2_24_s0 signature the paper highlights (§6.2.1).
    """
    if n <= 0:
        raise ValidationError("n must be positive")
    if radius <= 0:
        raise ValidationError("radius must be positive")
    from scipy.spatial import cKDTree

    rng = as_rng(seed)
    points = rng.random((n, dim))
    tree = cKDTree(points)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    if pairs.size == 0:
        return CSRGraph.empty(n)
    return _build(n, pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64))


def relaxed_caveman(
    num_cliques: int,
    clique_size: int,
    rewire_prob: float,
    *,
    seed=None,
) -> CSRGraph:
    """Connected-caveman-style graph: ``num_cliques`` cliques with a fraction
    of edges rewired to random endpoints.

    Clique-dominated structure with occasional bridges — the coPapersDBLP
    (co-authorship) signature.
    """
    if num_cliques <= 0 or clique_size <= 1:
        raise ValidationError("need num_cliques >= 1 and clique_size >= 2")
    if not 0.0 <= rewire_prob <= 1.0:
        raise ValidationError("rewire_prob must lie in [0, 1]")
    rng = as_rng(seed)
    n = num_cliques * clique_size
    i, j = np.triu_indices(clique_size, k=1)
    base = (np.arange(num_cliques) * clique_size)[:, None]
    u = (base + i[None, :]).ravel()
    v = (base + j[None, :]).ravel()
    rewire = rng.random(u.size) < rewire_prob
    v = v.copy()
    v[rewire] = rng.integers(0, n, size=int(rewire.sum()))
    lo, hi = _dedupe_pairs(u, v)
    return _build(n, lo, hi)


# ---------------------------------------------------------------------------
# Structured models
# ---------------------------------------------------------------------------
def lfr_like(
    n: int,
    *,
    degree_gamma: float = 2.5,
    k_min: float = 3.0,
    k_max: float | None = None,
    community_gamma: float = 2.0,
    size_min: int = 20,
    size_max: int | None = None,
    mu: float = 0.1,
    seed=None,
) -> tuple[CSRGraph, np.ndarray]:
    """LFR-style benchmark graph: power-law degrees *and* planted
    power-law-sized communities with mixing parameter ``mu``.

    Each vertex spends a ``1 - mu`` fraction of its expected degree inside
    its community (Chung–Lu sampling within the community) and ``mu``
    outside (Chung–Lu across communities).  Small ``mu`` gives the high
    modularity + heavy degree tail combination of real web crawls (CNR,
    uk-2002); large ``mu`` the looser social networks (friendster).

    Returns ``(graph, ground_truth_communities)``.
    """
    if n <= 0:
        raise ValidationError("n must be positive")
    if not 0.0 <= mu <= 1.0:
        raise ValidationError("mu must lie in [0, 1]")
    rng = as_rng(seed)
    if k_max is None:
        k_max = max(k_min + 1, n / 10)
    if size_max is None:
        size_max = max(size_min + 1, n // 8)

    # Community sizes: draw power-law sizes until they cover n vertices.
    sizes: list[int] = []
    total = 0
    while total < n:
        s = int(round(power_law_degrees(1, community_gamma, size_min,
                                        size_max, seed=rng)[0]))
        s = min(s, n - total) if n - total < size_min else s
        sizes.append(max(2, s))
        total += sizes[-1]
    membership = np.repeat(np.arange(len(sizes)), sizes)[:n].astype(np.int64)
    rng.shuffle(membership)

    degrees = power_law_degrees(n, degree_gamma, k_min, k_max, seed=rng)
    intra_w = (1.0 - mu) * degrees
    inter_w = mu * degrees

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    # Intra edges: Chung–Lu within each community.
    for c in range(len(sizes)):
        members = np.flatnonzero(membership == c)
        if members.size < 2:
            continue
        w = intra_w[members]
        tw = w.sum()
        if tw <= 0:
            continue
        count = max(0, int(round(tw / 2.0)))
        if count == 0:
            continue
        p = w / tw
        us.append(members[rng.choice(members.size, size=count, p=p)])
        vs.append(members[rng.choice(members.size, size=count, p=p)])
    # Inter edges: Chung–Lu globally, dropping intra pairs afterwards.
    tw = inter_w.sum()
    if tw > 0:
        count = max(0, int(round(tw / 2.0)))
        if count:
            p = inter_w / tw
            a = rng.choice(n, size=count, p=p)
            b = rng.choice(n, size=count, p=p)
            cross = membership[a] != membership[b]
            us.append(a[cross])
            vs.append(b[cross])
    if not us:
        return CSRGraph.empty(n), membership
    lo, hi = _dedupe_pairs(np.concatenate(us), np.concatenate(vs))
    return _build(n, lo, hi), membership


def caveman_power_law(
    num_cliques: int,
    size_gamma: float,
    size_min: int,
    size_max: int,
    rewire_prob: float,
    *,
    seed=None,
) -> CSRGraph:
    """Caveman graph with power-law clique sizes and random rewiring.

    Co-authorship graphs (coPapersDBLP) are unions of per-paper author
    cliques whose sizes are heavy-tailed; drawing clique sizes from a
    bounded power law reproduces both the clique dominance and the degree
    RSD ~1 of Table 1.
    """
    if num_cliques <= 0:
        raise ValidationError("num_cliques must be positive")
    if size_min < 2 or size_max < size_min:
        raise ValidationError("need 2 <= size_min <= size_max")
    if not 0.0 <= rewire_prob <= 1.0:
        raise ValidationError("rewire_prob must lie in [0, 1]")
    rng = as_rng(seed)
    sizes = np.clip(
        np.round(power_law_degrees(num_cliques, size_gamma, size_min,
                                   size_max, seed=rng)).astype(np.int64),
        size_min, size_max,
    )
    bases = np.zeros(num_cliques, dtype=np.int64)
    np.cumsum(sizes[:-1], out=bases[1:])
    n = int(sizes.sum())
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for base, size in zip(bases.tolist(), sizes.tolist()):
        i, j = np.triu_indices(size, k=1)
        us.append(base + i)
        vs.append(base + j)
    u = np.concatenate(us)
    v = np.concatenate(vs).copy()
    rewire = rng.random(u.size) < rewire_prob
    v[rewire] = rng.integers(0, n, size=int(rewire.sum()))
    lo, hi = _dedupe_pairs(u, v)
    return _build(n, lo, hi)


def grid_lattice(dims: tuple[int, ...], *, periodic: bool = False) -> CSRGraph:
    """Regular lattice on ``prod(dims)`` vertices with nearest-neighbor edges.

    2-D/3-D lattices have near-constant degree and very weak modularity
    structure — the Channel / NLPKKT240 signature (low degree RSD, slow
    phase-1 convergence).
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d <= 0 for d in dims):
        raise ValidationError("dims must be positive")
    n = int(np.prod(dims))
    coords = np.indices(dims).reshape(len(dims), n)
    strides = np.array(
        [int(np.prod(dims[k + 1:])) for k in range(len(dims))], dtype=np.int64
    )
    ids = (coords * strides[:, None]).sum(axis=0)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for axis, size in enumerate(dims):
        if size == 1:
            continue
        coord = coords[axis]
        if periodic and size > 2:
            nbr_ok = np.ones(n, dtype=bool)
            shift = np.where(coord == size - 1, 1 - size, 1)
        else:
            nbr_ok = coord < size - 1
            shift = np.ones(n, dtype=np.int64)
        src = ids[nbr_ok]
        dst = src + shift[nbr_ok] * strides[axis]
        us.append(src)
        vs.append(dst)
    if not us:
        return CSRGraph.empty(n)
    lo, hi = _dedupe_pairs(np.concatenate(us), np.concatenate(vs))
    return _build(n, lo, hi)


def road_with_spokes(
    num_hubs: int,
    spokes_per_hub: int,
    *,
    extra_chain_skip: int = 0,
    seed=None,
) -> CSRGraph:
    """A chain of "hub" vertices, each carrying single-degree "spokes".

    This is exactly the §6.2 scenario used to explain why vertex following
    can prolong convergence on road networks (Europe-osm): hubs form a long
    chain; each hub also connects to ``spokes_per_hub`` degree-1 vertices.
    ``extra_chain_skip`` > 0 adds hub-to-hub shortcut edges every that many
    hubs (mimicking highway links).
    """
    if num_hubs <= 1 or spokes_per_hub < 0:
        raise ValidationError("need num_hubs >= 2 and spokes_per_hub >= 0")
    n = num_hubs * (1 + spokes_per_hub)
    hubs = np.arange(num_hubs, dtype=np.int64)
    us = [hubs[:-1]]
    vs = [hubs[1:]]
    if extra_chain_skip > 1:
        shortcut_src = hubs[:-extra_chain_skip:extra_chain_skip]
        us.append(shortcut_src)
        vs.append(shortcut_src + extra_chain_skip)
    if spokes_per_hub:
        spoke_ids = num_hubs + np.arange(
            num_hubs * spokes_per_hub, dtype=np.int64
        )
        owner = np.repeat(hubs, spokes_per_hub)
        us.append(owner)
        vs.append(spoke_ids)
    lo, hi = _dedupe_pairs(np.concatenate(us), np.concatenate(vs))
    return _build(n, lo, hi)


def clique_chain(num_cliques: int, clique_size: int) -> CSRGraph:
    """Cliques joined in a chain by single bridge edges (deterministic)."""
    if num_cliques <= 0 or clique_size <= 1:
        raise ValidationError("need num_cliques >= 1 and clique_size >= 2")
    n = num_cliques * clique_size
    i, j = np.triu_indices(clique_size, k=1)
    base = (np.arange(num_cliques) * clique_size)[:, None]
    u = (base + i[None, :]).ravel()
    v = (base + j[None, :]).ravel()
    if num_cliques > 1:
        bridge_src = (np.arange(num_cliques - 1) * clique_size) + clique_size - 1
        bridge_dst = bridge_src + 1
        u = np.concatenate([u, bridge_src])
        v = np.concatenate([v, bridge_dst])
    return _build(n, np.minimum(u, v), np.maximum(u, v))


# ---------------------------------------------------------------------------
# Small deterministic fixtures
# ---------------------------------------------------------------------------
def path_graph(n: int) -> CSRGraph:
    """Path on ``n`` vertices."""
    if n <= 0:
        raise ValidationError("n must be positive")
    ids = np.arange(n - 1, dtype=np.int64)
    return _build(n, ids, ids + 1)


def cycle_graph(n: int) -> CSRGraph:
    """Cycle on ``n`` vertices (``n >= 3``)."""
    if n < 3:
        raise ValidationError("a cycle needs n >= 3")
    ids = np.arange(n, dtype=np.int64)
    return _build(n, np.minimum(ids, (ids + 1) % n), np.maximum(ids, (ids + 1) % n))


def star_graph(num_leaves: int) -> CSRGraph:
    """Star: vertex 0 joined to ``num_leaves`` degree-1 leaves."""
    if num_leaves < 1:
        raise ValidationError("a star needs at least one leaf")
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    return _build(num_leaves + 1, np.zeros(num_leaves, np.int64), leaves)


def complete_graph(n: int) -> CSRGraph:
    """Clique on ``n`` vertices."""
    if n <= 0:
        raise ValidationError("n must be positive")
    i, j = np.triu_indices(n, k=1)
    return _build(n, i.astype(np.int64), j.astype(np.int64))


_KARATE_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 10),
    (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31), (1, 2),
    (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30), (2, 3),
    (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32), (3, 7),
    (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16), (6, 16),
    (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33),
    (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
    (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32), (23, 33),
    (24, 25), (24, 27), (24, 31), (25, 31), (26, 29), (26, 33), (27, 33),
    (28, 31), (28, 33), (29, 32), (29, 33), (30, 32), (30, 33), (31, 32),
    (31, 33), (32, 33),
]


def karate_club() -> CSRGraph:
    """Zachary's karate club (34 vertices, 78 edges) — the classic fixture."""
    edges = np.asarray(_KARATE_EDGES, dtype=np.int64)
    return from_edge_array(34, edges, combine="error")


def two_cliques_bridge(clique_size: int) -> CSRGraph:
    """Two ``clique_size``-cliques joined by one bridge edge.

    The minimal graph with an unambiguous two-community structure; used in
    tests of swap prevention and of the local-maxima discussion (§4.2).
    """
    return clique_chain(2, clique_size)
