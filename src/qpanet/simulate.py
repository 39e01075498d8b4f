"""Generative simulator, graph ingestion, and empirical paradox reports.

Growth uses token-list sampling: a node of degree k and quality theta
holds k + theta entries in a flat token array, so drawing a uniform
token is a draw proportional to k + theta.  This relies on qualities
being integers.  The array is the copy model of Batagelj & Brandes
(Phys. Rev. E 71, 036113, 2005): after the seed nodes' blocks, each
arrival appends one copy token per link, standing for the target that
link picks, then its own beta + theta tokens.  Every position is fixed by
the qualities alone, so the whole array is laid out and every first
draw made before any target is known; copies are then resolved by
pointer jumping, as in Sanders & Schulz (IPL 116(7), 2016).

An arrival's beta targets are distinct.  Each link takes the first draw
of its own stream that repeats no earlier link of the same arrival,
which is exactly the law of drawing the targets one by one and redrawing
every repeat.  All links are settled together in whole-array rounds that
stop at the unique fixed point (``_resolve_targets``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import ModelParams
from .errors import DomainError, GraphParseError
from .quality import sample_quality

__all__ = [
    "Network",
    "EmpiricalReport",
    "grow_qpa",
    "grow_uniform",
    "load_graph",
    "empirical_report",
    "joint_histogram",
    "write_edge_list",
]


@dataclass
class Network:
    """An undirected attributed graph.

    ``edges`` lists each edge once in creation/file order; adjacency is
    CSR-style (``adj_indptr``, ``adj_indices``) over node ids
    ``0 .. n - 1``.  Grown networks number nodes by birth order with the
    seed clique first.
    """

    n: int
    beta: int
    qualities: np.ndarray
    edges: np.ndarray  # [m, 2]
    adj_indptr: np.ndarray
    adj_indices: np.ndarray
    provenance: str  # "qpa" | "uniform" | "ingested"
    seed: int | None = None

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adj_indptr)

    def neighbors(self, u: int) -> np.ndarray:
        return self.adj_indices[self.adj_indptr[u] : self.adj_indptr[u + 1]]

    def validate(self) -> None:
        """Structural invariants: symmetry, simplicity, degree-sum law."""
        deg = self.degrees
        if int(deg.sum()) != 2 * len(self.edges):
            raise AssertionError("degree sum != 2 |E|")
        if np.any(self.edges[:, 0] == self.edges[:, 1]):
            raise AssertionError("self-loop present")
        key = np.min(self.edges, axis=1).astype(np.int64) * self.n + np.max(
            self.edges, axis=1
        )
        if np.unique(key).size != len(self.edges):
            raise AssertionError("duplicate edge present")


@dataclass
class EmpiricalReport:
    """Per-network paradox fractions and the empirical joint histogram.

    Fractions count nodes whose attribute is strictly below the mean
    (median) of their neighbors' attributes, over nodes with at least
    one neighbor.  ``histogram`` maps (degree, quality) to its node
    fraction.
    """

    n: int
    isolated: int
    frac_degree_mean: float
    frac_degree_median: float
    frac_quality_mean: float
    frac_quality_median: float
    histogram: dict
    flags: dict | None = None


def _csr_from_edges(n: int, edges: np.ndarray):
    """CSR adjacency whose neighbor lists follow edge order.

    A stable sort of the flattened endpoints groups the occurrences of
    each node in edge order, so node ``u`` lists its neighbors exactly as
    appending both directions of every edge in turn would.
    """
    ends = edges.ravel()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    order = np.argsort(ends, kind="stable")
    # flat position p holds one endpoint of edge p // 2; p ^ 1 holds the other
    order ^= 1
    return indptr, ends[order]


def _draw(tok: np.ndarray, top: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One uniform token among the first ``top`` of ``tok``, per entry of ``top``."""
    pos = rng.random(top.size)
    pos *= top
    return tok[pos.astype(np.int64)]


def _token_table(n: int, beta: int, qualities: np.ndarray):
    """Token array of preferential growth, and the tokens each arrival sees.

    Node ``v`` owns ``beta + qualities[v]`` tokens (a seed node starts at
    degree ``beta``).  Arrival ``a``'s ``beta`` copy tokens, ``n + g`` for
    its slot ``g``, sit just before its own block, at ``top[a]``: the
    number of tokens present when it draws.
    """
    seed_size = beta + 1
    own = beta + qualities
    top = np.empty(n - seed_size, dtype=np.int64)
    top[0] = int(own[:seed_size].sum())
    np.cumsum(beta + own[seed_size:-1], out=top[1:])
    top[1:] += top[0]
    # one run of beta + 1 blocks per arrival: its copy tokens, one each,
    # then its own block
    val = np.empty(seed_size + top.size * (beta + 1), dtype=np.int64)
    cnt = np.empty_like(val)
    val[:seed_size] = np.arange(seed_size)
    cnt[:seed_size] = own[:seed_size]
    run_val = val[seed_size:].reshape(top.size, beta + 1)
    run_cnt = cnt[seed_size:].reshape(top.size, beta + 1)
    run_val[:, :beta] = n + np.arange(top.size * beta).reshape(top.size, beta)
    run_val[:, beta] = np.arange(seed_size, n)
    run_cnt[:, :beta] = 1
    run_cnt[:, beta] = own[seed_size:]
    tok = np.repeat(val, cnt)
    return tok, top


def _chase(lookup: np.ndarray, n: int) -> None:
    """Resolve copy pointers in place by pointer jumping.

    ``lookup[v] == v`` for node ids ``v < n``; entry ``n + g`` holds slot
    ``g``'s chosen token, which is a node id or another slot's pointer.
    Pointers only lead to earlier slots, so each jump halves every
    remaining chain and the loop ends after about log2(longest chain)
    passes.
    """
    todo = n + np.flatnonzero(lookup[n:] >= n)
    while todo.size:
        lookup[todo] = lookup[lookup[todo]]
        todo = todo[lookup[todo] >= n]


def _resolve_targets(
    n: int, beta: int, tok: np.ndarray, top: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Distinct targets of every arrival, as an ``[arrivals, beta]`` array.

    Slot ``g = a * beta + s`` is the ``s``-th link of arrival ``a``, which
    draws uniformly among the first ``top[a]`` tokens of ``tok``.  A token
    is a node id, or ``n + g`` for the copy of slot ``g``'s target.  Each
    slot owns a stream of independent draws and takes the first one that
    repeats no earlier slot of its arrival: the law of drawing the slots
    in turn and redrawing every repeat.  Every slot starts with one draw.
    Each round resolves all slots under the current choices, re-picks
    every slot's first valid draw, and doubles the draws of each slot
    that has none.  A slot depends only on earlier slots, so the rounds
    reach the unique fixed point, where no choice changes; how many
    draws a stream has revealed by then does not change which one is
    first valid.
    """
    first = _draw(tok, np.repeat(top, beta), rng)
    # later attempts, grouped by slot in draw order; the slots whose current
    # choice is one of them, ascending, with that choice
    more_slot = more_tok = pick_slot = pick_tok = np.empty(0, dtype=np.int64)
    # buffers reused by every round
    lookup = np.empty(n + first.size, dtype=np.int64)
    lookup[:n] = np.arange(n)
    res = lookup[n:]
    sib = res.reshape(-1, beta)
    dup = np.zeros(sib.shape, dtype=bool)
    while True:
        res[:] = first
        res[pick_slot] = pick_tok
        _chase(lookup, n)
        # whether each slot's first attempt repeats an earlier slot's choice
        for s in range(1, beta):
            val = lookup[first[s::beta]]
            dup[:, s] = (sib[:, :s] == val[:, None]).any(axis=1)
        new_slot = new_tok = np.empty(0, dtype=np.int64)
        if more_slot.size and dup.any():
            # the first later attempt that repeats no earlier slot, for each
            # slot whose first attempt does
            more_val = lookup[more_tok]
            more_pos = more_slot % beta
            more_dup = ~dup.ravel()[more_slot]
            for s in range(1, beta):
                more_dup |= (more_pos >= s) & (more_val == res[more_slot - s])
            ok_slot, ok_tok = more_slot[~more_dup], more_tok[~more_dup]
            lead = np.ones(ok_slot.size, dtype=bool)
            lead[1:] = ok_slot[1:] != ok_slot[:-1]
            new_slot, new_tok = ok_slot[lead], ok_tok[lead]
            dup.ravel()[new_slot] = False
        need = np.flatnonzero(dup)
        if need.size:
            # a slot with no valid attempt doubles its attempts, so even a
            # slot that needs hundreds of draws settles in a few rounds; its
            # first new draw stands as its choice until the next round
            have = 1 + np.searchsorted(more_slot, need, "right")
            have -= np.searchsorted(more_slot, need, "left")
            drawn_slot = np.repeat(need, have)
            drawn = _draw(tok, top[drawn_slot // beta], rng)
            order = np.argsort(np.concatenate((more_slot, drawn_slot)), kind="stable")
            more_slot = np.concatenate((more_slot, drawn_slot))[order]
            more_tok = np.concatenate((more_tok, drawn))[order]
            order = np.argsort(np.concatenate((new_slot, need)))
            new_slot = np.concatenate((new_slot, need))[order]
            new_tok = np.concatenate((new_tok, drawn[np.cumsum(have) - have]))[order]
        elif np.array_equal(new_slot, pick_slot) and np.array_equal(new_tok, pick_tok):
            return sib
        pick_slot, pick_tok = new_slot, new_tok


def _grow(n: int, params: ModelParams, seed: int, uniform_attachment: bool) -> Network:
    beta = params.beta
    if n <= beta + 1:
        raise DomainError(f"n must exceed beta + 1 = {beta + 1}, got {n}")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")
    rng = np.random.default_rng(np.uint64(seed))
    qualities = sample_quality(params.quality, rng, size=n)
    seed_size = beta + 1
    arrivals = np.arange(seed_size, n, dtype=np.int64)
    seed_i, seed_j = np.triu_indices(seed_size, 1)
    m0 = seed_i.size
    edges = np.empty((m0 + beta * arrivals.size, 2), dtype=np.int64)
    edges[:m0, 0] = seed_i
    edges[:m0, 1] = seed_j
    edges[m0:, 0] = np.repeat(arrivals, beta)
    if uniform_attachment:
        # token p is node p, and arrival x draws among the first x
        tok, top = np.arange(n, dtype=np.int64), arrivals
    else:
        tok, top = _token_table(n, beta, qualities)
    edges[m0:, 1] = _resolve_targets(n, beta, tok, top, rng).ravel()
    del tok, top  # the largest arrays of the growth; free them before the CSR
    indptr, indices = _csr_from_edges(n, edges)
    return Network(
        n=n,
        beta=beta,
        qualities=qualities,
        edges=edges,
        adj_indptr=indptr,
        adj_indices=indices,
        provenance="uniform" if uniform_attachment else "qpa",
        seed=int(seed),
    )


def grow_qpa(n: int, params: ModelParams, seed: int) -> Network:
    """Grow a network attaching proportionally to degree + quality.

    Starts from a complete graph on ``beta + 1`` nodes (the smallest
    seed allowing ``beta`` distinct targets); every arrival draws its
    quality, then links to ``beta`` distinct existing nodes sampled by
    token list at the instant of arrival.  Deterministic given ``seed``.
    """
    return _grow(n, params, seed, uniform_attachment=False)


def grow_uniform(n: int, params: ModelParams, seed: int) -> Network:
    """Grow a network whose arrivals attach uniformly at random.

    Qualities are assigned exactly as in ``grow_qpa`` but attachment
    ignores both degree and quality, so neighbor attributes are
    uncorrelated with the node's own.
    """
    return _grow(n, params, seed, uniform_attachment=True)


def load_graph(edge_path, quality_path) -> Network:
    """Build a Network from an edge list and a node-quality file.

    Edge file: one ``u v`` pair of non-negative integers per line;
    quality file: one ``node_id quality`` pair per line.  ``#`` comments
    and blank lines are allowed in both.  Self-loops, duplicate edges,
    and nodes missing a quality are rejected with line numbers / ids.
    """
    edges_list: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    with open(edge_path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphParseError(
                    f"expected 'u v', got {raw.strip()!r}", line=lineno
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(
                    f"non-integer endpoint in {raw.strip()!r}", line=lineno
                ) from None
            if u < 0 or v < 0:
                raise GraphParseError("negative node id", line=lineno)
            if u == v:
                raise GraphParseError(f"self-loop at node {u}", line=lineno)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphParseError(f"duplicate edge {u} {v}", line=lineno)
            seen.add(key)
            edges_list.append((u, v))

    quality_map: dict[int, int] = {}
    with open(quality_path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphParseError(
                    f"expected 'node_id quality', got {raw.strip()!r}", line=lineno
                )
            try:
                node, q = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(
                    f"non-integer entry in {raw.strip()!r}", line=lineno
                ) from None
            if node < 0:
                raise GraphParseError("negative node id", line=lineno)
            if q < 0:
                raise GraphParseError(f"negative quality {q}", line=lineno)
            if node in quality_map:
                raise GraphParseError(f"duplicate quality for node {node}", line=lineno)
            quality_map[node] = q

    if not quality_map:
        raise GraphParseError("quality file lists no nodes")
    edge_nodes = {u for u, _ in edges_list} | {v for _, v in edges_list}
    missing = sorted(edge_nodes - quality_map.keys())
    if missing:
        raise GraphParseError(f"missing quality for node {missing[0]}")
    n = max(max(quality_map), max(edge_nodes, default=0)) + 1
    qualities = np.zeros(n, dtype=np.int64)
    listed = np.zeros(n, dtype=bool)
    for node, q in quality_map.items():
        qualities[node] = q
        listed[node] = True
    unlisted = np.flatnonzero(~listed)
    if unlisted.size:
        raise GraphParseError(f"missing quality for node {int(unlisted[0])}")
    edges = np.array(edges_list, dtype=np.int64).reshape(-1, 2)
    indptr, indices = _csr_from_edges(n, edges)
    return Network(
        n=n,
        beta=0,
        qualities=qualities,
        edges=edges,
        adj_indptr=indptr,
        adj_indices=indices,
        provenance="ingested",
        seed=None,
    )


def _neighbor_stats(own: np.ndarray, indices: np.ndarray, owner: np.ndarray, deg: np.ndarray):
    """Which nodes sit strictly below the mean and the median of their neighbors.

    ``own`` holds one integer value per node; ``indices`` is the CSR
    neighbor array and ``owner`` the node owning each of its entries.  A
    node of degree ``d`` is below its neighbors' mean exactly when
    ``own * d < sum``; both sides are integers, and the float sum of
    integers is exact below 2**53.  It is below their lower (CDF) median
    exactly when at most ``(d - 1) // 2`` neighbors have a value
    ``<= own``.  Isolated nodes satisfy neither.
    """
    n = own.size
    nbr = own[indices]
    sums = np.bincount(owner, weights=nbr, minlength=n)
    at_most = np.bincount(owner, weights=nbr <= own[owner], minlength=n)
    return own * deg < sums, at_most <= (deg - 1) // 2


def empirical_report(net: Network, include_flags: bool = False) -> EmpiricalReport:
    """Count nodes experiencing each paradox and build the joint histogram.

    A node experiences the mean (median) paradox in an attribute when
    its value is strictly below the mean (median) of its neighbors'
    values; the median of an even-sized neighbor multiset is its lower
    CDF median, matching the analytic convention.  Isolated nodes are
    excluded from the fractions and counted separately.
    """
    deg = net.degrees
    isolated = int(np.sum(deg == 0))
    owner = np.repeat(np.arange(net.n), deg)
    flags = {}
    for attr, own in (("degree", deg), ("quality", net.qualities)):
        flags[attr + "_mean"], flags[attr + "_median"] = _neighbor_stats(
            own, net.adj_indices, owner, deg
        )
    denom = max(net.n - isolated, 1)
    return EmpiricalReport(
        n=net.n,
        isolated=isolated,
        frac_degree_mean=float(flags["degree_mean"].sum()) / denom,
        frac_degree_median=float(flags["degree_median"].sum()) / denom,
        frac_quality_mean=float(flags["quality_mean"].sum()) / denom,
        frac_quality_median=float(flags["quality_median"].sum()) / denom,
        histogram=joint_histogram(net),
        flags=flags if include_flags else None,
    )


def joint_histogram(net: Network) -> dict:
    """Normalized histogram of (degree, quality) over all nodes."""
    deg = net.degrees
    qual = net.qualities
    kmax = int(deg.max()) if net.n else 0
    tmax = int(qual.max()) if net.n else 0
    key = deg.astype(np.int64) * (tmax + 1) + qual
    counts = np.bincount(key, minlength=(kmax + 1) * (tmax + 1))
    total = float(net.n)
    out = {}
    for flat in np.flatnonzero(counts):
        out[(int(flat // (tmax + 1)), int(flat % (tmax + 1)))] = counts[flat] / total
    return out


def write_edge_list(net: Network, fh) -> None:
    """One ``u v`` line per edge, in creation order."""
    for u, v in net.edges:
        fh.write(f"{int(u)} {int(v)}\n")
