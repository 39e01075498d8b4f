import io
import itertools
import os
import subprocess
import sys
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import qpanet
from qpanet.analytic import ModelParams
from qpanet.errors import DomainError, GraphParseError
from qpanet.quality import make_bernoulli, make_exponential
from qpanet.simulate import (
    Network,
    _csr_from_edges,
    empirical_report,
    grow_qpa,
    grow_uniform,
    joint_histogram,
    load_graph,
    write_edge_list,
)


def small_params(beta=2):
    return ModelParams(beta=beta, quality=make_exponential(0.5, 4))


class TestGrowth:
    def test_edge_count_formula(self):
        net = grow_qpa(1000, small_params(2), seed=1)
        assert len(net.edges) == 3 + 2 * (1000 - 3)
        assert int(net.degrees.sum()) == 2 * len(net.edges)

    def test_min_degree_nonseed(self):
        net = grow_qpa(1000, small_params(2), seed=2)
        assert net.degrees[3:].min() >= 2
        netu = grow_uniform(1000, ModelParams(beta=3, quality=make_bernoulli(0.5, 4)), 3)
        assert netu.degrees[4:].min() >= 3

    def test_structural_invariants(self):
        for grow in (grow_qpa, grow_uniform):
            net = grow(2000, small_params(2), seed=5)
            net.validate()

    def test_determinism_byte_identical(self):
        p = small_params(2)
        for grow in (grow_qpa, grow_uniform):
            a = grow(5000, p, seed=77)
            b = grow(5000, p, seed=77)
            bufa, bufb = io.StringIO(), io.StringIO()
            write_edge_list(a, bufa)
            write_edge_list(b, bufb)
            assert bufa.getvalue() == bufb.getvalue()
            assert np.array_equal(a.qualities, b.qualities)
            assert a.adj_indices.tobytes() == b.adj_indices.tobytes()

    def test_seed_changes_output(self):
        p = small_params(2)
        a = grow_qpa(500, p, seed=1)
        b = grow_qpa(500, p, seed=2)
        assert not np.array_equal(a.edges, b.edges)

    def test_too_small_rejected(self):
        with pytest.raises(DomainError):
            grow_qpa(3, small_params(2), seed=0)

    def test_qualities_within_range(self):
        net = grow_qpa(2000, small_params(2), seed=9)
        assert net.qualities.min() >= 0
        assert net.qualities.max() <= 4

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        for grow in (grow_qpa, grow_uniform):
            with pytest.raises(DomainError, match="seed"):
                grow(100, small_params(2), seed)

    def test_provenance_and_seed_recorded(self):
        net = grow_uniform(100, small_params(2), seed=4)
        assert net.provenance == "uniform"
        assert net.seed == 4

    def test_growth_never_imports_scipy(self):
        # importing scipy.special is most of a fresh growth process's set-up
        # time, so the package and the simulator must not load it
        code = (
            "import sys\n"
            "import qpanet\n"
            "params = qpanet.ModelParams(beta=2, quality=qpanet.make_exponential(0.5, 4))\n"
            "qpanet.empirical_report(qpanet.grow_qpa(2000, params, seed=1))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(qpanet.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.strip() == "[]"


def exact_target_law(n: int, beta: int, uniform: bool) -> dict:
    """Exact probability of every ordered target sequence of a small network.

    Each arrival draws its ``beta`` targets one at a time, redrawing any
    repeat, so given the earlier picks a target ``t`` is chosen with
    probability ``w(t) / (W - sum of w over earlier picks)``.  Weights
    are ``degree + quality`` for preferential growth and 1 for uniform
    growth.  Preferential laws are averaged over every quality vector of
    ``make_bernoulli(0.5, 3)``; the last node's quality never matters.
    """
    seed = beta + 1
    law: dict = {}
    qual_vectors = [()] if uniform else list(itertools.product((0, 3), repeat=n - 1))
    for quals in qual_vectors:

        def walk(x, deg, prob, seq):
            if x == n:
                law[seq] = law.get(seq, 0.0) + prob
                return
            w = [1.0] * x if uniform else [deg[i] + quals[i] for i in range(x)]
            for picks in itertools.permutations(range(x), beta):
                p, left = prob, float(sum(w))
                for t in picks:
                    p *= w[t] / left
                    left -= w[t]
                nxt = deg + [beta]
                for t in picks:
                    nxt[t] += 1
                walk(x + 1, nxt, p, seq + picks)

        walk(seed, [beta] * seed, 1.0 / len(qual_vectors), ())
    return law


class TestExactLaw:
    SEEDS = 10_000

    @pytest.mark.parametrize(
        "beta, n, uniform", [(2, 5, False), (2, 6, False), (3, 6, False), (2, 6, True)]
    )
    def test_target_sequences_follow_sequential_rejection(self, beta, n, uniform):
        law = exact_target_law(n, beta, uniform)
        grow = grow_uniform if uniform else grow_qpa
        params = ModelParams(beta=beta, quality=make_bernoulli(0.5, 3))
        m0 = (beta + 1) * beta // 2
        seen = Counter(
            tuple(int(t) for t in grow(n, params, seed).edges[m0:, 1])
            for seed in range(self.SEEDS)
        )
        impossible = set(seen) - set(law)
        assert not impossible, f"sequences of probability zero observed: {impossible}"
        keys = sorted(law)
        expected = np.array([law[k] for k in keys]) * self.SEEDS
        observed = np.array([seen[k] for k in keys], dtype=float)
        # pool the sparse cells so every chi-square cell expects >= 5
        sparse = expected < 5
        if sparse.any():
            expected = np.append(expected[~sparse], expected[sparse].sum())
            observed = np.append(observed[~sparse], observed[sparse].sum())
        assert stats.chisquare(observed, expected).pvalue > 1e-3


def csr_by_loop(n: int, edges: np.ndarray):
    """Reference CSR build: append both directions of every edge in turn."""
    deg = np.bincount(edges.ravel(), minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    cursor = indptr[:-1].copy()
    for a, b in edges:
        indices[cursor[a]] = b
        cursor[a] += 1
        indices[cursor[b]] = a
        cursor[b] += 1
    return indptr, indices


class TestCsr:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_edge_loop_bytes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        # any ordered pairs, u > v included; nodes no edge names stay isolated
        m = int(rng.integers(0, 3 * n))
        edges = rng.integers(0, max(n - 5, 1), size=(m, 2)).astype(np.int64)
        got = _csr_from_edges(n, edges)
        want = csr_by_loop(n, edges)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    def test_zero_edges(self):
        got = _csr_from_edges(4, np.empty((0, 2), dtype=np.int64))
        want = csr_by_loop(4, np.empty((0, 2), dtype=np.int64))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_grown_network(self):
        net = grow_qpa(3000, small_params(3), seed=8)
        want = csr_by_loop(net.n, net.edges)
        assert net.adj_indptr.tobytes() == want[0].tobytes()
        assert net.adj_indices.tobytes() == want[1].tobytes()


class TestLoadGraph:
    def test_triangle(self, tmp_path):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("0 1\n1 2\n2 0\n")
        qp.write_text("0 0\n1 0\n2 5\n")
        net = load_graph(ep, qp)
        assert net.n == 3
        assert list(net.degrees) == [2, 2, 2]
        assert net.provenance == "ingested"
        assert net.seed is None

    def test_self_loop_names_line(self, tmp_path):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("0 1\n7 7\n")
        qp.write_text("0 0\n1 0\n7 1\n")
        with pytest.raises(GraphParseError, match="line 2"):
            load_graph(ep, qp)

    def test_duplicate_edge_names_line(self, tmp_path):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("0 1\n1 0\n")
        qp.write_text("0 0\n1 0\n")
        with pytest.raises(GraphParseError, match="line 2"):
            load_graph(ep, qp)

    def test_missing_quality_names_node(self, tmp_path):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("0 1\n1 2\n")
        qp.write_text("0 0\n1 0\n")
        with pytest.raises(GraphParseError, match="node 2"):
            load_graph(ep, qp)

    def test_empty_quality_file_rejected(self, tmp_path):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("0 1\n")
        qp.write_text("")
        with pytest.raises(GraphParseError):
            load_graph(ep, qp)

    def test_comments_and_isolated_nodes(self, tmp_path):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("# edges\n0 1\n")
        qp.write_text("0 1\n1 1\n2 3  # isolated node\n")
        net = load_graph(ep, qp)
        assert net.n == 3
        assert net.degrees[2] == 0

    def test_malformed_edge_line(self, tmp_path):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("0 1 2\n")
        qp.write_text("0 0\n")
        with pytest.raises(GraphParseError, match="line 1"):
            load_graph(ep, qp)


class TestEmpiricalReport:
    def _net(self, tmp_path, edges, qualities):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("".join(f"{u} {v}\n" for u, v in edges))
        qp.write_text("".join(f"{i} {q}\n" for i, q in enumerate(qualities)))
        return load_graph(ep, qp)

    def test_star_graph(self, tmp_path):
        net = self._net(tmp_path, [(0, i) for i in range(1, 11)], [1] * 11)
        rep = empirical_report(net, include_flags=True)
        assert rep.frac_degree_mean == pytest.approx(10.0 / 11.0)
        assert not rep.flags["degree_mean"][0]  # hub not flagged
        assert rep.flags["degree_mean"][1:].all()

    def test_triangle_with_one_high_quality(self, tmp_path):
        net = self._net(tmp_path, [(0, 1), (1, 2), (2, 0)], [0, 0, 5])
        rep = empirical_report(net)
        assert rep.frac_quality_mean == pytest.approx(2.0 / 3.0)
        # the lower median of {0, 5} is 0 and the inequality is strict
        assert rep.frac_quality_median == 0.0

    def test_equal_qualities_no_quality_paradox(self, tmp_path):
        net = self._net(tmp_path, [(0, 1), (1, 2), (2, 3)], [2, 2, 2, 2])
        rep = empirical_report(net)
        assert rep.frac_quality_mean == 0.0
        assert rep.frac_quality_median == 0.0

    def test_isolated_excluded_and_counted(self, tmp_path):
        net = self._net(tmp_path, [(0, 1)], [0, 1, 3])
        rep = empirical_report(net)
        assert rep.isolated == 1
        assert rep.frac_quality_mean == pytest.approx(0.5)  # node 0 only


def networkx_report(graph: nx.Graph, quality: dict) -> dict:
    """Isolated count and the four paradox fractions, read from networkx."""
    counts = dict.fromkeys(("degree_mean", "degree_median", "quality_mean", "quality_median"), 0)
    active = 0
    for u in graph:
        nbrs = list(graph.neighbors(u))
        if not nbrs:
            continue
        active += 1
        for attr, own, vals in (
            ("degree", graph.degree(u), [graph.degree(v) for v in nbrs]),
            ("quality", quality[u], [quality[v] for v in nbrs]),
        ):
            vals.sort()
            counts[attr + "_mean"] += own < sum(vals) / len(vals)
            counts[attr + "_median"] += own < vals[(len(vals) - 1) // 2]
    out = {"isolated": nx.number_of_isolates(graph)}
    for key, c in counts.items():
        out["frac_" + key] = c / max(active, 1)
    return out


class TestNetworkxOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_report_matches_networkx(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(20, 200))
        graph = nx.gnm_random_graph(n, int(rng.integers(n // 2, 3 * n)), seed=seed)
        quality = {u: int(rng.integers(0, 5)) for u in graph}
        # random orientation, so the file lists some edges with u > v
        lines = [f"{u} {v}\n" if rng.random() < 0.5 else f"{v} {u}\n" for u, v in graph.edges]
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("".join(lines))
        qp.write_text("".join(f"{u} {quality[u]}\n" for u in graph))
        rep = empirical_report(load_graph(ep, qp))
        want = networkx_report(graph, quality)
        assert rep.isolated == want["isolated"]
        for key, value in want.items():
            assert getattr(rep, key) == pytest.approx(value, abs=1e-12), key


def flags_by_sort(net: Network) -> dict:
    """Reference paradox flags: neighbor means by division, medians by lexsort.

    The median of each node's neighbors is read from its segment of the
    neighbor values sorted by (owner, value), at offset ``(d - 1) // 2``.
    """

    def stats_of(values):
        n = net.adj_indptr.size - 1
        deg = np.diff(net.adj_indptr)
        nbr_vals = values[net.adj_indices].astype(float)
        owner = np.repeat(np.arange(n), deg)
        sums = np.bincount(owner, weights=nbr_vals, minlength=n)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(deg > 0, sums / np.maximum(deg, 1), np.nan)
        order = np.lexsort((nbr_vals, owner))
        snbr = nbr_vals[order]
        med_idx = net.adj_indptr[:-1] + (np.maximum(deg, 1) - 1) // 2
        medians = np.full(n, -1.0)
        nonzero = deg > 0
        medians[nonzero] = snbr[med_idx[nonzero]]
        return means, medians

    deg = net.degrees
    active = deg > 0
    qual = net.qualities.astype(float)
    deg_mean, deg_med = stats_of(deg.astype(np.int64))
    q_mean, q_med = stats_of(net.qualities)
    return {
        "degree_mean": active & (deg < deg_mean),
        "degree_median": active & (deg < deg_med),
        "quality_mean": active & (qual < q_mean),
        "quality_median": active & (qual < q_med),
    }


def network_of(n: int, edges, qualities) -> Network:
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    indptr, indices = _csr_from_edges(n, edges)
    return Network(
        n=n,
        beta=0,
        qualities=np.array(qualities, dtype=np.int64),
        edges=edges,
        adj_indptr=indptr,
        adj_indices=indices,
        provenance="ingested",
    )


@st.composite
def small_graphs(draw):
    """Simple graphs of up to 12 nodes with qualities 0..3: many ties,
    both degree parities, isolated nodes and zero qualities."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    qualities = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return network_of(n, [p for p, k in zip(pairs, keep) if k], qualities)


class TestParadoxFlags:
    def assert_flags_match_sort(self, net):
        got = empirical_report(net, include_flags=True).flags
        want = flags_by_sort(net)
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    @settings(max_examples=300, deadline=None)
    @given(net=small_graphs())
    def test_small_graphs(self, net):
        self.assert_flags_match_sort(net)

    def test_star(self):
        self.assert_flags_match_sort(network_of(11, [(0, i) for i in range(1, 11)], [1] * 11))

    def test_triangle(self):
        self.assert_flags_match_sort(network_of(3, [(0, 1), (1, 2), (2, 0)], [0, 0, 5]))

    @pytest.mark.parametrize(
        "beta, quality",
        [(2, make_exponential(0.5, 4)), (3, make_bernoulli(0.5, 50))],
        ids=["beta2-exponential", "beta3-bernoulli"],
    )
    def test_grown_network(self, beta, quality):
        self.assert_flags_match_sort(grow_qpa(200_000, ModelParams(beta=beta, quality=quality), 5))


class TestJointHistogram:
    def test_three_clique(self, tmp_path):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("0 1\n1 2\n2 0\n")
        qp.write_text("0 1\n1 1\n2 1\n")
        net = load_graph(ep, qp)
        hist = joint_histogram(net)
        assert hist == {(2, 1): 1.0}

    def test_sums_to_one(self):
        net = grow_qpa(3000, small_params(2), seed=11)
        hist = joint_histogram(net)
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_ba_low_degree_mass(self):
        # the stationary fraction of degree-2 nodes in a beta=2
        # degree-driven network is 1/2
        params = ModelParams(beta=2, quality=make_bernoulli(1.0, 8))
        vals = []
        for seed in (0, 1):
            net = grow_qpa(200_000, params, seed)
            vals.append(joint_histogram(net).get((2, 0), 0.0))
        assert np.mean(vals) == pytest.approx(0.5, abs=0.01)


class TestQpaVsUniformCorrelation:
    def test_quality_correlation_discrimination(self):
        # neighbors of quality-0 nodes: the growth rule ties their mean
        # quality away from the population mean; uniform attachment does not
        params = ModelParams(beta=2, quality=make_bernoulli(0.5, 8))
        mu = params.quality.mean
        qpa_devs, uni_devs = [], []
        for seed in range(10):
            for grow, acc in ((grow_qpa, qpa_devs), (grow_uniform, uni_devs)):
                net = grow(100_000, params, seed)
                deg, qual = net.degrees, net.qualities
                owner = np.repeat(np.arange(net.n), deg)
                nbq = qual[net.adj_indices].astype(float)
                sums = np.bincount(owner, weights=nbq, minlength=net.n)
                pernode = sums / np.maximum(deg, 1)
                acc.append(pernode[qual == 0].mean())
        qpa_devs = np.array(qpa_devs)
        uni_devs = np.array(uni_devs)
        qpa_t = abs(qpa_devs.mean() - mu) / (qpa_devs.std(ddof=1) / np.sqrt(10))
        uni_t = abs(uni_devs.mean() - mu) / (uni_devs.std(ddof=1) / np.sqrt(10))
        assert qpa_t > 3.0
        assert uni_t < 3.0
