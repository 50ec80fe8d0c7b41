"""Property-based tests on application substrates and kernels.

These run under the functional Cilkview executor (no timing) so hypothesis
can afford many examples, plus targeted properties of the graph generator.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import CilkviewAnalyzer
from repro.apps import make_app
from repro.apps.cilk5.nqueens import NQ_SOLUTIONS, CilkNQueens
from repro.apps.ligra.graph import HostGraph, _rmat_graph, rmat, rmat_graph


def run_functionally(app):
    analyzer = CilkviewAnalyzer()
    app.setup(analyzer.machine)
    report = analyzer.analyze(app.make_root())
    app.check()
    return report


# ----------------------------------------------------------------------
# cilksort
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.integers(4, 400), st.integers(2, 64), st.integers(0, 2**32))
def test_cilksort_sorts_any_input(n, grain, seed):
    app = make_app("cilk5-cs", n=n, grain=grain, seed=seed)
    run_functionally(app)  # check() asserts sortedness vs the input


@settings(max_examples=10, deadline=None)
@given(st.integers(8, 200))
def test_cilksort_work_scales_superlinearly(n):
    small = run_functionally(make_app("cilk5-cs", n=n, grain=4))
    big = run_functionally(make_app("cilk5-cs", n=2 * n, grain=4))
    assert big.work > small.work


# ----------------------------------------------------------------------
# N-queens
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(NQ_SOLUTIONS)[:4]), st.integers(0, 3))
def test_nqueens_counts_known_solutions(n, cutoff):
    app = make_app("cilk5-nq", n=n, cutoff=min(cutoff, n))
    run_functionally(app)


def test_nqueens_legal_matches_bruteforce():
    legal = CilkNQueens.legal
    for placed in ([0], [0, 2], [1, 3, 0]):
        row = len(placed)
        for col in range(6):
            expected = all(
                c != col and abs(c - col) != row - r for r, c in enumerate(placed)
            )
            assert legal(placed, row, col) == expected


# ----------------------------------------------------------------------
# LU / matmul / transpose
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(8, 4), (16, 4), (16, 8)]), st.integers(0, 2**16))
def test_lu_factors_random_matrices(shape, seed):
    n, grain = shape
    run_functionally(make_app("cilk5-lu", n=n, grain=grain, seed=seed))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(8, 4), (16, 4), (16, 8)]), st.integers(0, 2**16))
def test_matmul_random_matrices(shape, seed):
    n, grain = shape
    run_functionally(make_app("cilk5-mm", n=n, grain=grain, seed=seed))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(8, 4), (16, 8), (32, 8)]), st.integers(0, 2**16))
def test_transpose_random_matrices(shape, seed):
    n, grain = shape
    run_functionally(make_app("cilk5-mt", n=n, grain=grain, seed=seed))


# ----------------------------------------------------------------------
# R-MAT generator and CSR graph
# ----------------------------------------------------------------------
@given(st.integers(2, 8), st.integers(1, 8), st.integers(0, 2**32))
def test_rmat_edges_in_range(scale, degree, seed):
    n = 1 << scale
    for u, v in rmat(scale, degree, seed):
        assert 0 <= u < n and 0 <= v < n


@given(st.integers(2, 8), st.integers(0, 2**32))
def test_rmat_deterministic(scale, seed):
    assert rmat(scale, 4, seed) == rmat(scale, 4, seed)


def _digest(*seqs):
    """sha256 over integer sequences, independent of their container type."""
    h = hashlib.sha256()
    for seq in seqs:
        h.update(",".join(map(str, seq)).encode())
        h.update(b";")
    return h.hexdigest()


@pytest.mark.parametrize("args, digest", [
    ((9, 8, 42), "395398606e324a22d1184ed499c96582bf08b1590c855917c0a279b1659d9de4"),
    ((11, 8, 7), "fb2bd2b5f4acfebef3a9db800edf6ada166265bffaaa6231823af5853a06de58"),
], ids=["9-8-42", "11-8-7"])
def test_rmat_edges_pinned(args, digest):
    """The generator's edge stream, byte for byte (flattened u, v pairs)."""
    assert _digest([x for edge in rmat(*args) for x in edge]) == digest


@pytest.mark.parametrize("key, m, digest", [
    # The four distinct graphs of the quick Ligra apps...
    ((9, 8, 42, True, False), 5568,
     "d8e7cc9d40562335513518f0acfac19fea4fefefe77da4c9f7e9410e0f2b2677"),
    ((9, 8, 42, True, True), 5568,
     "3f6c7b4b875ae00577bde7376cb7b209d45388db939da052a86021b527dbbe18"),
    ((8, 8, 42, True, False), 2590,
     "4a530eb072629bcfa692be749db629fc4b75822c8a46541463fe6871f2c7a0b1"),
    ((7, 8, 42, True, False), 1148,
     "c38f3a85c825abd3c87414a154bfdb7b78eba18a1a475f1e86c1f1017c8b9900"),
    # ...and ligra-bf's weighted graph at paper scale.
    ((10, 8, 42, True, True), 12056,
     "8d932d2ce99834b1446a60acad6ccaf459b078d12a9354d00729cf0587f4493f"),
], ids=["quick-9", "quick-9-weighted", "quick-8", "quick-7", "paper-10-weighted"])
def test_rmat_graph_csr_pinned(key, m, digest):
    """The CSR arrays every Ligra input is loaded from, byte for byte."""
    g = rmat_graph(*key)
    assert g.m == m
    assert _digest(g.offsets, g.edge_targets, g.weights or ()) == digest


def test_rmat_graph_memo_shares_one_graph_per_key():
    g = rmat_graph(6, 4, 11, True, True)
    assert rmat_graph(6, 4, 11, weighted=True) is g
    assert rmat_graph(scale=6, avg_degree=4, seed=11, symmetric=True, weighted=True) is g
    assert rmat_graph(6, 4, 11, True, False) is not g
    assert rmat_graph(6, 4, 12, True, True) is not g
    assert rmat_graph(6, 4, 11, False, True) is not g


@pytest.mark.parametrize("field", ["offsets", "edge_targets", "weights"])
def test_memoized_graph_arrays_are_read_only(field):
    g = rmat_graph(5, 4, 3, weighted=True)
    with pytest.raises(TypeError):
        getattr(g, field)[0] = 99


def test_rmat_graph_memo_stays_bounded():
    memo = _rmat_graph.cache_info
    for seed in range(20):
        rmat_graph(3, 2, seed)
        assert memo().currsize <= memo().maxsize
    assert memo().maxsize < 20


@given(st.integers(2, 7), st.integers(1, 6), st.integers(0, 2**32))
def test_host_graph_invariants(scale, degree, seed):
    g = rmat_graph(scale, degree, seed, symmetric=True)
    # Every generated edge, in both directions, and nothing else.
    expected = {(u, v) for u, v in rmat(scale, degree, seed) if u != v}
    expected |= {(v, u) for u, v in expected}
    assert {(u, v) for u in range(g.n) for v in g.neighbors(u)} == expected
    # CSR consistency.
    assert g.offsets[0] == 0 and g.offsets[-1] == g.m
    assert len(g.edge_targets) == g.m
    for v in range(g.n):
        nbrs = g.neighbors(v)
        assert nbrs == tuple(sorted(nbrs))  # sorted adjacency
        assert len(set(nbrs)) == len(nbrs)  # deduplicated
        assert v not in nbrs  # no self loops
        for u in nbrs:  # symmetric
            assert v in g.neighbors(u)


def test_host_graph_weights_deterministic_positive():
    g1 = rmat_graph(5, 4, seed=9, weighted=True)
    g2 = rmat_graph(5, 4, seed=9, weighted=True)
    assert g1.weights == g2.weights
    assert all(w >= 1 for w in g1.weights)


def test_host_graph_directed_mode():
    edges = [(0, 1), (1, 2)]
    g = HostGraph(3, edges, symmetric=False)
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == (2,)
    assert g.neighbors(2) == ()


# ----------------------------------------------------------------------
# Ligra kernels under random graphs (functional execution + check)
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(
    st.sampled_from(["ligra-bfs", "ligra-bfsbv", "ligra-cc", "ligra-tc"]),
    st.integers(3, 6),
    st.integers(0, 2**32),
)
def test_graph_kernels_on_random_graphs(name, scale, seed):
    app = make_app(name, scale=scale, grain=4, seed=seed)
    run_functionally(app)


@settings(max_examples=6, deadline=None)
@given(
    st.sampled_from(["ligra-bc", "ligra-bf", "ligra-mis", "ligra-radii"]),
    st.integers(3, 5),
    st.integers(0, 2**32),
)
def test_remaining_graph_kernels_on_random_graphs(name, scale, seed):
    app = make_app(name, scale=scale, grain=4, seed=seed)
    run_functionally(app)
