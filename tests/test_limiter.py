import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import LinearOperator, eigsh

from conftest import assignment, edge_set, make_graph, random_graph
from tagforge.community import ModularityParams, Partition, detect_communities
from tagforge.graph import (
    NodeRecord,
    TextAttributedGraph,
    component_labels,
    graph_from_json_obj,
    histograms,
    largest_component,
    node_sort_key,
)
from tagforge.limiter import (
    _BRIDGE_CAP,
    _GAIN_EPS,
    _ISOLATE_CAP,
    _REPLACE_CAP,
    LimiterParams,
    _smallest_laplacian_eigenvalues,
    _utility,
    RepairReport,
    _distortion,
    _largest_remainder,
    _select,
    _first_per_cell,
    connectivity_repair,
    log,
    property_tensor,
    sample_limited,
    sample_limited_detailed,
)


def _profile_distortion(g_sub, g_full):
    def profile(g):
        from tagforge.graph import graph_stats
        s = graph_stats(g)
        return (s.connected_components / s.num_nodes,
                s.largest_component_size / s.num_nodes)
    a, b = profile(g_sub), profile(g_full)
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


# node weights ----------------------------------------------------------------------

def utility_by_id(g, part, weights=(1 / 3, 1 / 3)):
    """Selection utility per node id."""
    util = _utility(g, part.comm, part.community_count, weights)
    return dict(zip(g.ids(), util.tolist()))


def test_isolated_node_weight_is_zero():
    g = make_graph({"iso": [], "x": ["y"], "y": []})
    part = Partition(g, [0 if v == "iso" else 1 for v in g.ids()])
    w = utility_by_id(g, part, (1 / 3, 1 / 3))
    assert w["iso"] == 0.0


def test_max_degree_internal_node_weight_is_the_degree_weight():
    # hub has max degree, all neighbors in its own community
    g = make_graph({"h": ["a", "b", "c"], "a": [], "b": [], "c": []})
    part = Partition(g, [0] * g.num_nodes)
    w = utility_by_id(g, part, (0.5, 0.2))
    assert w["h"] == pytest.approx(0.5)


def test_pure_bridge_node_with_lambda3_only():
    # lambda3, the bridge weight, is the second of the two lambda_weights
    g = make_graph({"bridge": ["out1", "out2"], "out1": [], "out2": []})
    part = Partition(g, [0 if v == "bridge" else 1 for v in g.ids()])
    w = utility_by_id(g, part, (0.0, 1.0))
    assert w["bridge"] == pytest.approx(1.0)


@pytest.mark.parametrize("weights", [(1 / 3, 1 / 3, 1 / 3), (1.0,), (0.5, -0.1)])
def test_limiter_params_reject_other_than_two_nonnegative_weights(weights):
    with pytest.raises(ValueError, match="two nonnegative"):
        LimiterParams(lambda_weights=weights)


def test_weights_bounded():
    g = random_graph(30, 0.15, seed=3)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    w = utility_by_id(g, part)
    assert all(0.0 <= val <= 1.0 + 1e-12 for val in w.values())


# property tensor -------------------------------------------------------------------

def test_property_tensor_shapes_and_ranges():
    g = random_graph(40, 0.1, seed=7)
    pt = property_tensor(g)
    assert sum(pt.degree_histogram.values()) == g.num_nodes
    assert sum(pt.label_distribution.values()) == g.num_nodes
    assert len(pt.top_spectral) <= 10
    assert all(0.0 - 1e-9 <= ev <= 2.0 + 1e-9 for ev in pt.top_spectral)
    assert list(pt.top_spectral) == sorted(pt.top_spectral)


def test_property_tensor_spectrum_oracle_on_path():
    # normalized Laplacian eigenvalues of P3: 0, 1, 2
    g = make_graph({"0": ["1"], "1": ["2"], "2": []})
    pt = property_tensor(g)
    assert np.allclose(pt.top_spectral, [0.0, 1.0, 2.0], atol=1e-9)


def test_property_tensor_tie_goes_to_component_with_smallest_sort_key():
    # P3 on 10-11-12 comes first in node order (ids sort as strings) while the
    # triangle on 2, 3, 4 holds the smallest id by node_sort_key
    g = make_graph({"10": ["11"], "11": ["12"], "12": [],
                    "2": ["3", "4"], "3": ["4"], "4": []})
    assert g.ids()[0] == "10"
    pt = property_tensor(g)
    # normalized Laplacian of K3: 0, 3/2, 3/2 (P3 would give 0, 1, 2)
    assert np.allclose(pt.top_spectral, [0.0, 1.5, 1.5], atol=1e-9)
    assert pt.component_profile == (2 / 6, 3 / 6)


def _networkx_graph(name, size):
    nx = pytest.importorskip("networkx")
    build = {"path": nx.path_graph, "cycle": nx.cycle_graph,
             "hypercube": nx.hypercube_graph,
             "grid": lambda side: nx.grid_2d_graph(side, side),
             "torus": lambda side: nx.grid_2d_graph(side, side, periodic=True),
             "tree": lambda depth: nx.balanced_tree(3, depth)}[name]
    h = nx.convert_node_labels_to_integers(build(size), ordering="sorted")
    return make_graph({str(u): [str(v) for v in h[u] if v > u] for u in h})


def _analytic_spectrum(name, size):
    """Normalized Laplacian eigenvalues of P_n, C_n and Q_d, ascending."""
    if name == "path":
        vals = [1.0 - math.cos(math.pi * j / (size - 1)) for j in range(size)]
    elif name == "cycle":
        vals = [1.0 - math.cos(2.0 * math.pi * j / size) for j in range(size)]
    else:
        vals = [2.0 * j / size for j in range(size + 1) for _ in range(math.comb(size, j))]
    return sorted(vals)


# (graph, size, eigen_count): sizes 11 and 12 put the component at
# eigen_count + 1 (dense solver) and eigen_count + 2 (Lanczos). Q_d has the
# eigenvalue 2/d with multiplicity d; without the check for missed pairs,
# Lanczos returns it 6 times in Q7 at 5 eigenvalues and 8 times in Q9 at 10
@pytest.mark.parametrize("name,size,count", [
    ("path", 11, 10), ("path", 12, 10), ("path", 60, 10),
    ("cycle", 11, 10), ("cycle", 12, 10), ("cycle", 41, 10), ("cycle", 40, 7),
    ("hypercube", 7, 5), ("hypercube", 7, 10), ("hypercube", 7, 30), ("hypercube", 9, 10),
])
def test_property_tensor_spectrum_matches_analytic_oracles(name, size, count):
    g = _networkx_graph(name, size)
    pt = property_tensor(g, count)
    expected = _analytic_spectrum(name, size)[:count]
    assert len(pt.top_spectral) == count
    assert np.allclose(pt.top_spectral, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("largest,lanczos", [(11, False), (12, True)])
def test_property_tensor_uses_dense_solver_only_up_to_eigen_count_plus_one(
        monkeypatch, largest, lanczos):
    import tagforge.limiter as limiter
    eigsh, calls = limiter.eigsh, []

    def counting_eigsh(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(limiter, "eigsh", counting_eigsh)
    property_tensor(_networkx_graph("path", largest), 10)
    assert bool(calls) == lanczos


def _sparse_random_graph(tree=False):
    nx = pytest.importorskip("networkx")
    h = nx.balanced_tree(3, 5) if tree else nx.gnm_random_graph(700, 800, seed=5)
    return h, make_graph({str(u): [str(v) for v in h[u] if v > u] for u in h})


@pytest.mark.parametrize("tree", [False, True])
def test_property_tensor_spectrum_matches_dense_eigvalsh(tree):
    nx = pytest.importorskip("networkx")
    h, g = _sparse_random_graph(tree)
    big = max(nx.connected_components(h), key=len)
    assert len(big) > 300
    lap = nx.normalized_laplacian_matrix(h.subgraph(big)).toarray()
    expected = np.clip(np.linalg.eigvalsh(lap), 0.0, 2.0)[:10]
    pt = property_tensor(g)
    assert np.allclose(pt.top_spectral, expected, rtol=0.0, atol=1e-10)
    assert pt.component_profile[1] == len(big) / g.num_nodes


def test_property_tensor_lanczos_is_deterministic_and_allocates_no_dense_matrix():
    import tracemalloc
    import tagforge.limiter as limiter
    # the first component is factored, the second (cycle rank about 4,000) is not
    for g, factored in ((_sparse_random_graph()[1], True), (_planted_graph(4000, 4, 1), False)):
        a = _spectrum_input(g)
        assert (_cycle_rank(a) <= limiter._CYCLE_RANK_BUDGET) == factored
        first = property_tensor(g).top_spectral
        tracemalloc.start()
        try:
            second = property_tensor(g).top_spectral
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == second
        # less than one s x s float64 matrix of the largest component
        assert peak < a.shape[0] ** 2 * 8


# The spectrum with a full-precision deflation check on every call, kept word
# for word as the oracle of the one that checks loosely first.
def reference_smallest_laplacian_eigenvalues(a: sp.csr_matrix, count: int) -> tuple[float, ...]:
    """The ``count`` smallest eigenvalues of I - D^-1/2 A D^-1/2, ascending,
    for a connected graph with at least two nodes.

    They are 1 - mu for the largest eigenvalues mu of M = D^-1/2 A D^-1/2,
    found by ARPACK's Lanczos iteration from a fixed start vector, so repeated
    calls give the same bits. Lanczos can miss copies of a repeated
    eigenvalue, so the found pairs are shifted below the spectrum and the
    largest remaining eigenvalue is checked; one above the smallest found
    takes its place until none is. Graphs too small for ARPACK to return
    ``count`` pairs use the dense solver.
    """
    s = a.shape[0]
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    if s <= count + 1:
        lap = np.eye(s) - (a.toarray() * inv_sqrt[None, :]) * inv_sqrt[:, None]
        vals = np.linalg.eigvalsh(lap)[:count]
    else:
        m = sp.diags(inv_sqrt) @ a @ sp.diags(inv_sqrt)
        v0 = np.random.default_rng(0).standard_normal(s)
        mu, vecs = eigsh(m, k=count, which="LA", v0=v0)
        while True:
            # found pairs move to -3, below the spectrum of M in [-1, 1]
            shift = mu + 3.0
            rest = LinearOperator(
                (s, s), dtype=np.float64,
                matvec=lambda x: m @ x - vecs @ (shift * (vecs.T @ x)))
            top, w = eigsh(rest, k=1, which="LA", v0=v0)
            low = int(np.argmin(mu))
            if top[0] <= mu[low] + 1e-10:
                break
            mu[low], vecs[:, low] = top[0], w[:, 0]
        vals = np.sort(1.0 - mu)
    return tuple(float(x) for x in np.clip(vals, 0.0, 2.0))


# The spectrum before the factored path, kept as it was written with its
# constants spelled out, as the oracle of the Lanczos path, which components
# over the cycle rank budget still take.
def lanczos_smallest_laplacian_eigenvalues(a: sp.csr_matrix, count: int) -> tuple[float, ...]:
    s = a.shape[0]
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    m = sp.diags(inv_sqrt) @ a @ sp.diags(inv_sqrt)
    v0 = np.random.default_rng(0).standard_normal(s)
    # a bare matvec: eigsh would wrap the CSR in several operator layers
    mu, vecs = eigsh(LinearOperator((s, s), dtype=np.float64, matvec=lambda x: m @ x),
                     k=count, which="LA", v0=v0, ncv=min(s, max(3 * count, 20)))
    while True:
        # found pairs move to -3, below the spectrum of M in [-1, 1]
        shift = mu + 3.0
        rest = LinearOperator(
            (s, s), dtype=np.float64,
            matvec=lambda x: m @ x - vecs @ (shift * (vecs.T @ x)))
        low = int(np.argmin(mu))
        theta, w = eigsh(rest, k=1, which="LA", v0=v0, tol=1e-6)
        r = np.linalg.norm(rest.matvec(w[:, 0]) - theta[0] * w[:, 0]) / np.linalg.norm(w)
        if theta[0] + r <= mu[low] + 1e-10:
            break
        top, w = eigsh(rest, k=1, which="LA", v0=v0)
        if top[0] <= mu[low] + 1e-10:
            break
        mu[low], vecs[:, low] = top[0], w[:, 0]
    return tuple(np.clip(np.sort(1.0 - mu), 0.0, 2.0).tolist())


def _spectrum_input(g):
    """The largest component's adjacency, as ``property_tensor`` passes it."""
    members, _ = largest_component(g)
    return g.adjacency_csr()[members][:, members]


def _cycle_rank(a):
    return a.nnz // 2 - a.shape[0] + 1


def _dense_spectrum(a, count):
    """The ``count`` smallest normalized-Laplacian eigenvalues of the graph
    with adjacency ``a``, by numpy's dense ``eigvalsh``."""
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    lap = np.eye(a.shape[0]) - (a.toarray() * inv_sqrt[None, :]) * inv_sqrt[:, None]
    return np.clip(np.linalg.eigvalsh(lap), 0.0, 2.0)[:count]


def _max_gap(got, want):
    return float(np.abs(np.subtract(got, want)).max())


def _planted_graph(n, avg_degree, seed):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return graph_from_json_obj(gen.planted_graph(n, avg_degree, seed))


# at degree 1.6, limit-sparse's inputs, every component is factored; at
# degree 4 the 4,000-node originals (cycle rank about 4,000) are not
@pytest.mark.parametrize("n,degree", [
    pytest.param(n, degree, id=f"{n}" if degree == 1.6 else f"{n}-4")
    for degree in (1.6, 4) for n in (600, 1500, 4000)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spectrum_matches_reference_on_generator_graphs_and_samples(n, degree, seed):
    # the original graph and its alpha=0.3 sample, as in ``tagforge limit``
    g = _planted_graph(n, degree, seed)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), seed)
    sample = sample_limited(g, part, LimiterParams(alpha=0.3))
    for graph in (g, sample):
        a = _spectrum_input(graph)
        assert a.shape[0] > 11
        got = _smallest_laplacian_eigenvalues(a, 10)
        assert _max_gap(got, _dense_spectrum(a, 10)) <= 1e-12
        assert _max_gap(got, reference_smallest_laplacian_eigenvalues(a, 10)) <= 1e-12


# Q_d has the eigenvalue 2/d d times, C_n each of its inner eigenvalues twice
# and the 10 x 10 grid most of its own twice; the reference's check swaps
# ``swaps`` times (none in C40 at 7 and the grid at 7)
@pytest.mark.parametrize("name,count,swaps", [
    ("Q7", 5, 1), ("Q9", 10, 1), ("Q6", 7, 1), ("tree", 10, 1), ("C40", 7, 0), ("C36", 5, 2),
    ("G10", 7, 0)])
def test_spectrum_matches_reference_on_repeated_eigenvalues(monkeypatch, name, count, swaps):
    if name == "tree":
        g = _sparse_random_graph(tree=True)[1]
    else:
        g = _networkx_graph({"Q": "hypercube", "C": "cycle", "G": "grid"}[name[0]],
                            int(name[1:]))
    a = _spectrum_input(g)
    scipy_eigsh, reference_calls = eigsh, []

    def counting_eigsh(*args, **kwargs):
        reference_calls.append(kwargs["k"])
        return scipy_eigsh(*args, **kwargs)

    monkeypatch.setitem(globals(), "eigsh", counting_eigsh)
    want = reference_smallest_laplacian_eigenvalues(a, count)
    assert reference_calls == [count] + [1] * (swaps + 1)
    got = _smallest_laplacian_eigenvalues(a, count)
    assert _max_gap(got, _dense_spectrum(a, count)) <= 1e-12
    assert _max_gap(got, want) <= 1e-12


# the Lanczos path's main solve keeps a basis capped at the component size:
# P3 at 1 is the smallest input that reaches ARPACK, P12 at 10 and Q7 at 50
# take the whole space, and Q7 at 30 cuts its 35-fold eigenvalue 6/7. These
# components are factored by ``property_tensor``, which must agree.
@pytest.mark.parametrize("name,size,count", [
    ("path", 3, 1), ("path", 12, 10), ("hypercube", 7, 30), ("hypercube", 7, 50)])
def test_spectrum_basis_is_capped_at_the_component_size(monkeypatch, name, size, count):
    import tagforge.limiter as limiter
    eigsh, calls = limiter.eigsh, []

    def recording_eigsh(*args, **kwargs):
        calls.append(kwargs)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(limiter, "eigsh", recording_eigsh)
    g = _networkx_graph(name, size)
    a = _spectrum_input(g)
    lanczos = np.clip(np.sort(limiter._lanczos_spectrum(a, count)), 0.0, 2.0)
    assert count < calls[0]["ncv"] <= g.num_nodes
    for got in (lanczos, property_tensor(g, count).top_spectral):
        assert len(got) == count
        assert _max_gap(got, _analytic_spectrum(name, size)[:count]) <= 1e-12
        assert _max_gap(got, _dense_spectrum(a, count)) <= 1e-12


def _check_calls(monkeypatch, solve, a, count, found=None):
    """The eigsh calls ``solve`` makes on ``a`` as a string: M for the main
    solve, L for a loose check and F for a full-precision one. With
    ``found``, a function of the operator's shape, the main solve returns
    ``found(shape)`` in place of its own pairs."""
    import tagforge.limiter as limiter
    eigsh, calls = limiter.eigsh, []

    def recording_eigsh(*args, **kwargs):
        calls.append("M" if kwargs["k"] == count else "L" if "tol" in kwargs else "F")
        if calls[-1] == "M" and found is not None:
            return found(args[0].shape)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(limiter, "eigsh", recording_eigsh)
    got = np.clip(np.sort(solve(a, count)), 0.0, 2.0)
    return "".join(calls), got


# every loose check but the last ends in a swap, each after a full check. The
# Lanczos cases pin the Lanczos path: property_tensor factors these graphs.
@pytest.mark.parametrize("name,size,count,pattern", [
    # one swap, after a full-precision check
    ("hypercube", 7, 5, r"M(LF)+LF?"),
    # the loose check's bound separates: no full-precision check
    ("path", 60, 10, r"ML"),
    # the bound does not separate, and the full-precision check finds no copy
    ("grid", 10, 7, r"MLF"),
])
def test_spectrum_check_runs_at_full_precision_before_every_swap(
        monkeypatch, name, size, count, pattern):
    import tagforge.limiter as limiter
    a = _spectrum_input(_networkx_graph(name, size))
    calls, _ = _check_calls(monkeypatch, limiter._lanczos_spectrum, a, count)
    assert re.fullmatch(pattern, calls)


# the same three shapes on the factored path: the balanced ternary tree of
# depth 5 at 9 makes one swap, P60 at 10 separates on the loose bound, and
# the 10 x 10 torus at 30 cuts a repeated eigenvalue, so its full check
# finds a copy equal to the smallest found one and swaps nothing
@pytest.mark.parametrize("name,size,count,pattern", [
    ("tree", 5, 9, r"M(LF)+LF?"), ("path", 60, 10, r"ML"), ("torus", 10, 30, r"MLF")])
def test_factored_check_runs_at_full_precision_before_every_swap(
        monkeypatch, name, size, count, pattern):
    import tagforge.limiter as limiter
    a = _spectrum_input(_networkx_graph(name, size))
    assert _cycle_rank(a) <= limiter._CYCLE_RANK_BUDGET
    calls, got = _check_calls(monkeypatch, limiter._factored_spectrum, a, count)
    assert re.fullmatch(pattern, calls)
    assert _max_gap(got, _dense_spectrum(a, count)) <= 1e-12


@pytest.mark.parametrize("path", ["lanczos", "factored"])
def test_check_swaps_in_a_left_out_copy_after_a_full_check(monkeypatch, path):
    # Q7: 0 once, 2/7 seven times, 4/7 21 times. The main solve is made to
    # return 0, six copies of 2/7 and one of 4/7, as exact pairs of the
    # operator the path checks: mu = 1 - lambda of M, or nu = 1 / (lambda +
    # delta) of the factor's inverse.
    import tagforge.limiter as limiter
    a = _spectrum_input(_networkx_graph("hypercube", 7))
    lam, vecs = np.linalg.eigh(np.eye(128) - a.toarray() / 7.0)
    pick = [0, 1, 2, 3, 4, 5, 6, 8]
    assert np.allclose(lam[pick], [0.0] + [2 / 7] * 6 + [4 / 7], atol=1e-12)
    vals = {"lanczos": 1.0 - lam[pick], "factored": 1.0 / (lam[pick] + limiter._SHIFT)}[path]
    solve = {"lanczos": limiter._lanczos_spectrum, "factored": limiter._factored_spectrum}[path]

    def found(shape):
        assert shape == (128, 128)
        return vals.copy(), vecs[:, pick].copy()

    calls, got = _check_calls(monkeypatch, solve, a, 8, found)
    assert re.fullmatch(r"MLFLF?", calls)
    assert _max_gap(got, [0.0] + [2 / 7] * 7) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2])
def test_sparse_component_is_factored_once(monkeypatch, seed):
    import tagforge.limiter as limiter
    splu, eigsh, calls = limiter.splu, limiter.eigsh, []

    def counting_splu(*args, **kwargs):
        calls.append("splu")
        return splu(*args, **kwargs)

    def counting_eigsh(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(limiter, "splu", counting_splu)
    monkeypatch.setattr(limiter, "eigsh", counting_eigsh)
    a = _spectrum_input(_planted_graph(4000, 1.6, seed))
    assert 0 < _cycle_rank(a) <= limiter._CYCLE_RANK_BUDGET
    got = _smallest_laplacian_eigenvalues(a, 10)
    assert calls[:2] == ["splu", 10] and set(calls[2:]) == {1}
    assert _max_gap(got, _dense_spectrum(a, 10)) <= 1e-12


def test_component_over_the_budget_keeps_the_lanczos_bits(monkeypatch):
    import tagforge.limiter as limiter

    def no_splu(*args, **kwargs):
        raise AssertionError("a component over the budget was factored")

    monkeypatch.setattr(limiter, "splu", no_splu)
    a = _spectrum_input(_planted_graph(4000, 4, 2))
    assert _cycle_rank(a) > limiter._CYCLE_RANK_BUDGET
    assert _smallest_laplacian_eigenvalues(a, 10) == lanczos_smallest_laplacian_eigenvalues(a, 10)


# sampling ---------------------------------------------------------------------------

def test_alpha_one_returns_everything():
    g = random_graph(20, 0.2, seed=11)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    sampled = sample_limited(g, part, LimiterParams(alpha=1.0))
    assert sorted(sampled.ids()) == sorted(g.ids())
    assert edge_set(sampled) == edge_set(g)


def test_two_cell_targets_six_four():
    adj = {str(i): [] for i in range(10)}
    adj["0"] = ["1"]
    adj["6"] = ["7"]
    labels = {str(i): (0 if i < 6 else 1) for i in range(10)}
    g = make_graph(adj, labels=labels, class_count=2)
    part = Partition(g, [0] * g.num_nodes)
    result = sample_limited_detailed(g, part, LimiterParams(alpha=0.5))
    assert result.cell_targets == {(0, 0): 3, (1, 0): 2}
    assert result.graph.num_nodes == 5


def test_selection_breaks_exact_utility_ties_by_key_rank():
    # "144" (degree 4) and "295" (degree 6) share the cell (label 1,
    # community 1) with 2 neighbours outside it each, so both have utility
    # (d / 12 + out / d) / 3 = 5/18 exactly at the largest degree 12
    g = _planted_graph(300, 4, 3)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 3)
    sample = sample_limited_detailed(g, part, LimiterParams(
        alpha=0.3, repair_epsilon=1e9)).graph
    assert sample.has_node("144") and not sample.has_node("295")


# The selection that looped over cells, one numpy sort per cell, kept word
# for word up to the repair, as the oracle of the single-sort ``_select``.
# Its utility function is looked up here, so a test can replace it in both.
def reference_select(g, partition, params):
    n = g.num_nodes
    partition.check(g)
    total = int(math.floor(params.alpha * n))
    if total < 1:
        raise ValueError(
            f"alpha * n = {params.alpha * n:.3f} selects no nodes; raise alpha")

    ids = g.ids()
    key_rank = g.key_rank()
    k = partition.community_count
    comm = partition.comm
    cells: dict[tuple, list[int]] = {}
    for i, (rec, c) in enumerate(zip(g.nodes, comm.tolist())):
        cells.setdefault((rec.label, c), []).append(i)
    _, class_counts = histograms(g)

    class_targets = _largest_remainder(
        [(lbl, params.alpha * count, count) for lbl, count in sorted(class_counts.items())],
        total,
    )
    cell_targets: dict[tuple, int] = {}
    for lbl in sorted(class_counts):
        lbl_cells = sorted(key for key in cells if key[0] == lbl)
        shares = _largest_remainder(
            [(key, params.alpha * len(cells[key]), len(cells[key])) for key in lbl_cells],
            class_targets[lbl],
        )
        cell_targets.update(shares)

    node_utility = _utility(g, comm, k, params.lambda_weights)
    selected: list[int] = []
    for key in sorted(cell_targets):
        rows = np.array(cells[key])
        utility = node_utility[rows]
        order = np.argsort(-utility)
        rows, utility = rows[order], utility[order]
        tier = np.cumsum(np.append(0, utility[:-1] - utility[1:] > _GAIN_EPS))
        chosen = rows[np.lexsort((rows, key_rank[rows], tier))][:cell_targets[key]].tolist()
        selected.extend(chosen)
    return [ids[i] for i in selected], dict(cell_targets)


def _assert_select_matches_reference(g, part, params):
    want_ids, want_targets = reference_select(g, part, params)
    got, targets = _select(g, part, params, int(math.floor(params.alpha * g.num_nodes)))
    ids = g.ids()
    assert sorted(ids[i] for i in got.tolist()) == sorted(want_ids)
    assert targets == want_targets
    assert all(type(key[0]) is int and type(key[1]) is int and type(count) is int
               for key, count in targets.items())


@pytest.mark.parametrize("degree", [1.6, 4])
@pytest.mark.parametrize("n,seed", [(300, 1), (300, 2), (1500, 3), (4000, 1)])
def test_selection_matches_per_cell_reference_on_generator_graphs(n, seed, degree):
    g = _planted_graph(n, degree, seed)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), seed)
    for alpha in (0.05, 0.3, 0.77, 1.0):
        _assert_select_matches_reference(g, part, LimiterParams(alpha=alpha))
    _assert_select_matches_reference(g, part, LimiterParams(alpha=0.3, lambda_weights=(1.0, 0.0)))


def _tie_heavy_graph(rng, n):
    """A cycle with chords every third node, so few distinct degrees and
    outside fractions, and ids "<k>", "0<k>" (equal key rank) and "a<k>" in
    shuffled records."""
    names = list(dict.fromkeys(
        str(rng.choice([f"{i // 2}", f"0{i // 2}", f"a{i}"])) for i in range(n)))
    nbrs = {v: [names[(i + 1) % len(names)]] for i, v in enumerate(names)}
    for i in range(0, len(names) - 3, 3):
        nbrs[names[i]].append(names[i + 3])
    recs = [NodeRecord(names[i], int(rng.integers(2)), "t", tuple(nbrs[names[i]]))
            for i in rng.permutation(len(names)).tolist()]
    return TextAttributedGraph.from_records(recs, 2)


@pytest.mark.parametrize("seed", range(12))
def test_selection_matches_per_cell_reference_on_tie_heavy_graphs(seed, monkeypatch):
    rng = np.random.default_rng([seed, 53])
    g = _tie_heavy_graph(rng, int(rng.integers(8, 90)))
    part = Partition(g, [int(rng.integers(3)) for v in g.ids()])
    for alpha in (0.1, 0.5, 0.9):
        _assert_select_matches_reference(g, part, LimiterParams(alpha=alpha))
    # utilities from a small palette with steps below _GAIN_EPS, so a cell's
    # tier is a chain of small steps that together exceed it
    palette = 0.5 + _GAIN_EPS * np.array([0.0, 0.0, 0.6, 1.2, 1.8, 3.0, -0.6, 7.0])
    drawn = palette[rng.integers(palette.size, size=g.num_nodes)]
    monkeypatch.setattr("tagforge.limiter._utility", lambda *args: drawn)
    monkeypatch.setitem(globals(), "_utility", lambda *args: drawn)
    for alpha in (0.1, 0.5, 0.9):
        _assert_select_matches_reference(g, part, LimiterParams(alpha=alpha))


def test_sample_size_and_class_deviation_invariants():
    for seed in range(10):
        g = random_graph(30 + 7 * seed, 0.08, seed=seed + 50)
        part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
        alpha = (0.3, 0.5, 0.62)[seed % 3]
        sampled = sample_limited(g, part, LimiterParams(alpha=alpha))
        assert sampled.num_nodes == math.floor(alpha * g.num_nodes)
        full_counts, kept_counts = {}, {}
        for rec in g.nodes:
            full_counts[rec.label] = full_counts.get(rec.label, 0) + 1
        for rec in sampled.nodes:
            kept_counts[rec.label] = kept_counts.get(rec.label, 0) + 1
        for lbl, count in full_counts.items():
            assert abs(kept_counts.get(lbl, 0) - math.floor(alpha * count)) <= 1


def test_cell_counts_invariant_under_repair():
    for seed in range(6):
        g = random_graph(60, 0.05, seed=seed + 70)
        part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
        result = sample_limited_detailed(g, part, LimiterParams(alpha=0.5))
        got: dict = {}
        comm_of = assignment(part)
        for rec in result.graph.nodes:
            key = (rec.label, comm_of[rec.node_id])
            got[key] = got.get(key, 0) + 1
        assert got == {k: v for k, v in result.cell_targets.items() if v > 0}


def test_sampling_error_when_alpha_selects_nothing():
    g = make_graph({"a": []})
    part = Partition(g, [0])
    with pytest.raises(ValueError):
        sample_limited(g, part, LimiterParams(alpha=0.4))


# repair ------------------------------------------------------------------------------

def test_repair_noop_when_within_epsilon():
    g = random_graph(16, 0.4, seed=5)
    part = Partition(g, [0] * g.num_nodes)
    repaired, report = connectivity_repair(g, range(g.num_nodes), part, LimiterParams())
    assert report.swaps == 0
    assert edge_set(repaired) == edge_set(g)


def test_repair_single_swap_fixture():
    """A hub component plus satellites; the sample keeps an isolated satellite
    and drops the hub mate that would keep things connected. One same-cell
    swap repairs it."""
    adj = {
        "h": ["a", "b", "c"],
        "a": [], "b": [], "c": [],
        "far": [],
    }
    g = make_graph(adj, labels={nid: 0 for nid in adj}, class_count=1)
    part = Partition(g, [0] * g.num_nodes)
    # sample: h, a, far (far isolated; swapping far for b merges it away)
    sub = g.subgraph(at(g, "h", "a", "far"))
    before = _profile_distortion(sub, g)
    repaired, report = connectivity_repair(
        g, positions(g, sub), part, LimiterParams(repair_epsilon=0.01))
    after = _profile_distortion(repaired, g)
    assert report.swaps >= 1
    assert after < before
    assert repaired.num_nodes == sub.num_nodes
    assert report.distortion_trace[0] == pytest.approx(before)
    for prev, nxt in zip(report.distortion_trace, report.distortion_trace[1:]):
        assert nxt < prev


def test_repair_no_candidates_warns():
    # two labels; the only outside node has a label with no replaceable twin
    adj = {"a": ["b"], "b": [], "c": [], "d": []}
    labels = {"a": 0, "b": 0, "c": 0, "d": 1}
    g = make_graph(adj, labels=labels, class_count=2)
    part = Partition(g, [0] * g.num_nodes)
    sub = g.subgraph(at(g, "a", "b", "c"))   # d (label 1) outside: no same-cell swap
    repaired, report = connectivity_repair(
        g, positions(g, sub), part, LimiterParams(repair_epsilon=1e-9))
    assert report.swaps == 0
    assert report.warning is not None


@pytest.mark.parametrize("selected, message", [
    ([], "nonempty"), (np.zeros(0, dtype=np.int64), "nonempty"),
    ([-1, 0], r"positions in \[0, 3\)"), ([0, 3], r"positions in \[0, 3\)"),
    (["a"], "positions"), ([0.0, 1.0], "positions"), ([True], "positions"),
], ids=["empty", "empty-array", "minus-one", "n", "id", "float", "bool"])
def test_repair_rejects_selections_that_are_not_positions(selected, message):
    g = make_graph({"a": ["b"], "b": [], "c": []})
    part = Partition(g, [0] * g.num_nodes)
    connectivity_repair(g, [0, 2, 2], part)
    with pytest.raises(ValueError, match=message):
        connectivity_repair(g, selected, part)


def test_repair_preserves_node_count_and_cells():
    g = random_graph(50, 0.06, seed=91)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    result = sample_limited_detailed(g, part, LimiterParams(alpha=0.4))
    assert result.graph.num_nodes == math.floor(0.4 * g.num_nodes)
    assert result.repair.final_distortion <= result.repair.initial_distortion + 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(12, 60), st.integers(0, 10_000))
def test_property_sample_invariants(n, seed):
    g = random_graph(n, 0.12, seed)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    result = sample_limited_detailed(g, part, LimiterParams(alpha=0.5))
    assert result.graph.num_nodes == math.floor(0.5 * n)
    # selected ids must come from the original graph, induced edges only
    kept = set(result.graph.ids())
    assert kept <= set(g.ids())
    assert edge_set(result.graph) <= edge_set(g)


# Digests of the sample ids and the repair's distortion trace (as float.hex),
# recorded with the earlier breadth-first component search.
@pytest.mark.parametrize("seed, n, p, alpha, swaps, digest", [
    (101, 120, 0.015, 0.4, 5, "f7ad63fb4bcdb417"),
    (202, 150, 0.012, 0.3, 5, "a7a2d5b2619a1415"),
    (404, 90, 0.02, 0.35, 4, "2cecf203073c6621"),
])
def test_sample_and_repair_trace_match_recorded_digests(seed, n, p, alpha, swaps, digest):
    g = random_graph(n, p, seed)
    part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    result = sample_limited_detailed(g, part, LimiterParams(alpha=alpha))
    blob = json.dumps({"ids": list(result.graph.ids()),
                       "trace": [x.hex() for x in result.repair.distortion_trace]})
    assert result.repair.swaps == swaps
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


def _sparse_graph(n, avg_degree, seed, class_count=3, mixed_ids=False):
    """Random sparse graph in O(n + m); edges join uniform endpoint pairs.

    With ``mixed_ids`` every third node is named ``0<k>`` next to a node
    named ``<k>`` (the two share a ``node_sort_key``), every fifth gets an
    alphabetic id, and the records come in shuffled order.
    """
    rng = np.random.default_rng(seed)
    names = [str(i) for i in range(n)]
    if mixed_ids:
        for i in range(n):
            if i % 3 == 1:
                names[i] = "0" + names[i - 1]
            elif i % 5 == 0:
                names[i] = "n" + "".join(rng.choice(list("abcdefgh"), size=4)) + str(i)
    m = int(n * avg_degree / 2)
    u, v = rng.integers(n, size=m), rng.integers(n, size=m)
    nbrs = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        nbrs[a].append(names[b])
    labels = rng.integers(class_count, size=n)
    order = rng.permutation(n) if mixed_ids else range(n)
    recs = [NodeRecord(names[i], int(labels[i]), f"document {i}", tuple(nbrs[i]))
            for i in order]
    return TextAttributedGraph.from_records(recs, class_count)


def _repair_digest(result):
    blob = json.dumps({"ids": list(result.graph.ids()),
                       "trace": [x.hex() for x in result.repair.distortion_trace],
                       "warning": result.repair.warning})
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Digests of the sample ids, the repair trace (float.hex) and the warning,
# recorded with the per-pair repair loop that scored one swap at a time.
@pytest.mark.parametrize("n, degree, seed, partition, alpha, epsilon, swaps, digest", [
    # long repairs on sparse graphs with detected communities
    (1500, 1.5, 4, "detect", 0.3, 0.05, 65, "ee2e041af9bf776f"),
    (2500, 1.6, 5, "detect", 0.3, 0.05, 60, "9db57becee104039"),
    (2000, 1.4, 6, "detect", 0.3, 0.05, 53, "aa2f93d47297b58c"),
    # ids 01 and 1 (same sort key), alphabetic ids, shuffled records and four
    # large communities, so many pairs tie on gain
    (1200, 1.5, 7, "coarse", 0.3, 0.0, 31, "fece97ad18a38085"),
    # the same kinds of ids in one community, where swaps that take a leaf
    # off the largest component compete
    (500, 1.8, 14, "one", 0.5, 0.0, 18, "d8d0ffc17adb34c2"),
    # every node its own cell: no same-cell swap candidates exist
    (600, 1.5, 8, "singleton", 0.3, 0.0, 0, "c0a5ccdee07494b3"),
    # repair runs until no swap reduces the distortion; one cell's selection
    # breaks an exact utility tie
    (800, 1.5, 9, "detect", 0.3, 0.0, 36, "53592e3116297ce6"),
])
def test_long_repairs_match_recorded_digests(
        n, degree, seed, partition, alpha, epsilon, swaps, digest):
    g = _sparse_graph(n, degree, seed, mixed_ids=partition in ("coarse", "one"))
    if partition == "detect":
        part = detect_communities(g, None, ModularityParams(gamma=1.0), 0)
    else:
        groups = {"coarse": 4, "one": 1}.get(partition, n)
        part = Partition(g, np.arange(g.num_nodes) % groups)
    result = sample_limited_detailed(
        g, part, LimiterParams(alpha=alpha, repair_epsilon=epsilon))
    assert result.repair.swaps == swaps
    assert _repair_digest(result) == digest


# The repair that rebuilt its round state from the whole graph on every
# swap, kept word for word as the oracle of the incremental one.
def reference_connectivity_repair(
    g: TextAttributedGraph,
    sub: TextAttributedGraph,
    partition: Partition,
    params: LimiterParams = LimiterParams(),
) -> tuple[TextAttributedGraph, RepairReport]:
    """Swap sampled nodes for outside nodes of the same (label, community)
    cell while the swap strictly reduces the component-profile distortion.

    Stops once distortion falls within ``repair_epsilon``, no improving
    same-cell swap remains, or the swap budget (default twice the sample
    size) is exhausted. Cell counts are invariant by construction. Equal
    gains go to the smallest (``node_sort_key(b)``, ``node_sort_key(r)``).
    """
    foreign = [v for v in sub.ids() if not g.has_node(v)]
    if foreign:
        raise ValueError(f"sample holds ids not in the graph: {foreign[:10]}")
    n_g = g.num_nodes
    ref_sizes = component_labels(g)[1].tolist()
    kappa_ref = (len(ref_sizes) / n_g, max(ref_sizes) / n_g)

    ids = g.ids()
    keys = [node_sort_key(v) for v in ids]
    key_index = {k: i for i, k in enumerate(sorted(set(keys)))}
    key_rank = np.array([key_index[k] for k in keys], dtype=np.int64)
    id_rank = np.empty(n_g, dtype=np.int64)
    id_rank[sorted(range(n_g), key=ids.__getitem__)] = np.arange(n_g)
    labels = np.array([rec.label for rec in g.nodes], dtype=np.int64)
    # cells numbered in (label, community) order
    cell = np.unique(labels * partition.community_count + partition.comm,
                     return_inverse=True)[1].ravel()
    n_cells = int(cell.max()) + 1
    a = g.adjacency_csr()
    rows, cols = a.nonzero()

    mask = np.zeros(n_g, dtype=bool)
    mask[[g.index_of(v) for v in sub.ids()]] = True
    n_s = int(mask.sum())
    if n_s == 0:
        raise ValueError("sample must be nonempty")
    max_swaps = params.max_repair_swaps if params.max_repair_swaps is not None else 2 * n_s

    comp, sizes = component_labels(g, mask)
    cur = _distortion(len(sizes), int(sizes.max()), n_s, kappa_ref)
    trace = [cur]
    swaps = 0
    warning: str | None = None

    while swaps < max_swaps and cur > params.repair_epsilon:
        induced = (a @ mask).astype(np.int64)
        repl = np.flatnonzero(mask & (induced <= 1))
        repl, _ = _first_per_cell(repl, cell[repl], _REPLACE_CAP, induced[repl], id_rank[repl])
        repl_count = np.bincount(cell[repl], minlength=n_cells)
        outs = np.flatnonzero(~mask)
        outs = outs[repl_count[cell[outs]] > 0]

        # one row per (outside node, sampled component it touches): the
        # number of edges into it and one sampled neighbor there, plus a
        # sentinel row that keeps lookups past the last key in bounds
        n_c = sizes.size
        touch = ~mask[rows] & mask[cols]
        bc, first, bc_edges = np.unique(rows[touch] * n_c + comp[cols[touch]],
                                        return_index=True, return_counts=True)
        comps_of = np.bincount(bc // n_c, minlength=n_g)
        mass_of = np.bincount(bc // n_c, weights=sizes[bc % n_c], minlength=n_g).astype(np.int64)
        bc, bc_edges = np.append(bc, np.iinfo(np.int64).max), np.append(bc_edges, 0)
        bc_nbr = np.append(cols[touch][first], -1)

        def edges_into(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Edges from each b into c, and a sampled neighbor there or -1."""
            i = np.searchsorted(bc, b * n_c + c)
            hit = bc[i] == b * n_c + c
            return np.where(hit, bc_edges[i], 0), np.where(hit, bc_nbr[i], -1)

        bridges, b_rank = _first_per_cell(
            outs, cell[outs], _BRIDGE_CAP, -comps_of[outs], key_rank[outs])
        isolates, i_rank = _first_per_cell(
            outs, cell[outs], _ISOLATE_CAP, comps_of[outs], key_rank[outs])
        fresh = ~np.isin(isolates, bridges)
        pool = np.concatenate([bridges, isolates[fresh]])
        pool = pool[np.lexsort((np.concatenate([b_rank, _BRIDGE_CAP + i_rank[fresh]]),
                                cell[pool]))]

        # every (pool node, replaceable node) pair of a cell, in (cell, pool,
        # replaceable) order
        per = repl_count[cell[pool]]
        b = np.repeat(pool, per)
        repl_start = np.cumsum(repl_count) - repl_count
        r = repl[np.repeat(repl_start[cell[pool]] - (np.cumsum(per) - per), per)
                 + np.arange(b.size)]

        # removing r (induced degree 0 or 1) deletes its component or shrinks
        # it by one; adding b merges the components of b's sampled neighbors,
        # less c_r if r was b's only link into it
        c_r, d_r = comp[r], induced[r]
        into_cr, nbr_cr = edges_into(b, c_r)
        leaves = (d_r == 0) | ((into_cr == 1) & (nbr_cr == r))
        lost = (into_cr > 0) & leaves
        kept = (into_cr > 0) & ~leaves
        merged_size = 1 + mass_of[b] - sizes[c_r] * lost - kept
        new_count = n_c - (d_r == 0) - (comps_of[b] - lost) + 1
        # The new largest component: a merge that takes in the top component
        # is at least as large as any other. Otherwise the merge competes
        # with the top component or, when r leaves the top, with the shrunk
        # top and the second (a merge that holds the second outgrows it).
        top, top_size = int(np.argmax(sizes)), int(sizes.max())
        second = int(np.partition(sizes, -2)[-2]) if n_c > 1 else 0
        top_merged = np.where(c_r == top, kept, edges_into(b, np.full_like(b, top))[0] > 0)
        beside = np.where(c_r == top, max(second, top_size - 1), top_size)
        largest = np.maximum(merged_size, np.where(top_merged, 0, beside))
        gain = cur - _distortion(new_count, largest, n_s, kappa_ref)

        # Every distortion is an integer multiple of 1 / (n_s * n_g) up to a
        # few ulps, so two different gains differ by at least that much (2e-7
        # at 4k nodes), and while n_s * n_g stays below about 1e11, gains
        # within _GAIN_EPS of each other are exactly equal. The best gain,
        # then the smallest key pair, then the first pair in (cell, pool,
        # replaceable) order is thus exact and independent of scan order.
        better = gain > _GAIN_EPS
        if not better.any():
            warning = ("no same-cell swap could reduce component distortion; "
                       f"stopping at {cur:.4f}" if outs.size else
                       "no same-cell swap candidates exist; "
                       f"distortion stays at {cur:.4f}")
            log.warning(warning)
            break
        tied = np.flatnonzero(better & (gain >= gain[better].max() - _GAIN_EPS))
        pick = tied[np.lexsort((key_rank[r[tied]], key_rank[b[tied]]))[0]]
        mask[r[pick]] = False
        mask[b[pick]] = True
        swaps += 1
        comp, sizes = component_labels(g, mask)
        new_cur = _distortion(len(sizes), int(sizes.max()), n_s, kappa_ref)
        if new_cur >= cur - _GAIN_EPS:
            raise RuntimeError("repair swap failed to decrease distortion")
        cur = new_cur
        trace.append(cur)

    report = RepairReport(
        swaps=swaps,
        initial_distortion=trace[0],
        final_distortion=cur,
        distortion_trace=tuple(trace),
        warning=warning,
    )
    return g.subgraph(np.flatnonzero(mask)), report


def _repair_outcome(result):
    sample, report = result
    return (list(sample.ids()), [x.hex() for x in report.distortion_trace],
            report.swaps, report.warning)


def positions(g, sub):
    """The positions in ``g`` of the nodes of its subgraph ``sub``."""
    return [g.index_of(v) for v in sub.ids()]


def at(g, *ids):
    """The positions in ``g`` of the given ids."""
    return [g.index_of(v) for v in ids]


def _assert_repairs_match(g, sub, part, params):
    got = _repair_outcome(connectivity_repair(g, positions(g, sub), part, params))
    want = _repair_outcome(reference_connectivity_repair(g, sub, part, params))
    assert got == want
    return got


@pytest.mark.parametrize("seed", range(120))
def test_repair_matches_reference_on_random_graphs(seed):
    rng = np.random.default_rng([seed, 31])
    n = int(rng.integers(30, 400))
    mixed = seed % 2 == 1
    g = _sparse_graph(n, float(rng.choice([1.2, 1.5, 2.0, 3.0])), seed + 1000,
                      class_count=int(rng.integers(1, 5)), mixed_ids=mixed)
    kind = seed % 4
    if kind == 0:
        part = detect_communities(g, None, ModularityParams(gamma=1.0), seed)
    else:
        groups = (2, 3, 7)[kind - 1]
        part = Partition(g, rng.integers(groups, size=n))
    alpha = float(rng.choice([0.2, 0.3, 0.5, 0.7]))
    params = LimiterParams(
        alpha=alpha, repair_epsilon=float(rng.choice([0.0, 0.01, 0.05])),
        max_repair_swaps=int(rng.integers(1, 8)) if seed % 5 == 0 else None)
    if seed % 3 == 0:
        # a uniform random sample instead of the selection
        sub = g.subgraph(rng.permutation(n)[:max(1, int(alpha * n))])
    else:
        sub = sample_limited_detailed(
            g, part, LimiterParams(alpha=alpha, max_repair_swaps=0)).graph
    _assert_repairs_match(g, sub, part, params)


def test_repair_matches_reference_when_largest_components_tie():
    # two sampled paths of three nodes tie for largest; sampled isolates can
    # be swapped for outside nodes that join either path or each other
    adj = {"p1": ["p2"], "p2": ["p3"], "p3": ["o1"], "q1": ["q2"], "q2": ["q3"],
           "q3": ["o2"], "o1": ["i1"], "o2": ["i2"], "o3": ["i3", "p1"],
           "i1": [], "i2": [], "i3": [], "i4": [], "o4": ["q1", "i4"]}
    g = make_graph(adj)
    part = Partition(g, [0] * g.num_nodes)
    sub = g.subgraph(at(g, "p1", "p2", "p3", "q1", "q2", "q3", "i1", "i2", "i3", "i4"))
    sizes = component_labels(sub)[1]
    assert sorted(sizes)[-2:] == [3, 3]
    ids, trace, swaps, _ = _assert_repairs_match(
        g, sub, part, LimiterParams(repair_epsilon=0.0))
    assert swaps >= 2


def test_repair_matches_reference_when_b_neighbours_r():
    # path 9 - 5 - 1 - 0 with 1 outside: swapping 0 for 1 and swapping 9 for
    # 1 both connect the sample, and the key tie-break takes 0, which is
    # next to 1
    g = make_graph({"9": ["5"], "5": ["1"], "1": ["0"], "0": []})
    part = Partition(g, [0] * g.num_nodes)
    sub = g.subgraph(at(g, "9", "5", "0"))
    ids, trace, swaps, _ = _assert_repairs_match(
        g, sub, part, LimiterParams(repair_epsilon=0.0))
    assert swaps == 1 and sorted(ids) == ["1", "5", "9"]
