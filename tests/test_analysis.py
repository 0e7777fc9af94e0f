import itertools
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from conftest import edges, make_graph, random_graph
from tagforge.analysis import (
    _canonical_sign,
    _clustering_profile,
    _unit_rows,
    CoherenceReport,
    PrincipalDirection,
    coherence_scores,
    coherence_statistics,
    clustering_similarity,
    feature_similarity_report,
    grassmann_objective,
    ks_p_value,
    ks_two_sample,
    label_homogeneity_matrix,
    label_homogeneity_similarity,
    principal_direction,
)
from tagforge.graph import NodeRecord, TextAttributedGraph, local_clustering, node_sort_key


def oracle_ks_statistic(a, b):
    """Naive counting oracle: evaluate both ECDFs at every observed point."""
    pts = list(a) + list(b)
    best = 0.0
    for x in pts:
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


# KS ---------------------------------------------------------------------------------

def test_ks_identical_samples():
    r = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_ks_disjoint_samples():
    r = ks_two_sample([1, 2, 3], [4, 5, 6])
    assert r.statistic == 1.0
    assert r.small_sample


def test_ks_frozen_p_value():
    # n = m = 100, D = 0.2: lambda^2 = 2, p = 2e^-4 - 2e^-16 + ...
    p = ks_p_value(0.2, 100, 100)
    assert p == pytest.approx(0.036631, abs=5e-4)
    assert p == pytest.approx(2 * math.exp(-4) - 2 * math.exp(-16), abs=1e-9)


def test_ks_p_value_matches_alternating_series():
    def series(lam):
        total = 0.0
        for k in range(1, 100_001):
            term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
            total += term
            if abs(term) < 1e-12:
                break
        return min(1.0, max(0.0, total))

    for d in (0.01, 0.05, 0.1, 0.2, 0.35, 0.6, 0.9, 1.0):
        for n, m in ((10, 10), (25, 40), (100, 100), (500, 80)):
            lam = d * math.sqrt(n * m / (n + m))
            assert abs(ks_p_value(d, n, m) - series(lam)) <= 1e-12


def test_ks_statistic_matches_naive_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        a = rng.normal(0, 1, size=int(rng.integers(5, 60)))
        b = rng.normal(rng.uniform(-1, 1), 1, size=int(rng.integers(5, 60)))
        r = ks_two_sample(a, b)
        assert r.statistic == pytest.approx(oracle_ks_statistic(a, b), abs=1e-12)


def test_ks_matches_scipy():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = rng.normal(0, 1, size=80)
        b = rng.normal(0.3, 1.2, size=120)
        r = ks_two_sample(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="asymp")
        assert r.statistic == pytest.approx(ref.statistic, abs=1e-12)
        # p-value follows the classic limiting series, not scipy's finite-n
        # refinement, so compare against the Kolmogorov survival function
        lam = r.statistic * math.sqrt(80 * 120 / 200)
        assert r.p_value == pytest.approx(scipy.special.kolmogorov(lam), abs=1e-9)


def test_ks_symmetry_and_ties():
    a = [1, 1, 2, 2, 3]
    b = [1, 2, 2, 4]
    assert ks_two_sample(a, b).statistic == ks_two_sample(b, a).statistic
    assert ks_two_sample(a, b).statistic == pytest.approx(
        oracle_ks_statistic(a, b), abs=1e-12)


def test_ks_small_sample_flag_boundary():
    assert ks_two_sample(list(range(24)), list(range(30))).small_sample
    assert not ks_two_sample(list(range(25)), list(range(25))).small_sample


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


# clustering similarity ---------------------------------------------------------------

def test_clustering_similarity_identity():
    g = random_graph(40, 0.15, seed=2)
    assert clustering_similarity(g, g) == pytest.approx(1.0)


def test_clustering_similarity_triangle_vs_path():
    tri = make_graph({"a": ["b", "c"], "b": ["c"], "c": []})
    path = make_graph({"x": ["y"], "y": ["z"], "z": []})
    sim = clustering_similarity(tri, path)
    # shared degree bin: triangle mean 1.0, path mean 0.0, weight 4/6
    assert sim == pytest.approx(1.0 - 4 / 6)
    assert sim < 0.5


def test_clustering_similarity_symmetric_and_bounded():
    for seed in range(6):
        g1 = random_graph(30, 0.1, seed=seed)
        g2 = random_graph(35, 0.2, seed=seed + 100)
        s12 = clustering_similarity(g1, g2)
        assert s12 == pytest.approx(clustering_similarity(g2, g1), abs=1e-12)
        assert 0.0 <= s12 <= 1.0


def loop_clustering_profile(g):
    """The node-by-node loop _clustering_profile replaced, kept as its oracle."""
    acc = {}
    for rec, c in zip(g.nodes, local_clustering(g)):
        d = len(rec.neighbors)
        b = -1 if d == 0 else int(math.floor(math.log2(d)))
        count, tot = acc.get(b, (0, 0.0))
        acc[b] = (count + 1, tot + float(c))
    return acc


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", [0.01, 0.1, 0.5])
def test_clustering_profile_bit_identical_to_node_loop(p, seed):
    # a star of degree 63, 64 or 65 sits on either side of a bin edge
    leaves = 63 + seed % 3
    star = make_graph({"c": [str(i) for i in range(leaves)], **{str(i): [] for i in range(leaves)}})
    for g in (shuffled_graph([str(i) for i in range(120)], p, seed), star):
        got = _clustering_profile(g)
        assert got == loop_clustering_profile(g)
        assert all(type(c) is int and type(t) is float for c, t in got.values())


# label homogeneity -------------------------------------------------------------------

def test_homogeneity_matrix_hand_example():
    g = make_graph({"a": ["b"], "b": ["c"], "c": ["d"], "d": []},
                   labels={"a": 0, "b": 0, "c": 1, "d": 1}, class_count=2)
    h = label_homogeneity_matrix(g)
    expect = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    assert np.allclose(h, expect, atol=1e-12)
    assert h.sum() == pytest.approx(1.0, abs=1e-12)


def loop_homogeneity_matrix(g):
    """The edge-by-edge loop label_homogeneity_matrix replaced, kept as its oracle."""
    c = g.class_count
    h = np.zeros((c, c))
    m = g.num_edges
    for u, v in edges(g):
        a, b = g.node(u).label, g.node(v).label
        if a == b:
            h[a, a] += 1.0 / m
        else:
            h[a, b] += 0.5 / m
            h[b, a] += 0.5 / m
    return h


def shuffled_graph(ids, p, seed, class_count=5):
    """Random graph over ``ids`` whose records come in a shuffled order. Ids
    with the same numeric value, such as "1" and "01", are never joined; the
    test below covers such an edge."""
    rng = np.random.default_rng(seed)
    adj = {i: [] for i in ids}
    for x, y in itertools.combinations(ids, 2):
        if rng.random() < p and node_sort_key(x) != node_sort_key(y):
            adj[x].append(y)
    records = [NodeRecord(node_id=i, label=int(rng.integers(class_count)),
                          text=f"document text for node {i} with enough words",
                          neighbors=tuple(adj[i]), mask="Train") for i in ids]
    order = rng.permutation(len(records))
    return TextAttributedGraph.from_records([records[k] for k in order], class_count)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ids", [
    [str(i) for i in range(60)] + ["01", "007", "00"],
    [a + b for a in "qwxyz" for b in "abcdefghijkl"],
    [str(i) for i in range(700)],
], ids=["mixed", "alpha", "numeric"])
def test_homogeneity_matrix_bit_identical_to_edge_loop(ids, seed):
    g = shuffled_graph(ids, 8.0 / len(ids), seed)
    assert g.num_edges > 0
    assert np.array_equal(label_homogeneity_matrix(g), loop_homogeneity_matrix(g))


def test_homogeneity_matrix_counts_edge_between_equal_numeric_ids():
    g = make_graph({"1": ["01", "2"], "01": [], "2": []},
                   labels={"1": 0, "01": 1, "2": 1}, class_count=2)
    assert np.array_equal(label_homogeneity_matrix(g), np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_homogeneity_similarity_identity_and_disjoint():
    g1 = make_graph({"a": ["b"], "b": [], "c": [], "d": []},
                    labels={"a": 0, "b": 0, "c": 1, "d": 1}, class_count=2)
    g2 = make_graph({"a": ["c"], "b": [], "c": [], "d": []},
                    labels={"a": 0, "b": 0, "c": 1, "d": 1}, class_count=2)
    assert label_homogeneity_similarity(g1, g1) == pytest.approx(1.0)
    assert label_homogeneity_similarity(g1, g2) == pytest.approx(0.0)


def test_homogeneity_errors():
    edgeless = make_graph({"a": [], "b": []})
    other = make_graph({"a": ["b"], "b": []}, class_count=2,
                       labels={"a": 0, "b": 1})
    with pytest.raises(ValueError):
        label_homogeneity_matrix(edgeless)
    with pytest.raises(ValueError):
        label_homogeneity_similarity(other, make_graph({"a": ["b"], "b": []}))


def test_feature_similarity_report_round_trip():
    g1 = random_graph(30, 0.15, seed=21)
    g2 = random_graph(30, 0.15, seed=22)
    report = feature_similarity_report(g1, g2)
    d = report.to_dict()
    assert set(d) == {"degree_ks", "clustering_similarity", "label_homogeneity"}
    assert d["degree_ks"]["n_a"] == 30


# principal direction -----------------------------------------------------------------

def test_principal_direction_of_identical_vectors():
    x = np.tile([0.0, 1.0, 0.0], (8, 1))
    pd = principal_direction(x)
    assert np.allclose(np.abs(pd.direction), [0, 1, 0], atol=1e-9)
    assert pd.objective == pytest.approx(0.0, abs=1e-12)
    assert pd.converged


def test_principal_direction_two_orthogonal_vectors():
    pd = principal_direction(np.eye(2))
    assert pd.objective == pytest.approx(math.pi ** 2 / 8, abs=1e-9)
    assert np.allclose(np.abs(pd.direction), [math.sqrt(0.5)] * 2, atol=1e-8)


def test_principal_direction_beats_random_probes():
    rng = np.random.default_rng(17)
    for _ in range(5):
        base = rng.normal(size=6)
        base /= np.linalg.norm(base)
        cloud = base[None, :] + rng.normal(0, 0.4, size=(40, 6))
        pd = principal_direction(cloud)
        probes = rng.normal(size=(2000, 6))
        best_probe = min(grassmann_objective(p, cloud) for p in probes)
        assert pd.objective <= best_probe + 1e-9
        # no better than restarting from the found direction
        assert grassmann_objective(pd.direction, cloud) == pytest.approx(
            pd.objective, abs=1e-12)


# objectives the reweighting reached with a 5000-step power iteration (step
# tolerance 1e-10) as its inner eigensolver
@pytest.mark.parametrize("dim, n, spread, objective", [
    (3, 20, 0.3, 2.774263551504209),
    (8, 60, 0.6, 58.03081489763591),
    (16, 200, 1.0, 319.9554295790962),
    (32, 500, 1.5, 960.9406054068113),
])
def test_principal_direction_matches_power_iteration_objective(dim, n, spread, objective):
    rng = np.random.default_rng([31, dim])
    base = rng.normal(size=dim)
    cloud = base / np.linalg.norm(base) + rng.normal(0, spread, size=(n, dim))
    assert principal_direction(cloud).objective == pytest.approx(objective, rel=1e-9)


def test_principal_direction_deterministic_and_sign_fixed():
    rng = np.random.default_rng(23)
    cloud = rng.normal(size=(25, 4))
    cloud[np.linalg.norm(cloud, axis=1) < 1e-3] += 1.0
    a = principal_direction(cloud)
    b = principal_direction(cloud)
    assert np.array_equal(a.direction, b.direction)
    lead = next(v for v in a.direction if abs(v) > 1e-12)
    assert lead > 0


def test_principal_direction_antipodal_pair():
    pd = principal_direction(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert pd.objective == pytest.approx(0.0, abs=1e-12)


def test_principal_direction_input_validation():
    with pytest.raises(ValueError):
        principal_direction(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        principal_direction(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        principal_direction([1.0, 2.0])


def test_grassmann_objective_scale_invariant():
    rng = np.random.default_rng(31)
    cloud = rng.normal(size=(12, 5))
    u = rng.normal(size=5)
    assert grassmann_objective(u, cloud) == pytest.approx(
        grassmann_objective(3.7 * u, cloud), abs=1e-9)


# The principal direction that scored every candidate through the public
# grassmann_objective, which normalizes the rows again on each call, kept word
# for word as the reference for the version that normalizes them once.
def reference_principal_direction(
    vectors,
    tol_radians: float = 1e-8,
    max_outer: int = 100,
) -> PrincipalDirection:
    x = _unit_rows(vectors)
    n, dim = x.shape
    mean = x.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        u = np.zeros(dim)
        u[0] = 1.0
    else:
        u = mean / norm
    u = _canonical_sign(u)
    f_prev = grassmann_objective(u, x)
    converged = False
    outer_done = 0
    for outer in range(1, max_outer + 1):
        outer_done = outer
        t = x @ u
        a = np.clip(np.abs(t), 0.0, 1.0)
        near_aligned = a > 1.0 - 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(near_aligned, 1.0, np.arccos(a) / np.sqrt(1.0 - a ** 2))
        m = x.T @ (x * w[:, None])
        v = _canonical_sign(np.linalg.eigh(m)[1][:, -1])
        f_new = grassmann_objective(v, x)
        # the reweighted eigen-step can overshoot on spread-out clouds;
        # halve the move back toward the previous direction until the
        # objective stops increasing, preserving the monotone guarantee
        halved = 0
        while f_new > f_prev and halved < 50:
            blend = u + v if float(v @ u) >= 0.0 else u - v
            bn = float(np.linalg.norm(blend))
            if bn < 1e-300:
                v = u
                f_new = f_prev
                break
            v = _canonical_sign(blend / bn)
            f_new = grassmann_objective(v, x)
            halved += 1
        if f_new > f_prev + 1e-9:
            raise RuntimeError(
                f"coherence objective increased from {f_prev:.12f} to {f_new:.12f}")
        step = float(np.arccos(np.clip(abs(v @ u), 0.0, 1.0)))
        u = v
        f_prev = min(f_prev, f_new)
        if step < tol_radians:
            converged = True
            break
    return PrincipalDirection(direction=u, objective=f_prev,
                              iterations=outer_done, converged=converged)


@pytest.mark.parametrize("dim, n, spread", [
    (3, 20, 0.3), (8, 60, 0.6), (16, 200, 1.0), (32, 500, 1.5), (32, 4000, 2.0)])
def test_principal_direction_matches_reference_bit_for_bit(dim, n, spread):
    rng = np.random.default_rng([37, dim, n])
    base = rng.normal(size=dim)
    cloud = base / np.linalg.norm(base) + rng.normal(0, spread, size=(n, dim))
    for vectors in (cloud, np.eye(2), np.array([[1.0, 0.0], [-1.0, 0.0]])):
        got, ref = principal_direction(vectors), reference_principal_direction(vectors)
        assert np.array_equal(got.direction, ref.direction)
        assert got.objective == ref.objective
        assert (got.iterations, got.converged) == (ref.iterations, ref.converged)


# coherence scores --------------------------------------------------------------------

def test_coherence_score_frozen_angles():
    u = np.array([1.0, 0.0])
    assert coherence_scores([[2.0, 0.0]], u)[0] == pytest.approx(1.0)
    assert coherence_scores([[0.0, 5.0]], u)[0] == pytest.approx(0.0, abs=1e-12)
    assert coherence_scores([[1.0, 1.0]], u)[0] == pytest.approx(0.5)
    assert coherence_scores([[-3.0, 0.0]], u)[0] == pytest.approx(1.0)


def test_coherence_score_bounds_and_monotonicity():
    u = np.array([1.0, 0.0])
    angles = np.linspace(0.0, math.pi / 2, 20)
    scores = coherence_scores([[math.cos(t), math.sin(t)] for t in angles], u).tolist()
    assert all(0.0 <= s <= 1.0 for s in scores)
    for a, b in zip(scores, scores[1:]):
        assert b < a + 1e-12
    with pytest.raises(ValueError):
        coherence_scores([[0.0, 0.0]], u)


# The score as it was computed one vector at a time, kept as the oracle of
# the row-wise ``coherence_scores``.
def reference_coherence_score(x, direction) -> float:
    """Closeness of one vector to the principal direction, in [0, 1]."""
    xv = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(xv)):
        raise ValueError("cannot score a vector with non-finite entries")
    nx = float(np.linalg.norm(xv))
    if nx == 0.0:
        raise ValueError("cannot score a zero vector")
    u = np.asarray(direction, dtype=np.float64)
    u = u / np.linalg.norm(u)
    cos = float(np.clip(abs(xv @ u) / nx, 0.0, 1.0))
    return 1.0 - (2.0 / math.pi) * math.acos(cos)


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 32, 100])
@pytest.mark.parametrize("seed", range(4))
def test_coherence_scores_bit_identical_to_one_vector_at_a_time(dim, seed):
    rng = np.random.default_rng([seed, dim, 41])
    u = rng.normal(size=dim)
    x = rng.normal(size=(300, dim)) * 10.0 ** rng.integers(-150, 150, size=(300, 1))
    # rows along the direction, against it, and at right angles to it
    w = np.roll(u, 1)
    x[:4] = [u, -2.5 * u, u * 1e-100, w - (w @ u) / (u @ u) * u if dim > 1 else u]
    got = coherence_scores(x, u)
    # each reference row is a fresh list, so its array lies elsewhere in memory
    want = [reference_coherence_score(row.tolist(), u.tolist()) for row in x]
    assert got.tolist() == want
    assert coherence_scores(np.zeros((0, dim)), u).shape == (0,)


def test_coherence_scores_raise_on_the_first_bad_row():
    u = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="zero vector"):
        coherence_scores([[1.0, 0.0], [0.0, 0.0], [np.nan, 1.0]], u)
    with pytest.raises(ValueError, match="non-finite"):
        coherence_scores([[1.0, 0.0], [np.inf, 1.0], [0.0, 0.0]], u)
    with pytest.raises(ValueError, match="2-d"):
        coherence_scores([1.0, 0.0], u)


def test_coherence_statistics_frozen_t():
    report = coherence_statistics({"a": 0.6, "b": 0.7, "c": 0.8, "d": 0.9})
    assert report.mean == pytest.approx(0.75)
    assert report.sample_std == pytest.approx(0.1290994, abs=1e-6)
    assert report.t_statistic == pytest.approx(3.872983, abs=1e-5)
    assert not report.degenerate


def test_coherence_statistics_degenerate_and_symmetric():
    flat = coherence_statistics({"a": 0.5, "b": 0.5, "c": 0.5})
    assert flat.degenerate and flat.t_statistic is None
    sym = coherence_statistics({"a": 0.4, "b": 0.6})
    assert sym.t_statistic == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        coherence_statistics({"only": 0.7})


def test_coherence_report_round_trip():
    report = coherence_statistics({"a": 0.6, "b": 0.8})
    d = report.to_dict()
    assert d["sample_size"] == 2
    assert isinstance(report, CoherenceReport)
