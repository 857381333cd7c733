import ast
import builtins
import functools
import inspect
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdiscord import bloch, choi, correlations, qmat
from qdiscord.bloch import affine_from_kraus
from qdiscord.choi import KrausSet, decompose, rotate_b
from qdiscord.correlations import (
    ASYMMETRIC,
    MERGE_TOL,
    STATE_DEPENDENT,
    STATIONARY_TOL,
    SYMMETRIC,
    StationaryPoint,
    conditional_entropy_channel,
    conditional_entropy_direct,
    discord,
    find_stationary_points,
    grad_objective,
    grid_oracle,
    index_sum,
    mutual_information,
    objective_channel,
    output_marginal_entropy,
    report_from_points,
    universal_candidates,
)
from qdiscord.qmat import I2, I4, binary_entropy, herm_eig, partial_trace_a, partial_trace_b, von_neumann_entropy
from qdiscord.states import LU_DIAG, bell_diagonal, lu_state, random_state, werner, x_state
from stationary_digest import near_singular_band
from util import (
    all_cells_landscape_seeds,
    brute_conditional_entropy,
    count_gradient_calls,
    entropy_bits,
    feasible_bell_triple,
    koashi_winter_classical_correlation,
    random_unitary,
    random_x_maximally_mixed,
    random_x_state,
    record_newton_starts,
    reference_chart_terms,
    reference_conditional_entropy_direct,
    same_points,
    x_matrix,
    two_pass_direct_entropy,
    unmoved_seed_stationary_points,
)

PHI_PLUS_DM = np.outer(*(2 * [np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)])).conj().T


def phi_plus():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


#: A product state whose b marginal is pure: discord() short-circuits it.
SINGULAR_B_MARGINAL = np.kron(np.diag([0.7, 0.3]), np.diag([1.0, 0.0])).astype(complex)


def product_state():
    return np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)


def test_mutual_information_product():
    assert abs(mutual_information(product_state())) < 1e-12


def random_full_rank_b():
    g = np.random.default_rng(35).standard_normal((2, 2, 2)) @ [1.0, 1j]
    return g @ g.conj().T / np.trace(g @ g.conj().T).real


@pytest.mark.parametrize(
    "rho_b, exact", [(np.diag([0.6, 0.4]), True), (random_full_rank_b(), False)], ids=["diag", "random"]
)
def test_pure_a_marginal_gives_no_negative_classical_correlation(rho_b, exact):
    # |0><0| (x) rho_b: every conditional state of qubit a is pure, and
    # H2((1 + r) / 2) = 0 at r = 1; a kernel that floored the logarithm's
    # argument reported C = -2.274e-305 on the diagonal rho_b, which now
    # gives 0 exactly.  Q is not checked: I is ~1e-16 of rounding, so Q may
    # be too
    rho = np.kron(np.diag([1.0, 0.0]), rho_b).astype(complex)
    stationary, oracle = discord(rho), discord(rho, method="oracle")
    assert stationary.classical_corr >= 0.0 and oracle.classical_corr >= 0.0
    assert stationary.stationary_points and all(q.objective >= 0.0 for q in stationary.stationary_points)
    if exact:
        assert stationary.classical_corr == 0.0


def test_mutual_information_maximally_entangled():
    assert abs(mutual_information(phi_plus()) - 2.0) < 1e-12


def test_mutual_information_matches_entropy_oracle():
    lu = lu_state()
    expect = (
        entropy_bits(np.linalg.eigvalsh(partial_trace_b(lu)))
        + entropy_bits(np.linalg.eigvalsh(partial_trace_a(lu)))
        - entropy_bits(np.linalg.eigvalsh(lu))
    )
    assert abs(mutual_information(lu) - expect) < 1e-12


def test_conditional_entropy_channel_identity():
    ch = affine_from_kraus(KrausSet([I2.copy()]))
    for th, ph in [(0.0, 0.0), (1.0, 2.0), (np.pi / 2, 1.0)]:
        assert abs(conditional_entropy_channel(ch, 0.9, th, ph)) < 1e-10


def test_conditional_entropy_channel_depolarizing():
    ch = affine_from_kraus(decompose(I4 / 4).kraus)
    for th, ph in [(0.0, 0.0), (1.3, 2.0)]:
        assert abs(conditional_entropy_channel(ch, np.pi / 2, th, ph) - 1.0) < 1e-12


def test_paths_agree_on_random_pairs():
    rng = np.random.default_rng(0)
    for seed in range(5):
        rho = random_state(seed)
        d = decompose(rho)
        ch = affine_from_kraus(d.kraus)
        rho_rot = rotate_b(rho, d.basis_rotation)
        for _ in range(5):
            th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            a = conditional_entropy_channel(ch, d.gamma, th, ph)
            b = conditional_entropy_direct(rho_rot, th, ph)
            assert abs(a - b) < 1e-10


def test_direct_path_product_state():
    rho = product_state()
    sa = von_neumann_entropy(partial_trace_b(rho))
    rng = np.random.default_rng(1)
    for _ in range(10):
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        assert abs(conditional_entropy_direct(rho, th, ph) - sa) < 1e-12


def test_direct_path_pure_entangled():
    for th, ph in [(0.0, 0.0), (0.7, 1.9), (np.pi / 2, 0.0)]:
        assert abs(conditional_entropy_direct(phi_plus(), th, ph)) < 1e-12


def test_direct_path_bell_diagonal_axis_value():
    rho = bell_diagonal(0.7, -0.5, 0.3)
    # measuring along x: the conditional purity is |ex|
    val = conditional_entropy_direct(rho, np.pi / 2, 0.0)
    assert abs(val - binary_entropy((1 + 0.7) / 2)) < 1e-12


def test_direct_path_matches_brute_force():
    # the Pauli-coefficient evaluator against explicit 4x4 projectors; phi_plus
    # keeps both conditional states pure, where H2 is steep, and the product
    # state has an outcome below DEGENERATE_TOL at each pole; the grid and the
    # scalar pairs hold both poles
    rng = np.random.default_rng(21)
    th = np.linspace(0.0, np.pi, 8)
    ph = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
    grids = [(th, ph)]
    for n in (7, 13):
        grids.append((rng.uniform(0.0, np.pi, n), rng.uniform(0.0, 2 * np.pi, n)))
    pairs = (rng.uniform(0.0, np.pi, 50), rng.uniform(0.0, 2 * np.pi, 50))
    states = {
        "lu": lu_state(),
        "random_state(3)": random_state(3),
        "phi_plus": phi_plus(),
        "product": product_state(),
        "near_singular(1e-04)": near_singular_state(1e-4),
        **{f"random_state({seed})": random_state(seed) for seed in range(10, 14)},
    }
    for name, rho in states.items():
        tol = 1e-14 if name == "phi_plus" else 2e-15
        for t, p in grids:
            want = np.array([[brute_conditional_entropy(rho, a, b) for b in p] for a in t])
            for theta, phi in [np.meshgrid(t, p, indexing="ij"), (t[:, None], p[None, :])]:
                got = conditional_entropy_direct(rho, theta, phi)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= tol, name
        got = conditional_entropy_direct(rho, *pairs)
        assert got.shape == (50,)
        assert np.max(np.abs(got - [brute_conditional_entropy(rho, a, b) for a, b in zip(*pairs)])) <= tol, name
        # a scalar pair gives a float
        for t, p in [(0.0, 0.0), (0.3, 1.1), (np.pi / 2, 2.0), (2.5, 4.0), (np.pi, 0.7)]:
            got = conditional_entropy_direct(rho, t, p)
            assert isinstance(got, float)
            assert abs(got - brute_conditional_entropy(rho, t, p)) <= tol, name


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    for seed in range(4):
        d = decompose(random_state(seed + 20))
        ch = affine_from_kraus(d.kraus)
        checked = 0
        while checked < 20:
            th, ph = rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 2 * np.pi)
            sp, tp, _, _ = bloch.conditional_purities(ch, d.gamma, th, ph)
            if max(sp, tp) > 0.995:
                continue
            gt, gp = grad_objective(ch, d.gamma, th, ph)
            ft = (objective_channel(ch, d.gamma, th + h, ph) - objective_channel(ch, d.gamma, th - h, ph)) / (2 * h)
            fp = (objective_channel(ch, d.gamma, th, ph + h) - objective_channel(ch, d.gamma, th, ph - h)) / (2 * h)
            if np.hypot(ft, fp) < 1e-6:
                continue
            assert np.hypot(gt - ft, gp - fp) / np.hypot(ft, fp) < 1e-5
            checked += 1


def test_gradient_vanishes_at_bell_diagonal_axes():
    d = decompose(bell_diagonal(0.7, -0.5, 0.3))
    ch = affine_from_kraus(d.kraus)
    for ph in (0.0, np.pi / 2):
        gt, gp = grad_objective(ch, d.gamma, np.pi / 2, ph)
        assert abs(gt) < 1e-12 and abs(gp) < 1e-12


def test_gradient_phi_component_vanishes_at_pole():
    d = decompose(lu_state())
    ch = affine_from_kraus(d.kraus)
    for ph in (0.0, 1.0, 2.5):
        _, gp = grad_objective(ch, d.gamma, 0.0, ph)
        assert abs(gp) < 1e-14


def test_universal_candidates_bell_diagonal():
    d = decompose(bell_diagonal(0.7, -0.5, 0.3))
    ch = affine_from_kraus(d.kraus)
    pts = universal_candidates(ch, d.gamma)
    sym = sorted(q.phi for q in pts if q.kind == SYMMETRIC)
    assert len(sym) == 2
    assert abs(sym[0]) < 1e-9 and abs(sym[1] - np.pi / 2) < 1e-9
    assert sum(q.kind == ASYMMETRIC for q in pts) == 1
    # objective values follow the closed forms: 1 - H2((1+|eta|)/2)
    by_phi = {round(q.phi, 6): q.objective for q in pts if q.kind == SYMMETRIC}
    assert abs(by_phi[0.0] - (1 - binary_entropy((1 + 0.7) / 2))) < 1e-10
    assert abs(by_phi[round(np.pi / 2, 6)] - (1 - binary_entropy((1 + 0.5) / 2))) < 1e-10
    asym = next(q for q in pts if q.kind == ASYMMETRIC)
    assert abs(asym.objective - (1 - binary_entropy((1 + 0.3) / 2))) < 1e-10


def test_universal_candidates_identity_channel():
    ch = affine_from_kraus(KrausSet([I2.copy()]))
    pts = universal_candidates(ch, np.pi / 2)
    sa = 1.0  # maximally mixed output marginal
    for q in pts:
        assert abs(q.objective - sa) < 1e-9


def test_universal_candidates_not_optimal_for_lu():
    d = decompose(lu_state())
    ch = affine_from_kraus(d.kraus)
    uni_best = max(q.objective for q in universal_candidates(ch, d.gamma))
    best = max(q.objective for q in find_stationary_points(ch, d.gamma))
    assert best > uni_best + 1e-9


def test_find_stationary_points_lu():
    d = decompose(lu_state())
    ch = affine_from_kraus(d.kraus)
    pts = find_stationary_points(ch, d.gamma)
    kinds = {q.kind for q in pts}
    assert kinds == {ASYMMETRIC, SYMMETRIC, STATE_DEPENDENT}
    thetas = sorted({round(q.theta / np.pi, 4) for q in pts})
    assert len(thetas) == 3
    assert pts[0].kind == STATE_DEPENDENT
    assert abs(pts[0].theta / np.pi - 0.155) < 0.005
    for q in pts:
        assert q.grad_norm < 1e-7


def test_find_stationary_points_bell_diagonal_only_universal():
    d = decompose(bell_diagonal(0.7, -0.5, 0.3))
    ch = affine_from_kraus(d.kraus)
    pts = find_stationary_points(ch, d.gamma)
    assert {q.kind for q in pts} <= {ASYMMETRIC, SYMMETRIC}
    assert all(q.theta < 1e-6 or abs(q.theta - np.pi / 2) < 1e-6 for q in pts)


def test_find_stationary_points_flat_objective():
    # constant channel: every direction is stationary, a single canonical
    # representative is reported
    d = decompose(product_state())
    ch = affine_from_kraus(d.kraus)
    pts = find_stationary_points(ch, d.gamma)
    assert len(pts) == 1
    assert pts[0].theta == np.pi / 2 and pts[0].phi == 0.0


def test_flat_landscape_reports_its_objective_at_the_reported_point(monkeypatch):
    # the flat branch once reported S(rho_a) minus the mean of the scan, a
    # mean of rounding noise that depends on the grid: on 13 x 25 the
    # product state's Q came out at -1.1e-16
    monkeypatch.setattr(correlations, "SEED_GRID", (13, 25))
    correlations._landscape_grid.cache_clear()
    try:
        rep = discord(product_state())
    finally:
        correlations._landscape_grid.cache_clear()
    assert len(rep.stationary_points) == 1
    assert rep.discord >= 0.0


def test_grid_oracle_product_state():
    corr, _ = grid_oracle(product_state())
    assert abs(corr) < 1e-9


def test_grid_oracle_maximally_entangled():
    corr, _ = grid_oracle(phi_plus())
    assert abs(corr - 1.0) < 1e-9


def test_grid_oracle_bell_diagonal_closed_form():
    corr, _ = grid_oracle(bell_diagonal(0.7, -0.5, 0.3))
    assert abs(corr - (1 - binary_entropy((1 + 0.7) / 2))) < 1e-6


def test_grid_oracle_resolution_floor():
    # a size that is not an integer is refused too, not left to numpy
    for grid in [(32, 128), (64, 128.0), (64.5, 128)]:
        with pytest.raises(ValueError, match="64 x 128"):
            grid_oracle(phi_plus(), *grid)


def test_discord_oracle_resolution_floor():
    # checked before the singular-marginal shortcut, which never runs the oracle
    for rho, grid in [(SINGULAR_B_MARGINAL, (2, 2)), (lu_state(), (64.5, 128)), (lu_state(), (64,))]:
        with pytest.raises(ValueError, match="64 x 128"):
            discord(rho, method="oracle", oracle_resolution=grid)


def test_discord_maximally_entangled():
    rep = discord(phi_plus(), method="stationary")
    assert abs(rep.mutual_info - 2.0) < 1e-9
    assert abs(rep.classical_corr - 1.0) < 1e-9
    assert abs(rep.discord - 1.0) < 1e-9


def test_discord_product_state_both_methods():
    for method in ("stationary", "oracle"):
        rep = discord(product_state(), method=method)
        assert abs(rep.discord) < 1e-8
        assert rep.discord >= -1e-8


def test_discord_lu_state():
    rep = discord(lu_state(), method="stationary")
    oracle = discord(lu_state(), method="oracle", oracle_resolution=(128, 256))
    assert abs(rep.discord - oracle.discord) < 1e-6
    assert abs(rep.theta / np.pi - 0.155) < 0.005
    assert rep.method == "stationary"
    assert abs(rep.discord - (rep.mutual_info - rep.classical_corr)) < 1e-12


def test_discord_singular_marginal_shortcut():
    rho = np.kron(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])).astype(complex)
    rep = discord(rho, method="stationary")
    assert rep.discord == 0.0
    assert rep.classical_corr == rep.mutual_info
    assert abs(rep.mutual_info) < 1e-10


#: A state whose b marginal's smaller eigenvalue is within 1e-17 of
#: choi.RANK_TOL: eigvalsh of the unsymmetrised rho_b puts it above, herm_eig
#: of the symmetrised one below.  The draw at index 28 of: rng =
#: default_rng(5); lam = 1e-8 (1 + U(-4e-9, 4e-9)); q from the QR of a complex
#: 2 x 2 Gaussian; rho = kron(diag(.3, .7), q diag(1 - lam, lam) q^+).
RANK_TOL_EDGE = np.array(
    [
        [0.10833614908139709 + 1.4462403928106594e-18j, 0.12213587567610193 + 0.07646535489660798j, 0j, 0j],
        [0.12213587567610192 - 0.07646535489660797j, 0.1916638509186029 + 1.2522254711181356e-18j, 0j, 0j],
        [0j, 0j, 0.2527843478565932 + 3.374560916558205e-18j, 0.2849837099109045 + 0.17841916142541864j],
        [0j, 0j, 0.28498370991090444 - 0.17841916142541858j, 0.44721565214340675 + 2.921859432608983e-18j],
    ]
)


def test_discord_short_circuits_a_marginal_at_the_rank_tolerance():
    # discord() once tested the rank with eigvalsh of the unsymmetrised rho_b
    # and decompose() with herm_eig of the symmetrised one; on this state they
    # disagree, and discord() raised SingularMarginalError on a valid state
    b = partial_trace_a(RANK_TOL_EDGE)
    assert np.linalg.eigvalsh(b)[0] > choi.RANK_TOL >= herm_eig(b)[0][-1]
    with pytest.raises(choi.SingularMarginalError):
        decompose(RANK_TOL_EDGE)
    for method in ("stationary", "oracle", "xstate_analytic"):
        rep = discord(RANK_TOL_EDGE, method=method)
        assert rep.discord == 0.0 and rep.classical_corr == rep.mutual_info


#: Validations of rho, eigvalsh calls and eigh calls one discord() call may
#: make.  One validation gives the spectrum of S(rho) and one herm_eig of
#: rho_b serves the rank test, S(rho_b) and the basis rotation; eigvalsh's
#: other call is rho_a's spectrum, which I and the oracle both read, and
#: eigh's the rotated state of the decomposition.
@pytest.mark.parametrize(
    "method, rho, budget",
    [
        ("stationary", lu_state(), (1, 2, 2)),
        ("oracle", lu_state(), (1, 2, 1)),
        ("xstate_analytic", bell_diagonal(0.7, -0.5, 0.3), (1, 2, 2)),
        ("stationary", SINGULAR_B_MARGINAL, (1, 2, 1)),
    ],
    ids=["stationary", "oracle", "xstate_analytic", "singular"],
)
def test_linear_algebra_budget_per_solve(monkeypatch, method, rho, budget):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # check_density_matrix and DensityState both validate through qmat._validated
    monkeypatch.setattr(qmat, "_validated", counted("validate", qmat._validated))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    discord(rho, method=method)
    assert calls["validate"] == budget[0]
    assert 0 < calls["eigvalsh"] <= budget[1] and calls["eigh"] <= budget[2]


def test_discord_unknown_method():
    for rho in (phi_plus(), SINGULAR_B_MARGINAL):
        with pytest.raises(ValueError, match="unknown method"):
            discord(rho, method="magic")


def test_discord_xstate_analytic_delegates():
    rho = bell_diagonal(0.7, -0.5, 0.3)
    rep = discord(rho, method="xstate_analytic")
    assert rep.method == "xstate_analytic"
    assert abs(rep.classical_corr - (1 - binary_entropy((1 + 0.7) / 2))) < 1e-10


def test_objective_interchange_symmetry():
    d = decompose(random_state(42))
    ch = affine_from_kraus(d.kraus)
    rng = np.random.default_rng(5)
    for _ in range(100):
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        a = objective_channel(ch, d.gamma, th, ph)
        b = objective_channel(ch, d.gamma, np.pi - th, ph + np.pi)
        assert abs(a - b) < 1e-12


def test_local_unitary_invariance():
    rng = np.random.default_rng(6)
    for seed in (0, 5):
        rho = random_state(seed)
        q0 = discord(rho, method="oracle").discord
        u = np.kron(random_unitary(rng), random_unitary(rng))
        q1 = discord(u @ rho @ u.conj().T, method="oracle").discord
        assert abs(q0 - q1) < 1e-7


def test_classical_correlation_bounds():
    for seed in range(5):
        rho = random_state(seed + 60)
        rep = discord(rho, method="stationary")
        sa = von_neumann_entropy(partial_trace_b(rho))
        sb = von_neumann_entropy(partial_trace_a(rho))
        assert rep.classical_corr >= -1e-8
        assert rep.classical_corr <= min(sa, sb) + 1e-8
        assert rep.discord >= -1e-8


def test_stationary_report_angles_original_frame():
    # the reported optimum must locate the oracle's optimum in the original
    # basis (up to outcome folding)
    rho = random_state(11)
    rep = discord(rho, method="stationary")
    _, (to, po) = grid_oracle(rho, 128, 256)
    assert bloch.measurement_distance((rep.theta, rep.phi), (to, po)) < 1e-4


NEAR_SINGULAR_EPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def near_singular_state(eps):
    base = np.kron(np.diag([0.6, 0.4]), np.diag([1.0, 0.0])).astype(complex)
    return (1 - eps) * base + eps * random_state(7)


def test_near_singular_stationary_is_fast_and_agrees_with_oracle():
    # on this flat landscape the absolute Newton tolerance once admitted
    # ~1150 spurious roots at eps = 1e-5, all of which went through the merge
    rho = near_singular_state(1e-5)
    t0 = time.perf_counter()
    rep = discord(rho, method="stationary")
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0
    assert abs(rep.discord - discord(rho, method="oracle").discord) < 1e-6
    # the merged points are verified and pairwise distinct
    pts = rep.stationary_points
    # and few at every eps of the sweep
    for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        assert len(discord(near_singular_state(eps), method="stationary").stationary_points) <= 20
    assert max(q.grad_norm for q in pts) < STATIONARY_TOL
    th, ph = np.array([q.theta for q in pts]), np.array([q.phi for q in pts])
    for k in range(len(pts) - 1):
        assert bloch.measurement_distance((th[k], ph[k]), (th[k + 1 :], ph[k + 1 :])).min() >= MERGE_TOL


@pytest.mark.parametrize("eps", NEAR_SINGULAR_EPS, ids=lambda eps: f"eps{eps:.0e}")
def test_stationary_finds_the_narrow_polar_maximum(eps):
    # J has a narrow maximum at theta ~ 0.7 eps (original frame), inside
    # the first ring of landscape cells.  At eps 1e-4 to 1e-6 no cell's zero
    # lies near it, and the first row's one Newton start, at the pole, finds
    # it.  The polar candidate is not critical there, so it must not absorb
    # the root (within MERGE_TOL of it at 1e-6) nor win the tie (the peak is
    # less than 1e-10 above it from 1e-5 on)
    rho = near_singular_state(eps)
    sa = von_neumann_entropy(partial_trace_b(rho))
    tt, pp = np.meshgrid(np.geomspace(1e-8, 1e-2, 400), np.linspace(0.0, 2 * np.pi, 721), indexing="ij")
    patch_max = sa - conditional_entropy_direct(rho, tt, pp).min()
    corr = discord(rho, method="stationary").classical_corr
    assert corr >= patch_max - (1e-7 * corr + 1e-14)


def test_report_prefers_a_critical_point_to_a_tied_polar_candidate():
    # the polar candidate that is not critical only solves the (theta, phi)
    # equations; a critical point beside it that beats it by less than the
    # tie tolerance, as the narrow polar maximum does at eps ~ 1e-5, is the optimum
    peak = StationaryPoint(1e-6, 0.46, 0.125, 1e-12, STATE_DEPENDENT)
    polar = StationaryPoint(0.0, 0.0, 0.125 - 5e-11, 0.0, ASYMMETRIC, critical=False)
    rep = report_from_points(0.5, [polar, peak], I2, "stationary")
    assert rep.classical_corr == peak.objective
    assert rep.discord == 0.5 - peak.objective
    assert (rep.theta, rep.phi) == bloch.fold_angles(I2, peak.theta, peak.phi)


@pytest.mark.parametrize(
    "rho",
    [lu_state(), random_state(3), bell_diagonal(0.7, -0.5, 0.3), near_singular_state(1e-4)]
    # zoomed all ZOOM_ROUNDS rounds under a 4-eps stop rule
    + [random_state(s) for s in (9, 15, 18)]
    # zoomed all ZOOM_ROUNDS rounds under the 16-eps stop, a heuristic and no bound
    + [random_state(s, 2 + s % 3) for s in (15, 159, 292)],
)
def test_grid_oracle_value_at_returned_angles(rho):
    corr, (th, ph) = grid_oracle(rho)
    sa = von_neumann_entropy(partial_trace_b(rho))
    assert abs(sa - conditional_entropy_direct(rho, th, ph) - corr) < 1e-12
    tt, pp = np.meshgrid(
        np.linspace(0.0, np.pi, 64), np.linspace(0.0, 2 * np.pi, 128, endpoint=False), indexing="ij"
    )
    assert corr >= sa - conditional_entropy_direct(rho, tt, pp).min()
    # the zoom stops at the rounding floor, not short of the local maximum
    steps = np.linspace(-1e-7, 1e-7, 21)
    near = conditional_entropy_direct(rho, np.clip(th + steps, 0.0, np.pi)[:, None], (ph + steps)[None, :])
    assert corr >= sa - near.min() - 4 * np.finfo(float).eps


@pytest.mark.parametrize("grid", [(64, 128), (100, 200)])
def test_grid_oracle_blocks_give_the_whole_grid_result(monkeypatch, grid):
    # the grid is evaluated in blocks of rows only to bound memory, keeping
    # the best point so far; the result, ties included, is bitwise that of
    # one call on the whole grid (one block holding both outcomes of every point)
    states = [lu_state(), random_state(5), bell_diagonal(0.5, -0.2, 0.5)]
    blocked = [grid_oracle(rho, *grid) for rho in states]
    calls = []
    direct = correlations._direct_entropy

    def counted(c, theta, phi):
        calls.append(np.broadcast_shapes(np.shape(theta), np.shape(phi)))
        return direct(c, theta, phi)

    monkeypatch.setattr(correlations, "_direct_entropy", counted)
    monkeypatch.setattr(correlations, "ORACLE_MIN_GRID", (2 * grid[0], grid[1]))
    monkeypatch.setattr(correlations, "check_oracle_resolution", lambda *_: None)
    assert blocked == [grid_oracle(rho, *grid) for rho in states]
    assert [shape for shape in calls if shape[1] == grid[1]] == len(states) * [grid]


def test_grid_oracle_call_budget(monkeypatch):
    # the Pauli table is read once, and one evaluator serves the grid and the
    # zoom: the grid's calls, then at most ZOOM_ROUNDS zoom rounds; a flat
    # landscape stops after its first zoom round
    calls = []
    direct = correlations._direct_entropy

    def counted(c, theta, phi):
        calls.append(np.broadcast_shapes(np.shape(theta), np.shape(phi)))
        return direct(c, theta, phi)

    monkeypatch.setattr(correlations, "_direct_entropy", counted)
    # the default grid goes in two blocks of 64 x 128 (outcome, point) values
    for rho in [lu_state(), random_state(3), bell_diagonal(0.7, -0.5, 0.3), near_singular_state(1e-4)]:
        calls.clear()
        grid_oracle(rho)
        assert calls[:2] == [(32, 128), (32, 128)]
        assert 2 < len(calls) <= 2 + correlations.ZOOM_ROUNDS
    calls.clear()
    grid_oracle(product_state())
    assert calls == [(32, 128), (32, 128), (correlations.ZOOM_POINTS, correlations.ZOOM_POINTS)]
    # a patch flat to the evaluator's rounding ends the zoom before its last round
    for s in range(100):
        calls.clear()
        grid_oracle(random_state(s))
        assert len(calls) < 2 + correlations.ZOOM_ROUNDS, s
    # a larger grid goes in blocks of whole rows, none larger than the default grid
    calls.clear()
    grid_oracle(lu_state(), 512, 1024)
    grid = [shape for shape in calls if shape[1] == 1024]
    assert sum(shape[0] for shape in grid) == 512
    assert max(np.prod(shape) for shape in calls) <= 64 * 128


@pytest.mark.parametrize(
    "rho",
    [lu_state(), random_state(3), phi_plus(), product_state(), near_singular_state(1e-4)],
    ids=["lu", "random_state(3)", "phi_plus", "product", "near_singular(1e-04)"],
)
def test_conditional_entropy_direct_matches_the_per_outcome_reference_bit_for_bit(rho):
    # every floating-point operation of the evaluator is the per-outcome
    # computation's, in the same order; phi_plus keeps both conditional
    # states pure, and the product state has an outcome below
    # DEGENERATE_TOL at each pole
    s = np.concatenate([I2[None], qmat.PAULIS])
    c = correlations._pauli_table(rho)
    explicit = [[np.trace(rho @ np.kron(si, sj)).real for sj in s] for si in s]
    assert np.max(np.abs(c - explicit)) <= 4 * np.finfo(float).eps
    rng = np.random.default_rng(21)
    th = np.linspace(0.0, np.pi, 64)[:8]
    ph = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
    angle_sets = [np.meshgrid(th, ph, indexing="ij"), (th[:, None], ph[None, :])]
    for n in (7, 13):
        pt, pq = rng.uniform(0.0, np.pi, n), rng.uniform(0.0, 2 * np.pi, n)
        angle_sets += [np.meshgrid(pt, pq, indexing="ij"), (pt[:, None], pq[None, :])]
    angle_sets.append((rng.uniform(0.0, np.pi, 50), rng.uniform(0.0, 2 * np.pi, 50)))
    for theta, phi in angle_sets:
        got = conditional_entropy_direct(rho, theta, phi)
        assert np.shape(got) == np.broadcast_shapes(np.shape(theta), np.shape(phi))
        assert np.array_equal(got, reference_conditional_entropy_direct(c, theta, phi))
    # numpy's scalar arithmetic rounds apart from its array loops: a scalar
    # is the one-point array's value, within 1 ulp of the reference's scalar
    for t, p in [(0.0, 0.0), (0.3, 1.1), (np.pi / 2, 2.0), (2.5, 4.0), (np.pi, 0.7)]:
        got = conditional_entropy_direct(rho, t, p)
        assert isinstance(got, float)
        assert got == reference_conditional_entropy_direct(c, np.array([t]), np.array([p]))[0]
        assert abs(got - reference_conditional_entropy_direct(c, t, p)) <= np.finfo(float).eps


@pytest.mark.parametrize(
    "rho, theta, phi",
    [
        (random_state(3), np.linspace(0.0, np.pi, 64)[:, None], np.linspace(0.0, 2 * np.pi, 128, endpoint=False)),
        (lu_state(), np.linspace(0.4, 0.7, 13)[:, None], np.linspace(1.0, 1.3, 13)),
        (random_state(7, 2), np.float64(0.3), np.float64(1.1)),
        (random_state(7, 2), 2.5, 4.0),
        # a pure b marginal: at theta = pi the + outcome has p = 0 <= DEGENERATE_TOL
        (SINGULAR_B_MARGINAL, np.pi, 0.7),
        (SINGULAR_B_MARGINAL, np.linspace(0.0, np.pi, 64)[:, None], np.linspace(0.0, 2 * np.pi, 128, endpoint=False)),
    ],
    ids=["grid", "zoom_patch", "0-d", "python_floats", "degenerate_outcome", "degenerate_grid"],
)
def test_direct_entropy_stacks_the_outcomes_bit_for_bit(rho, theta, phi):
    # both outcomes in one pass, c + s y with s = +-1, round as the
    # per-outcome c + y and c - y of the two-pass evaluator
    c = correlations._pauli_table(rho)
    got = correlations._direct_entropy(c, theta, phi)
    want = two_pass_direct_entropy(c, theta, phi)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_grid_oracle_reads_s_rho_a_on_pure_states():
    # a pure state's best measurement leaves both conditional states of a
    # pure, so C = S(rho_a) exactly
    for seed in range(50):
        rho = random_state(seed, 1)
        corr, _ = grid_oracle(rho)
        assert abs(corr - von_neumann_entropy(partial_trace_b(rho))) <= 1e-15, seed


def test_conditional_entropies_and_gradient_accept_arrays():
    rho = random_state(4)
    d = decompose(rho)
    ch = affine_from_kraus(d.kraus)
    rng = np.random.default_rng(12)
    th, ph = rng.uniform(0, np.pi, (3, 4)), rng.uniform(0, 2 * np.pi, (3, 4))
    ce_ch = conditional_entropy_channel(ch, d.gamma, th, ph)
    ce_dir = conditional_entropy_direct(rho, th, ph)
    gt, gp = grad_objective(ch, d.gamma, th, ph)
    assert ce_ch.shape == ce_dir.shape == gt.shape == gp.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        assert isinstance(conditional_entropy_channel(ch, d.gamma, th[idx], ph[idx]), float)
        assert abs(ce_ch[idx] - conditional_entropy_channel(ch, d.gamma, th[idx], ph[idx])) < 1e-15
        assert abs(ce_dir[idx] - conditional_entropy_direct(rho, th[idx], ph[idx])) < 1e-15
        g = grad_objective(ch, d.gamma, th[idx], ph[idx])
        assert abs(gt[idx] - g[0]) < 1e-14 and abs(gp[idx] - g[1]) < 1e-14


def channel_of(rho):
    d = decompose(rho)
    return affine_from_kraus(d.kraus), d.gamma


@pytest.mark.parametrize(
    "theta, phi",
    [(np.nan, 0.0), (0.3, np.nan), (np.inf, 0.0), (0.3, -np.inf), (np.array([0.3, np.nan]), np.zeros(2))],
)
def test_non_finite_angles_are_refused(theta, phi):
    # a NaN angle once gave conditional entropy 0 on both paths, so J read
    # S(rho_a), the largest value it can take
    rho = lu_state()
    ch, gamma = channel_of(rho)
    for f, state in [
        (conditional_entropy_direct, (rho,)),
        (conditional_entropy_channel, (ch, gamma)),
        (objective_channel, (ch, gamma)),
        (grad_objective, (ch, gamma)),
    ]:
        with pytest.raises(ValueError, match="finite"):
            f(*state, theta, phi)


#: The public channel-path functions, each with the arguments that follow its (ch, gamma).
CHANNEL_PATH_CALLS = [
    (bloch.outcome_form, ()),
    (bloch.conditional_purities, (0.3, 0.1)),
    (output_marginal_entropy, ()),
    (conditional_entropy_channel, (0.3, 0.1)),
    (objective_channel, (0.3, 0.1)),
    (grad_objective, (0.3, 0.1)),
    (universal_candidates, ()),
    (find_stationary_points, ()),
    (index_sum, ([StationaryPoint(0.3, 0.1, 0.0, 0.0, STATE_DEPENDENT)],)),
]


@pytest.mark.parametrize("f, angles", CHANNEL_PATH_CALLS, ids=[f.__name__ for f, _ in CHANNEL_PATH_CALLS])
def test_non_finite_gamma_or_channel_is_refused(f, angles):
    # a NaN gamma once gave one "flat" point with objective 0.0 from
    # find_stationary_points, J = 0.0 and NaN purities
    ch, gamma = channel_of(random_state(3))
    eta_nan = bloch.AffineChannel(eta=np.where(np.eye(3, dtype=bool), np.nan, ch.eta), c=ch.c)
    c_inf = bloch.AffineChannel(eta=ch.eta, c=ch.c + [0.0, 0.0, np.inf])
    for bad in [(ch, np.nan), (ch, np.inf), (ch, -np.inf), (eta_nan, gamma), (c_inf, gamma)]:
        with pytest.raises(ValueError, match="finite"):
            f(*bad, *angles)


def test_channel_views_read_the_channel_as_it_is_now():
    # the channel path reads a and T from the channel at every call, so a
    # channel whose eta is reassigned gives what a fresh channel gives
    ch = bloch.AffineChannel(eta=np.diag([0.8, 0.5, 0.3]), c=np.array([0.0, 0.0, 0.1]))
    before = objective_channel(ch, 0.9, 0.7, 0.2)
    ch.eta = np.diag([0.2, 0.2, 0.2])
    fresh = bloch.AffineChannel(eta=np.diag([0.2, 0.2, 0.2]), c=np.array([0.0, 0.0, 0.1]))
    assert objective_channel(ch, 0.9, 0.7, 0.2) == objective_channel(fresh, 0.9, 0.7, 0.2) != before
    assert grad_objective(ch, 0.9, 0.7, 0.2) == grad_objective(fresh, 0.9, 0.7, 0.2)


@pytest.mark.parametrize(
    "theta, phi",
    [
        (0.7, np.array([0.3, 2.1])),
        (np.array([0.4, 1.3]), 2.5),
        (np.array([[0.2], [1.1]]), np.array([[0.0, 1.7, 4.0]])),
    ],
    ids=["scalar-array", "array-scalar", "column-row"],
)
def test_channel_views_broadcast_the_angles(theta, phi):
    # as the direct path does, the channel path's public views take angle
    # arrays that broadcast together; each entry is the scalar call's
    ch, gamma = channel_of(random_state(1003))
    th, ph = np.broadcast_arrays(theta, phi)
    assert np.shape(conditional_entropy_direct(random_state(1003), theta, phi)) == th.shape
    views = [conditional_entropy_channel, objective_channel, *(lambda *a, i=i: grad_objective(*a)[i] for i in (0, 1))]
    for f in views:
        got = f(ch, gamma, theta, phi)
        assert np.shape(got) == th.shape
        want = [f(ch, gamma, float(t), float(p)) for t, p in zip(th.ravel(), ph.ravel())]
        assert_allclose(np.ravel(got), want, rtol=0, atol=1e-14)


#: States of the call budget named other than by their random_state seed.
BUDGET_STATES = {
    "lu": lu_state(),
    "werner(0.8)": werner(0.8),
    "bell_diagonal(0.7, -0.5, 0.3)": bell_diagonal(0.7, -0.5, 0.3),
    "bell_diagonal(-0.4, 0.1, 0.4)": bell_diagonal(-0.4, 0.1, 0.4),
    **{f"near_singular({eps:.0e})": near_singular_state(eps) for eps in (1e-3, 1e-4, 1e-5, 1e-6)},
}


@pytest.mark.parametrize(
    "solve, state, budget",
    [
        (universal_candidates, 1177, 8),
        (universal_candidates, 1003, 8),
        (find_stationary_points, "lu", 10),
        (find_stationary_points, "werner(0.8)", 1),
        (find_stationary_points, "bell_diagonal(0.7, -0.5, 0.3)", 3),
        (find_stationary_points, "bell_diagonal(-0.4, 0.1, 0.4)", 3),
        (find_stationary_points, 1003, 5),
        (find_stationary_points, 1050, 6),
        (find_stationary_points, 1177, 5),
        (find_stationary_points, "near_singular(1e-03)", 5),
        (find_stationary_points, "near_singular(1e-04)", 5),
        (find_stationary_points, "near_singular(1e-05)", 5),
        (find_stationary_points, "near_singular(1e-06)", 5),
    ],
)
def test_gradient_call_budget(monkeypatch, solve, state, budget):
    # Newton starts only at the common zeros of the gradient's bilinear
    # interpolants in the landscape's cells (Helman & Hesselink 1989), steps
    # on the sphere with the closed-form gradient and Hessian, and makes one
    # call per iteration that gives both at the trial points of its live
    # starts only, one trial step each, halved once after a step that does
    # not lower the norm and ended when the half step does not either; the
    # solve finds the equatorial roots by Newton too, so bell_diagonal(0.7,
    # -0.5, 0.3)'s two take no bisection; bisection takes eight steps per
    # call and stops once its brackets stop changing; lu's landscape does
    # not depend on phi, and werner(0.8)'s is flat.  The
    # first row of cells starts once, at the pole, not in the tail of the
    # narrow polar maximum of the near-singular states, from where a start
    # crawled to a root another start had found, one call a step.  A start
    # below NEWTON_TOL stops in the pass that sees it, and takes its Newton
    # step without a call when that step is shorter than MERGE_TOL, so on
    # the circle of maxima of bell_diagonal(-0.4, 0.1, 0.4) or the flat
    # floor of near_singular(1e-06) it stays where it first meets
    # NEWTON_TOL.  The scan's best sample starts Newton only where no seed
    # lies in its four cells: on 1003 and 1177 a seed does, and that
    # duplicate start alone made a fourth Newton call.  Every channel-path
    # call counts, objective, gradient and Hessian alike
    calls = count_gradient_calls(monkeypatch)
    solve(*channel_of(BUDGET_STATES[state] if isinstance(state, str) else random_state(state)))
    assert 0 < len(calls) <= budget


@pytest.mark.parametrize(
    "rho",
    [bell_diagonal(0.7, -0.5, 0.3), random_x_maximally_mixed(np.random.default_rng(1))],
    ids=["bell_diagonal", "random_x"],
)
def test_closed_form_makes_no_kernel_call(monkeypatch, rho):
    # the closed form's two candidates are stationary by symmetry: it reads
    # no gradient, and so no channel-path kernel call
    calls = count_gradient_calls(monkeypatch)
    rep = discord(rho, method="xstate_analytic")
    assert rep.method == "xstate_analytic" and calls == []


def test_newton_started_at_a_root_makes_one_call(monkeypatch):
    # a start already below NEWTON_TOL stops in the pass that sees it, with
    # its Newton step taken unevaluated when that step is shorter than
    # MERGE_TOL: the one call is the starts' own, and the root stays within
    # MERGE_TOL of the start, also on the circles of maxima and flat floors
    # of the tied Bell-diagonal states.  Their point counts are set by where
    # each start first meets NEWTON_TOL, so only random_state(3)'s is exact
    calls = count_gradient_calls(monkeypatch)
    for rho, exact in (
        (random_state(3), True),
        (bell_diagonal(-0.4, 0.1, 0.4), False),
        (bell_diagonal(-0.3, 0.6, 0.6), False),
    ):
        ch, gamma = channel_of(rho)
        found = find_stationary_points(ch, gamma)
        points = [q for q in found if q.critical]
        if exact:
            assert sum(q.kind == STATE_DEPENDENT for q in found) == len(points) == 3
        assert len(points) >= 3
        for q in points:
            calls.clear()
            th, ph = correlations._newton_batch(bloch.outcome_form(ch, gamma), [q.theta], [q.phi])
            assert len(calls) == 1 and th.size == 1
            assert bloch.measurement_distance((q.theta, q.phi), (th[0], ph[0])) < MERGE_TOL


def test_newton_does_not_polish_below_its_tolerance(monkeypatch):
    # converged starts end with one unevaluated step instead of stepping on,
    # one Hessian call a step, while their norm still falls below NEWTON_TOL
    terms, wants = correlations._sphere_terms, []

    def recorded(form, theta, phi, want):
        wants.append(want)
        return terms(form, theta, phi, want)

    monkeypatch.setattr(correlations, "_sphere_terms", recorded)
    hessian = []
    for s in range(100):
        wants.clear()
        find_stationary_points(*channel_of(random_state(s, 2 + s % 3)))
        hessian.append(wants.count("hessian"))
    assert np.percentile(hessian, 90) <= 5 and max(hessian) <= 8


@pytest.mark.parametrize("eps", NEAR_SINGULAR_EPS[1:4], ids=lambda eps: f"eps{eps:.0e}")
def test_near_singular_newton_does_not_crawl(monkeypatch, eps):
    # the pole ring's seed once stepped along the meridian, past the equator,
    # to a saddle another start had found, one width-1 Hessian call a step
    # (11-14 in a row); the first row's seeds start at the pole, so no more
    # than two such calls run in a row
    terms, run, longest = correlations._sphere_terms, [0], [0]

    def recorded(form, theta, phi, want):
        run[0] = run[0] + 1 if want == "hessian" and np.broadcast(theta, phi).size == 1 else 0
        longest[0] = max(longest[0], run[0])
        return terms(form, theta, phi, want)

    monkeypatch.setattr(correlations, "_sphere_terms", recorded)
    find_stationary_points(*channel_of(near_singular_state(eps)))
    assert longest[0] <= 2


def on_floor_of_j(ch, gamma, a, b, level):
    """True when J stays within 1e-15 of ``level`` at 41 evenly spaced points
    of the great-circle arc between the measurements ``a`` and ``b``, each a
    (theta, phi) pair, the outcome swap folded."""
    u, v = bloch.angles_to_direction(*a), bloch.angles_to_direction(*b)
    v = v if u @ v >= 0.0 else -v
    w = v - (u @ v) * u
    s = np.linspace(0.0, bloch.measurement_distance(a, b), 41)[:, None]
    n = np.cos(s) * u + np.sin(s) * (w / np.linalg.norm(w))
    j = objective_channel(ch, gamma, np.arctan2(np.hypot(n[:, 0], n[:, 1]), n[:, 2]), np.arctan2(n[:, 1], n[:, 0]))
    return bool(np.max(np.abs(j - level)) <= 1e-15)


def test_pole_starts_lose_no_stationary_point():
    # against Newton from the unmoved seeds, every start run to its end: C
    # and the index sum stay the same.  General states keep every point, of
    # the same kind, in the same order; the pole's starts converge to the
    # same roots by another path, so angles may differ by rounding (6.2e-15
    # on random_state(9, 2)) and objectives by 1.1e-16.  On the
    # near-singular band every reference point has a reported point on the
    # same floor of J (objective within 1e-15), within 5e-3 of it or joined
    # to it by an arc along which J stays on that floor: duplicates of one
    # flat maximum or saddle, where each start stops wherever it first
    # meets NEWTON_TOL (0.12 rad apart on one state).  The band's states
    # whose b marginal is numerically pure have no channel
    rng = np.random.default_rng(0)
    general = [random_state(s, 2 + s % 3) for s in (*range(100), 1251)]
    general += [random_x_maximally_mixed(rng) for _ in range(30)]
    band = [rho for rho in near_singular_band(n=50) if qmat.density_state(rho).b_vals[-1] > choi.RANK_TOL]
    assert len(band) >= 40
    for rho in general + band:
        d = decompose(rho)
        ch = affine_from_kraus(d.kraus)
        got, want = find_stationary_points(ch, d.gamma), unmoved_seed_stationary_points(ch, d.gamma)
        corr = [report_from_points(0.0, pts, d.basis_rotation, "stationary").classical_corr for pts in (got, want)]
        assert corr[0] == corr[1]
        assert index_sum(ch, d.gamma, got) == index_sum(ch, d.gamma, want)
        rows = np.array([(q.theta, q.phi, q.objective) for q in got])
        if any(rho is g for g in general):
            assert [(q.kind, q.critical) for q in got] == [(q.kind, q.critical) for q in want]
            assert_allclose(rows, [(q.theta, q.phi, q.objective) for q in want], rtol=0, atol=1e-14)
        for q in want:
            level = rows[np.abs(rows[:, 2] - q.objective) <= 1e-15]
            near = bloch.measurement_distance((level[:, 0], level[:, 1]), (q.theta, q.phi)) < 5e-3
            assert near.any() or any(on_floor_of_j(ch, d.gamma, (q.theta, q.phi), r[:2], q.objective) for r in level)


def test_newton_gets_at_most_one_start_at_the_pole(monkeypatch):
    # every phi names the pole, so the first row's seeds and a best sample
    # at the pole, which all start there, start once: a second pole start
    # takes Newton's same steps on the sphere to the same root, at the cost
    # of batch width
    rng = np.random.default_rng(3)
    states = [near_singular_state(eps) for eps in NEAR_SINGULAR_EPS]
    states += [random_x_maximally_mixed(rng) for _ in range(30)]
    states += [bell_diagonal(*feasible_bell_triple(rng)) for _ in range(20)]
    starts = record_newton_starts(monkeypatch)
    for k, rho in enumerate(states):
        starts.clear()
        find_stationary_points(*channel_of(rho))
        assert starts and sum(np.count_nonzero(s[0] == 0.0) for s in starts) <= 1, k


def test_near_singular_solves_bisect_no_equatorial_bracket(monkeypatch):
    # the solve seeds its equatorial roots from the landscape's cells and
    # bisects nothing on these phi-dependent landscapes; the unscaled public
    # universal_candidates still bisects the equator's brackets at 1e-4
    bisection = 2**correlations.BISECT_LEVELS - 1
    terms, widths = correlations._sphere_terms, []

    def recorded(form, theta, phi, want):
        if want == "gradient":
            widths.append(np.broadcast(theta, phi).size)
        return terms(form, theta, phi, want)

    monkeypatch.setattr(correlations, "_sphere_terms", recorded)
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        widths.clear()
        find_stationary_points(*channel_of(near_singular_state(eps)))
        assert not any(w % bisection == 0 for w in widths), eps
    universal_candidates(*channel_of(near_singular_state(1e-4)))
    assert any(w % bisection == 0 for w in widths)


def record_stages(monkeypatch):
    """A list that grows by the name of each ``_bisect_roots`` and ``_merge`` call."""
    stages = []
    for name in ("_bisect_roots", "_merge"):
        f = getattr(correlations, name)
        monkeypatch.setattr(correlations, name, lambda *a, f=f, name=name: stages.append(name) or f(*a))
    return stages


def test_a_general_solve_makes_one_wide_scan_one_merge_and_no_bisection(monkeypatch):
    # the landscape scan reaches one row past the equator, so its cells seed
    # the equatorial roots for the one Newton batch, and its (0, 0) gives
    # the polar candidate: a solve makes one kernel call wider than 300
    # points, bisects nothing and merges once
    calls, stages = count_gradient_calls(monkeypatch), record_stages(monkeypatch)
    for s in range(60):
        calls.clear()
        stages.clear()
        find_stationary_points(*channel_of(random_state(s, 2 + s % 3)))
        assert sum(w > 300 for w in calls) == 1, s
        assert stages == ["_merge"], s


#: phi-independent states, two of them with the state-dependent root inside
#: the landscape scan's first and last cells of the meridian
PHI_INDEPENDENT = {
    "lu": lu_state(),
    "bell(0.5,0.5,-0.3)": bell_diagonal(0.5, 0.5, -0.3),
    "bell(0.4,-0.4,0.1)": bell_diagonal(0.4, -0.4, 0.1),
    "lu_family(0.0999)": x_state(*LU_DIAG, 0.0, 0.0999),
    "lu_family(0.100253)": x_state(*LU_DIAG, 0.0, 0.100253),
}


@pytest.mark.parametrize("rho", PHI_INDEPENDENT.values(), ids=PHI_INDEPENDENT.keys())
def test_a_phi_independent_solve_makes_one_wide_scan(monkeypatch, rho):
    # the meridian's brackets come from the landscape scan itself, so the
    # solve evaluates no second grid: one kernel call of 1,000 points or
    # more, one bisection and one merge
    calls, stages = count_gradient_calls(monkeypatch), record_stages(monkeypatch)
    find_stationary_points(*channel_of(rho))
    assert sum(w >= 1000 for w in calls) == 1
    assert stages == ["_bisect_roots", "_merge"]


@pytest.mark.parametrize("c, theta", [(0.0999, 0.0474), (0.100253, 1.5428)])
def test_phi_independent_roots_in_the_scan_end_cells_are_found(c, theta):
    # each root lies within pi/48 of the pole or the equator, in the first
    # or last cell of the scan's meridian: J''(0) and -J''(pi/2) close those
    # cells, since J is even about both ends
    rho = x_state(*LU_DIAG, 0.0, c)
    rep = discord(rho)
    roots = [q.theta for q in rep.stationary_points if q.kind == STATE_DEPENDENT]
    assert len(roots) == 1 and abs(roots[0] - theta) < 1e-4
    ch, gamma = channel_of(rho)
    meridian = objective_channel(ch, gamma, np.linspace(0.0, np.pi / 2, 20001), 0.0)
    assert rep.classical_corr >= meridian.max() - 1e-15


def test_the_reported_optimum_is_the_best_listed_point():
    # here the pole's objective lies 2.8e-11 below the state-dependent
    # root's; a tie rule as wide as that reported the pole, below the point
    # it listed and below the oracle
    rho = x_state(*LU_DIAG, 0.0, 0.09989905)
    rep = discord(rho)
    assert rep.classical_corr == max(q.objective for q in rep.stationary_points)
    assert rep.classical_corr >= grid_oracle(rho)[0] - 1e-15


@pytest.mark.parametrize("eps", NEAR_SINGULAR_EPS, ids=lambda eps: f"eps{eps:.0e}")
def test_near_singular_states_report_no_equatorial_point(eps):
    # the equatorial bisection once reported (pi/2, 1.840) at eps 1e-5 and
    # (pi/2, 0) at 1e-6: residues of order eps**2 whose gradient norm is at
    # least 0.19 |J| there, so no critical point of J.  At 1e-7 an absolute
    # phi-independence threshold sent the solve to the meridian branch,
    # whose appended (pi/2, 0) was the same residue
    assert not [q for q in find_stationary_points(*channel_of(near_singular_state(eps))) if q.kind == SYMMETRIC]


def test_the_near_singular_band_is_solved_on_its_own_scale():
    # just above RANK_TOL, J varies with phi by far less than an absolute
    # 1e-11; the phi-independence check takes the solve's tolerance scale,
    # so these landscapes go to Newton, which finds the narrow polar
    # maximum, and do not bisect the meridian's rounding noise, whose sign
    # changes would each verify as a point
    tt, pp = np.meshgrid(np.geomspace(1e-9, 1e-2, 120), np.linspace(0.0, 2 * np.pi, 181), indexing="ij")
    band = [rho for rho in near_singular_band() if qmat.density_state(rho).b_vals[-1] > choi.RANK_TOL]
    assert len(band) >= 100
    for i, rho in enumerate(band):
        # the patch, in the basis of qubit b where rho_b's larger eigenvector is |0>
        v = np.linalg.eigh(partial_trace_a(rho))[1][:, ::-1]
        w = np.kron(np.eye(2), v.conj().T)
        patch = conditional_entropy_direct(w @ rho @ w.conj().T, tt, pp)
        patch_max = von_neumann_entropy(partial_trace_b(rho)) - patch.min()
        rep = discord(rho, method="stationary")
        assert len(rep.stationary_points) <= 20, i
        assert rep.classical_corr >= patch_max - 1e-14, i


def test_the_near_singular_band_reports_q_no_further_below_zero_than_rounding():
    # Q = I - C is not clamped: where I is about 1e-9, Q carries the rounding
    # of two entropy differences of order one bit, some 1e-15, and no more
    band = [rho for rho in near_singular_band() if qmat.density_state(rho).b_vals[-1] > choi.RANK_TOL]
    assert len(band) == 139
    q = np.array([discord(rho, method="stationary").discord for rho in band])
    assert q.min() >= -1e-14, int(np.argmin(q))


def test_the_solve_finds_every_public_equatorial_candidate():
    # the solve's equatorial points come from Newton, the public
    # universal_candidates' from bisecting the equator: on states with
    # equatorial critical points, each of the latter is among the former
    rng = np.random.default_rng(29)
    states = [random_x_maximally_mixed(rng) for _ in range(200)]
    states += [bell_diagonal(*feasible_bell_triple(rng)) for _ in range(200)]
    matched = 0
    for i, rho in enumerate(states):
        ch, gamma = channel_of(rho)
        got = find_stationary_points(ch, gamma)
        at = (np.array([q.theta for q in got]), np.array([q.phi for q in got]))
        for q in universal_candidates(ch, gamma):
            if q.kind == SYMMETRIC:
                d = bloch.measurement_distance(at, (q.theta, q.phi))
                k = int(np.argmin(d))
                assert d[k] < 1e-12 and abs(got[k].objective - q.objective) <= 1e-15, i
                matched += 1
    assert matched == 800


def tolerance_scale_of(rho):
    """The tolerance scale of the solve of rho: that of its landscape scan."""
    ch, gamma = channel_of(rho)
    th, ph = correlations._landscape_grid()
    _, gt, gp = correlations._sphere_terms(bloch.outcome_form(ch, gamma), th[:, :1], ph[:1], "entropy")
    return correlations._tolerance_scale(th[:, :1], gt, np.sin(th[:, :1]) * gp)


def test_tolerance_scale_is_one_on_general_states():
    # a general landscape's largest scaled gradient norm is above GRAD_REF,
    # so its solve takes every tolerance as it is, bit for bit
    rng = np.random.default_rng(0)
    states = [random_state(s, 2 + s % 3) for s in range(36)]
    states += [random_x_maximally_mixed(rng) for _ in range(12)]
    states += [bell_diagonal(0.7, -0.5, 0.3), bell_diagonal(0.5, -0.2, 0.5), bell_diagonal(-0.3, 0.6, 0.6)]
    assert [tolerance_scale_of(rho) for rho in states] == [1.0] * len(states)


def test_tolerance_scale_equals_its_definition_from_every_norm():
    # the scale skips the norms once some |dJ/dtheta| reaches GRAD_REF; it is
    # min(1, G / GRAD_REF) from every point's scaled norm all the same, on
    # general landscapes and on the near-singular band, whose are below it
    rng = np.random.default_rng(0)
    states = [random_state(s, 2 + s % 3) for s in range(30)] + [random_x_maximally_mixed(rng) for _ in range(10)]
    states += [lu_state(), bell_diagonal(-0.1, -0.07, -0.115), *near_singular_band(n=30)]
    th, ph = correlations._landscape_grid()
    for rho in states:
        if qmat.density_state(rho).b_vals[-1] > choi.RANK_TOL:
            ch, gamma = channel_of(rho)
            _, gt, gp = correlations._sphere_terms(bloch.outcome_form(ch, gamma), th[:, :1], ph[:1], "entropy")
            norm = np.hypot(gt, np.sin(th[:, :1]) * (np.sin(th[:, :1]) * gp))
            assert tolerance_scale_of(rho) == min(1.0, float(np.max(norm)) / correlations.GRAD_REF)


@pytest.mark.parametrize(
    "rho", [lu_state(), bell_diagonal(-0.1, -0.07, -0.115)], ids=["lu", "bell_diagonal(-0.1, -0.07, -0.115)"]
)
def test_a_scale_below_one_leaves_these_stationary_lists_alone(monkeypatch, rho):
    # lu's gradient peaks at ~9e-5 and this weakly correlated Bell-diagonal
    # state's at ~6e-3, so their scales are below 1; their points are
    # critical points to rounding, and the list is the one at scale 1
    assert tolerance_scale_of(rho) < 1.0
    got = find_stationary_points(*channel_of(rho))
    monkeypatch.setattr(correlations, "_tolerance_scale", lambda th, gt, gp: 1.0)
    assert same_points(got, find_stationary_points(*channel_of(rho)))


@pytest.mark.parametrize("eps", NEAR_SINGULAR_EPS, ids=lambda eps: f"eps{eps:.0e}")
def test_near_singular_points_verify_at_the_scaled_tolerance(eps):
    # J spans only about 0.15 eps there, and every reported point's
    # gradient is below the tolerance scaled to that landscape
    rho = near_singular_state(eps)
    scale = tolerance_scale_of(rho)
    assert scale < 1.0
    assert all(q.grad_norm < STATIONARY_TOL * scale for q in find_stationary_points(*channel_of(rho)))


def test_merge_verifies_at_the_scale_it_is_given():
    # the public candidates of near_singular_state(1e-4), at scale 1, hold
    # two equatorial roots whose gradients (3.5e-9, 5.8e-10) are above the
    # tolerance scaled to that landscape: a merge at the solve's scale drops them
    rho = near_singular_state(1e-4)
    ch, gamma = channel_of(rho)
    eq = [q for q in universal_candidates(ch, gamma) if q.kind == SYMMETRIC]
    th, ph = np.array([q.theta for q in eq]), np.array([q.phi for q in eq])
    form, sa = bloch.outcome_form(ch, gamma), output_marginal_entropy(ch, gamma)
    assert len(correlations._merge(form, sa, th, ph)) == len(eq) == 2
    assert correlations._merge(form, sa, th, ph, (), tolerance_scale_of(rho)) == []


def test_find_stationary_points_evaluates_each_point_set_once(monkeypatch):
    # J and its gradient come from one forward pass, so the landscape grid,
    # which holds the pole, and each merged batch of roots are evaluated
    # once each; Newton's calls, which add the Hessian, are not recorded,
    # since the merge evaluates its roots again
    terms, seen = correlations._sphere_terms, []

    def recorded(form, theta, phi, want):
        if want != "hessian":
            points = np.stack(np.broadcast_arrays(theta, phi), axis=-1).reshape(-1, 2)
            seen.append(np.unique(points, axis=0).tobytes())
        return terms(form, theta, phi, want)

    monkeypatch.setattr(correlations, "_sphere_terms", recorded)
    for rho in (random_state(1003), lu_state(), near_singular_state(1e-4)):
        seen.clear()
        find_stationary_points(*channel_of(rho))
        assert len(set(seen)) == len(seen)


def kernel_angle_sets():
    """(theta, phi) arrays of the widths the solver evaluates: single points
    (a one-column matmul rounds differently from a wider one), seven with
    the pole and the equator, Newton's line search, the landscape grid and
    the equatorial scan."""
    rng = np.random.default_rng(11)
    th7 = np.array([0.0, np.pi / 2, 0.2, 1.0, np.pi / 2, 2.9, 0.7])
    ph7 = np.linspace(0.0, 2 * np.pi, 7)
    return [(th7[i : i + 1], ph7[i : i + 1]) for i in range(7)] + [
        (th7, ph7),
        (rng.uniform(0.0, np.pi, (50, 7)), rng.uniform(0.0, 2 * np.pi, (50, 7))),
        correlations._landscape_grid(),
        (np.full(1441, np.pi / 2), np.linspace(0.0, np.pi, 1441)),
    ]


#: (channel, gamma) of the kernel's check: general states, the
#: phi-independent lu, near-rank-one b marginals, a channel that keeps the
#: conditional states pure (purity 1, the log clamp) and gamma ~ 0, where
#: an outcome probability at the pole falls below DEGENERATE_TOL.
KERNEL_CASES = {
    "random_state(1003)": lambda: channel_of(random_state(1003)),
    "lu": lambda: channel_of(lu_state()),
    **{f"near_singular({eps:.0e})": (lambda eps=eps: channel_of(near_singular_state(eps))) for eps in NEAR_SINGULAR_EPS},
    "pure outputs": lambda: (bloch.AffineChannel(eta=np.eye(3), c=np.zeros(3)), 0.9),
    "gamma ~ 0": lambda: (channel_of(random_state(1003))[0], 1e-8),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_sphere_terms_match_the_per_outcome_reference(case):
    # the sphere kernel's J and gradient, the chart's dJ/dphi being sin theta
    # times the frame component, are the chart reference's to rounding at
    # every width the solver evaluates
    ch, gamma = KERNEL_CASES[case]()
    for theta, phi in kernel_angle_sets():
        ce, g_th, g_ph = correlations._sphere_terms(bloch.outcome_form(ch, gamma), theta, phi, "entropy")
        got = ce, g_th, np.sin(theta) * g_ph
        for g, w in zip(got, reference_chart_terms(ch, gamma, theta, phi)):
            assert np.shape(g) == np.shape(theta)
            assert_allclose(g, w, rtol=0, atol=1e-14)


def test_near_singular_copies_take_steady_gradient_calls(monkeypatch):
    # on this flat landscape a start stops in the pass that sees it below
    # NEWTON_TOL, wherever on the floor that is, so every local copy costs
    # about the same
    calls = count_gradient_calls(monkeypatch)
    rng = np.random.default_rng(0)
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        for _ in range(4):
            w = np.kron(random_unitary(rng), I2)
            calls.clear()
            find_stationary_points(*channel_of(w @ near_singular_state(eps) @ w.conj().T))
            assert 0 < len(calls) <= 6


def test_near_singular_band_takes_few_kernel_calls(monkeypatch):
    # the seeds beside the pole start at it: no start crawls from the tail
    # of the narrow polar maximum to a root another start finds, which took
    # the band to a 90th percentile of 19 calls a solve and a largest of 22.
    # A start below NEWTON_TOL stops in the pass that sees it, wherever on
    # a flat floor that is
    calls, per_solve = count_gradient_calls(monkeypatch), []
    for rho in near_singular_band():
        state = qmat.density_state(rho)
        if state.b_vals[-1] > choi.RANK_TOL:
            calls.clear()
            discord(state)
            per_solve.append(len(calls))
    assert len(per_solve) >= 130
    assert np.percentile(per_solve, 90) <= 6 and max(per_solve) <= 7


@pytest.mark.parametrize("n, seed, index, budget, sum_wanted", [(400, 7, 183, 11, None), (1000, 3, 81, 6, 1)])
def test_newton_does_not_crawl_on_the_rounding_floor(monkeypatch, n, seed, index, budget, sum_wanted):
    # a start whose norm is rounding noise above its NEWTON_TOL ends once
    # its half step does not lower that norm either; halving without end
    # took these band states to 34 and 27 calls, and left points on J's
    # rounding floor that spoilt the second one's index sum (state 183's
    # is not checked: it has no index, with or without the crawl)
    rho = list(near_singular_band(n, seed=seed))[index]
    calls = count_gradient_calls(monkeypatch)
    report = discord(rho)
    assert len(calls) <= budget
    if sum_wanted is not None:
        assert index_sum(*channel_of(rho), report.stationary_points) == sum_wanted


@pytest.mark.parametrize(
    "rho",
    [random_state(1003), random_state(1177), near_singular_state(1e-4)],
    ids=["1003", "1177", "near_singular(1e-04)"],
)
def test_newton_calls_are_no_wider_than_its_starts(monkeypatch, rho):
    # an iteration evaluates the gradient and the Hessian at one trial point
    # per live start, not at a row of step lengths per start
    calls, widths = count_gradient_calls(monkeypatch), []
    newton = correlations._newton_batch

    def recorded(form, th0, ph0, *args):
        calls.clear()
        roots = newton(form, th0, ph0, *args)
        widths.append((np.size(th0), max(calls)))
        return roots

    monkeypatch.setattr(correlations, "_newton_batch", recorded)
    find_stationary_points(*channel_of(rho))
    assert widths and all(widest <= starts for starts, widest in widths)


def test_newton_halves_a_step_that_overshoots_the_narrow_polar_maximum():
    # from this seed of the eps = 1e-3 landscape the full step raises the
    # gradient norm (2.16e-3 -> 2.32e-3); with full steps alone the start
    # finds no root, with halving it reaches the narrow maximum near the pole
    ch, gamma = channel_of(near_singular_state(1e-3))
    th, ph = correlations._newton_batch(
        bloch.outcome_form(ch, gamma), [0.014494225223338741], [0.42804342653743266]
    )
    assert th.size == 1
    assert objective_channel(ch, gamma, th[0], ph[0]) >= 1.49933e-4


# (kind, theta, phi, objective) of every stationary point, as computed by the
# full-width Newton multistart that evaluated every start until the last
# one finished; the batched search must take the same steps to the same roots.
# lu's landscape is phi-independent, so its state-dependent root comes from
# bisecting dJ/dtheta on the landscape scan's meridian instead
PINNED_POINTS = {
    "lu": [
        # the root of lu's rounded channel, to 50 digits; with dJ/dtheta
        # rounded to ~8e-17 and |J''| = 2.3e-4 the bisection fixes theta to
        # ~3.4e-13 only (LU_ROOT_TOL), so the pin holds that root, not the
        # kernel's last bits
        (STATE_DEPENDENT, 0.48830647886721715, 0.0, 0.033597366537359896),
        (ASYMMETRIC, 0.0, 0.0, 0.03358771880935019),
        (SYMMETRIC, 1.5707963267948966, 0.0, 0.033535492210052364),
    ],
    "random_state(1003)": [
        (STATE_DEPENDENT, 1.0992188906534142, 5.439881863953256, 0.21022899032723297),
        (ASYMMETRIC, 0.0, 0.8415226929782893, 0.08771033190029232),
        (STATE_DEPENDENT, 0.39140681495054797, 2.0540395566409106, 0.0646297672443712),
        (STATE_DEPENDENT, 1.4699480639569318, 3.8272546338553743, 0.00017589952361718453),
    ],
}


#: How far lu's bisected theta may lie from its 50-digit root: the rounding of dJ/dtheta over |J''|.
LU_ROOT_TOL = 3.4e-13


@pytest.mark.parametrize("name, rho", [("lu", lu_state()), ("random_state(1003)", random_state(1003))])
def test_stationary_points_pinned(name, rho):
    pts = find_stationary_points(*channel_of(rho))
    assert [q.kind for q in pts] == [row[0] for row in PINNED_POINTS[name]]
    got = np.array([q.as_row()[1:4] for q in pts])
    tol = np.full(got.shape, 1e-15)
    if name == "lu":
        tol[0, 0] = LU_ROOT_TOL
    assert np.all(np.abs(got - np.array([row[1:] for row in PINNED_POINTS[name]])) <= tol), got
    assert max(q.grad_norm for q in pts) < 1e-15


def test_missed_root_safety_net(monkeypatch):
    # with no seeds at all, Newton from the best cell of the objective scan
    # still finds the optimum
    monkeypatch.setattr(correlations, "_landscape_seeds", lambda th, ph, grad: (np.zeros(0), np.zeros(0)))
    pts = find_stationary_points(*channel_of(random_state(1003)))
    kind, theta, phi, objective = PINNED_POINTS["random_state(1003)"][0]
    assert pts[0].kind == kind
    assert_allclose(pts[0].as_row()[1:4], (theta, phi, objective), rtol=0, atol=1e-12)


def bilinear_scan(field, th, ph):
    """Landscape meshes of the axes (th, ph) and a gradient field on them."""
    th, ph = np.meshgrid(th, ph, indexing="ij")
    return th, ph, field(th, ph)


def test_landscape_seeds_start_at_the_common_zero_of_a_bilinear_field():
    # both components are bilinear in (theta, phi), so each cell's
    # interpolant is exact; their one common zero on the grid is (t0, p0)
    t0, p0 = 0.37, 1.13

    def field(t, p):
        x, y = t - t0, p - p0
        return x + 0.4 * x * y, y + 0.3 * x - 0.7 * x * y

    th, ph, grad = bilinear_scan(field, np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 9))
    seeds = correlations._landscape_seeds(th, ph, grad)
    assert_allclose(np.ravel(seeds), [t0, p0], rtol=0, atol=1e-12)


def test_landscape_seeds_give_a_cell_both_crossings_of_its_zero_curves():
    # on the unit cell, uv = 0.1 and u + v = 0.8 cross twice
    th, ph, grad = bilinear_scan(lambda u, v: (u * v - 0.1, u + v - 0.8), [0.0, 1.0], [0.0, 1.0])
    seeds = np.sort(np.stack(correlations._landscape_seeds(th, ph, grad)), axis=1)
    low, high = (0.8 - np.sqrt(0.24)) / 2, (0.8 + np.sqrt(0.24)) / 2
    assert_allclose(seeds, [[low, high], [low, high]], rtol=0, atol=1e-12)


def test_landscape_seeds_skip_a_cell_whose_zero_curves_do_not_cross():
    # both components change sign among the cell's corners, but u = 0.5 and
    # u + v = 0.3 meet only at v = -0.2, outside the cell
    th, ph, grad = bilinear_scan(lambda u, v: (u - 0.5, u + v - 0.3), [0.0, 1.0], [0.0, 1.0])
    for g in grad:
        assert g.min() < 0.0 < g.max()
    assert all(s.size == 0 for s in correlations._landscape_seeds(th, ph, grad))


def test_landscape_seeds_solve_only_where_both_components_change_sign():
    # a bilinear interpolant is a convex combination of its cell's corners,
    # so where all four share a strict sign it has no zero in the cell:
    # solving only the cells where both components have a corner <= 0 and
    # one >= 0 gives the all-cells solve's starts, bit for bit.  The one
    # exception is a degenerate circle of stationary points, where rounding
    # seeds cells with no sign change: the tied Bell-diagonal states
    # (0.2, -0.6, 0.6) and (-0.3, 0.6, 0.6) report one point fewer (18 and
    # 15, not 19 and 16), with C unchanged
    rng = np.random.default_rng(8)
    states = [random_state(s, 2 + s % 3) for s in range(200)] + [random_x_maximally_mixed(rng) for _ in range(40)]
    th, ph = correlations._landscape_grid()
    for k, rho in enumerate(states):
        ch, gamma = channel_of(rho)
        _, gt, gp = correlations._sphere_terms(bloch.outcome_form(ch, gamma), th[:, :1], ph[:1], "entropy")
        grad = (gt, np.sin(th[:, :1]) * gp)
        got, want = correlations._landscape_seeds(th, ph, grad), all_cells_landscape_seeds(th, ph, grad)
        assert np.stack(got).tobytes() == np.stack(want).tobytes(), k


# X states whose maximum no cell of the scan seeds; Newton from the scan's
# best sample reaches it.  The first two have their maximum on the grid
# node (pi/2, pi/2), where rounding puts the computed zero of each cell
# beside the node just outside that cell; the third a ridge at theta 0.28
# about 0.02 wide in phi, a sixth of a cell, so no cell's interpolants cross
# on it.  Without that start C is 4.2e-4, 9.2e-2 and 1.4e-6 low
X_SEEDLESS_MAXIMA = [
    x_state(
        0.3171481574495369, 0.015104525480731433, 0.6582531278205219,
        0.009494189249209748, 0.013609690352677551, -0.03274524717624103,
    ),
    x_state(
        0.5348316028393608, 0.18563179194298102, 0.031184642811388646,
        0.24835196240626953, -0.3133820980332216, 0.019176430317216678,
    ),
    x_matrix(
        [0.12589721711012486, 0.6036797829515689, 0.18884124412293113, 0.08158175581537497],
        0.017919289303955758 + 0.018807679657384304j, -0.1987634089233444 - 0.05239822532328725j,
    ),
]

#: A complex X state whose maximum, a pair of twins at theta 0.2041, lies on
#: a ridge almost flat along theta (Hessian eigenvalues -0.26 and -2.5e-3).
#: Its only seeds, at theta 0.141, take full Newton steps of 0.145 rad that
#: overshoot the maximum
X_FLAT_RIDGE = x_matrix(
    [0.03215099802632819, 0.04939103143599872, 0.8660581722950565, 0.05239979824261652],
    0.03296205326917324 - 0.00132770684266107j, -0.06109523332726671 + 0.10410745004795798j,
)


def test_x_states_reach_the_oracle_maximum():
    # X states put critical points on the scan's grid lines and nodes; real
    # cross terms pin them to the meridians phi = k pi/2, complex ones turn
    # them.  C must be the oracle's on either
    rng = np.random.default_rng(5)
    states = X_SEEDLESS_MAXIMA + [X_FLAT_RIDGE] + [random_x_state(rng, real=k % 2 == 0) for k in range(300)]
    for k, rho in enumerate(states):
        assert abs(discord(rho).classical_corr - discord(rho, method="oracle").classical_corr) < 1e-12, k


def test_newton_halves_a_step_that_overshoots_a_flat_ridge_maximum():
    # the full step raises the gradient norm (1.0e-4 -> 2.9e-4) and the
    # halved one lowers it; with full steps alone the seed finds no root and
    # no other start reaches the maximum (test_x_states_reach_the_oracle_maximum)
    ch, gamma = channel_of(X_FLAT_RIDGE)
    th, ph = correlations._newton_batch(bloch.outcome_form(ch, gamma), [0.14098586444811387], [1.071017507437255])
    assert th.size == 1 and abs(th[0] - 0.2040792480492) < 1e-9


@pytest.mark.parametrize("eps", NEAR_SINGULAR_EPS[1:], ids=lambda eps: f"eps{eps:.0e}")
def test_the_pole_start_reaches_the_narrow_polar_maximum(eps):
    # the narrow maximum beside the pole has no seed of its own, and the
    # scan's best sample is the pole; the first row's seeds and the best
    # sample start Newton once, at the pole, and reach it.  It is reported,
    # and it is C
    rho = near_singular_state(eps)
    ch, gamma = channel_of(rho)
    th, ph = correlations._landscape_grid()
    ce, gt, gp = correlations._sphere_terms(bloch.outcome_form(ch, gamma), th[:, :1], ph[:1], "entropy")
    assert np.argmin(ce) // th.shape[1] < 2
    points = find_stationary_points(ch, gamma)
    best = max(points, key=lambda q: q.objective)
    assert best.critical and best.theta < 2 * eps and best.grad_norm < STATIONARY_TOL
    assert discord(rho).classical_corr == best.objective


def test_a_zero_on_a_shared_cell_edge_yields_one_root():
    # a field whose common zero is the pinned maximum of random_state(1003),
    # on a theta line of the grid: both cells beside it seed there, and
    # Newton and the merge leave one root
    ch, gamma = channel_of(random_state(1003))
    kind, t0, p0, objective = PINNED_POINTS["random_state(1003)"][0]
    h = 0.05
    th, ph, grad = bilinear_scan(lambda t, p: (t - t0, p - p0), t0 + h * np.arange(-2, 3), p0 + h * np.arange(-1.5, 2))
    seeds = correlations._landscape_seeds(th, ph, grad)
    assert seeds[0].size == 2
    assert_allclose(np.stack(seeds), [[t0, t0], [p0, p0]], rtol=0, atol=1e-15)
    rth, rph, *_ = correlations._newton_batch(bloch.outcome_form(ch, gamma), *seeds)
    pts = correlations._merge(bloch.outcome_form(ch, gamma), output_marginal_entropy(ch, gamma), rth, rph)
    assert [q.kind for q in pts] == [kind]
    assert_allclose(pts[0].as_row()[1:4], (t0, p0, objective), rtol=0, atol=1e-12)


def test_merge_drops_a_root_within_merge_tol_only():
    # near_singular_state(1e-4)'s J is flat to ~1e-9, so roots next to its
    # stationary points all verify at the unscaled tolerance and only their
    # distance decides: 1e-6 apart they merge into the better converged
    # one, and 1e-3 apart both stay.  Two roots 1e-7 from a Bell-diagonal
    # state's equatorial critical point merge across the equator fold too
    # (the outcome swap maps theta to pi - theta, phi to phi + pi)
    ch, gamma = channel_of(near_singular_state(1e-4))
    pts = find_stationary_points(ch, gamma)
    t0, p0 = next((q.theta, q.phi) for q in pts if q.kind == STATE_DEPENDENT and q.theta > 0.1)
    bell = channel_of(bell_diagonal(0.7, -0.5, 0.3))
    pe = next(q.phi for q in find_stationary_points(*bell) if q.kind == SYMMETRIC)

    def merged(theta, phi, ch=ch, gamma=gamma):
        return correlations._merge(
            bloch.outcome_form(ch, gamma), output_marginal_entropy(ch, gamma), np.array(theta), np.array(phi)
        )

    best = min((merged([t], [p0])[0] for t in (t0, t0 + 1e-6)), key=lambda q: q.grad_norm)
    assert [(q.theta, q.phi) for q in merged([t0 + 1e-6, t0], [p0, p0])] == [(best.theta, best.phi)]
    assert len(merged([np.pi / 2 - 1e-7, np.pi / 2 + 1e-7], [pe, pe + np.pi], *bell)) == 1
    assert len(merged([t0, t0 + 1e-3], [p0, p0])) == 2


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("rho, critical", [(random_state(3), False), (lu_state(), True)], ids=["random", "lu"])
def test_merge_of_no_roots_returns_the_kept_points(rho, critical, scale):
    # no roots: verification, distances and selection run on empty arrays
    # without a RuntimeWarning (an error here) and leave ``kept`` as given;
    # the random state's polar candidate is not critical, lu's is
    ch, gamma = channel_of(rho)
    form, sa = bloch.outcome_form(ch, gamma), output_marginal_entropy(ch, gamma)
    polar = universal_candidates(ch, gamma)[0]
    assert polar.theta == 0.0 and polar.critical == critical
    for kept in ([], [polar]):
        assert correlations._merge(form, sa, np.zeros(0), np.zeros(0), kept, scale) == kept


@functools.cache
def flat_landscape():
    """Channel, gamma, S(rho_a) and stationary points of near_singular_state(1e-4)."""
    ch, gamma = channel_of(near_singular_state(1e-4))
    return ch, gamma, output_marginal_entropy(ch, gamma), find_stationary_points(ch, gamma)


#: A root near a stationary point of the flat landscape: the point (an index
#: modulo their number), offsets in theta and phi, and whether the outcomes
#: are swapped, (theta, phi) -> (pi - theta, phi + pi).  The offsets keep it
#: within 3e-5 of the point.
NEAR_ROOT = st.tuples(st.integers(0, 63), st.floats(-2e-5, 2e-5), st.floats(-2e-5, 2e-5), st.booleans())


# the pair across the equator fold, 9.9999986e-6 apart, whose folded polar
# angles differ by more than MERGE_TOL: the first equatorial point is third
@example(roots=[(2, 9e-13, 0.0, False), (2, MERGE_TOL - 5e-13, 0.0, True)])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(roots=st.lists(NEAR_ROOT, min_size=2, max_size=7))
def test_merge_leaves_no_pair_within_merge_tol_and_covers_every_verified_root(roots):
    # near_singular_state(1e-4)'s J is flat enough that roots near its
    # stationary points verify: the merge keeps no two points within
    # MERGE_TOL of each other, and drops a verified root only beside one it
    # keeps
    ch, gamma, sa, pts = flat_landscape()
    th, ph = [], []
    for k, dt, dp, swap in roots:
        t, p = pts[k % len(pts)].theta + dt, pts[k % len(pts)].phi + dp
        th.append(np.pi - t if swap else t)
        ph.append(p + np.pi if swap else p)
    got = correlations._merge(bloch.outcome_form(ch, gamma), sa, np.array(th), np.array(ph))
    kept = np.array([(q.theta, q.phi) for q in got]).reshape(-1, 2).T
    for k in range(kept.shape[1]):
        assert np.all(bloch.measurement_distance(kept[:, k], kept[:, k + 1 :]) >= MERGE_TOL)
    for t, p in zip(th, ph):
        ft, fp = bloch.normalize_angles(t, p)
        dt, dp = grad_objective(ch, gamma, ft, fp)
        if np.hypot(dt, np.sin(ft) * dp) < STATIONARY_TOL:
            assert np.min(bloch.measurement_distance((ft, fp), kept), initial=np.pi) < MERGE_TOL


@pytest.mark.parametrize(
    "seed, rank",
    [
        pytest.param(1003, 4, id="1003"),
        pytest.param(192, 2, id="192-rank2"),
        pytest.param(324, 2, id="324-rank2"),
        pytest.param(687, 2, id="687-rank2"),
        pytest.param(765, 2, id="765-rank2"),
    ],
)
def test_index_sum_of_the_stationary_list_is_one(seed, rank):
    # Poincare-Hopf on the projective plane: with every critical point found,
    # the signs of their Hessian determinants sum to its Euler characteristic
    ch, gamma = channel_of(random_state(seed, rank=rank))
    assert index_sum(ch, gamma, find_stationary_points(ch, gamma)) == 1


def great_circle_second_difference(ch, gamma, theta, phi, direction, h):
    """(J(c(h)) - 2 J(c(0)) + J(c(-h))) / h**2 on the great circle
    c(s) = n cos s + x sin s through the measurement direction n of each
    point (theta, phi), x the unit tangent with components ``direction``
    along (e_theta, e_phi): a second derivative of J on the sphere, to O(h**2)."""
    st, ct, cp, sp = np.sin(theta), np.cos(theta), np.cos(phi), np.sin(phi)
    n = np.array([st * cp, st * sp, ct])
    x = direction[0] * np.array([ct * cp, ct * sp, -st]) + direction[1] * np.array([-sp, cp, 0.0 * st])
    s = np.array([-h, 0.0, h])[:, None]
    c = n[:, None] * np.cos(s) + x[:, None] * np.sin(s)
    ce = conditional_entropy_channel(ch, gamma, np.arctan2(np.hypot(c[0], c[1]), c[2]), np.arctan2(c[1], c[0]))
    return -(ce[0] - 2.0 * ce[1] + ce[2]) / h**2


@pytest.mark.parametrize(
    "rho",
    [random_state(1003), random_state(192, rank=2), lu_state(), bell_diagonal(0.7, -0.5, 0.3)],
    ids=["1003", "192-rank2", "lu", "bell_diagonal"],
)
def test_closed_form_hessian_matches_second_differences_on_great_circles(rho):
    # the Hessian holds at any point, not only at critical ones: random
    # points, points within 1e-3 of the pole and the pole itself, whose
    # frame (e_theta, e_phi) is set by phi; a tenfold smaller step cuts the
    # error of the second difference a hundredfold, as an O(h**2) error does
    ch, gamma = channel_of(rho)
    rng = np.random.default_rng(5)
    theta = np.concatenate([rng.uniform(0.05, np.pi - 0.05, 6), [1e-3, 4e-4, 0.0, 0.0]])
    phi = rng.uniform(0.0, 2 * np.pi, theta.size)
    _, _, _, htt, htp, hpp, _ = correlations._sphere_terms(
        bloch.outcome_form(ch, gamma), theta, phi, "hessian"
    )
    for d in ([1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]):
        want = d[0] ** 2 * htt + 2.0 * d[0] * d[1] * htp + d[1] ** 2 * hpp
        coarse = np.abs(great_circle_second_difference(ch, gamma, theta, phi, d, 1e-2) - want)
        fine = np.abs(great_circle_second_difference(ch, gamma, theta, phi, d, 1e-3) - want)
        assert np.all(coarse < 1e-3)
        assert np.all(fine <= coarse / 30.0 + 1e-9)


@pytest.mark.parametrize(
    "rho",
    [
        random_state(1003),
        random_state(192, rank=2),
        lu_state(),
        bell_diagonal(0.7, -0.5, 0.3),
        *(near_singular_state(eps) for eps in (1e-3, 1e-5, 1e-7)),
    ],
    ids=["1003", "192-rank2", "lu", "bell_diagonal", "near_singular(1e-03)", "near_singular(1e-05)", "near_singular(1e-07)"],
)
def test_sphere_terms_gradient_matches_the_chart_gradient(rho):
    # e_theta is d/dtheta and e_phi is d/dphi / sin theta; at the pole, where
    # dJ/dphi vanishes, e_theta and e_phi are the meridians at phi and at
    # phi + pi/2.  Every kind of call gives the gradient bit for bit alike,
    # and the chart reference's to rounding
    ch, gamma = channel_of(rho)
    rng = np.random.default_rng(8)
    theta, phi = rng.uniform(0.0, np.pi, 40), rng.uniform(0.0, 2 * np.pi, 40)
    _, g_th, g_ph, *_ = correlations._sphere_terms(bloch.outcome_form(ch, gamma), theta, phi, "hessian")
    for want in ("entropy", "gradient"):
        assert np.array_equal(
            np.array([g_th, g_ph]),
            correlations._sphere_terms(bloch.outcome_form(ch, gamma), theta, phi, want)[1:],
        )
    _, want_th, want_ph = reference_chart_terms(ch, gamma, theta, phi)
    assert_allclose(g_th, want_th, rtol=0, atol=1e-13)
    assert_allclose(np.sin(theta) * g_ph, want_ph, rtol=0, atol=1e-13)
    pole = np.zeros_like(phi)
    _, g_th, g_ph, *_ = correlations._sphere_terms(bloch.outcome_form(ch, gamma), pole, phi, "hessian")
    assert_allclose(g_th, reference_chart_terms(ch, gamma, pole, phi)[1], rtol=0, atol=1e-13)
    assert_allclose(g_ph, reference_chart_terms(ch, gamma, pole, phi + np.pi / 2)[1], rtol=0, atol=1e-13)


def test_index_sum_counts_a_critical_pole():
    # the pole of an X state is a critical point; the closed-form Hessian in
    # the frame (e_theta, e_phi) holds there like anywhere else, and on
    # states 7 and 9 its off-diagonal entry sets the sign
    rng = np.random.default_rng(0)
    for _ in range(10):
        ch, gamma = channel_of(random_x_maximally_mixed(rng))
        pts = find_stationary_points(ch, gamma)
        assert [q.critical for q in pts if q.kind == ASYMMETRIC] == [True]
        assert index_sum(ch, gamma, pts) == 1


def test_index_sum_flags_a_dropped_root():
    ch, gamma = channel_of(random_state(1003))
    pts = find_stationary_points(ch, gamma)
    assert_allclose(pts[2].as_row()[1:4], PINNED_POINTS["random_state(1003)"][2][1:], rtol=0, atol=1e-15)
    assert index_sum(ch, gamma, pts[:2] + pts[3:]) != 1


def test_index_sum_of_no_critical_point_is_none():
    # the polar candidate of a general state solves the (theta, phi)
    # equations but is no critical point of J, so it has no index
    ch, gamma = channel_of(random_state(1003))
    polar = [q for q in find_stationary_points(ch, gamma) if q.kind == ASYMMETRIC]
    assert [q.critical for q in polar] == [False]
    assert index_sum(ch, gamma, polar) is None
    assert index_sum(ch, gamma, []) is None


def test_x_states_report_no_state_dependent_point_at_the_pole():
    # the pole of an X state is critical, and Newton starts next to it
    # converge to it on the sphere; none may stop short of it and report a
    # spurious root
    rng = np.random.default_rng(0)
    for _ in range(40):
        pts = find_stationary_points(*channel_of(random_x_maximally_mixed(rng)))
        dist = [bloch.measurement_distance((q.theta, q.phi), (0.0, 0.0)) for q in pts if q.kind == STATE_DEPENDENT]
        assert min(dist, default=np.pi) >= 1e-4


def one_step_bisect_roots(f, x, fx):
    """Plain bisection, one midpoint per bracket per call: the reference _bisect_roots is held to."""
    exact = x[:-1][fx[:-1] == 0.0]
    k = np.flatnonzero(fx[:-1] * fx[1:] < 0.0)
    lo, hi, flo = x[k], x[k + 1], fx[k]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = flo * fm <= 0.0
        step = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, flo, fm)
        if all(np.array_equal(a, b) for a, b in zip(step, (lo, hi, flo))):
            break
        lo, hi, flo = step
    return np.sort(np.concatenate([exact, 0.5 * (lo + hi)]))


@pytest.mark.parametrize(
    "rho", [lu_state(), random_state(1003), bell_diagonal(0.7, -0.5, 0.3), near_singular_state(1e-4)]
)
@pytest.mark.parametrize("grid", ["equator dJ/dphi", "meridian dJ/dtheta", "closed scan meridian dJ/dtheta"])
def test_bisect_roots_matches_one_step_bisection(rho, grid):
    # near_singular_state(1e-4) gives the equator two brackets; the closed
    # scan meridian is the landscape scan's phi = 0 column with J''(0) and
    # -J''(pi/2) at its ends, as the phi-independent solve brackets it
    ch, gamma = channel_of(rho)
    if grid == "equator dJ/dphi":
        x = np.linspace(0.0, np.pi, 1441)

        def f(v):
            return grad_objective(ch, gamma, np.full_like(v, np.pi / 2), v)[1]

    else:
        x = np.linspace(0.0, np.pi / 2, 2001)[1:-1]
        if grid == "closed scan meridian dJ/dtheta":
            x = correlations._landscape_grid()[0][: correlations.SEED_GRID[0], 0]

        def f(v):
            return grad_objective(ch, gamma, v, np.zeros_like(v))[0]

    calls = []

    def counted(v):
        calls.append(1)
        return f(v)

    fx = f(x)
    if grid == "closed scan meridian dJ/dtheta":
        terms = correlations._sphere_terms(bloch.outcome_form(ch, gamma), x[[0, -1]], np.zeros(2), "hessian")
        fx[[0, -1]] = terms[3] * (1.0, -1.0)
    got, want = correlations._bisect_roots(counted, x, fx), one_step_bisect_roots(f, x, fx)
    # at f's rounding floor a bracket can hold several sign changes, and
    # each search may settle on a different one
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13
    assert len(calls) <= 10


# 3/8 is one of the points the first call evaluates, where f is exactly zero
@pytest.mark.parametrize("r", [0.3137, np.pi / 10, 0.7, 0.375])
def test_bisect_roots_of_a_line_land_within_an_ulp(r):
    x = np.array([0.0, 0.5, 1.0])
    got = correlations._bisect_roots(lambda v: v - r, x, x - r)
    assert got.shape == (1,)
    assert abs(got[0] - r) <= np.spacing(r)


def test_bisect_roots_of_a_cell_with_three_sign_changes_give_one_root():
    x, roots = np.array([-1.0, 0.0, 1.0, 2.0]), np.array([0.2, 0.5, 0.8])

    def f(v):
        return np.prod(np.subtract.outer(v, roots), axis=-1)

    got = correlations._bisect_roots(f, x, f(x))
    assert got.shape == (1,)
    assert 0.0 < got[0] < 1.0
    assert np.min(np.abs(got[0] - roots)) <= 1e-15


@pytest.mark.parametrize("fx, want", [([1.0, 2.0, 0.5, 3.0], []), ([-1.0, 0.0, -2.0, -1.0], [1.0])])
def test_bisect_roots_without_a_bracket_never_call_f(fx, want):
    def f(v):
        raise AssertionError("f called")

    assert correlations._bisect_roots(f, np.arange(4.0), np.array(fx)).tolist() == want


def density(*amplitudes):
    """The projector onto the normalised vector of ``amplitudes``."""
    v = np.array(amplitudes, dtype=complex) / np.linalg.norm(amplitudes)
    return np.outer(v, v.conj())


Z0, Z1, PLUS = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.full((2, 2), 0.5)


@pytest.mark.parametrize(
    "states, bounds",
    [
        ([random_state(s, 2) for s in range(200)], (1e-14, 1e-14)),
        ([random_state(s, 1) for s in range(50)], (4e-14, 1e-15)),
        (
            [
                0.5 * (density(1, 0, 0, 1) + density(0, 1, 1, 0)),
                0.7 * density(1, 0, 0, 1) + 0.3 * density(1, 0, 0, -1),
                0.5 * (np.kron(Z0, Z0) + np.kron(Z1, PLUS)),
                0.5 * (np.kron(Z0, Z0) + np.kron(PLUS, Z1)),
            ],
            (4e-14, 1e-15),
        ),
    ],
    ids=["rank2", "pure", "special"],
)
def test_both_methods_match_koashi_winter_on_rank_two(states, bounds):
    # for rank <= 2, C = S(rho_a) - E_F(rho_ac), with E_F in Wootters' closed
    # form: a yardstick that shares no code with either method.  Pure states
    # have E_F = 0, and the stationary C falls short of S(rho_a) there by
    # the rounding of a steep H2 at a pure conditional state (up to 3e-14)
    for rho in states:
        want = koashi_winter_classical_correlation(rho)
        for method, bound in zip(("stationary", "oracle"), bounds):
            assert abs(discord(rho, method=method).classical_corr - want) <= bound, method


#: Kernel points of the call-width test: the pole, the equator, points
#: beside the pole and one past the equator.
KERNEL_POINTS = [(0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 2, 2.5), (1e-9, 0.3), (1e-3, 4.0), (0.7, 1.1), (1.2, 5.9), (2.8, 3.3)]


def test_kernel_bits_do_not_depend_on_the_call():
    # a point gives the same bits alone and at the head of a call of any
    # width, in every mode, and the landscape scan's broadcast call the bits
    # of its flattened call: the bisection's one-step replay, Newton and
    # the merge rely on it when they batch points
    rng = np.random.default_rng(7)
    fill_th, fill_ph = rng.uniform(0.0, np.pi, 1273), rng.uniform(0.0, 2 * np.pi, 1273)
    th_scan, ph_scan = correlations._landscape_grid()
    for s in range(20):
        form = bloch.outcome_form(*channel_of(random_state(s, 2 + s % 3)))
        for want in ("entropy", "gradient", "hessian"):
            for th, ph in KERNEL_POINTS:
                alone = correlations._sphere_terms(form, np.array([th]), np.array([ph]), want)
                for width in (2, 3, 17, 255, 1274):
                    head = np.append(th, fill_th[: width - 1]), np.append(ph, fill_ph[: width - 1])
                    wide = correlations._sphere_terms(form, *head, want)
                    for one, many in zip(alone, wide):
                        assert (one is None) == (many is None)
                        assert one is None or one.tobytes() == many[:1].tobytes(), (s, want, th, ph, width)
        scan = correlations._sphere_terms(form, th_scan[:, :1], ph_scan[:1], "entropy")
        flat = correlations._sphere_terms(form, th_scan.ravel(), ph_scan.ravel(), "entropy")
        assert all(a.tobytes() == b.tobytes() for a, b in zip(scan, flat)), s


def test_log_ratio_over_x_series_branch_matches_arctanh():
    # below x = 1e-6 the kernel's l(r) is the series (1 + x**2 / 3) / ln 2 of
    # arctanh(x) / (x ln 2), above it the log form: both match arctanh to
    # 1e-10 relative across the switch, x = 0 gives 1 / ln 2, an array mixing
    # both branches gives each point's own bits, and nothing warns
    xs = np.array([1e-9, 5e-7, 1e-6 - 1e-9, 1e-6 + 1e-9, 2e-6, 1e-3])
    want = np.arctanh(xs) / (xs * np.log(2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = np.concatenate([correlations._log_ratio_over_x(np.array([x])) for x in xs])
        mixed = correlations._log_ratio_over_x(np.append(0.0, xs))
        zero = correlations._log_ratio_over_x(np.zeros(1))
    assert np.all(np.abs(alone - want) <= 1e-10 * want)
    assert mixed[1:].tobytes() == alone.tobytes()
    assert zero[0] == mixed[0] == 1.0 / np.log(2.0)


#: The direct path's functions in correlations.py, and the only globals they
#: may read besides builtins and numpy.
DIRECT_PATH = ("conditional_entropy_direct", "_pauli_table", "_direct_entropy", "check_oracle_resolution", "grid_oracle")
DIRECT_QMAT = ("I2", "PAULIS", "binary_entropy_arr", "density_state", "scalar_or_array", "spectrum_entropy")
DIRECT_GLOBALS = {
    "np",
    *DIRECT_QMAT,
    "bloch.finite_angles",
    "bloch.normalize_angles",
    "bloch.DEGENERATE_TOL",
    "ORACLE_MIN_GRID",
    "ZOOM_POINTS",
    "ZOOM_ROUNDS",
    "ZOOM_SHRINK",
    *DIRECT_PATH,
}


def test_the_direct_path_reads_nothing_of_the_channel_path():
    # the oracle is a yardstick only while it shares no code with the
    # channel path: the global names its functions load, a bloch.X read as
    # one name, are numpy, builtins and the helpers above
    tree = ast.parse(inspect.getsource(correlations))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in DIRECT_PATH]
    assert sorted(f.name for f in functions) == sorted(DIRECT_PATH)
    loaded = set()
    for f in functions:
        local = {a.arg for a in ast.walk(f.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(f) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        qualified = {}
        for n in ast.walk(f):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "bloch":
                qualified[id(n.value)] = f"bloch.{n.attr}"
        for n in ast.walk(f):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in local:
                loaded.add(qualified.get(id(n), n.id))
    foreign = loaded - DIRECT_GLOBALS - set(dir(builtins))
    assert not foreign, foreign
    assert all(getattr(correlations, name) is getattr(qmat, name) for name in DIRECT_QMAT)
