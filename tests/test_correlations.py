import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord import bloch, choi, correlations
from qdiscord.bloch import affine_from_kraus
from qdiscord.choi import KrausSet, decompose, rotate_b
from qdiscord.correlations import (
    ASYMMETRIC,
    MERGE_TOL,
    STATE_DEPENDENT,
    STATIONARY_TOL,
    SYMMETRIC,
    conditional_entropy_channel,
    conditional_entropy_direct,
    discord,
    find_stationary_points,
    grad_objective,
    grid_oracle,
    mutual_information,
    objective_channel,
    universal_candidates,
)
from qdiscord.qmat import I2, I4, binary_entropy, partial_trace_a, partial_trace_b, von_neumann_entropy
from qdiscord.states import bell_diagonal, lu_state, random_state, werner
from util import brute_conditional_entropy, entropy_bits, random_unitary

PHI_PLUS_DM = np.outer(*(2 * [np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)])).conj().T


def phi_plus():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def product_state():
    return np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)


def test_mutual_information_product():
    assert abs(mutual_information(product_state())) < 1e-12


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
    rng = np.random.default_rng(2)
    for seed in range(4):
        rho = random_state(seed + 10)
        for _ in range(5):
            th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            assert abs(
                conditional_entropy_direct(rho, th, ph) - brute_conditional_entropy(rho, th, ph)
            ) < 1e-12


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
    with pytest.raises(ValueError, match="64 x 128"):
        grid_oracle(phi_plus(), 32, 128)


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


def test_discord_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        discord(phi_plus(), method="magic")


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


def near_singular_state(eps):
    base = np.kron(np.diag([0.6, 0.4]), np.diag([1.0, 0.0])).astype(complex)
    return (1 - eps) * base + eps * random_state(7)


def test_near_singular_stationary_is_fast_and_agrees_with_oracle():
    # at eps = 1e-5 the absolute Newton tolerance admits ~1150 spurious roots,
    # all of which go through the merge
    rho = near_singular_state(1e-5)
    t0 = time.perf_counter()
    rep = discord(rho, method="stationary")
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0
    assert abs(rep.discord - discord(rho, method="oracle").discord) < 1e-6
    # the merged points are verified and pairwise distinct
    pts = rep.stationary_points
    assert len(pts) > 100
    assert max(q.grad_norm for q in pts) < STATIONARY_TOL
    th, ph = np.array([q.theta for q in pts]), np.array([q.phi for q in pts])
    for k in range(len(pts) - 1):
        assert bloch.measurement_distance((th[k], ph[k]), (th[k + 1 :], ph[k + 1 :])).min() >= MERGE_TOL


@pytest.mark.parametrize(
    "rho", [lu_state(), random_state(3), bell_diagonal(0.7, -0.5, 0.3), near_singular_state(1e-4)]
)
def test_grid_oracle_value_at_returned_angles(rho):
    corr, (th, ph) = grid_oracle(rho)
    sa = von_neumann_entropy(partial_trace_b(rho))
    assert abs(sa - conditional_entropy_direct(rho, th, ph) - corr) < 1e-12
    tt, pp = np.meshgrid(
        np.linspace(0.0, np.pi, 64), np.linspace(0.0, 2 * np.pi, 128, endpoint=False), indexing="ij"
    )
    assert corr >= sa - conditional_entropy_direct(rho, tt, pp).min()


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
    "solve, seed, budget",
    [(find_stationary_points, 1177, 600), (universal_candidates, 1003, 56)],
)
def test_gradient_call_budget(monkeypatch, solve, seed, budget):
    # the Newton multistart calls the gradient on its live starts only, and
    # bisection stops once its brackets stop changing
    calls = []

    def counted(*args):
        calls.append(1)
        return grad_objective(*args)

    monkeypatch.setattr(correlations, "grad_objective", counted)
    solve(*channel_of(random_state(seed)))
    assert 0 < len(calls) <= budget


# (kind, theta, phi, objective) of every stationary point, as computed by the
# full-width Newton multistart that evaluated every start until the last
# one finished; the batched search must take the same steps to the same roots
PINNED_POINTS = {
    "lu": [
        (STATE_DEPENDENT, 0.48830647886735257, 0.0, 0.033597366537359896),
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


@pytest.mark.parametrize("name, rho", [("lu", lu_state()), ("random_state(1003)", random_state(1003))])
def test_stationary_points_pinned(name, rho):
    pts = find_stationary_points(*channel_of(rho))
    assert [q.kind for q in pts] == [row[0] for row in PINNED_POINTS[name]]
    got = np.array([q.as_row()[1:4] for q in pts])
    assert_allclose(got, np.array([row[1:] for row in PINNED_POINTS[name]]), rtol=0, atol=1e-15)
    assert max(q.grad_norm for q in pts) < 1e-15
