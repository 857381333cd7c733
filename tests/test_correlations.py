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
    index_sum,
    mutual_information,
    objective_channel,
    output_marginal_entropy,
    universal_candidates,
)
from qdiscord.qmat import I2, I4, binary_entropy, partial_trace_a, partial_trace_b, von_neumann_entropy
from qdiscord.states import bell_diagonal, lu_state, random_state, werner
from util import (
    brute_conditional_entropy,
    count_gradient_calls,
    entropy_bits,
    random_unitary,
    random_x_maximally_mixed,
    reference_channel_terms,
    same_points,
    ungated_universal_candidates,
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


def test_discord_oracle_resolution_floor():
    # checked before the singular-marginal shortcut, which never runs the oracle
    with pytest.raises(ValueError, match="64 x 128"):
        discord(SINGULAR_B_MARGINAL, method="oracle", oracle_resolution=(2, 2))


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


def test_stationary_finds_the_narrow_polar_maximum():
    # at eps = 1e-3 J has a narrow maximum at theta ~ 0.7e-3 (original
    # frame), inside a single landscape cell; the seeds must reach it.
    # eps = 1e-4 still falls short of its patch maximum by ~1.5e-9
    rho = near_singular_state(1e-3)
    sa = von_neumann_entropy(partial_trace_b(rho))
    tt, pp = np.meshgrid(np.geomspace(1e-8, 1e-2, 400), np.linspace(0.0, 2 * np.pi, 721), indexing="ij")
    patch_max = sa - conditional_entropy_direct(rho, tt, pp).min()
    assert discord(rho, method="stationary").classical_corr >= patch_max - 1e-12


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


@pytest.mark.parametrize("grid", [(64, 128), (100, 200)])
def test_grid_oracle_blocks_give_the_whole_grid_result(monkeypatch, grid):
    # the grid is evaluated a few rows at a time only to keep temporaries
    # small; the result is bitwise that of one call on the whole grid
    states = [lu_state(), random_state(5), bell_diagonal(0.5, -0.2, 0.5)]
    blocked = [grid_oracle(rho, *grid) for rho in states]
    monkeypatch.setattr(correlations, "ORACLE_BLOCK_ROWS", grid[0])
    assert blocked == [grid_oracle(rho, *grid) for rho in states]


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


#: States of the call budget named other than by their random_state seed.
BUDGET_STATES = {"lu": lu_state(), "werner(0.8)": werner(0.8)}


@pytest.mark.parametrize(
    "solve, state, budget",
    [
        (find_stationary_points, 1177, 600),
        (universal_candidates, 1003, 56),
        (find_stationary_points, 1003, 45),
        (universal_candidates, 1177, 16),
        (universal_candidates, 1003, 11),
        (find_stationary_points, 1177, 120),
        (find_stationary_points, 1050, 120),
        (universal_candidates, 1003, 2),
        (universal_candidates, 1177, 2),
        (find_stationary_points, 1003, 25),
        (find_stationary_points, 1177, 60),
        (find_stationary_points, 1050, 60),
        (find_stationary_points, "lu", 12),
        (find_stationary_points, "werner(0.8)", 1),
    ],
)
def test_gradient_call_budget(monkeypatch, solve, state, budget):
    # Newton starts only at the common zeros of the gradient's bilinear
    # interpolants in the landscape's cells (Helman & Hesselink 1989), steps
    # on the sphere with the closed-form Hessian, calls the gradient and the
    # Hessian on its live starts only and tries every step length in one
    # call; bisection takes six steps per call, stops once its brackets stop
    # changing, and skips the equatorial brackets where dJ/dtheta keeps clear
    # of zero; lu's landscape does not depend on phi, and werner(0.8)'s is
    # flat.  Every channel-path call counts, objective, gradient and Hessian
    # alike
    calls = count_gradient_calls(monkeypatch)
    solve(*channel_of(BUDGET_STATES[state] if isinstance(state, str) else random_state(state)))
    assert 0 < len(calls) <= budget


def test_find_stationary_points_evaluates_each_point_set_once(monkeypatch):
    # J and its gradient come from one forward pass, so the landscape grid,
    # each merged batch of roots and the pole are evaluated once each
    terms, seen = correlations._channel_terms, []

    def recorded(ch, gamma, theta, phi):
        points = np.stack(np.broadcast_arrays(theta, phi), axis=-1).reshape(-1, 2)
        seen.append(np.unique(points, axis=0).tobytes())
        return terms(ch, gamma, theta, phi)

    monkeypatch.setattr(correlations, "_channel_terms", recorded)
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


#: (channel, gamma) of the bit-identity check: general states, the
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
def test_channel_terms_match_the_per_outcome_reference_bit_for_bit(case):
    # both outcomes share one pass, but every floating-point operation is the
    # one-outcome-at-a-time computation's, in the same order
    ch, gamma = KERNEL_CASES[case]()
    for theta, phi in kernel_angle_sets():
        got = correlations._channel_terms(ch, gamma, theta, phi)
        want = reference_channel_terms(ch, gamma, theta, phi)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(theta)
            assert np.array_equal(g, w)


def test_near_singular_copies_take_steady_gradient_calls(monkeypatch):
    # on this flat landscape a root polished past NEWTON_TOL crawls on in
    # tiny steps, as many as one local copy happens to allow; polishing is
    # capped, so every copy costs about the same
    calls = count_gradient_calls(monkeypatch)
    rng = np.random.default_rng(0)
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        for _ in range(4):
            w = np.kron(random_unitary(rng), I2)
            calls.clear()
            find_stationary_points(*channel_of(w @ near_singular_state(eps) @ w.conj().T))
            assert 0 < len(calls) <= 100


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
    rth, rph, *_ = correlations._newton_batch(ch, gamma, *seeds)
    pts = correlations._merge(ch, gamma, output_marginal_entropy(ch, gamma), rth, rph)
    assert [q.kind for q in pts] == [kind]
    assert_allclose(pts[0].as_row()[1:4], (t0, p0, objective), rtol=0, atol=1e-12)


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
    affine = correlations._outcome_affine(ch, gamma)
    htt, htp, hpp, ng = correlations._hessian_terms(*affine, *bloch.angle_trig(theta, phi))
    for d in ([1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]):
        want = d[0] ** 2 * htt + 2.0 * d[0] * d[1] * htp + d[1] ** 2 * hpp - ng
        coarse = np.abs(great_circle_second_difference(ch, gamma, theta, phi, d, 1e-2) - want)
        fine = np.abs(great_circle_second_difference(ch, gamma, theta, phi, d, 1e-3) - want)
        assert np.all(coarse < 1e-3)
        assert np.all(fine <= coarse / 30.0 + 1e-9)


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
    """The bisection _bisect_roots replays: one midpoint per bracket per call."""
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


@pytest.mark.parametrize("rho", [lu_state(), random_state(1003), bell_diagonal(0.7, -0.5, 0.3)])
@pytest.mark.parametrize("grid", ["equator dJ/dphi", "meridian dJ/dtheta"])
def test_bisect_roots_matches_one_step_bisection(rho, grid):
    ch, gamma = channel_of(rho)
    if grid == "equator dJ/dphi":
        x = np.linspace(0.0, np.pi, 1441)

        def f(v):
            return grad_objective(ch, gamma, np.full_like(v, np.pi / 2), v)[1]

    else:
        x = np.linspace(0.0, np.pi / 2, 2001)[1:-1]

        def f(v):
            return grad_objective(ch, gamma, v, np.zeros_like(v))[0]

    calls = []

    def counted(v):
        calls.append(1)
        return f(v)

    fx = f(x)
    got = correlations._bisect_roots(counted, x, fx)
    assert got.tobytes() == one_step_bisect_roots(f, x, fx).tobytes()
    assert len(calls) <= 10


def gate_states():
    rng = np.random.default_rng(0)
    yield "lu", lu_state()
    yield "random_state(1003)", random_state(1003)
    yield "random_state(1177)", random_state(1177)
    yield "bell_diagonal(0.7, -0.5, 0.3)", bell_diagonal(0.7, -0.5, 0.3)
    for i in range(10):
        yield f"random_x_maximally_mixed #{i}", random_x_maximally_mixed(rng)
    for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        yield f"near_singular_state({eps:.0e})", near_singular_state(eps)


def test_equatorial_gate_keeps_the_candidates(monkeypatch):
    # a skipped bracket's root would fail verification on dJ/dtheta alone,
    # so the gated candidates are those of bisecting every bracket; on a
    # general state no bracket is bisected, while the verified equatorial
    # roots of a near-singular marginal are
    calls, widths = count_gradient_calls(monkeypatch), {}
    for name, rho in gate_states():
        ch, gamma = channel_of(rho)
        calls.clear()
        got = universal_candidates(ch, gamma)
        widths[name] = list(calls)
        assert same_points(got, ungated_universal_candidates(ch, gamma)), name
    bisection = 2**correlations.BISECT_LEVELS - 1
    assert not any(w % bisection == 0 for w in widths["random_state(1003)"])
    assert any(w % bisection == 0 for w in widths["near_singular_state(1e-04)"])
