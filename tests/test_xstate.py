import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord.bloch import AffineChannel, affine_from_kraus, conditional_purities, measurement_distance
from qdiscord.choi import decompose
from qdiscord.correlations import ASYMMETRIC, SYMMETRIC, discord, grad_objective, grid_oracle
from qdiscord.qmat import I4, binary_entropy
from qdiscord.states import bell_diagonal, lu_state, random_state, x_state
from qdiscord.xstate import (
    G_func,
    H_func,
    NotApplicableError,
    XStateParams,
    analytic_discord_x,
    closed_form_purities,
    f_phi,
    is_x_state,
    maximize_f,
    universal_sufficient,
    x_params,
)
from util import feasible_bell_triple, random_x_maximally_mixed


def _diag_channel(ex, ey, ez, cz=0.0):
    return AffineChannel(eta=np.diag([ex, ey, ez]).astype(float), c=np.array([0.0, 0.0, cz]))


def test_is_x_state():
    assert is_x_state(lu_state())
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert is_x_state(np.outer(phi, phi.conj()))
    bad = np.array(I4 / 4)
    bad[0, 1] = bad[1, 0] = 0.1
    assert not is_x_state(bad)


def test_is_x_state_rejects_a_matrix_that_is_not_4x4():
    with pytest.raises(ValueError, match="4x4"):
        is_x_state(np.eye(2))


def test_f_phi_diagonal_block():
    ch = _diag_channel(0.8, 0.3, 0.5)
    for ph in np.linspace(0, 2 * np.pi, 17):
        expect = (0.8 * np.cos(ph)) ** 2 + (0.3 * np.sin(ph)) ** 2
        assert abs(f_phi(ch, ph) - expect) < 1e-14
    top, phi_star = maximize_f(ch)
    assert abs(top - 0.64) < 1e-14
    assert abs(phi_star) < 1e-12


def test_maximize_f_reports_axis():
    top, phi_star = maximize_f(_diag_channel(0.3, 0.8, 0.5))
    assert abs(top - 0.64) < 1e-14
    assert abs(phi_star - np.pi / 2) < 1e-12


def test_maximize_f_isotropic():
    m = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.2]])
    ch = AffineChannel(eta=m, c=np.zeros(3))
    for ph in (0.0, 1.0, 2.0):
        assert abs(f_phi(ch, ph) - 0.25) < 1e-14
    top, phi_star = maximize_f(ch)
    assert abs(top - 0.25) < 1e-14
    assert phi_star == 0.0


def test_maximize_f_matches_dense_sweep():
    ch = affine_from_kraus(decompose(lu_state()).kraus)
    top, _ = maximize_f(ch)
    sweep = max(f_phi(ch, ph) for ph in np.linspace(0, np.pi, 10_000))
    assert abs(top - sweep) < 1e-10


def _xy_blocks(rng):
    """Random 2x2 blocks: general ones, diagonal ones and rotated near-isotropic
    ones whose Gram matrix has a relative eigen-gap of 1e-12 to 1e-2."""
    for _ in range(800):
        yield rng.uniform(-1, 1, (2, 2))
    for _ in range(400):
        yield np.diag(rng.uniform(-1, 1, 2))
    for _ in range(800):
        top, gap = rng.uniform(0.05, 1), 10.0 ** rng.uniform(-12, -2)
        rot = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]) for a in rng.uniform(0, 2 * np.pi, 2)]
        yield rot[0] @ np.diag([top, top * np.sqrt(1 - gap)]) @ rot[1]


def test_maximize_f_matches_the_eigensolver():
    # the closed form against the top eigenpair of M^T M from np.linalg.eigh;
    # the azimuth is compared where the gap is at least 1e-3 of the top
    for m in _xy_blocks(np.random.default_rng(11)):
        eta = np.eye(3)
        eta[:2, :2] = m
        top, phi_star = maximize_f(AffineChannel(eta=eta, c=np.zeros(3)))
        vals, vecs = np.linalg.eigh(m.T @ m)
        assert abs(top - vals[1]) <= 1e-15 * vals[1]
        if vals[1] - vals[0] >= 1e-3 * vals[1]:
            gap = abs(phi_star - np.arctan2(vecs[1, 1], vecs[0, 1])) % np.pi
            assert min(gap, np.pi - gap) < 1e-12


def test_f_phi_rejects_non_block_channel():
    eta = np.eye(3)
    eta[0, 2] = 0.3
    with pytest.raises(NotApplicableError):
        f_phi(AffineChannel(eta=eta, c=np.zeros(3)), 0.0)


def test_x_params_consistency():
    ch = affine_from_kraus(decompose(random_x_maximally_mixed(np.random.default_rng(3))).kraus)
    p = x_params(ch)
    assert abs(p.a - (p.eta_perp**2 + p.c_z**2)) < 1e-12
    assert abs(p.b - p.eta_zz * p.c_z) < 1e-12
    assert abs(p.c - (p.eta_zz**2 - p.eta_perp**2)) < 1e-12
    if p.k is not None:
        assert abs(p.k - p.c / (p.b**2 - p.c * p.a)) < 1e-9


def test_x_params_bell_diagonal_k():
    ch = affine_from_kraus(decompose(bell_diagonal(0.7, -0.5, 0.3)).kraus)
    p = x_params(ch)
    assert abs(p.eta_perp - 0.7) < 1e-12
    assert p.k is not None and p.k <= -1.0
    assert abs(p.k - (-1.0 / 0.49)) < 1e-9


def test_universal_sufficient_ranges():
    base = dict(eta_perp=0.5, c_z=0.0, eta_zz=0.5, a=0.25, b=0.0, c=0.0, phi_star=0.0)
    from qdiscord.xstate import XStateParams

    assert universal_sufficient(XStateParams(k=-0.5, **base))
    assert universal_sufficient(XStateParams(k=0.4, **base))
    assert universal_sufficient(XStateParams(k=-1.0, **base))
    assert universal_sufficient(XStateParams(k=-2.3, **base))
    assert not universal_sufficient(XStateParams(k=-0.8, **base))
    assert universal_sufficient(XStateParams(k=None, **base))  # degenerate


def test_H_monotone_increasing_at_k0():
    xs = np.linspace(0.001, 0.999, 1000)
    vals = [H_func(x, 0.0) for x in xs]
    assert np.all(np.diff(vals) > 0)


def test_H_monotone_decreasing_at_k_minus1():
    xs = np.linspace(0.001, 0.999, 1000)
    vals = [H_func(x, -1.0) for x in xs]
    assert np.all(np.diff(vals) < 0)


def test_H_non_monotone_in_gap():
    xs = np.linspace(0.001, 0.999, 1000)
    vals = np.array([H_func(x, -0.8) for x in xs])
    dv = np.diff(vals)
    assert (dv > 0).any() and (dv < 0).any()


def test_H_and_G_domain_errors():
    with pytest.raises(ValueError):
        H_func(0.0, 0.0)
    with pytest.raises(ValueError):
        H_func(1.0, 0.0)
    with pytest.raises(ValueError, match="negative"):
        H_func(0.9, -2.0)
    for x in (0.0, 1.0, np.nan):
        with pytest.raises(ValueError, match="outside"):
            G_func(x, 0.0)
    with pytest.raises(ValueError, match="negative"):
        G_func(0.9, -2.0)
    assert abs(G_func(0.5, 0.0) - 2.0) < 1e-14


@pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
def test_H_and_G_refuse_a_non_finite_k(k):
    for f in (H_func, G_func):
        with pytest.raises(ValueError, match="finite"):
            f(0.5, k)


def test_closed_form_purities_match_affine():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho = random_x_maximally_mixed(rng)
        d = decompose(rho)
        ch = affine_from_kraus(d.kraus)
        p = x_params(ch)
        phi_obj = (-p.phi_star) % np.pi
        for th in np.linspace(0.0, np.pi, 9):
            s_cf, t_cf = closed_form_purities(p, th)
            sp, tp, _, _ = conditional_purities(ch, d.gamma, th, phi_obj)
            assert abs(s_cf - sp) < 1e-12
            assert abs(t_cf - tp) < 1e-12


def test_closed_form_purities_keep_their_digits_near_a_zero_purity():
    # c_z = -eta_zz: s' -> 0 at the pole, where the expansion
    # sqrt(a + 2 b cos(theta) + c cos(theta)^2) cancels to its rounding
    eta_perp, c_z, eta_zz = 0.5, 0.3, -0.3
    a, b, c = eta_perp**2 + c_z**2, eta_zz * c_z, eta_zz**2 - eta_perp**2
    p = XStateParams(eta_perp, c_z, eta_zz, a, b, c, c / (b * b - c * a), 0.0)
    for th in (1e-3, 1e-5, 1e-7):
        s, _ = closed_form_purities(p, th)
        expect = np.hypot(eta_perp * np.sin(th), eta_zz * 2 * np.sin(th / 2) ** 2)
        assert abs(s - expect) <= 1e-14 * expect
    assert closed_form_purities(p, 0.0) == (0.0, 0.6)


def test_analytic_bell_diagonal_closed_form():
    rho = bell_diagonal(0.7, -0.5, 0.3)
    rep = analytic_discord_x(rho)
    assert abs(rep.classical_corr - (1 - binary_entropy((1 + 0.7) / 2))) < 1e-12
    corr, _ = grid_oracle(rho)
    assert abs(rep.classical_corr - corr) < 1e-6
    assert rep.stationary_points[0].kind == SYMMETRIC


def test_analytic_polar_branch_wins():
    rho = bell_diagonal(0.3, 0.3, -0.8)
    rep = analytic_discord_x(rho)
    assert rep.stationary_points[0].kind == ASYMMETRIC
    assert abs(rep.classical_corr - (1 - binary_entropy((1 + 0.8) / 2))) < 1e-12
    assert abs(rep.theta) < 1e-12


def test_analytic_maximally_mixed():
    rep = analytic_discord_x(np.array(I4) / 4)
    assert abs(rep.classical_corr) < 1e-12
    assert abs(rep.discord) < 1e-12


def test_analytic_matches_oracle_on_random_x_states():
    rng = np.random.default_rng(5)
    done = 0
    while done < 10:
        rho = random_x_maximally_mixed(rng)
        try:
            rep = analytic_discord_x(rho)
        except NotApplicableError:
            continue
        corr, _ = grid_oracle(rho)
        assert abs(rep.classical_corr - corr) < 1e-6
        done += 1


def test_analytic_rejects_non_x():
    with pytest.raises(NotApplicableError, match="X entry pattern"):
        analytic_discord_x(random_state(0))


def test_analytic_rejects_unbalanced_marginal():
    with pytest.raises(NotApplicableError, match="not maximally mixed"):
        analytic_discord_x(lu_state())


#: An X state with a maximally mixed b marginal whose shape parameter
#: k = -0.9137 lies in the gap (-1, -2/3).
GAP_STATE = (0.19, 0.06, 0.31, 0.44, 0.11, 0.04)


def test_analytic_rejects_the_gap():
    rho = x_state(*GAP_STATE)
    for solve in (analytic_discord_x, lambda r: discord(r, method="xstate_analytic")):
        with pytest.raises(NotApplicableError, match=r"k = -0\.913689 lies in the gap"):
            solve(rho)


def test_analytic_agrees_with_solver_and_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        rho = random_x_maximally_mixed(rng)
        try:
            rep = analytic_discord_x(rho)
        except NotApplicableError:
            continue
        rep_s = discord(rho, method="stationary")
        assert abs(rep.classical_corr - rep_s.classical_corr) < 1e-8
        assert abs(rep.discord - rep_s.discord) < 1e-8


@pytest.mark.parametrize("triple", [(0.5, -0.2, 0.5), (-0.4, 0.1, 0.4)])
def test_tied_optimum_resolves_alike_in_both_channel_methods(triple):
    # two equal largest |c_i|: the polar and equatorial settings tie, and
    # both methods must report the same one (flat landscapes, where every
    # angle is optimal, are out of scope)
    rho = bell_diagonal(*triple)
    rep_s = discord(rho, method="stationary")
    rep_x = discord(rho, method="xstate_analytic")
    assert measurement_distance((rep_s.theta, rep_s.phi), (rep_x.theta, rep_x.phi)) < 1e-9
    assert abs(rep_s.classical_corr - rep_x.classical_corr) < 1e-12


def _accepted_closed_forms(draw, n, rng):
    """(rho, report) of the first ``n`` states from ``draw(rng)`` that the closed form accepts."""
    out = []
    while len(out) < n:
        rho = draw(rng)
        try:
            out.append((rho, analytic_discord_x(rho)))
        except NotApplicableError:
            continue
    return out


def test_closed_form_points_are_stationary_by_symmetry():
    # both candidates are reported critical with grad_norm 0.0, by symmetry
    # rather than by evaluation; the channel path's gradient there, in the
    # decomposition frame, agrees to rounding
    rng = np.random.default_rng(39)
    cases = _accepted_closed_forms(random_x_maximally_mixed, 1000, rng)
    cases += _accepted_closed_forms(lambda g: bell_diagonal(*feasible_bell_triple(g)), 200, rng)
    worst = 0.0
    for rho, rep in cases:
        pts = rep.stationary_points
        assert sorted(q.kind for q in pts) == [ASYMMETRIC, SYMMETRIC]
        assert all(q.critical and q.grad_norm == 0.0 for q in pts)
        d = decompose(rho)
        th, ph = np.array([q.theta for q in pts]), np.array([q.phi for q in pts])
        gt, gp = grad_objective(affine_from_kraus(d.kraus), d.gamma, th, ph)
        worst = max(worst, float(np.max(np.hypot(gt, np.sin(th) * gp))))
    assert worst <= 1e-14
