import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdiscord import choi
from qdiscord.bloch import (
    DegenerateOutcomeError,
    affine_from_kraus,
    angles_to_direction,
    conditional_probabilities,
    conditional_purities,
    fold_angles,
    from_bloch,
    measurement_distance,
    normalize_angles,
    outcome_form,
    to_bloch,
)
from qdiscord.choi import KrausSet, decompose
from qdiscord.qmat import I2, I4, PAULIS, SIGMA_X, partial_trace_a, partial_trace_b
from qdiscord.states import lu_state, random_state
from util import random_unitary


def test_to_bloch_examples():
    assert_allclose(to_bloch(I2 / 2), [0, 0, 0], atol=1e-15)
    assert_allclose(to_bloch(np.diag([1.0, 0.0]).astype(complex)), [0, 0, 1], atol=1e-15)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert_allclose(to_bloch(plus), [1, 0, 0], atol=1e-15)


def test_to_bloch_stack_matches_per_matrix():
    rng = np.random.default_rng(20)
    g = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    stack = g @ np.conj(np.swapaxes(g, -1, -2))
    stack /= np.trace(stack, axis1=1, axis2=2).real[:, None, None]
    r = to_bloch(stack)
    assert r.shape == (5, 3)
    for k in range(5):
        assert_allclose(r[k], to_bloch(stack[k]), rtol=0, atol=1e-15)
    assert_allclose(from_bloch(r), stack, atol=1e-14)


def test_bloch_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = rng.uniform(-1, 1, 3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        assert_allclose(to_bloch(from_bloch(r)), r, atol=1e-14)


def test_affine_identity_channel():
    ch = affine_from_kraus(KrausSet([I2.copy()]))
    assert_allclose(ch.eta, np.eye(3), atol=1e-14)
    assert_allclose(ch.c, np.zeros(3), atol=1e-14)


def test_affine_depolarizing_channel():
    ch = affine_from_kraus(decompose(I4 / 4).kraus)
    assert np.abs(ch.eta).max() < 1e-12
    assert np.abs(ch.c).max() < 1e-12


def test_affine_matches_kraus_action():
    rng = np.random.default_rng(1)
    d = decompose(random_state(12))
    ch = affine_from_kraus(d.kraus)
    for _ in range(20):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        lhs = to_bloch(choi.apply_channel(d.kraus, rho))
        assert_allclose(lhs, ch(to_bloch(rho)), atol=1e-10)


def test_affine_from_kraus_matches_pauli_trace_reference():
    for seed in (12, 31, 47):
        ops = decompose(random_state(seed)).kraus.operators
        eta = np.zeros((3, 3))
        c = np.zeros(3)
        for i, si in enumerate(PAULIS):
            out = sum(e @ si @ e.conj().T for e in ops)
            for j, sj in enumerate(PAULIS):
                eta[j, i] = np.trace(sj @ out).real / 2
        out = sum(e @ e.conj().T for e in ops)
        for j, sj in enumerate(PAULIS):
            c[j] = np.trace(sj @ out).real / 2
        ch = affine_from_kraus(KrausSet(ops))
        assert_allclose(ch.eta, eta, rtol=0, atol=1e-15)
        assert_allclose(ch.c, c, rtol=0, atol=1e-15)


def test_affine_block_form_for_x_state():
    ch = affine_from_kraus(decompose(lu_state()).kraus)
    for i, j in ((0, 2), (1, 2), (2, 0), (2, 1)):
        assert abs(ch.eta[i, j]) < 1e-12
    assert abs(ch.c[0]) < 1e-12 and abs(ch.c[1]) < 1e-12


def test_affine_maps_ball_into_ball():
    d = decompose(random_state(21))
    ch = affine_from_kraus(d.kraus)
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(ch(v)) <= 1 + 1e-8


def test_conditional_probabilities():
    p1, p2 = conditional_probabilities(0.8, np.pi / 2)
    assert abs(p1 - 0.5) < 1e-15 and abs(p2 - 0.5) < 1e-15
    p1, p2 = conditional_probabilities(np.pi / 2, 0.3)
    assert abs(p1 - 0.5) < 1e-15
    p1, p2 = conditional_probabilities(1e-9, 0.0)
    assert abs(p1 - 1.0) < 1e-15 and p2 >= 0.0


#: The identity channel, whose outcome form holds the reference state's own
#: conditional vectors: unit vectors for every measurement.
IDENTITY = affine_from_kraus(KrausSet([I2.copy()]))


def conditional_vectors(ch, gamma, theta, phi):
    """The two outcomes' Bloch vectors (a +- T n) / (2 p) of :func:`outcome_form`."""
    _, a, t = outcome_form(ch, gamma)
    tn = t @ angles_to_direction(theta, phi)
    p1, p2 = conditional_probabilities(gamma, theta)
    return (a + tn) / (2.0 * p1), (a - tn) / (2.0 * p2)


def test_conditional_bloch_equator():
    s, t = conditional_vectors(IDENTITY, np.pi / 2, np.pi / 2, 0.0)
    assert_allclose(s, [1, 0, 0], atol=1e-15)
    assert_allclose(t, [-1, 0, 0], atol=1e-15)


def test_conditional_bloch_poles():
    s, t = conditional_vectors(IDENTITY, 0.7, 0.0, 1.3)
    assert_allclose(s, [0, 0, 1], atol=1e-15)
    assert_allclose(t, [0, 0, -1], atol=1e-15)


def test_conditional_bloch_unit_norm_and_interchange():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = rng.uniform(0.05, np.pi / 2)
        th = rng.uniform(0, np.pi)
        ph = rng.uniform(0, 2 * np.pi)
        s, t = conditional_vectors(IDENTITY, g, th, ph)
        assert abs(np.linalg.norm(s) - 1) < 1e-12
        assert abs(np.linalg.norm(t) - 1) < 1e-12
        s2, _ = conditional_vectors(IDENTITY, g, np.pi - th, ph + np.pi)
        assert_allclose(s2, t, atol=1e-12)


def test_conditional_bloch_degenerate_outcome():
    with pytest.raises(DegenerateOutcomeError):
        conditional_purities(IDENTITY, 1e-9, 1e-9, 0.0)


def test_conditional_purities_identity_channel():
    ch = affine_from_kraus(KrausSet([I2.copy()]))
    sp, tp, p1, p2 = conditional_purities(ch, 0.9, 1.1, 2.0)
    assert abs(sp - 1) < 1e-12 and abs(tp - 1) < 1e-12
    assert abs(p1 + p2 - 1) < 1e-15


def test_conditional_purities_zero_channel():
    ch = affine_from_kraus(decompose(I4 / 4).kraus)
    sp, tp, _, _ = conditional_purities(ch, np.pi / 2, 0.7, 0.3)
    assert sp < 1e-12 and tp < 1e-12


def test_purities_closed_form_x_channel():
    # at maximal reference mixing the purity splits into an xy stretch and a
    # z part; the xy stretch is evaluated at the reflected azimuth because
    # the conditional direction rotates against the measurement azimuth
    d = decompose(lu_state())
    ch = affine_from_kraus(d.kraus)
    m = ch.eta[:2, :2]
    czz, cz = ch.eta[2, 2], ch.c[2]
    rng = np.random.default_rng(4)
    for _ in range(30):
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(-ph), np.sin(-ph)])
        f = float(np.sum((m @ u) ** 2))
        sp, tp, _, _ = conditional_purities(ch, np.pi / 2, th, ph)
        assert abs(sp - np.sqrt(np.sin(th) ** 2 * f + (cz + czz * np.cos(th)) ** 2)) < 1e-12
        assert abs(tp - np.sqrt(np.sin(th) ** 2 * f + (cz - czz * np.cos(th)) ** 2)) < 1e-12


def test_interchange_symmetry_of_purities():
    d = decompose(random_state(31))
    ch = affine_from_kraus(d.kraus)
    rng = np.random.default_rng(5)
    for _ in range(50):
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        sp, tp, p1, p2 = conditional_purities(ch, d.gamma, th, ph)
        sp2, tp2, p12, p22 = conditional_purities(ch, d.gamma, np.pi - th, ph + np.pi)
        assert abs(sp2 - tp) < 1e-12 and abs(tp2 - sp) < 1e-12
        assert abs(p12 - p2) < 1e-12


def test_probability_weighted_directions_recover_marginals():
    # the form's a is the a marginal's Bloch vector, and the outcomes'
    # probability-weighted vectors and states average to it
    rho = random_state(17)
    d = decompose(rho)
    ch = affine_from_kraus(d.kraus)
    rho_a = partial_trace_b(rho)
    _, a, _ = outcome_form(ch, d.gamma)
    assert_allclose(a, to_bloch(rho_a), atol=1e-12)
    rng = np.random.default_rng(6)
    for _ in range(20):
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        v1, v2 = conditional_vectors(ch, d.gamma, th, ph)
        p1, p2 = conditional_probabilities(d.gamma, th)
        assert_allclose(p1 * v1 + p2 * v2, a, atol=1e-12)
        assert_allclose(conditional_purities(ch, d.gamma, th, ph)[:2], np.linalg.norm([v1, v2], axis=1), atol=1e-12)
        avg = p1 * from_bloch(v1) + p2 * from_bloch(v2)
        assert np.linalg.norm(avg - rho_a) < 1e-10


#: Angle pairs with a NaN or an infinite entry, scalar and array.
NON_FINITE_ANGLES = [(np.nan, 0.0), (np.inf, 0.0), (0.3, -np.inf), (np.array([0.3, np.nan]), np.zeros(2))]


@pytest.mark.parametrize("theta, phi", NON_FINITE_ANGLES)
def test_angles_to_direction_refuses_non_finite_angles(theta, phi):
    with pytest.raises(ValueError, match="finite"):
        angles_to_direction(theta, phi)


@pytest.mark.parametrize("theta, phi", NON_FINITE_ANGLES)
def test_normalize_angles_refuses_non_finite_angles(theta, phi):
    with pytest.raises(ValueError, match="finite"):
        normalize_angles(theta, phi)


@pytest.mark.parametrize("theta, phi", NON_FINITE_ANGLES[:3])
def test_fold_angles_refuses_non_finite_angles(theta, phi):
    # one angle pair, folded on Python scalars
    with pytest.raises(ValueError, match="finite"):
        fold_angles(I2, theta, phi)


@pytest.mark.parametrize("theta, phi", NON_FINITE_ANGLES)
def test_measurement_distance_refuses_non_finite_angles(theta, phi):
    with pytest.raises(ValueError, match="finite"):
        measurement_distance((0.2, 0.1), (theta, phi))
    with pytest.raises(ValueError, match="finite"):
        measurement_distance((theta, phi), (0.2, 0.1))


@pytest.mark.parametrize("theta, phi", NON_FINITE_ANGLES)
def test_conditional_states_refuse_non_finite_angles(theta, phi):
    # a NaN angle once gave NaN probabilities and purities
    ch = affine_from_kraus(decompose(lu_state()).kraus)
    with pytest.raises(ValueError, match="finite"):
        conditional_purities(ch, 0.5, theta, phi)
    # the probabilities take gamma and theta only; theta + phi is finite only when both are
    with pytest.raises(ValueError, match="finite"):
        conditional_probabilities(0.5, theta + phi)
    with pytest.raises(ValueError, match="finite"):
        conditional_probabilities(theta + phi, 0.5)


def test_normalize_angles_folds_hemisphere():
    th, ph = normalize_angles(0.8 * np.pi, 0.3)
    assert abs(th - 0.2 * np.pi) < 1e-12
    assert abs(ph - (0.3 + np.pi)) < 1e-12
    assert normalize_angles(0.0, 2.5) == (0.0, 0.0)


def test_fold_angles_preserves_projection_statistics():
    # measuring the rotated state at (th, ph) equals measuring the original
    # state at the folded angles
    rho = random_state(55)
    d = decompose(rho)
    rho_rot = choi.rotate_b(rho, d.basis_rotation)
    rng = np.random.default_rng(9)
    for _ in range(10):
        th, ph = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)
        th0, ph0 = fold_angles(d.basis_rotation, th, ph)

        def prob(state, theta, phi):
            psi = np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)])
            proj = np.kron(I2, np.outer(psi, psi.conj()))
            return np.trace(proj @ state).real

        p_rot = prob(rho_rot, th, ph)
        # folded angles may swap the outcome pair
        p_orig = prob(rho, th0, ph0)
        assert min(abs(p_orig - p_rot), abs((1 - p_orig) - p_rot)) < 1e-10


@pytest.mark.parametrize("theta", [1e-12, 1e-9, 7e-8, 1e-6])
def test_fold_angles_keeps_a_polar_angle_next_to_the_pole(theta):
    # arccos of a Bloch z component once folded every theta below 1.3e-8 onto the pole
    th, ph = fold_angles(I2, theta, 0.3)
    assert abs(th - theta) <= 2 * np.spacing(theta)
    assert abs(ph - 0.3) <= 2 * np.spacing(0.3)


def test_fold_angles_matches_the_conjugated_projector():
    # reference: the Bloch vector of v^+ P v, by matrix products and the
    # Pauli expansion; the fold goes through neither
    rng = np.random.default_rng(11)
    for k in range(1200):
        v = random_unitary(rng)
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        if k >= 1000:
            # the last 200 fold to 1e-6 .. 1e-1 from the pole: the spinor at that
            # polar angle, carried into the rotated frame
            a = 10 ** rng.uniform(-6, -1)
            chi = v @ np.array([np.cos(a / 2), np.sin(a / 2) * np.exp(1j * ph)])
            th, ph = 2 * np.arctan2(abs(chi[1]), abs(chi[0])), np.angle(chi[1] * np.conj(chi[0]))
        psi = np.array([np.cos(th / 2), np.sin(th / 2) * np.exp(1j * ph)])
        ref = to_bloch(v.conj().T @ np.outer(psi, psi.conj()) @ v)
        n = angles_to_direction(*fold_angles(v, th, ph))
        assert min(np.abs(n - ref).max(), np.abs(n + ref).max()) <= 3e-15


def test_measurement_distance_folding():
    assert measurement_distance((0.3, 1.0), (np.pi - 0.3, 1.0 + np.pi)) < 1e-12
    assert abs(measurement_distance((0.0, 0.0), (np.pi / 2, 0.0)) - np.pi / 2) < 1e-12


ANGLE = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(t1=ANGLE, p1=ANGLE, t2=ANGLE, p2=ANGLE)
@example(t1=np.pi / 2 - 9e-13, p1=0.0, t2=np.pi / 2 + 9e-13, p2=np.pi - 1e-13)
def test_folded_polar_angles_differ_by_at_most_the_measurement_distance(t1, p1, t2, p2):
    # a property of normalize_angles: canonical theta reaches 1e-12 above
    # the equator, where phi folds into [0, pi), so such pairs (the example)
    # differ in theta by up to 2e-12 more than their distance
    a, b = normalize_angles(t1, p1), normalize_angles(t2, p2)
    assert abs(a[0] - b[0]) <= measurement_distance(a, b) + 2e-12 + 4 * np.finfo(float).eps


def float_bits(x):
    """A float's exact value, the sign of zero included."""
    return float(x).hex()


#: Angles at the folds of normalize_angles, and any others.
FOLD_ANGLE = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-16, 1e-15, np.pi / 2 - 1e-12, np.pi / 2 + 1e-12, np.pi / 2, np.pi, 2 * np.pi]),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(theta=FOLD_ANGLE, phi=FOLD_ANGLE)
def test_normalize_angles_folds_a_scalar_pair_as_the_array_path_does(theta, phi):
    # scalars and arrays run one fold; floats only choose by a conditional expression where arrays use
    # np.where, so the same arithmetic gives the same bits
    scalar = normalize_angles(theta, phi)
    arrays = normalize_angles(np.array([theta]), np.array([phi]))
    assert all(type(x) is float for x in scalar)
    assert [float_bits(x) for x in scalar] == [float_bits(x[0]) for x in arrays]


def test_angle_helpers_accept_arrays():
    rng = np.random.default_rng(10)
    th = rng.uniform(-1.0, 2 * np.pi + 1.0, 50)
    ph = rng.uniform(-1.0, 2 * np.pi + 1.0, 50)
    th[:3] = [0.0, np.pi / 2, np.pi]
    ft, fp = normalize_angles(th, ph)
    assert ft.shape == fp.shape == (50,)
    for k in range(50):
        assert (ft[k], fp[k]) == normalize_angles(th[k], ph[k])
    dist = measurement_distance((th[0], ph[0]), (th, ph))
    for k in range(50):
        assert abs(dist[k] - measurement_distance((th[0], ph[0]), (th[k], ph[k]))) < 1e-15
