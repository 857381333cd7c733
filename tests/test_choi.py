import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord import bloch
from qdiscord.choi import (
    SingularMarginalError,
    apply_channel,
    channel_fidelity,
    decompose,
    devectorize,
    reconstruct,
    rotate_b,
    sandwich_identity_check,
    vectorize,
)
from qdiscord.qmat import I2, I4, SIGMA_X, SIGMA_Y, dagger, herm_eig, partial_trace_a, partial_trace_b, tensor
from qdiscord.states import lu_state, random_state, werner
from util import random_unitary

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def test_vectorize_identity():
    assert_allclose(vectorize(I2), np.array([1, 0, 0, 1], dtype=complex))


def test_vectorize_sigma_x():
    assert_allclose(vectorize(SIGMA_X), np.array([0, 1, 1, 0], dtype=complex))


def test_vectorize_roundtrip_and_inner_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert_allclose(devectorize(vectorize(a)), a)
        assert_allclose(np.vdot(vectorize(a), vectorize(b)), np.trace(dagger(a) @ b))


def test_sandwich_identity_trivial():
    assert sandwich_identity_check(I2, I2, I2) < 1e-15
    assert sandwich_identity_check(SIGMA_X, I2, SIGMA_Y) < 1e-12


def test_sandwich_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, rho, b = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)
        )
        assert sandwich_identity_check(a, rho, b) < 1e-12


def test_decompose_maximally_entangled():
    d = decompose(np.outer(PHI_PLUS, PHI_PLUS.conj()))
    assert abs(d.gamma - np.pi / 2) < 1e-12
    assert len(d.kraus.operators) == 1
    e = d.kraus.operators[0]
    # identity up to a global phase
    phase = e[0, 0] / abs(e[0, 0])
    assert_allclose(e / phase, I2, atol=1e-10)


def test_decompose_maximally_mixed_is_depolarizing():
    d = decompose(I4 / 4)
    assert abs(d.gamma - np.pi / 2) < 1e-12
    ch = bloch.affine_from_kraus(d.kraus)
    assert np.abs(ch.eta).max() < 1e-12
    assert np.abs(ch.c).max() < 1e-12


def test_decompose_lu_state():
    lu = lu_state()
    d = decompose(lu)
    larger = float(np.linalg.eigvalsh(partial_trace_a(lu)).max())
    assert abs(d.gamma - 2 * np.arccos(np.sqrt(larger))) < 1e-12
    assert np.linalg.norm(reconstruct(d) - lu) < 1e-10
    # marginal eigenvalues are swapped into descending order
    assert_allclose(np.abs(d.basis_rotation), SIGMA_X.real, atol=1e-12)


def test_decompose_rejects_singular_marginal():
    rho = np.kron(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])).astype(complex)
    with pytest.raises(SingularMarginalError):
        decompose(rho)


def test_reconstruct_roundtrip_trivial():
    for rho in (np.outer(PHI_PLUS, PHI_PLUS.conj()), I4 / 4):
        d = decompose(rho)
        assert np.linalg.norm(reconstruct(d) - rho) < 1e-10


def test_reconstruct_roundtrip_random():
    for seed in range(30):
        rho = random_state(seed)
        d = decompose(rho)
        assert np.linalg.norm(reconstruct(d) - rho) < 1e-10
        assert d.kraus.completeness_residual() < 1e-10
        assert abs(d.lambdas.sum() - 1.0) < 1e-12


def test_marginal_transpose_identity():
    # sum_m lambda_m G_m^+ G_m equals the transpose of the rotated b marginal
    for seed in range(20):
        rho = random_state(seed + 100)
        d = decompose(rho)
        rho_rot = rotate_b(rho, d.basis_rotation)
        acc = sum(l * (dagger(g) @ g) for l, g in zip(d.lambdas, d.gamma_ops))
        assert np.linalg.norm(acc - partial_trace_a(rho_rot).T) < 1e-10


def test_rotate_b_conjugates_by_the_kronecker_product():
    # rotate_b builds I (x) v block by block; the Kronecker product gives the same entries
    rng = np.random.default_rng(12)
    for seed in range(10):
        rho, v = random_state(seed), random_unitary(rng)
        u = tensor(I2, v)
        np.testing.assert_array_equal(rotate_b(rho, v), u @ rho @ dagger(u))


def test_apply_channel_identity():
    from qdiscord.choi import KrausSet

    rng = np.random.default_rng(2)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    assert_allclose(apply_channel(KrausSet([I2.copy()]), rho), rho)


def test_apply_channel_maps_marginal_to_marginal():
    for seed in range(10):
        rho = random_state(seed + 40)
        d = decompose(rho)
        rho_rot = rotate_b(rho, d.basis_rotation)
        out = apply_channel(d.kraus, partial_trace_a(rho_rot))
        assert np.linalg.norm(out - partial_trace_b(rho)) < 1e-10


def test_apply_channel_depolarizing():
    d = decompose(I4 / 4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        out = apply_channel(d.kraus, np.outer(v, v.conj()))
        assert np.linalg.norm(out - I2 / 2) < 1e-12


def test_apply_channel_preserves_trace():
    rng = np.random.default_rng(4)
    d = decompose(random_state(9))
    for _ in range(10):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert abs(np.trace(apply_channel(d.kraus, rho)).real - 1.0) < 1e-12


def test_apply_channel_stack_matches_per_matrix():
    rng = np.random.default_rng(5)
    d = decompose(random_state(9))
    stack = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    out = apply_channel(d.kraus, stack)
    assert out.shape == stack.shape
    for idx in np.ndindex(3, 4):
        assert_allclose(out[idx], apply_channel(d.kraus, stack[idx]), rtol=0, atol=1e-15)
        ref = sum(e @ stack[idx] @ e.conj().T for e in d.kraus.operators)
        assert_allclose(out[idx], ref, rtol=0, atol=1e-14)


def test_channel_fidelity_identity_channel():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    assert abs(channel_fidelity(rho, decompose(rho)) - 1.0) < 1e-12


def test_channel_fidelity_depolarizing():
    assert abs(channel_fidelity(I4 / 4, decompose(I4 / 4)) - 0.25) < 1e-12


def test_channel_fidelity_in_unit_interval():
    for seed in range(20):
        rho = random_state(seed + 300)
        f = channel_fidelity(rho, decompose(rho))
        assert -1e-12 <= f <= 1.0 + 1e-12


def _decomposition_from_eigensystem(rho_rot, gamma, vals, vecs):
    """Rebuild the Kraus set from an explicitly chosen eigensystem."""
    half = gamma / 2
    omega_inv = np.diag([1 / np.cos(half), 1 / np.sin(half)]).astype(complex)
    return [
        np.sqrt(val) * devectorize(vecs[:, m]) @ omega_inv
        for m, val in enumerate(vals)
        if val >= 1e-14
    ]


def test_degenerate_eigenbasis_freedom():
    # a triple-degenerate state: any unitary remix of the degenerate
    # eigenvectors must give the same state back and the same channel action
    from qdiscord.choi import KrausSet

    rho = werner(0.5)
    d = decompose(rho)
    rho_rot = rotate_b(rho, d.basis_rotation)
    vals, vecs = herm_eig(rho_rot)
    assert abs(vals[1] - vals[3]) < 1e-12  # triple degeneracy

    rng = np.random.default_rng(8)
    mixed = vecs.copy()
    mixed[:, 1:] = mixed[:, 1:] @ random_unitary(rng, 3)
    kraus_alt = KrausSet(_decomposition_from_eigensystem(rho_rot, d.gamma, vals, mixed))

    phi = d.reference_state
    rebuilt = sum(
        np.outer(np.kron(e, I2) @ phi, (np.kron(e, I2) @ phi).conj())
        for e in kraus_alt.operators
    )
    assert np.linalg.norm(rebuilt - rho_rot) < 1e-8

    from qdiscord.correlations import conditional_entropy_channel

    ch_a = bloch.affine_from_kraus(d.kraus)
    ch_b = bloch.affine_from_kraus(kraus_alt)
    for th, ph in [(0.3, 1.1), (1.2, 4.0), (2.4, 2.2)]:
        assert abs(
            conditional_entropy_channel(ch_a, d.gamma, th, ph)
            - conditional_entropy_channel(ch_b, d.gamma, th, ph)
        ) < 1e-8


def test_eigenvector_phases_do_not_matter():
    rho = random_state(77)
    d = decompose(rho)
    rng = np.random.default_rng(99)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    from qdiscord.choi import KrausSet

    kraus_alt = KrausSet([p * e for p, e in zip(phases, d.kraus.operators)])
    ch_a = bloch.affine_from_kraus(d.kraus)
    ch_b = bloch.affine_from_kraus(kraus_alt)
    assert np.linalg.norm(ch_a.eta - ch_b.eta) < 1e-12
    assert np.linalg.norm(ch_a.c - ch_b.c) < 1e-12
