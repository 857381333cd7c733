import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdiscord.qmat import (
    I2,
    I4,
    SIGMA_X,
    SIGMA_Z,
    binary_entropy,
    binary_entropy_arr,
    check_density_matrix,
    herm_eig,
    partial_trace_a,
    partial_trace_b,
    tensor,
    von_neumann_entropy,
)
from util import entropy_bits, masked_binary_entropy, random_unitary


def test_tensor_identity():
    assert_allclose(tensor(I2, I2), I4)


def test_tensor_diagonal():
    assert_allclose(tensor(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]).astype(complex))


def test_tensor_permutation_action():
    e0 = np.array([1, 0, 0, 0], dtype=complex)
    assert_allclose(tensor(SIGMA_X, I2) @ e0, np.array([0, 0, 1, 0], dtype=complex))


def test_partial_trace_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    assert_allclose(partial_trace_b(rho), np.diag([1.0, 0.0]).astype(complex))
    assert_allclose(partial_trace_a(rho), np.diag([1.0, 0.0]).astype(complex))


def test_partial_trace_maximally_entangled():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert_allclose(partial_trace_a(rho), I2 / 2, atol=1e-15)
    assert_allclose(partial_trace_b(rho), I2 / 2, atol=1e-15)


def test_partial_trace_index_sum_oracle():
    # independent index-sum implementation checked entry by entry
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real

    expect_b = np.zeros((2, 2), dtype=complex)
    expect_a = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            expect_b[i, j] = sum(rho[2 * k + i, 2 * k + j] for k in range(2))
            expect_a[i, j] = sum(rho[2 * i + k, 2 * j + k] for k in range(2))
    assert_allclose(partial_trace_a(rho), expect_b, atol=1e-15)
    assert_allclose(partial_trace_b(rho), expect_a, atol=1e-15)


def test_partial_trace_of_tensor_factorizes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert_allclose(partial_trace_a(tensor(a, b)), np.trace(a) * b, atol=1e-12)
        assert_allclose(partial_trace_b(tensor(a, b)), np.trace(b) * a, atol=1e-12)


def test_herm_eig_diagonal():
    vals, vecs = herm_eig(np.diag([4.0, 3.0, 2.0, 1.0]).astype(complex))
    assert_allclose(vals, [4, 3, 2, 1])
    assert_allclose(np.abs(vecs), np.eye(4), atol=1e-14)


def test_herm_eig_pure_state():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    vals, _ = herm_eig(np.outer(phi, phi.conj()))
    assert_allclose(vals, [1, 0, 0, 0], atol=1e-14)


def test_herm_eig_block_matrix():
    # block-diagonal: 1x1 blocks 0.0783 and 0.6170, and a 2x2 block
    # [[0.125, 0.1], [0.1, 0.125]] whose eigenvalues are 0.225 and 0.025
    m = np.diag([0.0783, 0.1250, 0.1250, 0.6170]).astype(complex)
    m[1, 2] = m[2, 1] = 0.1
    vals, _ = herm_eig(m)
    assert_allclose(vals, [0.6170, 0.2250, 0.0783, 0.0250], atol=1e-14)


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g + g.conj().T
        vals, vecs = herm_eig(m)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(rebuilt - m) < 1e-10
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(4)) < 1e-12
        assert np.all(np.diff(vals) <= 1e-14)


def test_herm_eig_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(m)


def test_entropy_pure_state():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert abs(von_neumann_entropy(np.outer(phi, phi.conj()))) < 1e-12


def test_entropy_maximally_mixed():
    assert abs(von_neumann_entropy(I4 / 4) - 2.0) < 1e-12
    assert abs(von_neumann_entropy(I2 / 2) - 1.0) < 1e-12


def test_entropy_two_level():
    assert abs(von_neumann_entropy(np.diag([0.5, 0.5, 0, 0]).astype(complex)) - 1.0) < 1e-12


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(5)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    for _ in range(10):
        u = random_unitary(rng, 4)
        assert abs(von_neumann_entropy(u @ rho @ u.conj().T) - von_neumann_entropy(rho)) < 1e-10


def test_entropy_rejects_indefinite():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        von_neumann_entropy(np.diag([1.1, -0.1, 0, 0]).astype(complex))


def test_entropy_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        von_neumann_entropy(np.full((2, 2), np.nan))


def test_binary_entropy_arr_matches_the_masked_evaluation_bit_for_bit():
    p = np.array([0.0, 1.0, 5e-324, 1.0 - 1e-16, -1e-13, 1.0 + 1e-13, np.nan, 0.25, 0.5, 1e-300, 0.9999])
    got = binary_entropy_arr(p)
    assert got.tobytes() == masked_binary_entropy(p).tobytes()
    assert got.reshape(1, -1).tobytes() == binary_entropy_arr(p.reshape(1, -1)).tobytes()
    for x in p:
        h = binary_entropy_arr(x)
        assert type(h) is float
        assert np.float64(h).tobytes() == np.float64(masked_binary_entropy(x)).tobytes()


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # direct evaluation of -p log2 p - (1-p) log2 (1-p) at p = 0.75
    assert abs(binary_entropy(0.75) - 0.8112781244591328) < 1e-15


def test_binary_entropy_clamps_and_rejects():
    assert binary_entropy(1.0 + 1e-13) == 0.0
    assert binary_entropy(-1e-13) == 0.0
    with pytest.raises(ValueError):
        binary_entropy(1.001)
    with pytest.raises(ValueError):
        binary_entropy(-0.001)
    with pytest.raises(ValueError):
        binary_entropy(float("nan"))


@settings(deadline=None, max_examples=80)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetry(p):
    # restrict to floats whose reflection is lossless, where the two calls
    # see the same {p, 1-p} pair and must agree bit for bit
    assume(1.0 - (1.0 - p) == p)
    assert binary_entropy(p) == binary_entropy(1.0 - p)


def test_check_density_matrix_accepts_valid():
    rho = check_density_matrix(I4 / 4)
    assert rho.dtype == complex


@pytest.mark.parametrize(
    "builder, message",
    [
        (lambda: np.eye(3) / 3, "4x4"),
        (lambda: I4 / 4 + 1e-6 * 1j * (np.eye(4) - np.diag([2, 0, 0, 0])), "Hermitian"),
        (lambda: I4 / 2, "trace"),
        (lambda: np.diag([0.6, 0.5, -0.05, -0.05]), "positive semidefinite"),
        (lambda: np.where(np.eye(4, k=1) > 0, np.nan, I4 / 4), "NaN or Inf"),
        (lambda: I4 / 4 + np.diag([0, 0, 0, 1j * np.inf]), "NaN or Inf"),
    ],
)
def test_check_density_matrix_rejects(builder, message):
    with pytest.raises(ValueError, match=message):
        check_density_matrix(builder())


def test_entropy_matches_eigenvalue_oracle():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    assert abs(von_neumann_entropy(rho) - entropy_bits(np.linalg.eigvalsh(rho))) < 1e-12
