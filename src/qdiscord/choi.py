"""Channel/state correspondence for two-qubit density matrices.

A two-qubit state with a full-rank marginal on the second qubit is rewritten
as a qubit channel acting on one arm of a pure entangled reference state

    |ref> = cos(gamma/2)|00> + sin(gamma/2)|11>,

after a basis rotation on qubit b that diagonalizes its marginal.  The
channel comes out as a Kraus set built from the eigendecomposition of the
state, via the row-major operator <-> vector correspondence
``vec(A)[2i+j] = A[i, j]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmat import I2, dagger, density_state, frobenius, herm_eig, tensor

#: Marginal eigenvalues at or below this are treated as a singular marginal.
RANK_TOL = 1e-8
#: Eigenvalues of the state below this contribute no Kraus operator.
KRAUS_DROP_TOL = 1e-14


class SingularMarginalError(ValueError):
    """The marginal of qubit b is (numerically) pure; no channel form exists."""


def vectorize(a):
    """Row-major column stacking: vec(A)[2i+j] = A[i, j]."""
    return np.asarray(a, dtype=complex).reshape(4)


def devectorize(v):
    """Inverse of :func:`vectorize`."""
    return np.asarray(v, dtype=complex).reshape(2, 2)


def sandwich_identity_check(a, rho, b):
    """Residual of vec(A rho B) = (A (x) B^T) vec(rho); should be ~0."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    lhs = vectorize(a @ rho @ b)
    rhs = tensor(a, b.T) @ vectorize(rho)
    return float(np.linalg.norm(lhs - rhs))


def _stack(kraus):
    """The Kraus operators as one array of shape (m, 2, 2)."""
    return np.reshape(np.asarray(kraus.operators, dtype=complex), (-1, 2, 2))


@dataclass
class KrausSet:
    """Trace-preserving channel as operators {E_m}, sum E_m^+ E_m = I: a list
    of 2x2 arrays, or one (m, 2, 2) array as :func:`decompose` builds."""

    operators: list | np.ndarray = field(default_factory=list)

    def completeness_residual(self):
        e = _stack(self)
        return frobenius(np.einsum("mji,mjk->ik", e.conj(), e) - I2)


@dataclass
class CJDecomposition:
    """Channel-plus-reference-state form of a two-qubit density matrix.

    ``gamma`` is the reference state's entanglement angle, in (0, pi/2].
    The decomposition lives in the frame where qubit b is rotated by the
    2x2 unitary ``basis_rotation`` (larger marginal eigenvalue first on the
    diagonal).  ``lambdas`` are the rotated state's four eigenvalues,
    descending, and ``gamma_ops``, shape (4, 2, 2), the operators whose
    vectorizations are its eigenvectors, in that order.  ``kraus`` holds
    the extracted channel (near-zero weights dropped), and vec(``omega``),
    omega = diag(cos(gamma/2), sin(gamma/2)), is the reference state.
    """

    gamma: float
    basis_rotation: np.ndarray
    lambdas: np.ndarray
    gamma_ops: np.ndarray
    kraus: KrausSet
    omega: np.ndarray

    @property
    def reference_state(self):
        """The entangled reference vector cos(g/2)|00> + sin(g/2)|11>."""
        return vectorize(self.omega)


def rotate_b(rho, v):
    """Conjugate a two-qubit state by I (x) v."""
    # I (x) v is block diagonal: cheaper built so than by np.kron, same entries
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = u[2:, 2:] = v
    return u @ np.asarray(rho, dtype=complex) @ dagger(u)


def decompose(rho):
    """The :class:`CJDecomposition` of a two-qubit state, which may be a
    :class:`qdiscord.qmat.DensityState`.

    Raises :class:`SingularMarginalError` if the smaller eigenvalue of the b
    marginal is <= :data:`RANK_TOL`: the state is then a product with a pure
    b factor and carries no channel.
    """
    state = density_state(rho)
    bvals, bvecs = state.b_vals, state.b_vecs
    if bvals[-1] <= RANK_TOL:
        raise SingularMarginalError(
            f"marginal eigenvalue {bvals[-1]:.3e} <= {RANK_TOL:.1e}; "
            "state is a product with a pure b factor"
        )
    # rotate b so its marginal is diag(cos^2(g/2), sin^2(g/2)), larger first
    v = dagger(bvecs)
    rho_rot = rotate_b(state.rho, v)
    half = np.arccos(min(1.0, np.sqrt(bvals[0])))
    gamma = 2.0 * half
    omega = np.diag([np.cos(half), np.sin(half)]).astype(complex)
    omega_inv = np.diag([1.0 / np.cos(half), 1.0 / np.sin(half)]).astype(complex)

    lambdas, psis = herm_eig(rho_rot)
    lambdas = np.clip(lambdas, 0.0, None)
    # column m of psis is vec(gamma_m), row-major: one reshape devectorizes all four
    gamma_ops = psis.T.reshape(4, 2, 2)
    keep = lambdas >= KRAUS_DROP_TOL
    kraus = KrausSet(np.sqrt(lambdas[keep])[:, None, None] * gamma_ops[keep] @ omega_inv)
    return CJDecomposition(
        gamma=float(gamma),
        basis_rotation=v,
        lambdas=lambdas,
        gamma_ops=gamma_ops,
        kraus=kraus,
        omega=omega,
    )


def reconstruct(d):
    """Rebuild the original state from a :class:`CJDecomposition`.

    This is the isomorphism itself: the channel acts on qubit a of
    |ref><ref|, that is on each of its four 2x2 blocks (a, a') at fixed
    (b, b'), and the b-basis rotation is undone.
    """
    phi = d.reference_state
    blocks = np.outer(phi, phi.conj()).reshape(2, 2, 2, 2).transpose(1, 3, 0, 2)
    acc = apply_channel(d.kraus, blocks).transpose(2, 0, 3, 1).reshape(4, 4)
    return rotate_b(acc, dagger(d.basis_rotation))


def apply_channel(kraus, rho):
    """Apply the channel sum_m E_m rho E_m^+ to a single-qubit operator, or
    to each operator in a stack of shape (..., 2, 2)."""
    e = _stack(kraus)
    return np.einsum("mij,...jk,mlk->...il", e, np.asarray(rho, dtype=complex), e.conj())


def channel_fidelity(rho, d):
    """Overlap of the state with the reference state, in the rotated frame:
    1 for a channel that preserves the reference entanglement perfectly,
    1/4 for the completely depolarizing channel at maximal entanglement."""
    rho_rot = rotate_b(np.asarray(rho, dtype=complex), d.basis_rotation)
    phi = d.reference_state
    return float(np.real(phi.conj() @ rho_rot @ phi))
