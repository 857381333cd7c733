"""Dense complex linear algebra for one- and two-qubit operators.

Everything here works on plain numpy arrays: 2x2 and 4x4 complex matrices,
row-major, with the two-qubit basis ordered |00>, |01>, |10>, |11> (first
factor = subsystem a, second = subsystem b).  All entropies are in bits.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: The Pauli matrices stacked along axis 0, shape (3, 2, 2).
PAULIS = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])

#: Hermiticity / trace tolerance for density-matrix validation.
HERM_TOL = 1e-12
#: Eigenvalues above this (negative) floor count as nonnegative.
PSD_TOL = -1e-10
#: Largest Hermiticity residual (Frobenius) :func:`herm_eig` accepts.
EIG_HERM_TOL = 1e-10


def frobenius(m):
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(np.asarray(m)))


def dagger(m):
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def tensor(a, b):
    """Kronecker product, (a x b)[2i+k, 2j+l] = a[i,j] * b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def check_density_matrix(rho):
    """``rho`` as a complex ndarray, once it is a 4x4 matrix of finite entries that is Hermitian and of unit
    trace (within HERM_TOL) and positive semidefinite (eigenvalues above PSD_TOL); ValueError otherwise."""
    return _validated(rho)[0]


def _validated(rho):
    """(rho as complex ndarray, the eigenvalues of its Hermitian part
    ascending): the checks of :func:`check_density_matrix`, whose in-place
    arithmetic gives the bits of the numpy functions it stands for."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("matrix contains NaN or Inf entries")
    herm, part = _hermitian_part(rho)
    if herm >= HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
    tr = complex(rho.trace())
    if abs(tr - 1.0) >= HERM_TOL:
        raise ValueError(f"matrix trace is {tr.real:.12f}, expected 1")
    spectrum = np.linalg.eigvalsh(part)
    # ascending, and finite once rho is
    lo = float(spectrum[0])
    if lo < PSD_TOL:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {lo:.3e})")
    return rho, spectrum


class DensityState:
    """A two-qubit density matrix validated once, with the spectra that
    every layer of a discord solve reads.

    ``DensityState(rho)`` runs the checks of :func:`check_density_matrix`
    (ValueError as there) and keeps these arrays, read-only:

    * ``rho``, a copy of the matrix, dtype complex;
    * ``spectrum``, the eigenvalues of its Hermitian part, ascending;
    * ``a_vals``, those of the a marginal rho_a, ascending, as
      :func:`von_neumann_entropy` computes them;
    * ``b_vals`` and ``b_vecs``, the :func:`herm_eig` of the b marginal.

    ``discord``, ``mutual_information``, ``grid_oracle``,
    ``conditional_entropy_direct``, ``decompose`` and
    ``analytic_discord_x`` accept one in place of the matrix, and then skip
    the checks it has passed.
    """

    def __init__(self, rho):
        rho, self.spectrum = _validated(rho)
        self.rho = rho.copy()
        # rho_a and rho_b in one eigh call: rho's validation keeps their residuals below herm_eig's EIG_HERM_TOL
        m = np.array([partial_trace_b(self.rho), partial_trace_a(self.rho)])
        vals, vecs = np.linalg.eigh((m + m.conj().swapaxes(1, 2)) / 2)
        order = (-vals[1]).argsort(kind="stable")
        self.a_vals, self.b_vals, self.b_vecs = vals[0], vals[1, order], vecs[1][:, order]
        for arr in (self.rho, self.spectrum, self.a_vals, self.b_vals, self.b_vecs):
            arr.flags.writeable = False

    def entropies(self, *probabilities):
        """[S(rho_a), S(rho_b), S(rho), then H2(p) of each probability p] in bits, from one :func:`spectrum_entropy`
        call on the three spectra and the rows (p, 1 - p); a p above 1 by rounding counts as 1."""
        p = np.minimum(probabilities, 1.0)
        rows = np.zeros((3 + p.size, 4))
        rows[:2, :2], rows[2], rows[3:, 0], rows[3:, 1] = (self.a_vals, self.b_vals), self.spectrum, p, 1.0 - p
        return spectrum_entropy(rows).tolist()


def density_state(rho):
    """``rho`` as a :class:`DensityState`: validated unless it is one already."""
    return rho if isinstance(rho, DensityState) else DensityState(rho)


def partial_trace_a(rho):
    """Trace out the first qubit: for rho = A (x) B returns Tr(A) * B."""
    rho = np.asarray(rho, dtype=complex).reshape(4, 4)
    return rho[:2, :2] + rho[2:, 2:]


def partial_trace_b(rho):
    """Trace out the second qubit: for rho = A (x) B returns Tr(B) * A."""
    rho = np.asarray(rho, dtype=complex).reshape(4, 4)
    return rho[::2, ::2] + rho[1::2, 1::2]


def _hermitian_part(m):
    """(Frobenius norm of m - m^dagger, (m + m^dagger) / 2) of a complex ndarray, from one conjugate transpose."""
    adj = m.conj().T
    part = m + adj
    part *= 0.5
    return frobenius(m - adj), part


def herm_eig(m):
    """(values, vectors) of a square matrix Hermitian to within EIG_HERM_TOL: the eigenvalues descending,
    ``vectors[:, k]`` the orthonormal eigenvector of ``values[k]``."""
    res, part = _hermitian_part(np.asarray(m, dtype=complex))
    if res >= EIG_HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (residual {res:.3e})")
    vals, vecs = np.linalg.eigh(part)
    # stable: degenerate eigenvalues keep the solver's emitted order
    order = (-vals).argsort(kind="stable")
    return vals[order], vecs[:, order]


def von_neumann_entropy(rho):
    """Von Neumann entropy -Tr(rho log2 rho) in bits.

    Eigenvalues in [-1e-10, 0] are clamped to zero; anything more negative,
    and NaN, is rejected.  ``rho`` must be Hermitian positive semidefinite
    with unit trace (the trace is the caller's responsibility).
    """
    rho = np.asarray(rho, dtype=complex)
    return spectrum_entropy(np.linalg.eigvalsh((rho + dagger(rho)) / 2))


def spectrum_entropy(vals):
    """-sum v log2 v over the last axis of ``vals`` in bits, a v <= 0 adding +0.0: the entropy of the eigenvalues
    of a density matrix, or of each zero-padded row of a stack of them, checked as in :func:`von_neumann_entropy`."""
    vals = np.asarray(vals, dtype=float)
    if not vals.min() >= PSD_TOL:
        raise ValueError(f"smallest eigenvalue {vals.min():.3e} is NaN or a negative eigenvalue below tolerance")
    vals = np.where(vals > 0.0, vals, 1.0)
    return scalar_or_array(-np.sum(vals * np.log2(vals), axis=-1))


def scalar_or_array(x):
    """A float for a 0-d result, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def binary_entropy(p):
    """Binary entropy H2(p) = -p log2 p - (1-p) log2(1-p), in bits.

    ``p`` may stray outside [0, 1] by at most 1e-12 (clamped); farther out,
    and NaN, is rejected.
    """
    p = float(p)
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    return float(binary_entropy_arr(np.clip(p, 0.0, 1.0)))


def binary_entropy_arr(p):
    """Vectorized binary entropy; 0 outside the open interval (0, 1), as if
    the input were clipped to [0, 1], and 0 for NaN."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where((p > 0.0) & (p < 1.0), -p * np.log2(p) - q * np.log2(q), 0.0)
    return scalar_or_array(out)
