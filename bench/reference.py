"""Reference evaluator and output checks, written from the definitions.

Nothing here calls the package under test: the measured mutual information
comes from explicit projectors on the state and ``numpy.linalg.eigvalsh``,
entropies from eigenvalues, and the Bell-diagonal classical correlation from
Luo's closed form.  A report is anything with ``mutual_info``,
``classical_corr``, ``discord``, ``theta`` and ``phi`` attributes.
"""

from __future__ import annotations

import numpy as np

#: Agreement required of the reference at the reported angles, of the
#: bounds, of local-unitary copies and of Luo's closed form.
TOL = 1e-9
#: Agreement required between a method and the grid oracle.
CROSS_TOL = 1e-6
#: Coarse angle sample; it contains the pole and the equator, where the
#: universal candidates sit, and a fine patch around the pole: a b marginal
#: of rank near one puts a narrow maximum at theta ~ 0.7 eps, which the
#: coarse grid alone would miss.
COARSE_THETA = np.concatenate([np.linspace(0.0, np.pi / 2, 13), np.geomspace(1e-8, 1e-2, 25)])
COARSE_PHI = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0 + 0j, -1.0]),
)


def entropy(vals):
    """-sum v log2 v over the last axis, zero eigenvalues dropped."""
    v = np.clip(np.real(vals), 0.0, None)
    return -np.sum(np.where(v > 1e-15, v * np.log2(np.where(v > 1e-15, v, 1.0)), 0.0), axis=-1)


def marginals(rho):
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", r), np.einsum("ijik->jk", r)


def j_ref(rho, theta, phi):
    """J(theta, phi) = S(rho_a) - sum_j p_j S(rho_j) for measurements on b.

    Outcome vectors are (cos t/2, sin t/2 e^{i phi}) and its orthogonal
    complement; each post-measurement state (I (x) P) rho (I (x) P) is
    reduced to qubit a and normalized, and its entropy taken from eigvalsh.
    Vectorized over the broadcast shape of ``theta`` and ``phi``.
    """
    rho = np.asarray(rho, dtype=complex)
    th, ph = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    shape = th.shape
    th, ph = th.ravel(), ph.ravel()
    c, s, e = np.cos(th / 2), np.sin(th / 2), np.exp(1j * ph)
    cond = np.zeros(th.shape)
    for psi in (np.stack([c, s * e], -1), np.stack([-s, c * e], -1)):
        proj = psi[:, :, None] * psi.conj()[:, None, :]
        big = np.einsum("ac,nbd->nabcd", np.eye(2), proj).reshape(-1, 4, 4)
        post = (big @ rho @ big).reshape(-1, 2, 2, 2, 2)
        rho_a = np.einsum("nijkj->nik", post)
        p = np.real(np.trace(rho_a, axis1=1, axis2=2))
        safe = np.where(p > 1e-14, p, 1.0)
        vals = np.linalg.eigvalsh(rho_a / safe[:, None, None])
        cond += np.where(p > 1e-14, p * entropy(vals), 0.0)
    rho_a, _ = marginals(rho)
    return (entropy(np.linalg.eigvalsh(rho_a)) - cond).reshape(shape)


def luo_classical_corr(ex, ey, ez):
    """Classical correlation of a Bell-diagonal state (Luo, PRA 77, 042303)."""
    c = max(abs(ex), abs(ey), abs(ez))
    terms = [(1 + x) * np.log2(1 + x) for x in (c, -c) if 1 + x > 0]
    return float(sum(terms) / 2)


def pauli_correlations(rho):
    """T_ij = Tr(rho s_i (x) s_j) and the a-side Bloch vector r_i."""
    rho = np.asarray(rho, dtype=complex)
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in _PAULI] for a in _PAULI])
    r = np.array([np.trace(rho @ np.kron(a, np.eye(2))).real for a in _PAULI])
    return t, r


def x_shape_parameter(rho):
    """Shape parameter k of an X state with maximally mixed b marginal.

    With rho_b = I/2 the state is the Choi state of its channel, so the
    channel's xy stretch is the top singular value of the xy block of T, its
    zz element is T_zz and its shift is r_z.  Returns None where
    b^2 - c a vanishes and k is undefined.
    """
    t, r = pauli_correlations(rho)
    perp_sq = float(np.linalg.svd(t[:2, :2], compute_uv=False)[0] ** 2)
    a = perp_sq + r[2] ** 2
    b = t[2, 2] * r[2]
    c = t[2, 2] ** 2 - perp_sq
    denom = b * b - c * a
    return None if abs(denom) < 1e-12 else c / denom


def closed_form_declines(k):
    """True, False, or None when k sits too close to the gap's edges to say."""
    if k is None:
        return False
    if min(abs(k + 1.0), abs(k + 2.0 / 3.0)) < 1e-9:
        return None
    return -1.0 < k < -2.0 / 3.0


class Reference:
    """Entropies and a coarse landscape of one input state.

    ``coarse_max`` may be passed in from a local-unitary copy of the same
    state, since a unitary on qubit a leaves J unchanged.
    """

    def __init__(self, rho, coarse_max=None):
        self.rho = np.asarray(rho, dtype=complex)
        rho_a, rho_b = marginals(self.rho)
        self.s_a = float(entropy(np.linalg.eigvalsh(rho_a)))
        self.s_b = float(entropy(np.linalg.eigvalsh(rho_b)))
        self.mutual_info = self.s_a + self.s_b - float(entropy(np.linalg.eigvalsh(self.rho)))
        if coarse_max is None:
            tt, pp = np.meshgrid(COARSE_THETA, COARSE_PHI, indexing="ij")
            coarse_max = float(j_ref(self.rho, tt, pp).max())
        self.coarse_max = coarse_max

    def check(self, rep, bell=None):
        """Names of the single-report checks that ``rep`` fails."""
        c, q = rep.classical_corr, rep.discord
        failed = []
        if abs(rep.mutual_info - self.mutual_info) > TOL:
            failed.append("mutual_info")
        if abs(float(j_ref(self.rho, rep.theta, rep.phi)) - c) > TOL:
            failed.append("j_ref_at_angles")
        if c < self.coarse_max - TOL:
            failed.append("below_coarse_max")
        if not -TOL <= q <= self.s_b + TOL:
            failed.append("q_bounds")
        if c > min(self.s_a, self.s_b) + TOL:
            failed.append("c_bound")
        if bell is not None and abs(c - luo_classical_corr(*bell)) > TOL:
            failed.append("luo")
        return failed


def copies_agree(q_first, q):
    return abs(q - q_first) <= TOL


def methods_agree(q_method, q_oracle):
    return abs(q_method - q_oracle) <= CROSS_TOL
