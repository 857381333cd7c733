"""Shared test helpers: independent oracles, random-input generators and a
gradient-call counter.

The oracles here are deliberately written from the definitions (explicit
projectors, eigenvalue sums, finite differences) and never call back into
the code paths they are used to check.
"""

import numpy as np

from qdiscord import correlations
from qdiscord.qmat import check_density_matrix


def count_gradient_calls(monkeypatch):
    """A list that grows by one entry per call of ``correlations.grad_objective``."""
    calls = []
    grad = correlations.grad_objective

    def counted(*args):
        calls.append(1)
        return grad(*args)

    monkeypatch.setattr(correlations, "grad_objective", counted)
    return calls


def entropy_bits(vals):
    vals = np.asarray(vals, dtype=float)
    vals = vals[vals > 1e-15]
    return float(-(vals * np.log2(vals)).sum())


def brute_conditional_entropy(rho, theta, phi):
    """sum_j p_j S(rho_j) straight from the definition, 4x4 throughout."""
    rho = np.asarray(rho, dtype=complex)
    ct, st = np.cos(theta / 2), np.sin(theta / 2)
    vecs = (
        np.array([ct, st * np.exp(1j * phi)]),
        np.array([-st, ct * np.exp(1j * phi)]),
    )
    total = 0.0
    for psi in vecs:
        proj = np.kron(np.eye(2), np.outer(psi, psi.conj()))
        post = proj @ rho @ proj
        p = np.trace(post).real
        if p < 1e-14:
            continue
        total += p * entropy_bits(np.linalg.eigvalsh(post / p))
    return total


def random_unitary(rng, n=2):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_x_maximally_mixed(rng):
    """Random X state whose b marginal is exactly I/2."""
    u, v = rng.uniform(0.05, 0.95, 2)
    d = np.array([u / 2, v / 2, (1 - u) / 2, (1 - v) / 2])
    r14 = rng.uniform(0, 0.95) * np.sqrt(d[0] * d[3]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    r23 = rng.uniform(0, 0.95) * np.sqrt(d[1] * d[2]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    m = np.diag(d.astype(complex))
    m[0, 3], m[3, 0] = r14, np.conj(r14)
    m[1, 2], m[2, 1] = r23, np.conj(r23)
    return check_density_matrix(m)


def feasible_bell_triple(rng):
    """(ex, ey, ez) drawn uniformly from the Bell tetrahedron."""
    w = rng.dirichlet(np.ones(4))  # weights for phi+, phi-, psi+, psi-
    ex = w[0] - w[1] + w[2] - w[3]
    ey = -w[0] + w[1] + w[2] - w[3]
    ez = w[0] + w[1] - w[2] - w[3]
    return float(ex), float(ey), float(ez)
