"""Shared test helpers: independent oracles, random-input generators and a
channel-path call counter.

The oracles here are deliberately written from the definitions (explicit
projectors, eigenvalue sums, finite differences) and never call back into
the code paths they are used to check.
"""

import numpy as np

from qdiscord import correlations
from qdiscord.qmat import check_density_matrix


def count_gradient_calls(monkeypatch):
    """A list that grows by one entry per channel-path evaluation: a call of
    ``correlations._channel_terms``, behind the objective and the gradient
    alike, or of ``correlations._hessian_terms``, the closed-form Hessian.
    Each entry is the number of points the call evaluates."""
    calls = []
    terms, hessian = correlations._channel_terms, correlations._hessian_terms

    def counted(ch, gamma, theta, phi):
        calls.append(np.size(theta))
        return terms(ch, gamma, theta, phi)

    def counted_hessian(a, t, cg, st, ct, cp, sp):
        calls.append(np.size(st))
        return hessian(a, t, cg, st, ct, cp, sp)

    monkeypatch.setattr(correlations, "_channel_terms", counted)
    monkeypatch.setattr(correlations, "_hessian_terms", counted_hessian)
    return calls


def masked_binary_entropy(p):
    """Binary entropy evaluated on the entries strictly inside (0, 1) only,
    by boolean-mask indexing, after clipping to [0, 1]; 0 elsewhere and for
    NaN.  A float for a 0-d input."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    q = 1.0 - p
    out = np.zeros_like(p)
    mask = (p > 0.0) & (p < 1.0)
    pm, qm = p[mask], q[mask]
    out[mask] = -pm * np.log2(pm) - qm * np.log2(qm)
    return out if out.ndim else float(out)


def reference_channel_terms(ch, gamma, theta, phi):
    """The channel path's (conditional entropy, dJ/dtheta, dJ/dphi), with the
    two measurement outcomes s and t computed one after the other, one array
    per outcome.  ``correlations._channel_terms``, which stacks the two
    outcomes, must reproduce every bit of it."""
    tol = 1e-14
    sg, cg = np.sin(gamma), np.cos(gamma)
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    st, ct, cp, sp = np.sin(theta), np.cos(theta), np.cos(phi), np.sin(phi)
    x = ct * cg
    p1, p2 = 0.5 * (1.0 + x), 0.5 * (1.0 - x)
    dp = np.maximum(1.0 + cg * ct, tol)
    dm = np.maximum(1.0 - cg * ct, tol)
    s = np.stack([sg * st * cp / dp, -sg * st * sp / dp, (cg + ct) / dp])
    t = np.stack([-sg * st * cp / dm, sg * st * sp / dm, (cg - ct) / dm])

    def log_ratio_over_x(x):
        small = x < 1e-6
        xc = np.clip(x, None, 1.0 - 1e-12)
        out = 0.5 * np.log2((1.0 + xc) / (1.0 - xc)) / np.where(small, 1.0, x)
        return np.where(small, (1.0 + x * x / 3.0) / np.log(2.0), out)

    sv, tv = ch(s), ch(t)
    spn = np.sqrt(np.add.reduce(sv * sv, axis=0))
    tpn = np.sqrt(np.add.reduce(tv * tv, axis=0))
    ws = p1 * log_ratio_over_x(spn) * (ch.eta.T @ sv.reshape(3, -1)).reshape(s.shape)
    wt = p2 * log_ratio_over_x(tpn) * (ch.eta.T @ tv.reshape(3, -1)).reshape(t.shape)
    hs = masked_binary_entropy((1.0 + spn) / 2.0)
    ht = masked_binary_entropy((1.0 + tpn) / 2.0)
    ce = np.where(p1 > tol, p1 * hs, 0.0) + np.where(p2 > tol, p2 * ht, 0.0)
    g_th = (
        (st * cg / 2.0) * (hs - ht)
        + sg / dp**2 * ((ct + cg) * (cp * ws[0] - sp * ws[1]) - sg * st * ws[2])
        - sg / dm**2 * ((ct - cg) * (cp * wt[0] - sp * wt[1]) - sg * st * wt[2])
    )
    g_ph = ws[0] * s[1] - ws[1] * s[0] + wt[0] * t[1] - wt[1] * t[0]
    return ce, g_th, g_ph


def ungated_universal_candidates(ch, gamma):
    """``correlations.universal_candidates`` with every sign-change bracket of
    the equatorial dJ/dphi scan bisected, whatever dJ/dtheta is there."""
    sa = correlations.output_marginal_entropy(ch, gamma)
    (a, b), _ = correlations.grad_objective(ch, gamma, np.zeros(2), np.array([0.0, np.pi / 2]))
    phi0 = 0.0 if np.hypot(a, b) < 1e-11 else float(np.arctan2(-a, b)) % np.pi
    polar = correlations.StationaryPoint(
        0.0,
        phi0,
        sa - correlations.conditional_entropy_channel(ch, gamma, 0.0, phi0),
        abs(a * np.cos(phi0) + b * np.sin(phi0)),
        correlations.ASYMMETRIC,
        bool(np.hypot(a, b) < correlations.STATIONARY_TOL),
    )

    def dphi(phi):
        return correlations.grad_objective(ch, gamma, np.full_like(phi, np.pi / 2), phi)[1]

    phis = np.linspace(0.0, np.pi, 1441)
    g = dphi(phis)
    roots = np.zeros(1) if np.max(np.abs(g)) < 1e-12 else correlations._bisect_roots(dphi, phis, g)
    return correlations._merge(ch, gamma, sa, np.full_like(roots, np.pi / 2), roots, [polar])


def same_points(got, want):
    """True when two stationary lists agree bit for bit."""
    rows = [np.array([q.as_row()[1:] for q in pts]).tobytes() for pts in (got, want)]
    return [(q.kind, q.critical) for q in got] == [(q.kind, q.critical) for q in want] and rows[0] == rows[1]


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
