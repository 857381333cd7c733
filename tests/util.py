"""Shared test helpers: independent oracles, random-input generators, a
channel-path call counter and a Newton start recorder.

The oracles here are deliberately written from the definitions (explicit
projectors, eigenvalue sums, finite differences) and never call back into
the code paths they are used to check.  One helper does:
:func:`unmoved_seed_stationary_points` is a variant of the solver's search,
not an oracle, and runs the solver's own scan, seeds, Newton batch and
merge, so a change to any of them reaches both sides of the comparison it
serves and only the starts differ.
"""

import numpy as np

from qdiscord import bloch, correlations
from qdiscord.qmat import binary_entropy_arr, check_density_matrix


def count_gradient_calls(monkeypatch):
    """A list that grows by one entry per channel-path evaluation: a call of
    ``correlations._sphere_terms``, the one kernel behind the objective, the
    gradient and the Hessian.  Each entry is the number of points the call
    evaluates."""
    calls = []
    terms = correlations._sphere_terms

    def counted(form, theta, phi, want):
        calls.append(np.broadcast(theta, phi).size)
        return terms(form, theta, phi, want)

    monkeypatch.setattr(correlations, "_sphere_terms", counted)
    return calls


def record_newton_starts(monkeypatch):
    """A list that grows by one entry per call of ``correlations._newton_batch``,
    the multistart behind every state-dependent root off the pole's own
    candidate.  Each entry is the call's starts, a 2 x n array of (theta, phi)."""
    starts = []
    newton = correlations._newton_batch

    def recorded(form, th0, ph0, *args):
        starts.append(np.array((th0, ph0), dtype=float))
        return newton(form, th0, ph0, *args)

    monkeypatch.setattr(correlations, "_newton_batch", recorded)
    return starts


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


def reference_chart_terms(ch, gamma, theta, phi):
    """The channel path's (conditional entropy, dJ/dtheta, dJ/dphi) in the
    chart, through the conditional directions s and t of the two measurement
    outcomes, one array per outcome.  ``correlations._sphere_terms``, which
    works on the sphere through p v = (a +- T n) / 2 instead, must agree with
    it to rounding."""
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


def reference_conditional_entropy_direct(c, theta, phi):
    """The direct path's sum_j p_j S(rho_j) from the Pauli table ``c`` of
    ``correlations._pauli_table``, one measurement outcome per call: outcome
    s = +-1 has 2 p = 1 + s b . n and conditional Bloch vector
    (a + s R n) / (2 p).  ``correlations.conditional_entropy_direct`` must
    reproduce every bit of it on array input."""
    th, ph = np.asarray(theta, float), np.asarray(phi, float)
    st = np.sin(th)
    n = st * np.cos(ph), st * np.sin(ph), np.cos(th)

    def outcome(s):
        p = 0.5 * (c[0, 0] + s * (c[0, 1] * n[0] + c[0, 2] * n[1] + c[0, 3] * n[2]))
        v = [c[i, 0] + s * (c[i, 1] * n[0] + c[i, 2] * n[1] + c[i, 3] * n[2]) for i in (1, 2, 3)]
        q = np.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        live = p > 1e-14
        return np.where(live, p * masked_binary_entropy((1.0 + q / np.where(live, 2.0 * p, 1.0)) / 2.0), 0.0)

    return outcome(1.0) + outcome(-1.0)


def two_pass_direct_entropy(c, theta, phi):
    """``correlations._direct_entropy`` one outcome per pass, as it was
    before it stacked the two outcomes along a leading axis: the + outcome
    by ``np.add``, then the - outcome by ``np.subtract``, each on arrays of
    the points' own shape.  The stacked evaluator must reproduce every bit
    of it."""
    st = np.sin(theta)
    n = st * np.cos(phi), st * np.sin(phi), np.cos(theta)
    y = [c[i, 1] * n[0] + c[i, 2] * n[1] + c[i, 3] * n[2] for i in range(4)]
    total = 0.0
    for pm in (np.add, np.subtract):
        p = 0.5 * pm(c[0, 0], y[0])
        live = p > bloch.DEGENERATE_TOL
        q = np.sqrt(pm(c[1, 0], y[1]) ** 2 + pm(c[2, 0], y[2]) ** 2 + pm(c[3, 0], y[3]) ** 2)
        total = total + np.where(live, p * binary_entropy_arr((1.0 + q / np.where(live, 2.0 * p, 1.0)) / 2.0), 0.0)
    return total


def unmoved_seed_stationary_points(ch, gamma):
    """``correlations.find_stationary_points`` on a phi-dependent landscape
    with every start where its bilinear zero lies: the seeds of the first
    row of cells stay beside the pole instead of starting at it, and the
    scan's best sample starts Newton too when it lies on the first two theta
    rows (the narrow maximum beside the pole) or no seed lies within a grid
    step of it.  Every start runs to its own end."""
    form = bloch.outcome_form(ch, gamma)
    sa = correlations.output_marginal_entropy(ch, gamma)
    th, ph = correlations._landscape_grid()
    ce, gt, gp = correlations._sphere_terms(form, th[:, :1], ph[:1], "entropy")
    gph = np.sin(th[:, :1]) * gp
    scale = correlations._tolerance_scale(th[:, :1], gt, gph)
    t, p = correlations._landscape_seeds(th, ph, (gt, gph))
    i, j = divmod(int(np.argmin(ce)), th.shape[1])
    dp = np.abs(p - ph[i, j])
    near = (np.abs(t - th[i, j]) <= th[1, 0]) & (np.minimum(dp, 2 * np.pi - dp) <= ph[0, 1])
    if i < 2 or not near.any():
        t, p = np.append(t, th[i, j]), np.append(p, ph[i, j])
    t, p = correlations._newton_batch(form, t, p, scale)
    polar = correlations._polar_candidate(sa, (ce[0, 0], gt[0, 0], gp[0, 0]), correlations.STATIONARY_TOL * scale)
    return sorted(correlations._merge(form, sa, t, p, [polar], scale), key=correlations._point_key)


def all_cells_landscape_seeds(th, ph, grad):
    """``correlations._landscape_seeds`` solving the bilinear quadratic in
    every cell of the scan, a sign change among its corners or not: the
    starts in cell order, then root order within a cell, zeros at theta = 0
    dropped."""
    g = np.stack(grad)
    g00, g10, g01, g11 = g[:, :-1, :-1], g[:, 1:, :-1], g[:, :-1, 1:], g[:, 1:, 1:]
    a, b, c, d = (x[:, None] for x in (g00, g10 - g00, g01 - g00, g11 - g10 - g01 + g00))
    qa = b[1] * d[0] - b[0] * d[1]
    qb = a[1] * d[0] + b[1] * c[0] - a[0] * d[1] - b[0] * c[1]
    qc = a[1] * c[0] - a[0] * c[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        u = np.concatenate([q / qa, qc / q])
        num, den = a + b * u, c + d * u
        v = -np.where(np.abs(den[0]) >= np.abs(den[1]), num[0] / den[0], num[1] / den[1])
    i, j, r = np.nonzero(((u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (v <= 1.0)).transpose(1, 2, 0))
    t, p = th[i, j] + u[r, i, j] * (th[i + 1, j] - th[i, j]), ph[i, j] + v[r, i, j] * (ph[i, j + 1] - ph[i, j])
    return t[t > 0.0], p[t > 0.0]


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


def koashi_winter_classical_correlation(rho):
    """C = S(rho_a) - E_F(rho_ac) of a two-qubit state of rank at most 2,
    measured on b, numpy only: the Koashi-Winter relation (PRA 69, 022309
    (2004)) for a purification |Psi> of rho on abc, c one qubit, with the
    entanglement of formation in Wootters' closed form (PRL 80, 2245
    (1998)).  Tr_b |Psi><Psi| = rho_ac = sum_b phi_b phi_b^+ with
    phi_b = (<b| (x) I) |Psi>; stacked as the columns of the 4 x 2 matrix
    Psi, its concurrence is s1 - s2, the singular values of
    Psi^T (sigma_y (x) sigma_y) Psi."""
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-14
    assert keep.sum() <= 2
    # psi[a, b, c] = sum_k sqrt(w_k) <ab|v_k> delta_kc
    psi = np.zeros((2, 2, 2), dtype=complex)
    psi[:, :, : keep.sum()] = (v[:, keep] * np.sqrt(w[keep])).reshape(2, 2, -1)
    phi = psi.transpose(0, 2, 1).reshape(4, 2)
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    s1, s2 = np.linalg.svd(phi.T @ np.kron(sigma_y, sigma_y) @ phi, compute_uv=False)
    # E_F = h((1 + sqrt(1 - conc**2)) / 2) = h(1 - y), with y = (1 - sqrt(1 - conc**2)) / 2 written without
    # cancellation
    conc = min(s1 - s2, 1.0)
    y = conc**2 / (2.0 * (1.0 + np.sqrt(1.0 - conc**2)))
    e_f = 0.0 if y == 0.0 else -((1.0 - y) * np.log1p(-y) + y * np.log(y)) / np.log(2.0)
    rho_a = np.einsum("ijkj->ik", rho.reshape(2, 2, 2, 2))
    return entropy_bits(np.linalg.eigvalsh(rho_a)) - e_f


def random_unitary(rng, n=2):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def x_matrix(d, r14, r23):
    """The X state with diagonal ``d`` and complex cross terms r14, r23."""
    m = np.diag(np.asarray(d, dtype=complex))
    m[0, 3], m[3, 0] = r14, np.conj(r14)
    m[1, 2], m[2, 1] = r23, np.conj(r23)
    return check_density_matrix(m)


def random_x_maximally_mixed(rng):
    """Random X state whose b marginal is exactly I/2."""
    u, v = rng.uniform(0.05, 0.95, 2)
    d = np.array([u / 2, v / 2, (1 - u) / 2, (1 - v) / 2])
    r14 = rng.uniform(0, 0.95) * np.sqrt(d[0] * d[3]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    r23 = rng.uniform(0, 0.95) * np.sqrt(d[1] * d[2]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return x_matrix(d, r14, r23)


def random_x_state(rng, real):
    """Random X state: a Dirichlet diagonal and cross terms up to 0.95 of
    their positivity bound, ``real`` with a random sign, else with a random
    phase."""
    d = rng.dirichlet(np.ones(4))
    r = rng.uniform(0, 0.95, 2) * np.sqrt(d[[0, 1]] * d[[3, 2]])
    return x_matrix(d, *r * (rng.choice((-1.0, 1.0), 2) if real else np.exp(2j * np.pi * rng.uniform(size=2))))


def feasible_bell_triple(rng):
    """(ex, ey, ez) drawn uniformly from the Bell tetrahedron."""
    w = rng.dirichlet(np.ones(4))  # weights for phi+, phi-, psi+, psi-
    ex = w[0] - w[1] + w[2] - w[3]
    ey = -w[0] + w[1] + w[2] - w[3]
    ez = w[0] + w[1] - w[2] - w[3]
    return float(ex), float(ey), float(ez)
