"""Classical correlation and quantum discord of a two-qubit state.

The measured mutual information

    J(theta, phi) = S(rho_a) - sum_j p_j S(rho_j)

is maximized over projective measurements on qubit b.  Two independent
evaluation paths are kept deliberately separate:

* the *channel* path evaluates J from the affine Bloch form of the channel
  extracted by :mod:`qdiscord.choi` (angles live in the decomposition frame);
* the *direct* path projects the state itself with explicit measurement
  operators and never touches the decomposition (angles live in the original
  frame).

The maximization itself also runs twice: a damped-Newton search for the
stationary points of J on the channel path, and a brute-force grid oracle
with a zoom refinement (a small patch of angles around the best point,
shrunk round by round) on the direct path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bloch, choi
from .qmat import (
    binary_entropy_arr,
    check_density_matrix,
    partial_trace_a,
    partial_trace_b,
    von_neumann_entropy,
)

LN2 = np.log(2.0)
#: Purities this close to 1 are clamped inside logarithms.
SATURATION_CLAMP = 1e-12
#: Scaled gradient norm required of a reported stationary point.
STATIONARY_TOL = 1e-7
#: Raw gradient norm below which a polished Newton start counts as a root.
NEWTON_TOL = 1e-10
#: Landscape grid of the objective and gradient scans, points per axis:
#: theta in [0, pi/2] and phi in [0, 2 pi], ends included.
SEED_GRID = (25, 49)
#: Newton iterations per start.
NEWTON_MAX_ITER = 100
#: The line search's step lengths alpha = 2**-k, k = 0, 1, ..., 49, one per row.
_STEP_LENGTHS = np.ldexp(1.0, -np.arange(50))[:, None]
#: The signs of T n in the two outcomes' p v = (a +- T n) / 2, one per row.
_OUTCOME_SIGNS = np.array([[1.0], [-1.0]])
#: Iterations a start may still take once its gradient norm is below
#: NEWTON_TOL.  A well-conditioned root reaches the gradient floor within
#: this many; on a flat landscape a start would otherwise crawl on in tiny
#: steps, as many as NEWTON_MAX_ITER, a number that varies from one local
#: copy of a state to the next.
NEWTON_POLISH_ITER = 8
#: Bisection steps per gradient call: one call evaluates the 2**6 - 1
#: midpoints of the next six levels of every bracket's bisection tree.
BISECT_LEVELS = 6
#: Stationary points closer than this (measurement angle) are merged.
MERGE_TOL = 1e-5
#: Angular slack when classifying a root as polar/equatorial.
CLASSIFY_TOL = 1e-6
#: Points whose objectives are this close to the best count as tied optima.
OPTIMUM_TIE_TOL = 1e-10
#: Smallest (n_theta, n_phi) grid the oracle accepts.
ORACLE_MIN_GRID = (64, 128)
#: Theta rows of the oracle grid evaluated per call of the objective.  A
#: whole 64 x 128 grid makes 128 KiB complex temporaries, which glibc maps
#: afresh or trims back to the system on every call (600-700 page faults
#: per oracle call); 8 rows keep each at 16 KiB, so the oracle's time no
#: longer depends on what the process allocated before.
ORACLE_BLOCK_ROWS = 8
#: Oracle zoom: points per axis of the patch, rounds, and the factor by
#: which the patch shrinks (to the spacing of its own points).
ZOOM_POINTS = 7
ZOOM_ROUNDS = 24
ZOOM_SHRINK = 2.0 / (ZOOM_POINTS - 1)

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"
STATE_DEPENDENT = "state_dependent"


@dataclass
class StationaryPoint:
    """A measurement setting where both partial derivatives of J vanish.

    ``critical`` is False for a polar candidate that solves the (theta, phi)
    equations but is not a critical point of J on the sphere.
    """

    theta: float
    phi: float
    objective: float
    grad_norm: float
    kind: str
    critical: bool = True

    def as_row(self):
        return (self.kind, self.theta, self.phi, self.objective, self.grad_norm)


@dataclass
class DiscordReport:
    """Mutual information split into classical and quantum parts.

    ``theta``/``phi`` are the optimal measurement angles in the original
    basis of qubit b; ``stationary_points`` (when the stationary method ran)
    are expressed in the decomposition frame.
    """

    mutual_info: float
    classical_corr: float
    discord: float
    theta: float
    phi: float
    method: str
    stationary_points: list = field(default_factory=list)


def mutual_information(rho):
    """S(rho_a) + S(rho_b) - S(rho_ab), in bits."""
    rho = check_density_matrix(rho)
    return float(
        von_neumann_entropy(partial_trace_b(rho))
        + von_neumann_entropy(partial_trace_a(rho))
        - von_neumann_entropy(rho)
    )


# ---------------------------------------------------------------------------
# helpers shared by both paths
# ---------------------------------------------------------------------------

def _scalar_or_array(x):
    """A float for a 0-d result, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


# ---------------------------------------------------------------------------
# channel path
# ---------------------------------------------------------------------------

def output_marginal_entropy(ch, gamma):
    """S(rho_a) computed from the channel alone (image of the b marginal)."""
    r = ch(np.array([0.0, 0.0, np.cos(gamma)]))
    return float(binary_entropy_arr((1.0 + np.linalg.norm(r)) / 2.0))


def conditional_entropy_channel(ch, gamma, theta, phi):
    """sum_j p_j S(rho_j) through the affine channel form; angle arrays of one shape give an array."""
    return _scalar_or_array(_channel_terms(ch, gamma, theta, phi)[0])


def objective_channel(ch, gamma, theta, phi):
    """J(theta, phi) on the channel path."""
    return output_marginal_entropy(ch, gamma) - conditional_entropy_channel(ch, gamma, theta, phi)


def _log_ratio_over_x(x):
    """log2 sqrt((1+x)/(1-x)) / x, clamped below x = 1, continued through x = 0 by its series."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-6
    xc = np.minimum(x, 1.0 - SATURATION_CLAMP)
    out = 0.5 * np.log2((1.0 + xc) / (1.0 - xc)) / np.where(small, 1.0, x)
    return np.where(small, (1.0 + x * x / 3.0) / LN2, out)


def grad_objective(ch, gamma, theta, phi):
    """Analytic gradient (dJ/dtheta, dJ/dphi) on the channel path; angle arrays give a pair of arrays."""
    return tuple(_scalar_or_array(g) for g in _channel_terms(ch, gamma, theta, phi)[1:])


def _channel_terms(ch, gamma, theta, phi):
    """Conditional entropy and gradient (dJ/dtheta, dJ/dphi) of the channel
    path at angle arrays of one shape, from one forward pass: both depend
    on the angles only through the outcome probabilities and the purities
    s' = |eta s + c| and t' = |eta t + c|.

    ds' = eta^T (eta s + c) . ds / s', so each output vector is pulled back
    through the channel once, and both derivatives are dot products with
    the closed-form ds and dt.  Purities are clamped at 1 - 1e-12 inside the
    logarithms, so the gradient is finite (and still ~0 where it should
    vanish) even for a channel that keeps the conditional states pure.

    The two outcomes s and t share one pass: arrays carry them along a
    leading axis of 2, and each elementwise step runs once for both, with
    the operations and their order of a pass per outcome, so every bit of
    the result is the same.  Two things are kept on purpose:

    * the products with eta stay one BLAS matmul per outcome, each as wide
      as the angle arrays (the stacked (3, 3) @ (2, 3, n) runs exactly
      those): a matmul's last bits depend on its width, a one-column one
      rounds differently from a wider one, and a stationary point polished
      to the gradient floor moves with them;
    * the purity terms h((1 + s')/2) and log2 sqrt((1+s')/(1-s'))/s' keep
      their own formulas and logarithms: one shared log of (1 + s')/2 and
      (1 - s')/2 moves the pinned stationary points of ``lu_state()`` by
      1.1e-13.
    """
    sg, cg = np.sin(gamma), np.cos(gamma)
    shape = np.shape(theta)
    st, ct, cp, sp = trig = bloch.angle_trig(np.ravel(theta), np.ravel(phi))
    p, u = bloch.conditional_outcomes(gamma, *trig)
    v = ch.eta @ u + ch.c[:, None]
    r = np.sqrt(np.add.reduce(v * v, axis=1))
    w = (p * _log_ratio_over_x(r))[:, None] * (ch.eta.T @ v)
    h = binary_entropy_arr((1.0 + r) / 2.0)
    e = np.where(p > bloch.DEGENERATE_TOL, p * h, 0.0)

    # ds/dtheta = sg / dp^2 (cp (ct + cg), -sp (ct + cg), -sg st), dt/dtheta
    # likewise with ct - cg over -dm^2, where (dp, dm) = 2 p clamped at
    # DEGENERATE_TOL, and d/dphi = (y, -x, 0) for both
    dw = (cp * w[:, 0] - sp * w[:, 1]) * np.array([ct + cg, ct - cg]) - sg * st * w[:, 2]
    x = sg / np.maximum(2.0 * p, bloch.DEGENERATE_TOL) ** 2 * dw
    g_th = (st * cg / 2.0) * (h[0] - h[1]) + x[0] - x[1]
    a, b = w[:, 0] * u[:, 1], w[:, 1] * u[:, 0]
    g_ph = a[0] - b[0] + a[1] - b[1]
    return (e[0] + e[1]).reshape(shape), g_th.reshape(shape), g_ph.reshape(shape)


# ---------------------------------------------------------------------------
# direct path
# ---------------------------------------------------------------------------

def conditional_entropy_direct(rho, theta, phi):
    """sum_j p_j S(rho_j) by explicit projection of the state itself.

    The measurement acts on qubit b in the original basis; the channel
    decomposition is never consulted.  Outcomes with probability below
    1e-14 contribute zero.  Angle arrays broadcast together and give an
    array of values.
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    th, ph = np.asarray(theta, float), np.asarray(phi, float)
    chh = np.cos(th / 2.0)
    shh = np.sin(th / 2.0)
    e = np.exp(1j * ph)
    uu, vv, uv = chh * chh, shh * shh, chh * shh

    # unnormalized conditional a-state for outcome 1 (vector (cos, sin e^{i phi}));
    # outcome 2 is the complement against the a marginal
    a00 = uu * r[0, 0, 0, 0] + uv * (e * r[0, 0, 0, 1] + e.conj() * r[0, 1, 0, 0]) + vv * r[0, 1, 0, 1]
    a01 = uu * r[0, 0, 1, 0] + uv * (e * r[0, 0, 1, 1] + e.conj() * r[0, 1, 1, 0]) + vv * r[0, 1, 1, 1]
    a11 = uu * r[1, 0, 1, 0] + uv * (e * r[1, 0, 1, 1] + e.conj() * r[1, 1, 1, 0]) + vv * r[1, 1, 1, 1]
    b00 = (r[0, 0, 0, 0] + r[0, 1, 0, 1]) - a00
    b01 = (r[0, 0, 1, 0] + r[0, 1, 1, 1]) - a01
    b11 = (r[1, 0, 1, 0] + r[1, 1, 1, 1]) - a11

    def branch(x00, x01, x11):
        p = np.real(x00 + x11)
        det = np.real(x00 * x11 - x01 * np.conj(x01))
        live = p > bloch.DEGENERATE_TOL
        safe = np.where(live, p, 1.0)
        purity = np.sqrt(np.clip(1.0 - 4.0 * det / (safe * safe), 0.0, 1.0))
        return np.where(live, p * binary_entropy_arr((1.0 + purity) / 2.0), 0.0)

    return _scalar_or_array(branch(a00, a01, a11) + branch(b00, b01, b11))


# ---------------------------------------------------------------------------
# stationary-point search
# ---------------------------------------------------------------------------

def _bisect_roots(f, x, fx, brackets=True):
    """Roots of f on the grid x, where fx = f(x): every sign change between
    neighbours where the mask ``brackets`` (one entry per neighbour pair) is
    set, all bisected at once to machine precision (64 steps at most), and
    every grid point but the last where f is exactly zero, masked or not.
    Sorted.

    One call of f serves BISECT_LEVELS steps of every bracket: it evaluates
    the midpoints of the next BISECT_LEVELS levels of each bracket's
    bisection tree, and the steps then follow one path down the tree, each
    keeping the half where f changes sign, as if its midpoint alone had been
    evaluated.  Bisection stops early once a step leaves every bracket as it
    was: each later step would repeat it."""
    exact = x[:-1][fx[:-1] == 0.0]
    k = np.flatnonzero((fx[:-1] * fx[1:] < 0.0) & brackets)
    lo, hi, flo = x[k], x[k + 1], fx[k]
    cols = np.arange(k.size)
    steps, stalled = 0, not k.size
    while not stalled and steps < 64:
        levels = min(BISECT_LEVELS, 64 - steps)
        # the tree in heap order: level l is 2**l rows of midpoints, between
        # 2**l + 1 rows of edges, and row r has children 2r + 1 and 2r + 2
        edges, mids = np.stack([lo, hi]), []
        for _ in range(levels):
            mids.append(0.5 * (edges[:-1] + edges[1:]))
            edges = np.insert(edges, np.arange(1, len(edges)), mids[-1], axis=0)
        tree = np.concatenate(mids)
        f_tree = f(tree.ravel()).reshape(tree.shape)
        row = np.zeros(k.size, int)
        for _ in range(levels):
            mid, fm = tree[row, cols], f_tree[row, cols]
            left = flo * fm <= 0.0
            step = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, flo, fm)
            stalled = all(np.array_equal(a, b) for a, b in zip(step, (lo, hi, flo)))
            if stalled:
                break
            lo, hi, flo = step
            row = 2 * row + 2 - left
            steps += 1
    return np.sort(np.concatenate([exact, 0.5 * (lo + hi)]))


def _point_key(q):
    """Report order of stationary points: best objective first, then the
    smallest (theta, phi)."""
    return -q.objective, q.theta, q.phi


def _classify(theta):
    if theta < CLASSIFY_TOL:
        return ASYMMETRIC
    if abs(theta - np.pi / 2) < CLASSIFY_TOL:
        return SYMMETRIC
    return STATE_DEPENDENT


def _merge(ch, gamma, sa, theta, phi, kept=()):
    """``kept`` followed by the stationary points at the roots (theta, phi).

    Roots are folded to canonical angles; one channel-path call then gives
    the gradient that verifies them (scaled norm below STATIONARY_TOL) and
    the objective that scores them.  A root within MERGE_TOL (measurement
    distance) of a point in ``kept`` is dropped; of roots within MERGE_TOL of
    each other, the best converged (smallest gradient norm) is kept.  The
    survivors come in (theta, phi) order, classified by their polar angle;
    ``sa`` is S(rho_a).
    """
    if not np.size(theta):
        return list(kept)
    th, ph = bloch.normalize_angles(np.asarray(theta, float), np.asarray(phi, float))
    order = np.lexsort((ph, th))
    th, ph = th[order], ph[order]
    ce, gt, gp = _channel_terms(ch, gamma, th, ph)
    gn = np.hypot(gt, np.sin(th) * gp)
    free = gn < STATIONARY_TOL
    for q in kept:
        free &= bloch.measurement_distance((q.theta, q.phi), (th, ph)) >= MERGE_TOL
    take = []
    for i in np.argsort(gn, kind="stable"):
        if not free[i]:
            continue
        take.append(i)
        # folded polar angles differ by no more than the measurement
        # distance, so only roots within MERGE_TOL in theta can be absorbed
        lo, hi = np.searchsorted(th, [th[i] - MERGE_TOL, th[i] + MERGE_TOL])
        free[lo:hi] &= bloch.measurement_distance((th[i], ph[i]), (th[lo:hi], ph[lo:hi])) >= MERGE_TOL
    return list(kept) + [
        StationaryPoint(float(th[i]), float(ph[i]), float(sa - ce[i]), float(gn[i]), _classify(th[i]))
        for i in sorted(take)
    ]


def universal_candidates(ch, gamma):
    """The stationary settings that exist for every state.

    Returns the polar candidate theta = 0, unverified, and the equatorial
    candidates theta = pi/2 at every azimuth where dJ/dphi vanishes, each
    verified with scaled gradient norm below 1e-7.  No such root can lie
    in a bracket where dJ/dtheta keeps one sign and exceeds STATIONARY_TOL
    + d2 at both ends, d2 the larger |second difference| of dJ/dtheta there
    (8x its chord's error bound), so those are not bisected.  The polar
    candidate solves the (theta, phi) equations by construction, so its
    ``grad_norm`` is ~0 whatever the state; it is ``critical`` only when the
    pole is a critical point of J on the sphere, that is when hypot(A, B) is
    below STATIONARY_TOL.  Its objective comes from the same call as A and
    B: at theta = 0, J does not depend on phi.
    """
    sa = output_marginal_entropy(ch, gamma)

    # polar candidate: dJ/dphi vanishes identically at theta = 0, while the
    # theta derivative there is A cos(phi) + B sin(phi); pick its zero.  The
    # azimuth is kept as found: folding would reset it to 0.
    ce, (a, b), _ = _channel_terms(ch, gamma, np.zeros(2), np.array([0.0, np.pi / 2]))
    phi0 = 0.0 if np.hypot(a, b) < 1e-11 else float(np.arctan2(-a, b)) % np.pi
    g0 = a * np.cos(phi0) + b * np.sin(phi0)
    polar = StationaryPoint(0.0, phi0, float(sa - ce[0]), abs(g0), ASYMMETRIC, bool(np.hypot(a, b) < STATIONARY_TOL))

    # equatorial candidates: zeros of dJ/dphi along theta = pi/2
    def dphi(phi):
        return grad_objective(ch, gamma, np.full_like(phi, np.pi / 2), phi)[1]

    phis = np.linspace(0.0, np.pi, 1441)
    gt, gp = grad_objective(ch, gamma, np.full_like(phis, np.pi / 2), phis)
    d2 = np.abs(np.diff(np.pad(gt, 1, mode="edge"), 2))
    clear = np.minimum(np.abs(gt[:-1]), np.abs(gt[1:])) > STATIONARY_TOL + np.maximum(d2[:-1], d2[1:])
    brackets = ~((gt[:-1] * gt[1:] > 0.0) & clear)
    roots = np.zeros(1) if np.max(np.abs(gp)) < 1e-12 else _bisect_roots(dphi, phis, gp, brackets)
    return _merge(ch, gamma, sa, np.full_like(roots, np.pi / 2), roots, [polar])


def _outcome_affine(ch, gamma):
    """(a, T, cos gamma) of the outcomes' p v = (a +- T n) / 2, affine in the
    measurement direction n, where 2 p = 1 +- cos(gamma) n_z: a = cos(gamma)
    eta e_z + c and T = eta diag(sin gamma, -sin gamma, 1) + cos(gamma) c e_z^T."""
    sg, cg = np.sin(gamma), np.cos(gamma)
    t = ch.eta * np.array([sg, -sg, 1.0])
    t[:, 2] += cg * ch.c
    return cg * ch.eta[:, 2] + ch.c, t, cg


def _hessian_terms(a, t, cg, st, ct, cp, sp):
    """Terms of the Hessian of J on the sphere at the angles whose
    :func:`bloch.angle_trig` is (st, ct, cp, sp), ``a, t, cg`` from
    :func:`_outcome_affine`: (h_tt, h_tp, h_pp), the tangent block of the
    Hessian of J(n), n in R^3, in the frame (e_theta, e_phi), e_phi =
    (-sin phi, cos phi, 0), defined at the pole too; and n . grad J.  The
    Hessian on the sphere is the block minus n . grad J times the identity
    (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008, ch. 5).

    An outcome's p H2((1 + r) / 2) depends on n through rho = |q|, q = a +-
    T n, and m = 2 p only, homogeneously, so it adds [l (T^T T - T^T v v^T T)
    + g w w^T] / (2 m) to the Hessian, with v = q / rho, r = rho / m, w =
    T^T v - r cos(gamma) e_z, l = log2 sqrt((1 + r) / (1 - r)) / r and
    g = 1 / ((1 - r**2) ln 2), r clamped as in the gradient; and +-[l (T n)
    . q / (2 m) + cos(gamma) n_z log2(1 - r**2) / 4] to n . grad J.
    """
    # the frame n, e_theta, e_phi as (component, vector, point), and its image under T
    frame = np.array([[st * cp, ct * cp, -sp], [st * sp, ct * sp, cp], [ct, -st, 0.0 * st]])
    tf = (t @ frame.reshape(3, -1)).reshape(frame.shape)
    # (outcome, component, point), then (outcome, vector, point)
    q = a[:, None] + _OUTCOME_SIGNS[:, None] * tf[:, 0]
    k = np.add.reduce(q[:, :, None] * tf, axis=1)
    rho = np.sqrt(np.add.reduce(q * q, axis=1))
    m = np.maximum(1.0 + _OUTCOME_SIGNS * (cg * ct), bloch.DEGENERATE_TOL)
    r = rho / m
    s = 1.0 - np.minimum(r, 1.0 - SATURATION_CLAMP) ** 2
    lam, mu = _log_ratio_over_x(r) / (2.0 * m), 1.0 / (2.0 * LN2 * m * s)
    # (T^T v) and w along e_theta and e_phi, as (outcome, vector, point)
    u = k[:, 1:] / np.maximum(rho, np.finfo(float).tiny)[:, None]
    w = np.stack([u[:, 0] + (cg * st) * r, u[:, 1]], axis=1)
    gram = np.add.reduce(tf[:, 1:, None] * tf[:, None, 1:])
    lw, lu = (mu[:, None] * w)[:, :, None] * w[:, None], (lam[:, None] * u)[:, :, None] * u[:, None]
    block = gram * (lam[0] + lam[1]) + np.add.reduce(lw - lu)
    ng = np.subtract(*(lam * k[:, 0] + (0.25 * cg * ct) * np.log2(s)))
    return block[0, 0], block[0, 1], block[1, 1], ng


def _newton_batch(ch, gamma, th0, ph0):
    """Damped Newton on the sphere from many starts off the pole, batched
    over the starts still iterating; returns the roots, in start order.

    An iteration solves the closed-form Hessian (:func:`_hessian_terms`)
    against the gradient, both in the frame (e_theta, e_phi), and tries
    (n + alpha xi) / |n + alpha xi| along the step xi for alpha = 2**-k,
    k = 0, 1, ..., 49, taking the first k that lowers the gradient norm
    hypot(dJ/dtheta, dJ/dphi / sin theta) (0/0 at the pole).  One call
    serves the Hessians of every live start, one all 50 step lengths, and
    the gradient at an accepted step is the next iteration's.  A start
    leaves the batch when its Hessian is singular or not finite, no step
    lowers its norm, it has polished NEWTON_POLISH_ITER iterations below
    NEWTON_TOL or taken NEWTON_MAX_ITER; it is a root if its norm is then
    below NEWTON_TOL, so a root does not depend on which start reached it.
    """
    th, ph = np.array(th0, float), np.array(ph0, float)
    if not th.size:
        return th, ph
    affine = _outcome_affine(ch, gamma)
    _, g0, g1 = _channel_terms(ch, gamma, th, ph)
    g1 = g1 / np.sin(th)
    norm, live = np.hypot(g0, g1), np.arange(th.size)
    polish = np.zeros(th.size, int)
    for _ in range(NEWTON_MAX_ITER):
        polish[live] += norm[live] < NEWTON_TOL
        keep = polish[live] <= NEWTON_POLISH_ITER
        live, g0, g1 = live[keep], g0[keep], g1[keep]
        if not live.size:
            break

        st, ct, _, _ = trig = bloch.angle_trig(th[live], ph[live])
        htt, htp, hpp, ng = _hessian_terms(*affine, *trig)
        htt, hpp = htt - ng, hpp - ng
        det = htt * hpp - htp * htp
        regular = (np.abs(det) >= 1e-30) & np.isfinite(det)
        safe = np.where(regular, det, 1.0)
        xt = -(hpp * g0 - htp * g1) / safe
        xp = -(htt * g1 - htp * g0) / safe

        # n + alpha xi as (step length, start): sin theta + alpha xt cos theta
        # along (cos phi, sin phi, 0), alpha xp along e_phi and cos theta -
        # alpha xt sin theta along z; atan2 keeps theta accurate at the pole
        out, across = st + _STEP_LENGTHS * (xt * ct), _STEP_LENGTHS * xp
        tt = np.arctan2(np.hypot(out, across), ct - _STEP_LENGTHS * (xt * st))
        pp = ph[live] + np.arctan2(across, out)
        _, e0, e1 = _channel_terms(ch, gamma, tt, pp)
        e1 = e1 / np.sin(tt)
        en = np.hypot(e0, e1)
        lower = regular & np.isfinite(en) & (en < norm[live])
        keep = lower.any(axis=0)
        k, i = np.argmax(lower, axis=0)[keep], np.flatnonzero(keep)
        th[live[i]], ph[live[i]], norm[live[i]] = tt[k, i], pp[k, i], en[k, i]
        g0[i], g1[i] = e0[k, i], e1[k, i]
        live, g0, g1 = live[keep], g0[keep], g1[keep]

    root = norm < NEWTON_TOL
    return th[root], ph[root]


def index_sum(ch, gamma, points):
    """Sum of sign det Hess J over the critical points among ``points``.

    J(n) = J(-n), so grad J is a vector field on the projective plane,
    whose Euler characteristic is 1: by Poincare-Hopf, a list that holds
    every critical point of J, each nondegenerate, sums to 1 (Milnor,
    Topology from the Differentiable Viewpoint, 1965).  A missed root of
    index +-1 shows as a sum of 0 or 2; a missed pair of opposite index
    cancels.  Points that are not ``critical`` do not count.

    The Hessians come from one closed-form call (:func:`_hessian_terms`),
    the pole included.  Returns None when some determinant is below
    (1e-4 s)**2, s the largest Hessian entry, or below (eps t)**2, t the
    largest of the terms whose difference it is, their rounding floor: a
    degenerate point (flat and phi-independent landscapes, stationary
    circles) has no index.
    """
    crit = [q for q in points if q.critical]
    if not crit:
        return None
    t, p = np.array([[q.theta, q.phi] for q in crit]).T
    *block, ng = _hessian_terms(*_outcome_affine(ch, gamma), *bloch.angle_trig(t, p))
    hess = np.stack([block[0] - ng, block[1], block[2] - ng])
    det = hess[0] * hess[2] - hess[1] ** 2
    floor = max(1e-4 * np.max(np.abs(hess)), np.finfo(float).eps * np.max(np.abs([*block, ng])))
    if np.any(np.abs(det) < floor**2):
        return None
    return int(np.sum(np.sign(det)))


def _stationary_points_1d(ch, gamma, sa):
    """Roots when J does not depend on phi (stationary circles in phi).

    Each circle is reported once, at phi = 0.  The outcome-swap symmetry
    makes J(theta) symmetric about pi/2, so interior roots are bracketed on
    (0, pi/2) only.
    """

    def dtheta(theta):
        return grad_objective(ch, gamma, theta, np.zeros_like(theta))[0]

    thetas = np.linspace(0.0, np.pi / 2, 2001)[1:-1]
    roots = _bisect_roots(dtheta, thetas, dtheta(thetas))
    pts = _merge(ch, gamma, sa, np.array([0.0, np.pi / 2]), np.zeros(2))
    return _merge(ch, gamma, sa, roots, np.zeros_like(roots), pts)


def _landscape_grid():
    """(theta, phi) meshes of the SEED_GRID; the outcome swap maps it onto the sphere."""
    n_theta, n_phi = SEED_GRID
    return np.meshgrid(np.linspace(0.0, np.pi / 2, n_theta), np.linspace(0.0, 2 * np.pi, n_phi), indexing="ij")


def _landscape_seeds(th, ph, grad):
    """Newton starts from the gradient scan ``grad`` = (dJ/dtheta, dJ/dphi)
    on the landscape grid (th, ph): every common zero of the two components'
    bilinear interpolants inside a cell, the way vector-field topology
    locates the critical points of a sampled 2-D field (Helman & Hesselink,
    IEEE Computer 22(8), 1989).  A cell gives up to two starts, and none
    where the zero curves of the interpolants do not cross.

    On the unit cell (u along theta, v along phi) each component is
    a + b u + c v + d u v.  Eliminating v = -(a + b u) / (c + d u) between
    them leaves A u**2 + B u + C = 0, solved in the stable form u = q / A,
    C / q with q = -(B + sign(B) sqrt(B**2 - 4 A C)) / 2, which also holds
    for A ~ 0 (the root q / A then leaves the cell).  v comes from the
    component whose denominator c + d u is the larger in magnitude.

    Zeros at theta = 0, where dJ/dphi vanishes along the cell edge, are
    dropped: the pole is the polar candidate's."""
    g = np.stack(grad)
    g00, g10, g01, g11 = g[:, :-1, :-1], g[:, 1:, :-1], g[:, :-1, 1:], g[:, 1:, 1:]
    # axes: component, theta cell, phi cell, and one for the two roots in u
    a, b, c, d = (x[..., None] for x in (g00, g10 - g00, g01 - g00, g11 - g10 - g01 + g00))
    qa = b[1] * d[0] - b[0] * d[1]
    qb = a[1] * d[0] + b[1] * c[0] - a[0] * d[1] - b[0] * c[1]
    qc = a[1] * c[0] - a[0] * c[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        u = np.concatenate([q / qa, qc / q], axis=-1)
        num, den = a + b * u, c + d * u
        v = -np.where(np.abs(den[0]) >= np.abs(den[1]), num[0] / den[0], num[1] / den[1])
    i, j, r = np.nonzero((u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (v <= 1.0))
    t, p = th[i, j] + u[i, j, r] * (th[i + 1, j] - th[i, j]), ph[i, j] + v[i, j, r] * (ph[i, j + 1] - ph[i, j])
    return t[t > 0.0], p[t > 0.0]


def find_stationary_points(ch, gamma):
    """All stationary points of J: universal candidates plus Newton roots.

    One channel-path call scans J and its gradient together on a 25 x 49
    grid over theta in [0, pi/2] and phi in [0, 2 pi]; the outcome-swap
    symmetry maps the grid onto the rest of the sphere.  That one scan
    serves the flat and phi-independence checks, the missed-root net below
    and the Newton seeds.  Newton on the sphere (:func:`_newton_batch`)
    starts at the common zeros of the two gradient components' bilinear
    interpolants in each grid cell off the pole (:func:`_landscape_seeds`;
    Helman & Hesselink, IEEE Computer 22(8), 1989).  Roots are folded to
    canonical angles, merged within an angle of 1e-5, verified to scaled
    gradient norm < 1e-7 and classified by their polar angle, from one call
    per batch.

    The scan's values of J decide the degenerate cases below and guard
    against a missed root: if its best sample beats the best point found by
    more than OPTIMUM_TIE_TOL, Newton also runs from that sample.

    Degenerate landscapes are collapsed to representatives: a flat objective
    (constant channel) reports the single canonical point (pi/2, 0), and a
    phi-independent objective (xy-isotropic channel, where stationary points
    form circles) reports each circle once at phi = 0.
    """
    sa = output_marginal_entropy(ch, gamma)

    th_scan, ph_scan = _landscape_grid()
    ce_scan, *g_scan = _channel_terms(ch, gamma, th_scan, ph_scan)
    if float(np.ptp(ce_scan)) < 1e-12:
        obj = sa - float(ce_scan.mean())
        return [StationaryPoint(np.pi / 2, 0.0, obj, 0.0, SYMMETRIC)]
    if float(np.max(np.ptp(ce_scan, axis=1))) < 1e-11:
        pts = _stationary_points_1d(ch, gamma, sa)
    else:
        cands = universal_candidates(ch, gamma)
        pts = _merge(ch, gamma, sa, *_newton_batch(ch, gamma, *_landscape_seeds(th_scan, ph_scan, g_scan)), cands)
    k = int(np.argmin(ce_scan))
    if sa - ce_scan.flat[k] > max(q.objective for q in pts) + OPTIMUM_TIE_TOL:
        pts = _merge(ch, gamma, sa, *_newton_batch(ch, gamma, th_scan.flat[[k]], ph_scan.flat[[k]]), pts)
    return sorted(pts, key=_point_key)


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def check_oracle_resolution(n_theta, n_phi):
    """Raise ValueError for an oracle grid below ORACLE_MIN_GRID."""
    min_theta, min_phi = ORACLE_MIN_GRID
    if n_theta < min_theta or n_phi < min_phi:
        raise ValueError(f"oracle grid must be at least {min_theta} x {min_phi}, got {n_theta} x {n_phi}")


def grid_oracle(rho, n_theta=64, n_phi=128):
    """Brute-force maximization of J over the measurement angles.

    Evaluates the direct-projection objective on an n_theta x n_phi grid
    (theta in [0, pi], phi in [0, 2 pi)), ORACLE_BLOCK_ROWS rows at a time,
    and zooms in on the best cell: each round evaluates a 7 x 7 patch around
    the incumbent, one grid cell wide at first, clipped to theta in [0, pi].
    The patch shrinks to the spacing of its own points while the incumbent
    stays inside it, and only moves with the incumbent when that lands on
    its edge, where the maximum may lie beyond.  Deterministic, and never
    below the grid maximum; ties resolve to the smallest theta, then the
    smallest phi.

    Returns
    -------
    (C, (theta, phi))
        The classical correlation and the optimal angles in the original
        basis, canonically folded.
    """
    check_oracle_resolution(n_theta, n_phi)
    rho = check_density_matrix(rho)
    sa = von_neumann_entropy(partial_trace_b(rho))

    th = np.linspace(0.0, np.pi, n_theta)
    ph = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    blocks = [slice(i, i + ORACLE_BLOCK_ROWS) for i in range(0, n_theta, ORACLE_BLOCK_ROWS)]
    ce = np.concatenate([conditional_entropy_direct(rho, tt[b], pp[b]) for b in blocks])
    k = int(np.argmin(ce))
    t, p, fv = float(tt.flat[k]), float(pp.flat[k]), float(ce.flat[k])

    wt, wp = np.pi / (n_theta - 1), 2 * np.pi / n_phi
    steps = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    for _ in range(ZOOM_ROUNDS):
        pt = np.clip(t + wt * steps, 0.0, np.pi)
        pq = p + wp * steps
        ce = conditional_entropy_direct(rho, pt[:, None], pq[None, :])
        i, j = np.unravel_index(int(np.argmin(ce)), ce.shape)
        edge = False
        if ce[i, j] < fv:
            t, p, fv = float(pt[i]), float(pq[j]), float(ce[i, j])
            edge = j in (0, ZOOM_POINTS - 1) or (i in (0, ZOOM_POINTS - 1) and 0.0 < t < np.pi)
        if not edge:
            wt, wp = wt * ZOOM_SHRINK, wp * ZOOM_SHRINK

    t, p = bloch.normalize_angles(t, p)
    return sa - fv, (t, p)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def report_from_points(info, points, basis_rotation, method):
    """The :class:`DiscordReport` of the channel path's candidate points.

    ``points`` are :class:`StationaryPoint` in the decomposition frame of
    ``basis_rotation``.  The optimum is the smallest (theta, phi) among the
    points within OPTIMUM_TIE_TOL of the best objective; C is its
    objective, and its angles are folded into the original frame of qubit
    b.  The report lists the points best objective first.
    """
    pts = sorted(points, key=_point_key)
    best = min(
        (q for q in pts if q.objective >= pts[0].objective - OPTIMUM_TIE_TOL),
        key=lambda q: (q.theta, q.phi),
    )
    theta, phi = bloch.fold_angles(basis_rotation, best.theta, best.phi)
    return DiscordReport(info, best.objective, info - best.objective, theta, phi, method, pts)


def discord(rho, method="stationary", oracle_resolution=(64, 128)):
    """Mutual information, classical correlation and discord of a state.

    Parameters
    ----------
    rho : array_like
        Two-qubit density matrix.
    method : str
        ``"stationary"`` (channel decomposition + stationary-point search),
        ``"oracle"`` (direct grid maximization) or ``"xstate_analytic"``
        (closed form; raises ``NotApplicableError`` off its domain).
    oracle_resolution : tuple
        Grid used when ``method="oracle"``.

    Notes
    -----
    Both channel-path methods pick the optimum by one rule, in
    :func:`report_from_points`: of the points within 1e-10 of the best
    objective, the one with the smallest decomposition-frame (theta, phi);
    C is that point's objective.  Tied optima, such as the polar and
    equatorial settings of a Bell-diagonal state with two equal largest
    |c_i|, thus resolve alike whichever method found them.

    A state whose b marginal is numerically pure is a product state with
    zero correlations; once the method and the oracle resolution are
    checked, it short-circuits to C = I and Q = 0 without a decomposition.
    """
    if method not in ("stationary", "oracle", "xstate_analytic"):
        raise ValueError(f"unknown method {method!r}")
    if method == "oracle":
        check_oracle_resolution(*oracle_resolution)
    rho = check_density_matrix(rho)
    singular = np.linalg.eigvalsh(partial_trace_a(rho)).min() <= choi.RANK_TOL
    if method == "xstate_analytic" and not singular:
        from .xstate import analytic_discord_x

        return analytic_discord_x(rho)

    info = mutual_information(rho)
    if singular:
        return DiscordReport(info, info, 0.0, np.pi / 2, 0.0, method)

    if method == "oracle":
        corr, (theta, phi) = grid_oracle(rho, *oracle_resolution)
        return DiscordReport(info, corr, info - corr, theta, phi, method)

    d = choi.decompose(rho)
    pts = find_stationary_points(bloch.affine_from_kraus(d.kraus), d.gamma)
    return report_from_points(info, pts, d.basis_rotation, method)
