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
#: Newton iterations per start, and the step of its central-difference Jacobian.
NEWTON_MAX_ITER = 100
NEWTON_FD_STEP = 1e-6
#: Iterations a start may still take once its gradient norm is below
#: NEWTON_TOL.  A well-conditioned root reaches the gradient floor within
#: this many; on a flat landscape a start would otherwise crawl on in tiny
#: steps, as many as NEWTON_MAX_ITER, a number that varies from one local
#: copy of a state to the next.
NEWTON_POLISH_ITER = 8
#: Bisection steps per gradient call: one call evaluates the 2**6 - 1
#: midpoints of the next six levels of every bracket's bisection tree.
BISECT_LEVELS = 6
#: The line search tries alpha = 2**-k for k = 0, 1, ..., 49, these many
#: values of k per gradient call, and takes the first k that lowers the
#: gradient norm.
HALVING_RUNGS = (1, 8, 41)
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
    """A measurement setting where both partial derivatives of J vanish."""

    theta: float
    phi: float
    objective: float
    grad_norm: float
    kind: str

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


def _weighted_entropy(p, purity):
    """p H2((1 + purity)/2), zero for outcomes below the degeneracy guard."""
    return np.where(p > bloch.DEGENERATE_TOL, p * binary_entropy_arr((1.0 + purity) / 2.0), 0.0)


# ---------------------------------------------------------------------------
# channel path
# ---------------------------------------------------------------------------

def output_marginal_entropy(ch, gamma):
    """S(rho_a) computed from the channel alone (image of the b marginal)."""
    r = ch(np.array([0.0, 0.0, np.cos(gamma)]))
    return float(binary_entropy_arr((1.0 + np.linalg.norm(r)) / 2.0))


def conditional_entropy_channel(ch, gamma, theta, phi):
    """sum_j p_j S(rho_j) evaluated through the affine channel form.

    Angle arrays of one shape give an array of values.
    """
    p1, p2, s, t = bloch.conditional_outcomes(gamma, *bloch.angle_trig(theta, phi))
    sv, tv = ch(s), ch(t)
    sp = np.sqrt(np.sum(sv * sv, axis=0))
    tp = np.sqrt(np.sum(tv * tv, axis=0))
    return _scalar_or_array(_weighted_entropy(p1, sp) + _weighted_entropy(p2, tp))


def objective_channel(ch, gamma, theta, phi):
    """J(theta, phi) on the channel path."""
    return output_marginal_entropy(ch, gamma) - conditional_entropy_channel(ch, gamma, theta, phi)


def _log_ratio_over_x(x):
    """log2 sqrt((1+x)/(1-x)) / x, clamped below x = 1, continued through x = 0 by its series."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-6
    xc = np.clip(x, None, 1.0 - SATURATION_CLAMP)
    out = 0.5 * np.log2((1.0 + xc) / (1.0 - xc)) / np.where(small, 1.0, x)
    return np.where(small, (1.0 + x * x / 3.0) / LN2, out)


def grad_objective(ch, gamma, theta, phi):
    """Analytic gradient (dJ/dtheta, dJ/dphi) on the channel path.

    J sees s only through s' = |eta s + c|, and ds' = eta^T (eta s + c) . ds / s',
    so each output vector is pulled back through the channel once, and both
    derivatives are dot products with the closed-form ds and dt.  Purities
    are clamped at 1 - 1e-12 inside the logarithms, so the value is finite
    (and still ~0 where it should vanish) even for a channel that keeps the
    conditional states pure.  Angle arrays of one shape give a pair of arrays.
    """
    sg, cg = np.sin(gamma), np.cos(gamma)
    st, ct, cp, sp = trig = bloch.angle_trig(theta, phi)
    p1, p2, s, t = bloch.conditional_outcomes(gamma, *trig)
    dp = np.maximum(2.0 * p1, bloch.DEGENERATE_TOL)
    dm = np.maximum(2.0 * p2, bloch.DEGENERATE_TOL)

    sv, tv = ch(s), ch(t)
    spn = np.sqrt(np.add.reduce(sv * sv, axis=0))
    tpn = np.sqrt(np.add.reduce(tv * tv, axis=0))
    ws = p1 * _log_ratio_over_x(spn) * (ch.eta.T @ sv.reshape(3, -1)).reshape(s.shape)
    wt = p2 * _log_ratio_over_x(tpn) * (ch.eta.T @ tv.reshape(3, -1)).reshape(t.shape)
    hs = binary_entropy_arr((1.0 + spn) / 2.0)
    ht = binary_entropy_arr((1.0 + tpn) / 2.0)

    # ds/dtheta = sg / dp^2 (cp (ct + cg), -sp (ct + cg), -sg st), dt/dtheta
    # likewise with ct - cg over -dm^2, and d/dphi = (y, -x, 0) for both
    g_th = (
        (st * cg / 2.0) * (hs - ht)
        + sg / dp**2 * ((ct + cg) * (cp * ws[0] - sp * ws[1]) - sg * st * ws[2])
        - sg / dm**2 * ((ct - cg) * (cp * wt[0] - sp * wt[1]) - sg * st * wt[2])
    )
    g_ph = ws[0] * s[1] - ws[1] * s[0] + wt[0] * t[1] - wt[1] * t[0]
    return _scalar_or_array(g_th), _scalar_or_array(g_ph)


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
        safe = np.where(p > bloch.DEGENERATE_TOL, p, 1.0)
        return _weighted_entropy(p, np.sqrt(np.clip(1.0 - 4.0 * det / (safe * safe), 0.0, 1.0)))

    return _scalar_or_array(branch(a00, a01, a11) + branch(b00, b01, b11))


# ---------------------------------------------------------------------------
# stationary-point search
# ---------------------------------------------------------------------------

def _bisect_roots(f, x, fx):
    """Roots of f on the grid x, where fx = f(x): every sign change between
    neighbours, all bisected at once to machine precision (64 steps at
    most), and every grid point but the last where f is exactly zero.
    Sorted.

    One call of f serves BISECT_LEVELS steps of every bracket: it evaluates
    the midpoints of the next BISECT_LEVELS levels of each bracket's
    bisection tree, and the steps then follow one path down the tree, each
    keeping the half where f changes sign, as if its midpoint alone had been
    evaluated.  Bisection stops early once a step leaves every bracket as it
    was: each later step would repeat it."""
    exact = x[:-1][fx[:-1] == 0.0]
    k = np.flatnonzero(fx[:-1] * fx[1:] < 0.0)
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

    Roots are folded to canonical angles and verified to scaled gradient
    norm below STATIONARY_TOL.  A root within MERGE_TOL (measurement
    distance) of a point in ``kept`` is dropped; of roots within MERGE_TOL of
    each other, the best converged (smallest gradient norm) is kept.  The
    survivors come in (theta, phi) order, classified by their polar angle;
    ``sa`` is S(rho_a).
    """
    th, ph = bloch.normalize_angles(np.asarray(theta, float), np.asarray(phi, float))
    order = np.lexsort((ph, th))
    th, ph = th[order], ph[order]
    gt, gp = grad_objective(ch, gamma, th, ph)
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
    take.sort()
    obj = sa - conditional_entropy_channel(ch, gamma, th[take], ph[take])
    return list(kept) + [
        StationaryPoint(float(th[i]), float(ph[i]), float(o), float(gn[i]), _classify(th[i]))
        for i, o in zip(take, obj)
    ]


def universal_candidates(ch, gamma):
    """The stationary settings that exist for every state.

    Returns the polar candidate theta = 0, unverified, and the equatorial
    candidates theta = pi/2 at every azimuth where dJ/dphi vanishes, each
    verified with scaled gradient norm below 1e-7.
    """
    sa = output_marginal_entropy(ch, gamma)

    # polar candidate: dJ/dphi vanishes identically at theta = 0, while the
    # theta derivative there is A cos(phi) + B sin(phi); pick its zero.  The
    # azimuth is kept as found: folding would reset it to 0.
    (a, b), _ = grad_objective(ch, gamma, np.zeros(2), np.array([0.0, np.pi / 2]))
    phi0 = 0.0 if np.hypot(a, b) < 1e-11 else float(np.arctan2(-a, b)) % np.pi
    g0 = a * np.cos(phi0) + b * np.sin(phi0)
    obj0 = sa - conditional_entropy_channel(ch, gamma, 0.0, phi0)
    polar = StationaryPoint(0.0, phi0, obj0, abs(g0), ASYMMETRIC)

    # equatorial candidates: zeros of dJ/dphi along theta = pi/2
    def dphi(phi):
        return grad_objective(ch, gamma, np.full_like(phi, np.pi / 2), phi)[1]

    phis = np.linspace(0.0, np.pi, 1441)
    g = dphi(phis)
    roots = np.zeros(1) if np.max(np.abs(g)) < 1e-12 else _bisect_roots(dphi, phis, g)
    return _merge(ch, gamma, sa, np.full_like(roots, np.pi / 2), roots, [polar])


def _newton_batch(ch, gamma, th0, ph0):
    """Damped Newton on the gradient from many start points, batched over
    the starts still iterating.

    An iteration of a start takes a central-difference Jacobian, a Newton
    step, and a line search over alpha = 2**-k, k = 0, 1, ..., 49, that
    accepts the first k lowering the gradient norm.  Each gradient call
    serves every live start: the four stencil points in one call, the line
    search in one call per rung of HALVING_RUNGS, and the gradient at an
    accepted step is the next iteration's.  A start polishes down to the
    gradient floor: it leaves the batch only when its Jacobian is singular
    or not finite, no step length lowers its norm, it has taken
    NEWTON_POLISH_ITER iterations with its norm below NEWTON_TOL, or it has
    taken NEWTON_MAX_ITER iterations.  It is a root if its final gradient
    norm is below NEWTON_TOL, so a root does not depend on which start
    reached it.  Returns the roots, in start order.
    """
    th, ph = np.array(th0, float), np.array(ph0, float)
    g0, g1 = grad_objective(ch, gamma, th, ph)
    norm, live = np.hypot(g0, g1), np.arange(th.size)
    polish = np.zeros(th.size, int)
    h = NEWTON_FD_STEP
    for _ in range(NEWTON_MAX_ITER):
        polish[live] += norm[live] < NEWTON_TOL
        keep = polish[live] <= NEWTON_POLISH_ITER
        live, g0, g1 = live[keep], g0[keep], g1[keep]
        if not live.size:
            break

        t, p = th[live], ph[live]
        stencil = np.concatenate([t + h, t - h, t, t]), np.concatenate([p, p, p + h, p - h])
        s0, s1 = grad_objective(ch, gamma, *stencil)
        a0, b0, c0, d0 = np.split(s0, 4)
        a1, b1, c1, d1 = np.split(s1, 4)
        j00 = (a0 - b0) / (2 * h)
        j10 = (a1 - b1) / (2 * h)
        j01 = (c0 - d0) / (2 * h)
        j11 = (c1 - d1) / (2 * h)
        det = j00 * j11 - j01 * j10
        regular = (np.abs(det) >= 1e-30) & np.isfinite(det)
        safe = np.where(regular, det, 1.0)
        dth = -(j11 * g0 - j01 * g1) / safe
        dph = -(-j10 * g0 + j00 * g1) / safe

        # a start with a regular Jacobian takes the first k whose trial
        # lowers its gradient norm: the step that halving one at a time takes
        todo = np.flatnonzero(regular)
        keep = np.zeros(live.size, bool)
        k0 = 0
        for rung in HALVING_RUNGS:
            if not todo.size:
                break
            alpha = np.ldexp(1.0, -np.arange(k0, k0 + rung))[:, None]
            tt, pp = t[todo] + alpha * dth[todo], p[todo] + alpha * dph[todo]
            e0, e1 = (e.reshape(tt.shape) for e in grad_objective(ch, gamma, tt.ravel(), pp.ravel()))
            en = np.hypot(e0, e1)
            lower = np.isfinite(en) & (en < norm[live[todo]])
            hit = lower.any(axis=0)
            k, j, i = np.argmax(lower, axis=0)[hit], np.flatnonzero(hit), todo[hit]
            th[live[i]], ph[live[i]], norm[live[i]] = tt[k, j], pp[k, j], en[k, j]
            g0[i], g1[i] = e0[k, j], e1[k, j]
            keep[i] = True
            todo = todo[~hit]
            k0 += rung
        live, g0, g1 = live[keep], g0[keep], g1[keep]

    root = norm < NEWTON_TOL
    return th[root], ph[root]


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


def _landscape_seeds(ch, gamma):
    """Newton starts from one gradient scan on the landscape grid: the
    centre of every cell where both components strictly change sign among
    the cell's four corners."""
    th, ph = _landscape_grid()
    seed = True
    for g in grad_objective(ch, gamma, th, ph):
        corners = np.stack([g[:-1, :-1], g[1:, :-1], g[:-1, 1:], g[1:, 1:]])
        seed &= (corners.min(axis=0) < 0.0) & (corners.max(axis=0) > 0.0)
    return 0.5 * (th[:-1, :-1] + th[1:, 1:])[seed], 0.5 * (ph[:-1, :-1] + ph[1:, 1:])[seed]


def find_stationary_points(ch, gamma):
    """All stationary points of J: universal candidates plus Newton roots.

    One 25 x 49 grid over theta in [0, pi/2] and phi in [0, 2 pi] carries
    both landscape scans; the outcome-swap symmetry maps it onto the rest
    of the sphere.  Damped Newton runs from its cells where both gradient
    components change sign (:func:`_landscape_seeds`), batched over the
    starts still iterating.  Roots are folded to canonical angles, merged
    within an angle of 1e-5, verified to scaled gradient norm < 1e-7 and
    classified by their polar angle.  The scan of J on the same grid
    decides the degenerate cases below and guards against a missed root:
    if its best sample beats the best point found by more than
    OPTIMUM_TIE_TOL, Newton also runs from that sample.

    Degenerate landscapes are collapsed to representatives: a flat objective
    (constant channel) reports the single canonical point (pi/2, 0), and a
    phi-independent objective (xy-isotropic channel, where stationary points
    form circles) reports each circle once at phi = 0.
    """
    sa = output_marginal_entropy(ch, gamma)

    th_scan, ph_scan = _landscape_grid()
    ce_scan = conditional_entropy_channel(ch, gamma, th_scan, ph_scan)
    if float(np.ptp(ce_scan)) < 1e-12:
        obj = sa - float(ce_scan.mean())
        return [StationaryPoint(np.pi / 2, 0.0, obj, 0.0, SYMMETRIC)]
    if float(np.max(np.ptp(ce_scan, axis=1))) < 1e-11:
        pts = _stationary_points_1d(ch, gamma, sa)
    else:
        rth, rph = _newton_batch(ch, gamma, *_landscape_seeds(ch, gamma))
        pts = _merge(ch, gamma, sa, rth, rph, universal_candidates(ch, gamma))
    k = int(np.argmin(ce_scan))
    if sa - ce_scan.flat[k] > max(q.objective for q in pts) + OPTIMUM_TIE_TOL:
        rth, rph = _newton_batch(ch, gamma, th_scan.flat[[k]], ph_scan.flat[[k]])
        pts = _merge(ch, gamma, sa, rth, rph, pts)
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
