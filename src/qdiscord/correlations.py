"""Classical correlation and quantum discord of a two-qubit state.

The measured mutual information

    J(theta, phi) = S(rho_a) - sum_j p_j S(rho_j)

is maximized over projective measurements on qubit b.  Two independent
evaluation paths are kept deliberately separate:

* the *channel* path evaluates J from the affine Bloch form of the channel
  extracted by :mod:`qdiscord.choi` (angles live in the decomposition frame),
  through one kernel that gives J, its gradient and its Hessian on the sphere;
* the *direct* path evaluates J from the state's own Pauli coefficients and
  never touches the decomposition (angles live in the original frame).

Each path maximizes J its own way: :func:`find_stationary_points` on the
channel path, the brute-force :func:`grid_oracle` on the direct path.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bloch, choi
from .qmat import I2, PAULIS, binary_entropy_arr, density_state, scalar_or_array, spectrum_entropy

LN2 = np.log(2.0)
#: Purities this close to 1 are clamped inside logarithms.
SATURATION_CLAMP = 1e-12
#: Scaled gradient norm required of a reported stationary point, times the solve's :func:`_tolerance_scale`.
STATIONARY_TOL = 1e-7
#: Raw gradient norm below which a Newton start counts as a root, times the solve's scale.
NEWTON_TOL = 1e-10
#: Landscape gradient norm from which a solve's zero-gradient tolerances are not scaled down.
GRAD_REF = 1e-2
#: Landscape scan grid, points per axis: theta in [0, pi/2] and phi in [0, 2 pi], ends included, plus
#: one theta row past the equator, the mirror of the row below it.
SEED_GRID = (25, 49)
#: Newton iterations per start, half steps included.
NEWTON_MAX_ITER = 100
#: The signs of T n in the two outcomes' p v = (a +- T n) / 2, one per row.
_OUTCOME_SIGNS = np.array([[1.0], [-1.0]])
#: Bisection steps per gradient call: it evaluates 2**8 - 1 evenly spaced interior points of each bracket.
BISECT_LEVELS = 8
#: Stationary points closer than this (measurement angle) are merged.
MERGE_TOL = 1e-5
#: Angular slack when classifying a root as polar/equatorial.
CLASSIFY_TOL = 1e-6
#: Points whose objectives are this close to the best count as tied optima.
OPTIMUM_TIE_TOL = 1e-14
#: Smallest (n_theta, n_phi) grid the oracle accepts.
ORACLE_MIN_GRID = (64, 128)
#: Oracle zoom: points per axis of the patch, rounds at most, and the factor
#: by which the patch shrinks (to the spacing of its own points).
ZOOM_POINTS = 13
ZOOM_ROUNDS = 15
ZOOM_SHRINK = 2.0 / (ZOOM_POINTS - 1)

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"
STATE_DEPENDENT = "state_dependent"


@dataclass
class StationaryPoint:
    """A measurement setting where both partial derivatives of J vanish.

    ``critical`` is False for a polar candidate that solves the (theta, phi)
    equations but is not a critical point of J on the sphere.  A
    ``grad_norm`` of 0.0 marks a point that is stationary by construction.
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
    basis of qubit b; ``stationary_points`` (filled by the stationary method
    and by the X-state closed form, empty for the oracle and for a state
    with a singular b marginal) are expressed in the decomposition frame.

    ``discord`` = I - C is not clamped at 0: I and C are entropy differences
    of order one bit, so where I is about 1e-9, Q carries their rounding.
    """

    mutual_info: float
    classical_corr: float
    discord: float
    theta: float
    phi: float
    method: str
    stationary_points: list = field(default_factory=list)


def mutual_information(rho):
    """S(rho_a) + S(rho_b) - S(rho_ab), in bits, from the spectra the
    state's :class:`qdiscord.qmat.DensityState` holds, in one entropy call."""
    sa, sb, sab = density_state(rho).entropies()
    return sa + sb - sab


# ---------------------------------------------------------------------------
# channel path
# ---------------------------------------------------------------------------

def output_marginal_entropy(ch, gamma):
    """S(rho_a) computed from the channel alone (image of the b marginal)."""
    return _output_entropy(bloch.outcome_form(ch, gamma))


def _output_entropy(form):
    """S(rho_a) from a channel's :func:`bloch.outcome_form` (cos gamma, a, T): a is rho_a's Bloch vector."""
    return float(binary_entropy_arr((1.0 + np.linalg.norm(form[1])) / 2.0))


def conditional_entropy_channel(ch, gamma, theta, phi):
    """sum_j p_j S(rho_j) through the affine channel form; angle arrays that broadcast together give an array."""
    form = bloch.outcome_form(ch, gamma)
    return scalar_or_array(_sphere_terms(form, *bloch.finite_angles(theta, phi), "entropy")[0])


def objective_channel(ch, gamma, theta, phi):
    """J(theta, phi) on the channel path, from one :func:`bloch.outcome_form`."""
    form, (th, ph) = bloch.outcome_form(ch, gamma), bloch.finite_angles(theta, phi)
    return scalar_or_array(_output_entropy(form) - _sphere_terms(form, th, ph, "entropy")[0])


def _log_ratio_over_x(x):
    """log2 sqrt((1+x)/(1-x)) / x of a float array, clamped below x = 1; its series below 1e-6, only at gamma ~ 0."""
    small = x < 1e-6
    xc = np.minimum(x, 1.0 - SATURATION_CLAMP)
    out = 0.5 * np.log2((1.0 + xc) / (1.0 - xc))
    return np.where(small, (1.0 + x * x / 3.0) / LN2, out / np.where(small, 1.0, x)) if small.any() else out / x


def grad_objective(ch, gamma, theta, phi):
    """Analytic gradient (dJ/dtheta, dJ/dphi) on the channel path; angle
    arrays that broadcast together give a pair of arrays."""
    th, ph = bloch.finite_angles(theta, phi)
    _, g_th, g_ph = _sphere_terms(bloch.outcome_form(ch, gamma), th, ph, "gradient")
    return scalar_or_array(g_th), scalar_or_array(np.sin(th) * g_ph)


def _sphere_terms(form, theta, phi, want):
    """The channel path's one kernel at angle arrays that broadcast together:
    (sum_j p_j S(rho_j), dJ/dtheta, dJ/dphi / sin theta), the gradient in
    the frame (e_theta, e_phi), e_phi = (-sin phi, cos phi, 0), defined at
    the pole too.  ``want`` is "entropy", "gradient" (the entropy is None)
    or "hessian" (the entropy is None, and the Hessian of J on the sphere,
    h_tt, h_tp, h_pp, follows, then n . grad J: the tangent block of the
    Hessian of J(n), n in R^3, minus n . grad J times the identity; Absil,
    Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
    ch. 5).  The gradient's bits do not depend on ``want``.

    ``form`` is the channel's :func:`bloch.outcome_form` (cos gamma, a, T):
    the outcomes' p v = (a +- T n) / 2, here m = 2 p.  An outcome's
    p H2((1 + r) / 2) depends on n through rho = |q|, q = a +- T n, and m
    only, homogeneously, so it adds +-[l (T x) . q / (2 m) + cos(gamma) x_z
    log2(1 - r**2) / 4] to the derivative of J along x, and
    [l (T^T T - T^T v v^T T) + g w w^T] / (2 m) to its ambient Hessian, with
    v = q / rho, r = rho / m, w = T^T v - r cos(gamma) e_z,
    l = log2 sqrt((1 + r) / (1 - r)) / r and g = 1 / ((1 - r**2) ln 2).
    r is clamped at 1 - SATURATION_CLAMP inside the logarithms, so the
    derivatives stay finite where the conditional states are pure; an
    outcome of probability below DEGENERATE_TOL, or pure, adds no entropy.
    """
    # trig before broadcasting: a scan along one angle takes the other's once
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    trig = np.sin(theta), np.cos(theta), np.cos(phi), np.sin(phi)
    if theta.shape != phi.shape:
        trig = np.broadcast_arrays(*trig)
    shape = trig[0].shape
    st, ct, cp, sp = (y.ravel() for y in trig)
    cg, a, t = form
    # the frame n, e_theta, e_phi as (component, vector, point), and its image under T
    frame = np.array([[st * cp, ct * cp, -sp], [st * sp, ct * sp, cp], [ct, -st, 0.0 * st]])
    tf = (t @ frame.reshape(3, -1)).reshape(frame.shape)
    # (outcome, component, point), then (outcome, vector, point) for the
    # vectors J is differentiated along: e_theta, e_phi, and n for the Hessian
    q = a[:, None] + _OUTCOME_SIGNS[:, None] * tf[:, 0]
    x = slice(0 if want == "hessian" else 1, 3)
    # summed by component: a (2, 3, 2, n) product would pass glibc's mmap threshold on the wide scans
    k = q[:, 0, None] * tf[0, x] + q[:, 1, None] * tf[1, x] + q[:, 2, None] * tf[2, x]
    rho = np.sqrt(np.add.reduce(q * q, axis=1))
    two_p = 1.0 + _OUTCOME_SIGNS * (cg * ct)
    m = np.maximum(two_p, bloch.DEGENERATE_TOL)
    r = rho / m
    s = 1.0 - np.minimum(r, 1.0 - SATURATION_CLAMP) ** 2
    lam = _log_ratio_over_x(r) / (2.0 * m)
    # the derivatives along those vectors, whose z components are frame[2]
    *ng, g_th, g_ph = np.subtract(*(lam[:, None] * k + (0.25 * cg * frame[2, x]) * np.log2(s)[:, None]))
    out = None, g_th, g_ph
    if want == "hessian":
        # (T^T v) and w along e_theta and e_phi, as (outcome, vector, point)
        u = k[:, 1:] / np.maximum(rho, sys.float_info.min)[:, None]
        w = u.copy()
        w[:, 0] += (cg * st) * r
        mu = 1.0 / (2.0 * LN2 * m * s)
        gram = np.add.reduce(tf[:, 1:, None] * tf[:, None, 1:])
        lw, lu = (mu[:, None] * w)[:, :, None] * w[:, None], (lam[:, None] * u)[:, :, None] * u[:, None]
        block = gram * (lam[0] + lam[1]) + np.add.reduce(lw - lu)
        out += block[0, 0] - ng[0], block[0, 1], block[1, 1] - ng[0], ng[0]
    if want == "entropy":
        e = np.where(two_p > 2.0 * bloch.DEGENERATE_TOL, 0.5 * two_p * binary_entropy_arr((1.0 + r) / 2.0), 0.0)
        out = e[0] + e[1], g_th, g_ph
    return out if len(shape) == 1 else tuple(y if y is None else y.reshape(shape) for y in out)


# ---------------------------------------------------------------------------
# direct path
# ---------------------------------------------------------------------------

def conditional_entropy_direct(rho, theta, phi):
    """sum_j p_j S(rho_j) of the state itself, measured on qubit b in the
    original basis, without the channel decomposition (:func:`_direct_entropy`).

    Angle arrays that broadcast together give an array; a non-finite angle
    raises ValueError.  ``rho`` may be a :class:`qdiscord.qmat.DensityState`.
    """
    return scalar_or_array(_direct_entropy(_pauli_table(density_state(rho).rho), *bloch.finite_angles(theta, phi)))


def _pauli_table(rho):
    """The real 4 x 4 table c_ij = tr rho (s_i (x) s_j), s = (I, sigma_x, sigma_y, sigma_z): row 0 holds
    b's Bloch vector, column 0 a's, and the 3 x 3 block the correlation matrix R."""
    s = np.concatenate([I2[None], PAULIS])
    return np.einsum("ilk,jnm,kmln->ij", s, s, np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)).real


def _direct_entropy(c, theta, phi):
    """sum_j p_j S(rho_j) from the Pauli table ``c`` at angle arrays that broadcast together: measuring b
    along n with the effects (I + s n . sigma) / 2, s = +-1, gives 2 p = 1 + s b . n and conditional Bloch
    vectors (a + s R n) / (2 p) (Luo, PRA 77, 042303 (2008)); an outcome with p <= DEGENERATE_TOL adds no
    entropy.  Both outcomes in one pass, stacked along a leading axis: c + (-1) y rounds as c - y."""
    c, st = c.tolist(), np.sin(theta)
    n = st * np.cos(phi), st * np.sin(phi), np.cos(theta)
    # b . n, then R n: row i of c against n
    y = [c[i][1] * n[0] + c[i][2] * n[1] + c[i][3] * n[2] for i in range(4)]
    s = np.array([1.0, -1.0]).reshape(2, *[1] * np.ndim(y[0]))
    p = 0.5 * (c[0][0] + s * y[0])
    live = p > bloch.DEGENERATE_TOL
    q = np.sqrt((c[1][0] + s * y[1]) ** 2 + (c[2][0] + s * y[2]) ** 2 + (c[3][0] + s * y[3]) ** 2)
    e = np.where(live, p * binary_entropy_arr((1.0 + q / np.where(live, 2.0 * p, 1.0)) / 2.0), 0.0)
    return e[0] + e[1]


# ---------------------------------------------------------------------------
# stationary-point search
# ---------------------------------------------------------------------------

def _bisect_roots(f, x, fx):
    """Roots of f on the grid x, where fx = f(x), sorted: every sign change
    between neighbours, each bracketed down to machine precision, and every
    grid point but the last where f is exactly zero.

    Each call of f evaluates 2**BISECT_LEVELS - 1 evenly spaced interior
    points of every bracket, which then moves to the first of the cells
    between them whose ends change sign or hold a zero of f.  The search
    stops once no interior point differs from its bracket's ends, or after
    64 // BISECT_LEVELS calls; a root is its last bracket's midpoint."""
    exact = x[:-1][fx[:-1] == 0.0]
    k = np.flatnonzero(fx[:-1] * fx[1:] < 0.0)
    lo, hi, s = x[k], x[k + 1], np.sign(fx[k])
    u = np.arange(2**BISECT_LEVELS)[:, None] / 2**BISECT_LEVELS
    for _ in range(64 // BISECT_LEVELS):
        e = np.vstack([lo + u * (hi - lo), hi])
        if np.all((e == lo) | (e == hi)):
            break
        # f keeps the sign s at lo, and -s stands for f at hi
        fe = np.vstack([f(e[1:-1].ravel()).reshape(-1, lo.size), -s])
        i = np.argmax(s * fe <= 0.0, axis=0)
        lo, hi = e[[i, i + 1], np.arange(lo.size)]
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


def _merge(form, sa, theta, phi, kept=(), scale=1.0):
    """``kept`` followed by the stationary points at the roots (theta, phi), angles that broadcast together.

    Roots are folded to canonical angles and verified: scaled gradient norm
    below STATIONARY_TOL times ``scale``, the solve's
    :func:`_tolerance_scale`.  A root within MERGE_TOL (measurement
    distance) of a ``critical`` point in ``kept``, or of a better converged
    root (smaller gradient norm), is dropped.  The survivors come in
    (theta, phi) order, classified by their polar angle; ``form`` is the
    channel's :func:`bloch.outcome_form`, ``sa`` is S(rho_a).
    """
    th, ph = bloch.normalize_angles(*np.broadcast_arrays(theta, phi))
    order = np.lexsort((ph, th))
    th, ph = th[order], ph[order]
    ce, gt, gp = _sphere_terms(form, th, ph, "entropy")
    # the scaled norm hypot(dJ/dtheta, sin theta dJ/dphi), dJ/dphi = sin theta gp
    gn = np.hypot(gt, np.sin(th) * (np.sin(th) * gp))
    # unit vectors of the critical kept points, then of the roots, as (component, point)
    crit = np.reshape([(q.theta, q.phi) for q in kept if q.critical], (-1, 2))
    n = bloch.angles_to_direction(np.concatenate((crit[:, 0], th)), np.concatenate((crit[:, 1], ph)))
    near = bloch.direction_distance(n[:, :, None], n[:, None, len(crit) :]) < MERGE_TOL
    free = (gn < STATIONARY_TOL * scale) & ~near[: len(crit)].any(axis=0)
    take = []
    for r in np.argsort(gn, kind="stable").tolist():
        if free[r]:
            take.append(r)
            free[near[len(crit) + r]] = False
    rows = np.stack((th, ph, sa - ce, gn))[:, sorted(take)].T.tolist()
    return list(kept) + [StationaryPoint(t, p, objective, g, _classify(t)) for t, p, objective, g in rows]


def _polar_candidate(sa, terms, tol):
    """The polar candidate theta = 0 from the kernel's ``terms`` (entropy, A, B) at the point (0, 0), where
    the frame is (e_x, e_y); ``critical`` when hypot(A, B) is below ``tol``."""
    ce, a, b = map(float, terms)
    # dJ/dtheta at the pole is A cos(phi) + B sin(phi): pick its zero, unfolded (folding would reset it to 0)
    phi0 = 0.0 if np.hypot(a, b) < 1e-11 else float(np.arctan2(-a, b)) % np.pi
    g0 = a * np.cos(phi0) + b * np.sin(phi0)
    return StationaryPoint(0.0, phi0, sa - ce, abs(g0), ASYMMETRIC, bool(np.hypot(a, b) < tol))


def universal_candidates(ch, gamma):
    """The stationary settings that exist for every state (Ali, Rau & Alber,
    PRA 81, 042105 (2010)).

    Returns the polar candidate theta = 0, unverified, and the equatorial
    candidates theta = pi/2 at every sign change of dJ/dphi on 1441 points
    of the equator, bisected and verified by :func:`_merge`.  The polar
    candidate solves the (theta, phi) equations by construction, so its
    ``grad_norm`` is ~0 whatever the state; it is ``critical`` only when the
    pole is a critical point of J on the sphere.  An independent reference:
    :func:`find_stationary_points` does not call it.
    """
    form = bloch.outcome_form(ch, gamma)
    sa = _output_entropy(form)

    def dphi(phi):
        return _sphere_terms(form, np.pi / 2, phi, "gradient")[2]

    # one call scans the equator and evaluates the pole (0, 0), its last point
    phis = np.linspace(0.0, np.pi, 1441)
    th = np.append(np.full_like(phis, np.pi / 2), 0.0)
    ce, gt, gp = _sphere_terms(form, th, np.append(phis, 0.0), "entropy")
    polar, gp = _polar_candidate(sa, (ce[-1], gt[-1], gp[-1]), STATIONARY_TOL), gp[:-1]
    roots = np.zeros(1) if np.max(np.abs(gp)) < 1e-12 else _bisect_roots(dphi, phis, gp)
    return _merge(form, sa, np.full_like(roots, np.pi / 2), roots, [polar])


def _newton_batch(form, th0, ph0, scale=1.0):
    """Damped Newton on the sphere from many starts, batched over the
    starts still iterating; returns the roots, in start order.

    Each iteration evaluates the trial points (n + alpha xi) / |n + alpha xi|,
    xi the Newton step of the kernel's Hessian on the sphere and alpha a step
    factor per start, in one :func:`_sphere_terms` call.  A trial that lowers
    the gradient norm is taken and resets alpha to 1; backtracking (Nocedal &
    Wright, Numerical Optimization, 2006, sec. 3.1) retries a rejected full
    step at alpha = 1/2, and a rejected half step ends the start.  It stops in
    the pass that sees its norm below tol = NEWTON_TOL * ``scale``, moving by
    xi unevaluated when xi is shorter than MERGE_TOL: Newton converges
    quadratically (sec. 3.3), and :func:`_merge` verifies the point; a longer
    xi (on a circle or flat floor of J, whose Hessian is rounding noise) leaves
    it in place.  A singular or non-finite Hessian and NEWTON_MAX_ITER
    iterations end it too; it is a root if its norm is then below tol.
    """
    th, ph, tol = np.asarray(th0, float), np.asarray(ph0, float), NEWTON_TOL * scale
    # one column per start: theta, phi, the gradient norm, the kernel's terms and the step factor alpha
    state = np.array((th, ph, th, *_sphere_terms(form, th, ph, "hessian")[1:6], np.ones(th.size)))
    state[2], live = np.hypot(state[3], state[4]), np.arange(th.size)
    for _ in range(NEWTON_MAX_ITER):
        t0, p0, norm, gt, gp, htt, htp, hpp, alpha = state[:, live]
        det = htt * hpp - htp * htp
        regular = (np.abs(det) >= 1e-30) & np.isfinite(det)
        safe = np.where(regular, det, 1.0)
        xt = (htp * gp - hpp * gt) / safe
        xp = (htp * gt - htt * gp) / safe
        last = regular & (norm < tol) & (np.hypot(xt, xp) < MERGE_TOL)
        st, ct = np.sin(t0), np.cos(t0)

        # n + alpha xi along (cos phi, sin phi, 0), e_phi and z; atan2 keeps theta accurate at the pole
        out, across = st + alpha * (xt * ct), alpha * xp
        tt = np.arctan2(np.hypot(out, across), ct - alpha * (xt * st))
        pp = p0 + np.arctan2(across, out)
        state[:2, live[last]] = tt[last], pp[last]
        moves = regular & (norm >= tol) & (alpha > 0.25)
        live, tt, pp, alpha, norm = live[moves], tt[moves], pp[moves], alpha[moves], norm[moves]
        if not live.size:
            break

        trial = np.array((tt, pp, tt, *_sphere_terms(form, tt, pp, "hessian")[1:6], np.ones(tt.size)))
        trial[2] = np.hypot(trial[3], trial[4])
        # a norm that is not finite is never lower; alpha halves, or resets to 1 with the trial taken
        lower = trial[2] < norm
        state[8, live] = 0.5 * alpha
        state[:, live[lower]] = trial[:, lower]

    root = state[2] < tol
    return state[0, root], state[1, root]


def index_sum(ch, gamma, points):
    """Sum of sign det Hess J over the critical points among ``points``.

    J(n) = J(-n), so grad J is a vector field on the projective plane,
    whose Euler characteristic is 1: by Poincare-Hopf, a list that holds
    every critical point of J, each nondegenerate, sums to 1 (Milnor,
    Topology from the Differentiable Viewpoint, 1965).  A missed root of
    index +-1 shows as a sum of 0 or 2; a missed pair of opposite index
    cancels.  Points that are not ``critical`` do not count.

    Returns None when some determinant is below (1e-4 s)**2, s the largest
    Hessian entry, or below (64 eps t)**2, t the largest of the Hessian
    entries and n . grad J (det's rounding on flat pure-state landscapes
    reaches (21 eps t)**2): a degenerate point (flat and phi-independent
    landscapes, stationary circles) has no index.
    """
    crit = [q for q in points if q.critical]
    if not crit:
        return None
    t, p = np.array([[q.theta, q.phi] for q in crit]).T
    terms = np.array(_sphere_terms(bloch.outcome_form(ch, gamma), t, p, "hessian")[3:])
    det = terms[0] * terms[2] - terms[1] ** 2
    floor = max(1e-4 * np.max(np.abs(terms[:3])), 64 * np.finfo(float).eps * np.max(np.abs(terms)))
    if np.any(np.abs(det) < floor**2):
        return None
    return int(np.sum(np.sign(det)))


@functools.cache
def _landscape_grid():
    """(theta, phi) meshes of the SEED_GRID and one theta row past the equator, pi - theta[-2], built once,
    read-only; the outcome swap maps them onto the sphere.  With that row, theta = pi/2 lies inside the
    grid's last band of cells, which seed the equatorial critical points like any others."""
    th, ph = np.linspace(0.0, np.pi / 2, SEED_GRID[0]), np.linspace(0.0, 2 * np.pi, SEED_GRID[1])
    th, shape = np.append(th, np.pi - th[-2]), (SEED_GRID[0] + 1, SEED_GRID[1])
    return np.broadcast_to(th[:, None], shape), np.broadcast_to(ph, shape)


def _landscape_seeds(th, ph, grad):
    """Newton starts from the gradient scan ``grad`` = (dJ/dtheta, dJ/dphi)
    on the landscape grid (th, ph): every common zero of the two components'
    bilinear interpolants inside a cell, the way vector-field topology
    locates the critical points of a sampled 2-D field (Helman & Hesselink,
    IEEE Computer 22(8), 1989); up to two per cell.  Only cells where both
    components have a corner <= 0 and one >= 0 are solved: an interpolant
    is a convex combination of its cell's corners.

    On the unit cell (u along theta, v along phi) each component is
    a + b u + c v + d u v.  Eliminating v = -(a + b u) / (c + d u) between
    them leaves A u**2 + B u + C = 0, solved in the stable form u = q / A,
    C / q with q = -(B + sign(B) sqrt(B**2 - 4 A C)) / 2, which also holds
    for A ~ 0 (the root q / A then leaves the cell).  v comes from the
    component whose denominator c + d u is the larger in magnitude.

    Zeros at theta = 0, where dJ/dphi vanishes along the cell edge, are
    dropped: the pole is the polar candidate's.  Zeros on the equator or
    past it are kept: Newton converges them, and the merge folds them."""
    g = np.stack(grad)
    # a corner <= 0, then a corner >= 0, of each component: any along theta, then along phi
    s = np.concatenate((g <= 0.0, g >= 0.0))
    s = s[:, :-1] | s[:, 1:]
    s = s[:, :, :-1] | s[:, :, 1:]
    i, j = np.nonzero(s[0] & s[1] & s[2] & s[3])
    # axes: component, then the cells with a sign change; u and v add the two roots in u as a leading axis
    g00, g10, g01, g11 = g[:, i, j], g[:, i + 1, j], g[:, i, j + 1], g[:, i + 1, j + 1]
    a, b, c, d = g00, g10 - g00, g01 - g00, g11 - g10 - g01 + g00
    qa = b[1] * d[0] - b[0] * d[1]
    qb = a[1] * d[0] + b[1] * c[0] - a[0] * d[1] - b[0] * c[1]
    qc = a[1] * c[0] - a[0] * c[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        u = np.stack([q / qa, qc / q])
        num, den = a[:, None] + b[:, None] * u, c[:, None] + d[:, None] * u
        v = -np.where(np.abs(den[0]) >= np.abs(den[1]), num[0] / den[0], num[1] / den[1])
    # the starts in cell order, then root order within a cell
    n, r = np.nonzero(((u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (v <= 1.0)).T)
    i, j, th, ph = i[n], j[n], th[:, 0], ph[0]
    t, p = th[i] + u[r, n] * (th[i + 1] - th[i]), ph[j] + v[r, n] * (ph[j + 1] - ph[j])
    return t[t > 0.0], p[t > 0.0]


def _tolerance_scale(th, gt, g_ph):
    """min(1, G / GRAD_REF), G the largest :func:`_merge` gradient norm of a scan at theta ``th``: ``gt`` is
    dJ/dtheta, ``g_ph`` dJ/dphi, sin theta times the kernel's third term.  It is 1 without the norms once
    some |dJ/dtheta|, a lower bound of its point's norm, reaches GRAD_REF, as on general landscapes."""
    if np.max(np.abs(gt)) >= GRAD_REF:
        return 1.0
    return min(1.0, float(np.max(np.hypot(gt, np.sin(th) * g_ph))) / GRAD_REF)


def find_stationary_points(ch, gamma):
    """All stationary points of J: the polar candidate and the roots off the pole.

    One kernel call scans J and its gradient on :func:`_landscape_grid`;
    that scan serves the flatness and phi-independence checks, the polar
    candidate (its point (0, 0)) and the starts.  A flat objective (constant
    channel) reports the single canonical point (pi/2, 0).  Otherwise:

    * in general, one :func:`_newton_batch` from the :func:`_landscape_seeds`
      and from the scan's best sample when no seed lies within a grid step
      of it: it reaches maxima too narrow for the scan to seed, while beside
      a seed it would only repeat that seed's root.  The first row of cells
      starts once, at the pole with its first start's phi: those cells are
      wedges, whose bilinear zeros land far from the roots beside the pole
      (the narrow maximum at theta ~ 1e-3 or less when rho_b is near rank
      one) and would crawl to them one call a step, while Newton on the
      sphere steps from the pole as from any other point;
    * on a phi-independent objective (xy-isotropic channel: no theta row of
      the scan varies by 1e-11 s or more), whose stationary points form
      circles about z that Newton cannot converge along, bisection of
      dJ/dtheta on the scan's meridian phi = 0, plus the equator (pi/2, 0);
      each circle is reported once, at phi = 0.  J is even about the pole
      and the equator, so J''(0) and -J''(pi/2) are the signs of dJ/dtheta
      just inside them, and close the meridian's end cells.

    Either way the roots go through one :func:`_merge` against the polar
    candidate, with s = :func:`_tolerance_scale` of the scan, which also
    scales the polar candidate's ``critical`` test.
    """
    form = bloch.outcome_form(ch, gamma)
    sa = _output_entropy(form)

    th_scan, ph_scan = _landscape_grid()
    ce_scan, gt_scan, gp_scan = _sphere_terms(form, th_scan[:, :1], ph_scan[:1], "entropy")
    hi, lo = ce_scan.max(axis=1), ce_scan.min(axis=1)
    if float(hi.max() - lo.min()) < 1e-12:
        # the objective at the reported point, the scan's own (pi/2, 0)
        return [StationaryPoint(np.pi / 2, 0.0, sa - float(ce_scan[-2, 0]), 0.0, SYMMETRIC)]
    gph_scan = np.sin(th_scan[:, :1]) * gp_scan
    scale = _tolerance_scale(th_scan[:, :1], gt_scan, gph_scan)
    if float((hi - lo).max()) < 1e-11 * scale:
        def dtheta(theta):
            return _sphere_terms(form, theta, 0.0, "gradient")[1]

        h = _sphere_terms(form, np.array([0.0, np.pi / 2]), np.zeros(2), "hessian")[3]
        fx = np.concatenate([h[:1], gt_scan[1 : SEED_GRID[0] - 1, 0], -h[1:]])
        th, ph = np.append(_bisect_roots(dtheta, th_scan[: SEED_GRID[0], 0], fx), np.pi / 2), 0.0
    else:
        th, ph = _landscape_seeds(th_scan, ph_scan, (gt_scan, gph_scan))
        i, j = divmod(int(np.argmin(ce_scan)), SEED_GRID[1])
        dp = np.abs(ph - ph_scan[i, j])
        near = (np.abs(th - th_scan[i, j]) <= th_scan[1, 0]) & (np.minimum(dp, 2 * np.pi - dp) <= ph_scan[0, 1])
        if not near.any():
            th, ph = np.append(th, th_scan[i, j]), np.append(ph, ph_scan[i, j])
        cap = th < th_scan[1, 0]
        keep = ~cap | (np.cumsum(cap) == 1)
        th, ph = _newton_batch(form, np.where(cap, 0.0, th)[keep], ph[keep], scale)
    polar = _polar_candidate(sa, (ce_scan[0, 0], gt_scan[0, 0], gp_scan[0, 0]), STATIONARY_TOL * scale)
    return sorted(_merge(form, sa, th, ph, [polar], scale), key=_point_key)


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def check_oracle_resolution(*grid):
    """Raise ValueError unless the oracle grid is two integers (n_theta, n_phi) of at least ORACLE_MIN_GRID."""
    min_theta, min_phi = ORACLE_MIN_GRID
    integral = len(grid) == 2 and all(isinstance(n, (int, np.integer)) for n in grid)
    if not integral or grid[0] < min_theta or grid[1] < min_phi:
        raise ValueError(f"oracle grid must be two integers of at least {min_theta} x {min_phi}, got {grid}")


def grid_oracle(rho, n_theta=64, n_phi=128):
    """Brute-force maximization of J over the measurement angles.

    J(n) = J(-n) (the outcomes swap), so of the n_theta x n_phi grid (theta in
    [0, pi], phi in [0, 2 pi)) only the rows with theta <= pi/2 go to
    :func:`_direct_entropy`: for even n_phi they hold every measurement of the
    grid, for odd n_phi they sample the hemisphere at the same spacing.  They
    go in blocks of whole rows of at most 64 x 128 (outcome, point) values,
    one row at least (the default grid is one block), keeping every temporary
    under glibc's 128 KiB mmap threshold; then the zoom.  Each round evaluates
    a ZOOM_POINTS x ZOOM_POINTS patch around the incumbent, one grid cell wide
    at first, clipped to theta in [0, pi].  The patch shrinks to the spacing
    of its own points while the incumbent stays inside it, and moves with the
    incumbent when that lands on its edge, where the maximum may lie beyond.
    The zoom ends after ZOOM_ROUNDS rounds, or at a round that would shrink a
    patch whose values span no more than 16 eps: a heuristic stop, not a bound
    on the evaluator's rounding.  Never below the maximum over those rows;
    ties resolve to the smallest theta, then the smallest phi.  ``rho`` may be
    a :class:`qdiscord.qmat.DensityState`.  Returns (C, (theta, phi)): C and
    the optimal angles in the original basis, canonically folded.
    """
    check_oracle_resolution(n_theta, n_phi)
    state = density_state(rho)
    sa = spectrum_entropy(state.a_vals)

    c = _pauli_table(state.rho)
    th = np.linspace(0.0, np.pi, n_theta)[: (n_theta + 1) // 2]
    ph = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    rows, fv = max(1, ORACLE_MIN_GRID[0] * ORACLE_MIN_GRID[1] // (2 * n_phi)), np.inf
    for k in range(0, th.size, rows):
        ce = _direct_entropy(c, th[k : k + rows, None], ph)
        i, j = divmod(int(ce.argmin()), ce.shape[1])
        if ce[i, j] < fv:
            t, p, fv = float(th[k + i]), float(ph[j]), float(ce[i, j])

    wt, wp = np.pi / (n_theta - 1), 2 * np.pi / n_phi
    steps = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    for _ in range(ZOOM_ROUNDS):
        pt = np.minimum(np.maximum(t + wt * steps, 0.0), np.pi)
        pq = p + wp * steps
        ce = _direct_entropy(c, pt[:, None], pq)
        i, j = divmod(int(ce.argmin()), ce.shape[1])
        if ce[i, j] < fv:
            t, p, fv = float(pt[i]), float(pq[j]), float(ce[i, j])
            if j in (0, ZOOM_POINTS - 1) or (i in (0, ZOOM_POINTS - 1) and 0.0 < t < np.pi):
                continue
        if ce.max() - ce.min() <= 16 * np.finfo(float).eps:
            break
        wt, wp = wt * ZOOM_SHRINK, wp * ZOOM_SHRINK

    t, p = bloch.normalize_angles(t, p)
    return sa - fv, (t, p)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def report_from_points(info, points, basis_rotation, method):
    """The :class:`DiscordReport` of the channel path's candidate points.

    ``points`` are :class:`StationaryPoint` in the decomposition frame of
    ``basis_rotation``.  The optimum is the first of the points within
    OPTIMUM_TIE_TOL of the best objective by (not critical, theta, phi);
    C is its objective, and its angles are folded into the original frame
    of qubit b.  The report lists the points best objective first.
    """
    pts = sorted(points, key=_point_key)
    best = min(
        (q for q in pts if q.objective >= pts[0].objective - OPTIMUM_TIE_TOL),
        key=lambda q: (not q.critical, q.theta, q.phi),
    )
    theta, phi = bloch.fold_angles(basis_rotation, best.theta, best.phi)
    return DiscordReport(info, best.objective, info - best.objective, theta, phi, method, pts)


def discord(rho, method="stationary", oracle_resolution=(64, 128)):
    """Mutual information, classical correlation and discord of a state.

    ``rho`` is a two-qubit density matrix or a
    :class:`qdiscord.qmat.DensityState`.  ``method`` is ``"stationary"``
    (channel decomposition + stationary-point search), ``"oracle"`` (direct
    grid maximization on ``oracle_resolution``) or ``"xstate_analytic"``
    (closed form; raises ``NotApplicableError`` off its domain).

    Both channel-path methods pick the optimum by the one rule of
    :func:`report_from_points` (ties within 1e-14), so tied optima, such as
    the polar and equatorial settings of a Bell-diagonal state with two
    equal largest |c_i|, resolve alike whichever method found them.  A
    state whose b marginal is numerically pure is a product state with zero
    correlations; once the method and the oracle resolution are checked, it
    short-circuits to C = I and Q = 0 without a decomposition.
    """
    if method not in ("stationary", "oracle", "xstate_analytic"):
        raise ValueError(f"unknown method {method!r}")
    if method == "oracle":
        check_oracle_resolution(*oracle_resolution)
    state = density_state(rho)
    singular = state.b_vals[-1] <= choi.RANK_TOL
    if method == "xstate_analytic" and not singular:
        from .xstate import analytic_discord_x

        return analytic_discord_x(state)

    info = mutual_information(state)
    if singular:
        return DiscordReport(info, info, 0.0, np.pi / 2, 0.0, method)

    if method == "oracle":
        corr, (theta, phi) = grid_oracle(state, *oracle_resolution)
        return DiscordReport(info, corr, info - corr, theta, phi, method)

    d = choi.decompose(state)
    pts = find_stationary_points(bloch.affine_from_kraus(d.kraus), d.gamma)
    return report_from_points(info, pts, d.basis_rotation, method)
