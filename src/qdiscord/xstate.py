"""Closed-form discord for X states with a maximally mixed b marginal.

An X state (nonzero entries only on the diagonal and anti-diagonal) yields
a channel whose affine form is block structured: a 2x2 block in the xy
plane, a lone zz element eta_zz and a z shift c_z.  When the b marginal is
maximally mixed the conditional purities at the best azimuth are

    s'(theta), t'(theta) = hypot(eta_perp sin(theta), c_z +- eta_zz cos(theta))

with eta_perp^2 the block's top squared stretch (:func:`maximize_f`).  A
single shape parameter k = c / (b^2 - c a), from the expansion
s'^2 = a + 2 b cos(theta) + c cos(theta)^2, decides whether the polar and
equatorial settings are the only stationary points
(:func:`universal_sufficient`), whose comparison is then the discord.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bloch, choi
from .correlations import (
    ASYMMETRIC,
    SYMMETRIC,
    StationaryPoint,
    mutual_information,
    output_marginal_entropy,
    report_from_points,
)
from .qmat import binary_entropy_arr, density_state

#: Absolute magnitude below which an off-pattern entry still counts as zero.
X_PATTERN_TOL = 1e-10
#: Tolerance on the affine block structure of an extracted channel.
BLOCK_TOL = 1e-8
#: b^2 - c a below this is treated as degenerate (k undefined).
SHAPE_DEGENERATE_TOL = 1e-12

# entries that must vanish for the X pattern: all but both diagonals
_OFF_PATTERN = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


class NotApplicableError(ValueError):
    """The analytic X-state path does not cover this input."""


def is_x_state(rho):
    """True when all eight off-pattern entries of the 4x4 matrix ``rho``
    vanish to within :data:`X_PATTERN_TOL`; ValueError for another shape."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return bool(np.all(np.abs(rho[_OFF_PATTERN]) < X_PATTERN_TOL))


def _require_block_form(ch):
    off = np.concatenate((ch.eta[:2, 2], ch.eta[2, :2], ch.c[:2]))
    if np.abs(off).max() >= BLOCK_TOL:
        raise NotApplicableError("channel is not in X block form")


def f_phi(ch, phi):
    """Squared xy-plane stretch of the channel along azimuth ``phi``."""
    _require_block_form(ch)
    u = np.array([np.cos(phi), np.sin(phi)])
    return float(np.sum((ch.eta[:2, :2] @ u) ** 2))


def maximize_f(ch):
    """Exact maximum of :func:`f_phi` over the azimuth.

    With G = M^T M for the upper-left block M, f(phi) = F + H cos(2 phi)
    + g01 sin(2 phi), F = (g00 + g11) / 2 and H = (g00 - g11) / 2, so the
    maximum is F + R, R = hypot(H, g01), at phi* = atan2(g01, H) / 2 mod pi.
    The isotropic case (2 R below 1e-14) reports azimuth 0.  Returns
    (eta_perp_sq, phi_star).
    """
    _require_block_form(ch)
    m = ch.eta[:2, :2]
    (g00, g01), (_, g11) = m.T @ m
    h = (g00 - g11) / 2
    r = np.hypot(h, g01)
    phi_star = 0.0 if 2 * r < 1e-14 else float(np.arctan2(g01, h) / 2) % np.pi
    return float((g00 + g11) / 2 + r), phi_star


@dataclass
class XStateParams:
    """Reduced parameters of an X-block channel at maximal reference mixing."""

    eta_perp: float
    c_z: float
    eta_zz: float
    a: float
    b: float
    c: float
    k: float | None
    phi_star: float


def x_params(ch):
    """Extract :class:`XStateParams` from an X-block affine channel."""
    eta_perp_sq, phi_star = maximize_f(ch)
    eta_perp = np.sqrt(eta_perp_sq)
    c_z = float(ch.c[2])
    eta_zz = float(ch.eta[2, 2])
    a = eta_perp_sq + c_z**2
    b = eta_zz * c_z
    c = eta_zz**2 - eta_perp_sq
    denom = b * b - c * a
    k = None if abs(denom) < SHAPE_DEGENERATE_TOL else c / denom
    return XStateParams(eta_perp, c_z, eta_zz, a, b, c, k, phi_star)


def universal_sufficient(p):
    """True when k lies outside the gap (-1, -2/3), so the polar and
    equatorial candidates exhaust the stationary points.

    The degenerate case (k undefined because b^2 = c a) is accepted: there
    the optimum is a direct comparison of the same two candidates.
    """
    if p.k is None:
        return True
    return p.k >= -2.0 / 3.0 - 1e-12 or p.k <= -1.0 + 1e-12


def H_func(x, k):
    """(sqrt(1 + k x^2) / x) ln((1+x)/(1-x)) on 0 < x < 1: :func:`G_func`
    times the log ratio, with its checks.

    Strictly monotone exactly when k >= -2/3 or k <= -1; inside the gap it
    loses monotonicity, which is what permits extra stationary points.
    """
    return float(G_func(x, k) * np.log((1.0 + x) / (1.0 - x)))


def G_func(x, k):
    """sqrt(1 + k x^2) / x on 0 < x < 1; ValueError off that domain, for a
    non-finite k or where 1 + k x^2 is negative."""
    x, k = float(x), float(k)
    if not 0.0 < x < 1.0:
        raise ValueError(f"x = {x!r} outside (0, 1)")
    if not np.isfinite(k):
        raise ValueError(f"k = {k!r} is not finite")
    radicand = 1.0 + k * x * x
    if radicand < 0.0:
        raise ValueError(f"1 + k x^2 = {radicand:.3e} is negative")
    return float(np.sqrt(radicand) / x)


def closed_form_purities(p, theta):
    """(s', t') = hypot(eta_perp sin(theta), c_z +- eta_zz cos(theta)) at the
    optimal azimuth: sqrt(a +- 2 b cos(theta) + c cos(theta)^2) without its
    cancellation near a zero purity, and exactly |c_z +- eta_zz| at theta = 0."""
    st, ct = p.eta_perp * np.sin(theta), p.eta_zz * np.cos(theta)
    return float(np.hypot(st, p.c_z + ct)), float(np.hypot(st, p.c_z - ct))


def analytic_discord_x(rho):
    """Closed-form discord for qualifying X states.

    Requires the X entry pattern, a maximally mixed b marginal and
    :func:`universal_sufficient`; otherwise raises
    :class:`NotApplicableError` and the caller should use the stationary
    solver.  The classical correlation is the better of the two candidates:

    * equatorial: s' = t' = sqrt(a) at theta = pi/2, the best azimuth;
    * polar: s' = |c_z + eta_zz|, t' = |c_z - eta_zz| at theta = 0.

    Both are reported ``critical`` with ``grad_norm`` 0.0, in the
    decomposition frame, as stationary by symmetry: at the pole, the X block
    form gives J(theta, phi + pi) = J(theta, phi); on the equator, the I/2
    b marginal makes theta -> pi - theta a symmetry, and the azimuth
    maximizes J along the equator.  Ties resolve as in
    :func:`qdiscord.correlations.discord`.  ``rho`` may be a
    :class:`qdiscord.qmat.DensityState`.
    """
    state = density_state(rho)
    if not is_x_state(state.rho):
        raise NotApplicableError("state does not have the X entry pattern")
    if abs(state.b_vals[0] - state.b_vals[1]) >= 1e-10:
        raise NotApplicableError("b marginal is not maximally mixed")

    d = choi.decompose(state)
    ch = bloch.affine_from_kraus(d.kraus)
    params = x_params(ch)
    if not universal_sufficient(params):
        raise NotApplicableError(
            f"shape parameter k = {params.k:.6f} lies in the gap (-1, -2/3)"
        )

    info = mutual_information(state)
    sa = output_marginal_entropy(ch, d.gamma)

    # the equatorial purity s' = t', then the polar s' and t'
    purities = np.array([closed_form_purities(params, np.pi / 2)[0], *closed_form_purities(params, 0.0)])
    h_eq, h_s, h_t = binary_entropy_arr((1.0 + purities) / 2.0).tolist()
    obj_eq = sa - h_eq
    obj_pol = sa - 0.5 * (h_s + h_t)

    # the conditional direction rotates against the measurement azimuth, so
    # the objective peaks at the reflection of the f-maximizing azimuth
    phi_eq = (-params.phi_star) % np.pi
    candidates = [
        StationaryPoint(np.pi / 2, phi_eq, obj_eq, 0.0, SYMMETRIC),
        StationaryPoint(0.0, 0.0, obj_pol, 0.0, ASYMMETRIC),
    ]
    return report_from_points(info, candidates, d.basis_rotation, "xstate_analytic")
