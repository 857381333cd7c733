"""Bloch-sphere picture of qubit states, channels and measurements.

A single-qubit state is rho = (I + r.sigma)/2 with a real vector r of norm
<= 1.  A trace-preserving channel acts on Bloch vectors as the affine map
r -> eta r + c with a real 3x3 matrix eta and a shift c.

The projective measurement on qubit b is parametrized by polar/azimuthal
angles (theta, phi), the unit vector n.  Each outcome leaves qubit a in the
channel's image of the reference state's conditional state, and
:func:`outcome_form` writes both as one affine form in n: p v = (a +- T n)
/ 2, whose length over p ("purity") drives the conditional entropy.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import atan2, cos, isfinite, pi, sin

import numpy as np

from .choi import apply_channel
from .qmat import I2, PAULIS, scalar_or_array

#: Outcome probabilities below this are degenerate, in both discord paths:
#: scalar APIs raise, vector paths zero the branch.
DEGENERATE_TOL = 1e-14


class DegenerateOutcomeError(ValueError):
    """A measurement outcome has (numerically) zero probability."""


def to_bloch(rho):
    """Bloch vector r_k = Tr(rho sigma_k) of a 2x2 Hermitian matrix, or of
    each matrix in a stack of shape (..., 2, 2), giving shape (..., 3)."""
    return np.real(np.einsum("kij,...ji->...k", PAULIS, np.asarray(rho, dtype=complex)))


def from_bloch(r):
    """State (I + r.sigma)/2 for a real 3-vector r, or for each vector in a
    stack of shape (..., 3), giving shape (..., 2, 2)."""
    return (I2 + np.tensordot(np.asarray(r, dtype=float), PAULIS, axes=1)) / 2


@dataclass(eq=False)
class AffineChannel:
    """Affine Bloch action r -> eta r + c of a trace-preserving channel."""

    eta: np.ndarray
    c: np.ndarray

    def __call__(self, r):
        """Image of a Bloch vector, or of an array of them along axis 0."""
        r = np.asarray(r, dtype=float)
        return (self.eta @ r.reshape(3, -1)).reshape(r.shape) + np.reshape(self.c, (3,) + (1,) * (r.ndim - 1))


def affine_from_kraus(kraus):
    """Affine form of a Kraus channel.

    Columns of eta are the Bloch images of the Pauli inputs,
    eta[j, i] = Tr(sigma_j eps(sigma_i)) / 2, and c is the Bloch vector of
    eps(I)/2, so ``to_bloch(apply_channel(k, rho)) == eta @ to_bloch(rho) + c``.
    """
    r = to_bloch(apply_channel(kraus, np.concatenate([I2[None], PAULIS]))) / 2
    # C order: a transposed view would change the summation order, and so
    # the last bits, of every matmul with eta in the solver
    return AffineChannel(eta=np.ascontiguousarray(r[1:].T), c=r[0])


def conditional_probabilities(gamma, theta):
    """Outcome probabilities ((1+cos th cos g)/2, (1-cos th cos g)/2); ValueError on a non-finite angle."""
    if not np.isfinite(gamma).all():
        raise ValueError("the reference angle gamma must be finite")
    x = np.cos(finite_angles(theta, 0.0)[0]) * np.cos(gamma)
    return 0.5 * (1.0 + x), 0.5 * (1.0 - x)


def outcome_form(ch, gamma):
    """(cos gamma, a, T) of the two outcomes' conditional states through the
    channel ``ch`` at the reference angle ``gamma``: outcome +-1 of the
    measurement along n has probability p = (1 +- cos(gamma) n_z) / 2 and
    Bloch vector v with p v = (a +- T n) / 2, where a = cos(gamma) eta e_z
    + c is the Bloch vector of rho_a and T = eta diag(sin gamma,
    -sin gamma, 1) + cos(gamma) c e_z^T.  The -sin gamma holds because the
    conditional amplitudes carry exp(-i phi), which keeps the channel path
    equal to the direct projection.  ValueError unless gamma and the
    channel's eta and c are finite."""
    if not (np.isfinite(gamma).all() and np.isfinite(ch.eta).all() and np.isfinite(ch.c).all()):
        raise ValueError("the reference angle gamma and the channel's eta and c must be finite")
    sg, cg = np.sin(gamma), np.cos(gamma)
    a, t = cg * ch.eta[:, 2] + ch.c, ch.eta * np.array([sg, -sg, 1.0])
    t[:, 2] += cg * ch.c
    return cg, a, t


def conditional_purities(ch, gamma, theta, phi):
    """Post-channel purities and probabilities (|v1|, |v2|, p1, p2) of the
    :func:`outcome_form`.  Raises :class:`DegenerateOutcomeError` when one
    outcome probability vanishes (theta ~ 0 together with gamma ~ 0), where
    its state is undefined; ValueError on a non-finite angle."""
    p = conditional_probabilities(gamma, theta)
    if min(p) < DEGENERATE_TOL:
        raise DegenerateOutcomeError(f"outcome probability {min(p):.3e} below {DEGENERATE_TOL:.0e}")
    _, a, t = outcome_form(ch, gamma)
    tn = t @ angles_to_direction(theta, phi)
    return float(np.linalg.norm(a + tn) / (2.0 * p[0])), float(np.linalg.norm(a - tn) / (2.0 * p[1])), *p


# measurement-direction helpers ------------------------------------------------

def finite_angles(theta, phi):
    """The measurement angles as float arrays; ValueError unless every one is finite."""
    th, ph = np.asarray(theta, float), np.asarray(phi, float)
    if not (np.isfinite(th).all() and np.isfinite(ph).all()):
        raise ValueError("measurement angles must be finite")
    return th, ph


def angles_to_direction(theta, phi):
    """Unit vector (sin th cos ph, sin th sin ph, cos th); a non-finite
    angle raises ValueError."""
    theta, phi = finite_angles(theta, phi)
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def fold_angles(v, theta, phi):
    """Measurement angles in the original b frame, given angles in the frame
    rotated by the 2x2 unitary ``v`` (projectors P -> v^+ P v).

    The spinor psi = (cos th/2, e^{i ph} sin th/2) goes through v^+ itself,
    and atan2 reads th' back: arccos of a Bloch z component would round
    every th' below 1.3e-8 to 0.  One angle pair, folded on Python scalars;
    a non-finite angle raises ValueError.
    """
    theta, phi = float(theta), float(phi)
    if not (isfinite(theta) and isfinite(phi)):
        raise ValueError("measurement angles must be finite")
    (v00, v01), (v10, v11) = v.tolist()
    c, s = cos(theta / 2), cmath.exp(1j * phi) * sin(theta / 2)
    u0, u1 = v00.conjugate() * c + v10.conjugate() * s, v01.conjugate() * c + v11.conjugate() * s
    return normalize_angles(2.0 * atan2(abs(u1), abs(u0)), cmath.phase(u1 * u0.conjugate()))


def normalize_angles(theta, phi):
    """Canonical angles for a projective measurement.

    The pairs (theta, phi) and (pi - theta, phi + pi) label the same
    measurement with outcomes swapped; the canonical member has theta in
    [0, pi/2], phi in [0, pi) on the equator (theta within 1e-12 of pi/2)
    and phi = 0 at the pole.  Arrays fold elementwise; scalars come back as
    floats.  A non-finite angle raises ValueError.
    """
    if np.ndim(theta) == 0 and np.ndim(phi) == 0:
        theta, phi = float(theta), float(phi)
        if not (isfinite(theta) and isfinite(phi)):
            raise ValueError("measurement angles must be finite")
        pick = _pick_float
    else:
        theta, phi = finite_angles(theta, phi)
        pick = np.where
    theta = theta % (2 * pi)
    over = theta > pi
    theta = pick(over, 2 * pi - theta, theta)
    flip = theta > pi / 2 + 1e-12
    theta = pick(flip, pi - theta, theta)
    phi = (phi + pi * over + pi * flip) % (2 * pi)
    phi = pick(abs(theta - pi / 2) <= 1e-12, phi % pi, phi)
    return theta, pick(theta <= 1e-15, 0.0, phi)


def _pick_float(cond, a, b):
    """``np.where`` for one float: ``a`` if ``cond``, else ``b``."""
    return a if cond else b


def measurement_distance(a1, a2):
    """Angle between two projective measurements, folding the outcome swap.

    Arguments are (theta, phi) pairs, of scalars or of arrays that broadcast
    together; the result is in [0, pi/2], a float for scalars.  A
    non-finite angle raises ValueError.
    """
    t1, p1, t2, p2 = np.broadcast_arrays(*a1, *a2)
    return scalar_or_array(direction_distance(angles_to_direction(t1, p1), angles_to_direction(t2, p2)))


def direction_distance(n1, n2):
    """:func:`measurement_distance` between the unit vectors ``n1`` and ``n2``, component axis first, arrays that
    broadcast together: 2 arcsin(c / 2) of the chord c = min(|n1 - n2|, |n1 + n2|)."""
    d, s = n1 - n2, n1 + n2
    return 2.0 * np.arcsin(np.minimum(np.sqrt(np.minimum(np.add.reduce(d * d), np.add.reduce(s * s))) / 2.0, 1.0))
