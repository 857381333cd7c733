"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports the package under test, so a change to its state
catalog cannot change what the benchmark solves.

Every solve gets a fresh local-unitary copy (U (x) I) rho (U (x) I)^+ of its
base state, with U drawn from the run seed.  Discord, the optimal angles on
qubit b and the solver's work are all invariant under such a U, so repeats
cannot be served from a result cache, the solve time does not depend on U,
and agreement of Q across the copies is one more check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Construction seed of the random_mixed base states.  The base corpus is
#: fixed because per-state solve times span 77 ms to 3.9 s: a corpus of 40
#: states redrawn per seed moves the median and the throughput by far more
#: than any bound.  The run seed varies the local-unitary copies instead.
RANDOM_MIXED_SEED = 1000
RANDOM_MIXED_SIZE = 39
#: Construction seed of the full-rank admixture sigma in near_singular.
NEAR_SINGULAR_SIGMA_SEED = 7
NEAR_SINGULAR_EPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
XSTATE_RANDOM = 160
XSTATE_BELL = 40
#: Every XSTATE_ORACLE_STRIDE-th state is also solved by the oracle.
XSTATE_ORACLE_STRIDE = 20

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0 + 0j, -1.0])
I2 = np.eye(2, dtype=complex)


@dataclass
class State:
    """One base state of a workload and its solves per round."""

    label: str
    rho: np.ndarray
    bell: tuple | None = None  # (ex, ey, ez) for Bell-diagonal states
    copies: int = 1  # local copies solved by the workload's primary method
    oracle: int = 1  # local copies solved by the grid oracle


def gaussian_state(rng, rank):
    """G G^+ / Tr with a 4 x rank complex Gaussian G, b marginal full rank."""
    while True:
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rho_b = rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
        if np.linalg.eigvalsh(rho_b).min() >= 1e-6:
            return (rho + rho.conj().T) / 2


def lu_example():
    """The X state whose optimal measurement sits near theta = 0.155 pi."""
    m = np.diag([0.0783, 0.1250, 0.1250, 0.6717]).astype(complex)
    m[1, 2] = m[2, 1] = 0.1
    return m / np.trace(m).real


def bell_diagonal(ex, ey, ez):
    return (
        np.eye(4) + ex * np.kron(SX, SX) + ey * np.kron(SY, SY) + ez * np.kron(SZ, SZ)
    ) / 4


def random_x_state(rng):
    """X state with b marginal exactly I/2 and complex cross terms."""
    u, v = rng.uniform(0.05, 0.95, 2)
    d = np.array([u / 2, v / 2, (1 - u) / 2, (1 - v) / 2])
    r14 = rng.uniform(0, 0.95) * np.sqrt(d[0] * d[3]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    r23 = rng.uniform(0, 0.95) * np.sqrt(d[1] * d[2]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    m = np.diag(d.astype(complex))
    m[0, 3], m[3, 0] = r14, np.conj(r14)
    m[1, 2], m[2, 1] = r23, np.conj(r23)
    return m


def bell_triple(rng):
    """(ex, ey, ez) uniform in the Bell tetrahedron."""
    w = rng.dirichlet(np.ones(4))
    return (
        float(w[0] - w[1] + w[2] - w[3]),
        float(-w[0] + w[1] + w[2] - w[3]),
        float(w[0] + w[1] - w[2] - w[3]),
    )


def random_mixed(seed):
    """Fixed base states; the seed only varies their local copies.

    Two stationary copies of each state: the solver's work on one state
    varies by up to 60 % between copies.  Every fourth state has a second
    oracle copy, so the oracle's copy agreement is checked here too.
    """
    rng = np.random.default_rng(RANDOM_MIXED_SEED)
    states = [
        State(f"gauss{i}-rank{2 + i % 3}", gaussian_state(rng, 2 + i % 3), copies=2, oracle=1 + (i % 4 == 0))
        for i in range(RANDOM_MIXED_SIZE)
    ]
    return states + [State("lu", lu_example(), copies=2)]


def near_singular(seed):
    """Fixed base states; the seed only varies their local copies.

    The stationary solver takes 11-12 s on eps 1e-4 to 1e-6 and under 0.3 s
    on the other two, so only those two get a second stationary copy.  The
    oracle solves ten copies of each state for 40 samples, but none of
    eps = 1e-3: its grid finds the narrow maximum near the pole on only a
    few local copies, so its Q differs between copies by 5.3e-8 and it would
    fail now and then rather than on every run.
    """
    sigma = gaussian_state(np.random.default_rng(NEAR_SINGULAR_SIGMA_SEED), 4)
    base = np.kron(np.diag([0.6, 0.4]), np.diag([1.0, 0.0])).astype(complex)
    return [
        State(
            f"eps{eps:.0e}",
            (1 - eps) * base + eps * sigma,
            copies=1 + (eps in (1e-3, 1e-7)),
            oracle=0 if eps == 1e-3 else 10,
        )
        for eps in NEAR_SINGULAR_EPS
    ]


def xstate_closed_form(seed):
    """Base states drawn from the seed: their solve times are uniform.

    Five copies of each state by the closed form and of every
    XSTATE_ORACLE_STRIDE-th state by the oracle: a state's median drops the
    bursts of slow machine time that on 2 ms calls would set the tail, and
    the oracle's passes spread the closed form's over the round.
    """
    rng = np.random.default_rng([seed, 1])
    states = [State(f"x{i}", random_x_state(rng)) for i in range(XSTATE_RANDOM)]
    for i in range(XSTATE_BELL):
        t = bell_triple(rng)
        states.append(State(f"bell{i}", bell_diagonal(*t), bell=t))
    for i, s in enumerate(states):
        s.copies, s.oracle = 5, 5 * (i % XSTATE_ORACLE_STRIDE == 0)
    return states


def haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def x_preserving_unitary(rng):
    """diag(1, e^{i a}), times sigma_x half the time: keeps the X pattern."""
    u = np.diag([1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))])
    return SX @ u if rng.integers(2) else u


def local_copy(rho, seed_words, x_pattern=False):
    """(U (x) I) rho (U (x) I)^+ with U drawn from ``seed_words``."""
    rng = np.random.default_rng(seed_words)
    u = x_preserving_unitary(rng) if x_pattern else haar_unitary(rng)
    w = np.kron(u, I2)
    out = w @ rho @ w.conj().T
    return (out + out.conj().T) / 2
