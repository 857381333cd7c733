"""Physical invariants of the discord on random states, checked with
hypothesis for both the stationary solver and the grid oracle.

* 0 <= Q <= S(rho_b);
* C <= min(S(rho_a), S(rho_b));
* Q = 0 on classical-quantum states sum_i p_i rho_i (x) |e_i><e_i|;
* the analytic gradient of J matches central differences next to the pole
  and the equator too.

Bounds as in Modi et al., Rev. Mod. Phys. 84, 1655 (2012).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord.bloch import affine_from_kraus, conditional_purities
from qdiscord.choi import decompose
from qdiscord.correlations import discord, grad_objective, objective_channel
from qdiscord.qmat import partial_trace_a, partial_trace_b, von_neumann_entropy
from qdiscord.states import random_state
from util import random_unitary

TOL = 1e-8
METHODS = pytest.mark.parametrize("method", ["stationary", "oracle"])
SETTINGS = settings(max_examples=8, deadline=None, derandomize=True)


def qubit_state(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def classical_quantum_state(seed):
    """sum_i p_i rho_i (x) |e_i><e_i| with a random basis {e_i} of qubit b."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.95)
    u = random_unitary(rng)
    rho = np.zeros((4, 4), dtype=complex)
    for w, i in ((p, 0), (1 - p, 1)):
        e = u[:, i]
        rho += w * np.kron(qubit_state(rng), np.outer(e, e.conj()))
    return rho


@METHODS
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_discord_bounds(method, seed, rank):
    rho = random_state(seed, rank)
    rep = discord(rho, method=method)
    sa = von_neumann_entropy(partial_trace_b(rho))
    sb = von_neumann_entropy(partial_trace_a(rho))
    assert -TOL <= rep.discord <= sb + TOL
    assert rep.classical_corr <= min(sa, sb) + TOL


@METHODS
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_discord_vanishes_on_classical_quantum_states(method, seed):
    rep = discord(classical_quantum_state(seed), method=method)
    assert abs(rep.discord) < TOL


#: Polar-angle bands next to the pole and on both sides of the equator.
EDGE_BANDS = ((1e-3, 0.05), (np.pi / 2 - 0.05, np.pi / 2), (np.pi / 2, np.pi / 2 + 0.05))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(2, 4))
def test_gradient_matches_finite_differences_at_the_edges(seed, rank):
    # as criterion 05, which samples theta in [0.02, pi - 0.02] only:
    # saturated and stationary points are skipped
    d = decompose(random_state(seed, rank))
    ch = affine_from_kraus(d.kraus)
    rng = np.random.default_rng(seed)
    h = 1e-6

    def objective(th, ph):
        return objective_channel(ch, d.gamma, th, ph)

    for lo, hi in EDGE_BANDS:
        for th, ph in zip(rng.uniform(lo, hi, 20), rng.uniform(0, 2 * np.pi, 20)):
            if max(conditional_purities(ch, d.gamma, th, ph)[:2]) > 0.995:
                continue
            ft = (objective(th + h, ph) - objective(th - h, ph)) / (2 * h)
            fp = (objective(th, ph + h) - objective(th, ph - h)) / (2 * h)
            if np.hypot(ft, fp) < 1e-6:
                continue
            gt, gp = grad_objective(ch, d.gamma, th, ph)
            assert np.hypot(gt - ft, gp - fp) / np.hypot(ft, fp) < 1e-5
