"""Physical invariants of the discord on random states, checked with
hypothesis for both the stationary solver and the grid oracle.

* 0 <= Q <= S(rho_b);
* C <= min(S(rho_a), S(rho_b));
* Q = 0 on classical-quantum states sum_i p_i rho_i (x) |e_i><e_i|.

Bounds as in Modi et al., Rev. Mod. Phys. 84, 1655 (2012).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord.correlations import discord
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
