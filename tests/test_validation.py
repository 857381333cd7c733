"""Every public entry point that takes a state validates it, once per call.

A :class:`qdiscord.qmat.DensityState` is the one validation a solve makes;
the public functions accept one in place of the matrix and skip the checks
it has passed.
"""

import numpy as np
import pytest

from qdiscord.choi import decompose
from qdiscord.correlations import conditional_entropy_direct, discord, grid_oracle, mutual_information
from qdiscord.qmat import (
    I4,
    DensityState,
    density_state,
    herm_eig,
    partial_trace_a,
    partial_trace_b,
    spectrum_entropy,
    von_neumann_entropy,
)
from qdiscord.states import bell_diagonal, lu_state
from qdiscord.xstate import analytic_discord_x

#: Invalid inputs and the message each is refused with.
INVALID = {
    "wrong_shape": (np.eye(3) / 3, "4x4"),
    "nan": (np.where(np.eye(4, k=1) > 0, np.nan, I4 / 4), "NaN or Inf"),
    "non_hermitian": (I4 / 4 + 1e-6 * 1j * (np.eye(4) - np.diag([2, 0, 0, 0])), "Hermitian"),
    "trace": (I4 / 2, "trace"),
    "not_psd": (np.diag([0.6, 0.5, -0.05, -0.05]), "positive semidefinite"),
}

#: The public functions that take a state.
ENTRY_POINTS = {
    "discord_stationary": lambda rho: discord(rho, method="stationary"),
    "discord_oracle": lambda rho: discord(rho, method="oracle"),
    "discord_xstate_analytic": lambda rho: discord(rho, method="xstate_analytic"),
    "mutual_information": mutual_information,
    "decompose": decompose,
    "analytic_discord_x": analytic_discord_x,
    "grid_oracle": grid_oracle,
    "conditional_entropy_direct": lambda rho: conditional_entropy_direct(rho, 0.3, 1.1),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("case", list(INVALID))
def test_public_entry_points_refuse_an_invalid_state(entry, case):
    # the closed form's NotApplicableError is a ValueError too: the message
    # tells the validation's refusal from it
    rho, message = INVALID[case]
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](rho)


def test_density_state_keeps_what_validation_computed_read_only():
    rho = lu_state().copy()
    state = density_state(rho)
    assert density_state(state) is state
    np.testing.assert_array_equal(state.spectrum, np.linalg.eigvalsh((rho + rho.conj().T) / 2))
    for got, want in zip((state.b_vals, state.b_vecs), herm_eig(partial_trace_a(rho))):
        np.testing.assert_array_equal(got, want)
    # a copy: the caller's matrix may change afterwards
    rho[0, 0] = 5.0
    assert state.rho[0, 0] != 5.0
    for arr in (state.rho, state.spectrum, state.b_vals, state.b_vecs):
        assert not arr.flags.writeable


def test_density_state_keeps_rho_a_spectrum_as_von_neumann_entropy_reads_it():
    # I and the oracle read S(rho_a) from this spectrum: its bits are those
    # von_neumann_entropy(partial_trace_b(rho)) computes
    rho = lu_state()
    state = density_state(rho)
    rho_a = partial_trace_b(rho)
    np.testing.assert_array_equal(state.a_vals, np.linalg.eigvalsh((rho_a + rho_a.conj().T) / 2))
    assert not state.a_vals.flags.writeable
    want = von_neumann_entropy(rho_a) + spectrum_entropy(state.b_vals) - spectrum_entropy(state.spectrum)
    assert mutual_information(state) == want


def test_density_state_diagonalises_rho_a_on_first_read_only(monkeypatch):
    # the channel decomposition of a raw matrix and a refused closed form
    # never read S(rho_a), so they skip its eigvalsh; the first read of
    # a_vals makes it, once, and keeps the spectrum read-only
    rho, calls = lu_state(), []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    decompose(rho)
    with pytest.raises(ValueError):
        analytic_discord_x(rho)
    # one each: the validation's spectrum
    assert len(calls) == 2
    state = density_state(rho)
    first = state.a_vals
    assert len(calls) == 4 and state.a_vals is first and not first.flags.writeable


@pytest.mark.parametrize("rho", [lu_state(), bell_diagonal(0.7, -0.5, 0.3)], ids=["lu", "bell_diagonal"])
def test_a_density_state_gives_the_bits_of_its_matrix(rho):
    state = DensityState(rho)
    for method in ("stationary", "oracle", "xstate_analytic"):
        try:
            want = discord(rho, method=method)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                discord(state, method=method)
            continue
        assert discord(state, method=method) == want
    assert mutual_information(state) == mutual_information(rho)
    assert grid_oracle(state) == grid_oracle(rho)
    a, b = decompose(state), decompose(rho)
    assert a.gamma == b.gamma
    np.testing.assert_array_equal(a.lambdas, b.lambdas)
