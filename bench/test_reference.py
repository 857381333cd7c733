"""Self-tests of the benchmark's reference evaluator and checks.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import corpus  # noqa: E402
import reference  # noqa: E402
from qdiscord import discord  # noqa: E402

BELL = corpus.bell_diagonal(1.0, -1.0, 1.0)  # |phi+><phi+|
PRODUCT = np.kron(np.diag([0.7, 0.3]), np.diag([0.4, 0.6])).astype(complex)


def reference_report(rho, theta, phi):
    ref = reference.Reference(rho)
    c = float(reference.j_ref(rho, theta, phi))
    return SimpleNamespace(
        mutual_info=ref.mutual_info, classical_corr=c, discord=ref.mutual_info - c, theta=theta, phi=phi
    )


def shifted(rep, dc):
    return SimpleNamespace(**dict(vars(rep), classical_corr=rep.classical_corr + dc, discord=rep.discord - dc))


def test_bell_state_has_unit_discord():
    rep = reference_report(BELL, 0.0, 0.0)
    assert rep.mutual_info == pytest.approx(2.0, abs=1e-12)
    assert rep.classical_corr == pytest.approx(1.0, abs=1e-12)
    assert rep.discord == pytest.approx(1.0, abs=1e-12)
    assert reference.Reference(BELL).coarse_max == pytest.approx(1.0, abs=1e-12)
    assert reference.luo_classical_corr(1.0, -1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_product_state_has_zero_discord():
    ref = reference.Reference(PRODUCT)
    assert ref.mutual_info == pytest.approx(0.0, abs=1e-12)
    assert ref.coarse_max == pytest.approx(0.0, abs=1e-12)
    assert reference_report(PRODUCT, 0.3, 1.1).discord == pytest.approx(0.0, abs=1e-12)


def test_j_ref_is_invariant_under_local_unitaries_on_a():
    rng = np.random.default_rng(3)
    rho = corpus.gaussian_state(rng, 3)
    copy = corpus.local_copy(rho, [3, 0])
    th, ph = rng.uniform(0, np.pi, 20), rng.uniform(0, 2 * np.pi, 20)
    np.testing.assert_allclose(reference.j_ref(copy, th, ph), reference.j_ref(rho, th, ph), atol=1e-13)


def test_luo_matches_the_reference_landscape():
    t = (0.5, -0.3, 0.2)
    rho = corpus.bell_diagonal(*t)
    tt, pp = np.meshgrid(np.linspace(0, np.pi / 2, 91), np.linspace(0, 2 * np.pi, 180), indexing="ij")
    assert reference.j_ref(rho, tt, pp).max() == pytest.approx(reference.luo_classical_corr(*t), abs=1e-12)


@pytest.mark.parametrize("rho, bell", [(BELL, (1.0, -1.0, 1.0)), (PRODUCT, None), (corpus.lu_example(), None)])
def test_program_reports_pass_every_check(rho, bell):
    ref = reference.Reference(rho)
    for method in ("stationary", "oracle"):
        assert ref.check(discord(rho, method=method), bell) == []


def test_every_check_fails_when_c_is_shifted_by_1e_6():
    bell = (1.0, -1.0, 1.0)
    rep = discord(BELL, method="stationary")  # C = 1 = S(rho_a) = S(rho_b), Q = 1
    ref = reference.Reference(BELL)
    up, down = ref.check(shifted(rep, 1e-6), bell), ref.check(shifted(rep, -1e-6), bell)
    assert {"j_ref_at_angles", "c_bound", "luo"} <= set(up)
    assert {"j_ref_at_angles", "below_coarse_max", "q_bounds", "luo"} <= set(down)

    prod = discord(PRODUCT, method="stationary")  # Q = 0
    assert "q_bounds" in reference.Reference(PRODUCT).check(shifted(prod, 1e-6))

    wrong_i = SimpleNamespace(**dict(vars(rep), mutual_info=rep.mutual_info + 1e-6))
    assert "mutual_info" in ref.check(wrong_i, bell)

    assert not reference.copies_agree(rep.discord, shifted(rep, 1e-6).discord)
    # the oracle cross-check has the looser 1e-6 tolerance of the acceptance
    # criteria, so a shift of exactly 1e-6 sits on its edge
    assert not reference.methods_agree(rep.discord, shifted(rep, 2e-6).discord)
    assert reference.methods_agree(rep.discord, shifted(rep, 0.5e-6).discord)


def test_reference_sample_sees_the_maximum_next_to_the_pole():
    # at eps = 1e-3 the maximum sits at theta ~ 7e-4, 5.3e-8 above the pole
    rho = corpus.near_singular(0)[0].rho
    pole = float(reference.j_ref(rho, 0.0, 0.0))
    assert reference.Reference(rho).coarse_max > pole + 5e-8


def test_shape_parameter_decides_the_closed_form_domain():
    rng = np.random.default_rng(11)
    seen = set()
    for n in range(300):
        rho = corpus.local_copy(corpus.random_x_state(rng), [11, n], x_pattern=True)
        expected = reference.closed_form_declines(reference.x_shape_parameter(rho))
        try:
            discord(rho, method="xstate_analytic")
            declined = False
        except ValueError:
            declined = True
        if expected is not None:
            assert declined == expected
            seen.add(declined)
    assert seen == {True, False}


def test_known_faults_excuse_only_the_documented_deficit():
    import run

    def op(failed, deficit):
        return run.Op(0, "stationary", None, 0.0, 0.0, failed=failed, deficit=deficit)

    assert run.known_fault("near_singular", "eps1e-03", op(["below_coarse_max"], 1.5e-7))
    assert run.known_fault("near_singular", "eps1e-04", op(["below_coarse_max"], 1.5e-9))
    assert not run.known_fault("near_singular", "eps1e-04", op(["below_coarse_max"], 1.5e-7))
    assert not run.known_fault("near_singular", "eps1e-03", op(["below_coarse_max", "q_bounds"], 1.5e-7))
    assert not run.known_fault("near_singular", "eps1e-03", op(["lu_copies"], 0.0))
    assert not run.known_fault("near_singular", "eps1e-05", op(["below_coarse_max"], 1e-12))
    assert not run.known_fault("random_mixed", "eps1e-03", op(["below_coarse_max"], 1.5e-7))
