import re

import numpy as np
import pytest

from qdiscord.cli import main
from qdiscord.qmat import binary_entropy
from qdiscord.states import lu_state, serialize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(pattern, text):
    m = re.search(pattern, text)
    assert m is not None, f"{pattern!r} not found in:\n{text}"
    return m


def test_discord_lu_with_verify(capsys):
    code, out, _ = run(
        capsys, "discord", "--state", "lu", "--method", "stationary", "--verify"
    )
    assert code == 0
    theta = float(grab(r"optimal theta = ([-\d.]+) pi", out).group(1))
    assert abs(theta - 0.155) < 0.005
    delta = float(grab(r"verify: \|dQ\| vs oracle\(64x128\) = ([\d.e+-]+)", out).group(1))
    assert delta < 1e-6


def test_discord_bell_diagonal_value(capsys):
    code, out, _ = run(capsys, "discord", "--state", "bell-diag:0.5,-0.3,0.2")
    assert code == 0
    c = float(grab(r"C = ([-\d.]+)", out).group(1))
    assert abs(c - (1 - binary_entropy(0.75))) < 1e-8


def test_discord_product_state_file(capsys, tmp_path):
    rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
    path = tmp_path / "product.dm"
    path.write_text(serialize(rho))
    code, out, _ = run(capsys, "discord", "--file", str(path))
    assert code == 0
    assert "Q = 0.000000000" in out


def test_discord_xstate_analytic_not_applicable(capsys):
    code, _, err = run(capsys, "discord", "--state", "lu", "--method", "xstate-analytic")
    assert code == 3
    assert "not maximally mixed" in err


def test_discord_xstate_analytic_with_fallback(capsys):
    code, out, _ = run(
        capsys, "discord", "--state", "lu", "--method", "xstate-analytic", "--fallback"
    )
    assert code == 0
    assert "falling back" in out
    assert "method: stationary" in out


def test_discord_xstate_analytic_applicable(capsys):
    code, out, _ = run(
        capsys, "discord", "--state", "bell-diag:0.5,-0.3,0.2", "--method", "xstate-analytic"
    )
    assert code == 0
    assert "method: xstate_analytic" in out


def test_exit_code_bad_file(capsys, tmp_path):
    path = tmp_path / "broken.dm"
    path.write_text("not a matrix\n")
    code, _, err = run(capsys, "discord", "--file", str(path))
    assert code == 2
    assert "error" in err


def test_exit_code_bad_family(capsys):
    code, _, err = run(capsys, "discord", "--state", "ghz")
    assert code == 2
    assert "unknown state family" in err


def test_exit_code_infeasible_bell(capsys):
    code, _, err = run(capsys, "discord", "--state", "bell-diag:0.9,0.7,0.5")
    assert code == 2
    assert "tetrahedron" in err


def test_stationary_lu_rows(capsys):
    code, out, _ = run(capsys, "stationary", "--state", "lu")
    assert code == 0
    rows = [l for l in out.splitlines() if re.match(r"\s*(symmetric|asymmetric|state_dependent)", l)]
    assert len(rows) == 3
    kinds = {r.split()[0] for r in rows}
    assert kinds == {"symmetric", "asymmetric", "state_dependent"}
    # sorted by objective, best first
    objectives = [float(r.split()[3]) for r in rows]
    assert objectives == sorted(objectives, reverse=True)
    assert rows[0].split()[0] == "state_dependent"


def test_stationary_bell_diagonal_rows(capsys):
    code, out, _ = run(capsys, "stationary", "--state", "bell-diag:0.7,-0.5,0.3")
    assert code == 0
    rows = [l for l in out.splitlines() if re.match(r"\s*(symmetric|asymmetric)", l)]
    assert rows
    for r in rows:
        theta = float(r.split()[1])
        assert abs(theta) < 1e-6 or abs(theta - 0.5) < 1e-6


def test_stationary_flat_objective(capsys):
    code, out, _ = run(capsys, "stationary", "--state", "werner:1")
    assert code == 0
    rows = [l for l in out.splitlines() if re.match(r"\s*(symmetric|asymmetric|state_dependent)", l)]
    assert len(rows) == 1
    assert float(rows[0].split()[1]) == pytest.approx(0.5)


def test_stationary_critical_column_and_index_sum(capsys):
    code, out, _ = run(capsys, "stationary", "--state", "random:1003")
    assert code == 0
    rows = [l.split() for l in out.splitlines() if re.match(r"\s*(symmetric|asymmetric|state_dependent)", l)]
    # the polar candidate of this state solves the (theta, phi) equations
    # but is not a critical point of J
    assert [(r[0], r[-1]) for r in rows] == [
        ("state_dependent", "yes"),
        ("asymmetric", "no"),
        ("state_dependent", "yes"),
        ("state_dependent", "yes"),
    ]
    assert grab(r"index sum: (\S+)", out).group(1) == "1"


@pytest.mark.parametrize("state", ["werner:1", "werner:0.8", "werner:0.3", "lu"])
def test_stationary_index_sum_not_applicable(capsys, state):
    # flat and phi-independent landscapes have no isolated critical points
    code, out, _ = run(capsys, "stationary", "--state", state)
    assert code == 0
    assert "index sum: n/a" in out


def test_stationary_singular_marginal(capsys, tmp_path):
    rho = np.kron(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])).astype(complex)
    path = tmp_path / "pureb.dm"
    path.write_text(serialize(rho))
    code, out, err = run(capsys, "stationary", "--file", str(path))
    assert code == 0
    assert "singular marginal" in err
    assert "discord is 0" in out


def test_sweep_format_and_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--state", "lu", "--grid", "64x128")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,phi,cond_entropy,objective"
    assert len(lines) == 1 + 64 * 128
    # global maximum of the objective lands within one grid cell of the
    # interior optimum (after folding theta across the equator)
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    k = int(np.argmax(data[:, 3]))
    theta = data[k, 0]
    theta = min(theta, np.pi - theta)
    assert abs(theta - 0.155 * np.pi) < np.pi / 63 + 1e-12
    # theta-outer row-major ordering
    assert np.all(np.diff(data[:, 0]) >= -1e-15)


def test_sweep_pure_entangled_zero_entropy(capsys):
    code, out, _ = run(capsys, "sweep", "--state", "werner:1", "--grid", "64x128")
    assert code == 0
    data = np.array(
        [[float(x) for x in l.split(",")] for l in out.strip().splitlines()[1:]]
    )
    assert np.abs(data[:, 2]).max() < 1e-12


def test_sweep_deterministic_and_file_output(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--state", "random:3", "--output", str(path))
    assert code == 0
    first = path.read_text()
    run(capsys, "sweep", "--state", "random:3", "--output", str(path))
    assert path.read_text() == first
    assert "\r" not in first


def test_channel_lu_output(capsys):
    code, out, _ = run(capsys, "channel", "--state", "lu")
    assert code == 0
    assert "gamma =" in out
    res = float(grab(r"reconstruction residual = ([\d.e+-]+)", out).group(1))
    assert res < 1e-10
    comp = float(grab(r"kraus completeness residual = ([\d.e+-]+)", out).group(1))
    assert comp < 1e-10
    fid = float(grab(r"channel fidelity F = ([\d.]+)", out).group(1))
    assert 0.0 <= fid <= 1.0


def test_channel_pure_entangled_identity(capsys):
    code, out, _ = run(capsys, "channel", "--state", "werner:1")
    assert code == 0
    assert "kraus operators: 1" in out
    assert float(grab(r"gamma = ([\d.]+) pi", out).group(1)) == pytest.approx(0.5)


def test_channel_generic_product_state(capsys, tmp_path):
    # full-rank b marginal: the channel exists and is the constant map
    rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
    path = tmp_path / "product.dm"
    path.write_text(serialize(rho))
    code, out, _ = run(capsys, "channel", "--file", str(path))
    assert code == 0
    eta_rows = [
        [float(x) for x in l.split()] for l in out.splitlines() if l.startswith("  +") or l.startswith("  -")
    ]
    assert np.abs(np.array(eta_rows)).max() < 1e-10


def test_channel_singular_marginal(capsys, tmp_path):
    rho = np.kron(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])).astype(complex)
    path = tmp_path / "pureb.dm"
    path.write_text(serialize(rho))
    code, out, _ = run(capsys, "channel", "--file", str(path))
    assert code == 0
    assert "singular marginal" in out
    assert "discord is 0" in out


def test_state_and_file_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["discord", "--state", "lu", "--file", "x.dm"])


@pytest.mark.parametrize(
    "argv",
    [
        ("discord", "--state", "lu", "--method", "oracle", "--grid", "32x64"),
        ("sweep", "--state", "lu", "--grid", "0x5"),
        ("sweep", "--state", "lu", "--grid", "5x-1"),
    ],
)
def test_bad_grid_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--grid" in err
    assert "invalid state" not in err


def test_stationary_method_ignores_oracle_grid(capsys):
    code, out, _ = run(capsys, "discord", "--state", "lu", "--grid", "32x64")
    assert code == 0
    assert "method: stationary" in out


def test_sweep_small_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--state", "lu", "--grid", "1x3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3
    assert all(l.startswith("0,") for l in lines[1:])
