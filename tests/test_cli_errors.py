"""Error paths of the command line: a method off its domain, a malformed
option value and a state parameter that is not finite or does not parse."""

import pytest

from qdiscord.cli import main

#: An X state with a maximally mixed b marginal whose shape parameter
#: k = -0.9137 lies in the closed form's gap (-1, -2/3).
GAP_STATE = "x:0.19,0.06,0.31,0.44,0.11,0.04"


def test_xstate_analytic_in_the_gap_exits_3(capsys):
    code = main(["discord", "--state", GAP_STATE, "--method", "xstate-analytic"])
    captured = capsys.readouterr()
    assert code == 3
    assert "k = -0.913689" in captured.err
    assert captured.out == ""


def test_xstate_analytic_in_the_gap_falls_back(capsys):
    code = main(["discord", "--state", GAP_STATE, "--method", "xstate-analytic", "--fallback"])
    out = capsys.readouterr().out
    assert code == 0
    assert "falling back" in out
    assert "method: stationary" in out


@pytest.mark.parametrize("grid", ["64xabc", "big", "64x128x2"])
def test_non_numeric_grid_is_usage_error(capsys, grid):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--state", "lu", "--grid", grid])
    assert exc.value.code == 2
    assert "grid must look like 64x128" in capsys.readouterr().err


@pytest.mark.parametrize(
    "state, named",
    [
        ("bell-diag:nan,0,0", "bell_diagonal parameter ex = nan"),
        ("x:0.25,0.25,0.25,0.25,inf,0", "x_state parameter r14 = inf"),
        # a token that does not parse is named the same way
        ("x:1,2,3,4,5,six", "x_state parameter r23 = 'six' is not a number"),
        ("random:1.5", "random_state parameter seed = '1.5' is not a non-negative integer"),
        ("random:-1", "random_state parameter seed = '-1' is not a non-negative integer"),
        ("random:7,two", "random_state parameter rank = 'two' is not a non-negative integer"),
    ],
    ids=["bell-diag-nan", "x-inf", "x-word", "random-fraction", "random-negative", "random-rank-word"],
)
def test_non_finite_state_parameter_exits_2_and_names_it(capsys, state, named):
    code = main(["discord", "--state", state])
    captured = capsys.readouterr()
    assert code == 2
    assert named in captured.err
    assert captured.out == ""
