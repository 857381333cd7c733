import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord.qmat import I2, I4, check_density_matrix, partial_trace_a, partial_trace_b, von_neumann_entropy
from qdiscord.states import (
    bell_diagonal,
    lu_state,
    parse,
    random_state,
    resolve,
    serialize,
    werner,
    x_state,
)
from qdiscord.xstate import is_x_state


def test_lu_state_unit_trace_and_pattern():
    lu = lu_state()
    assert abs(np.trace(lu).real - 1.0) < 1e-15
    assert is_x_state(lu)
    check_density_matrix(lu)
    assert np.linalg.eigvalsh(lu).min() >= 0.0


def test_lu_state_entries():
    lu = lu_state()
    assert_allclose(np.diag(lu).real, [0.0783, 0.1250, 0.1250, 0.6717])
    assert abs(lu[1, 2] - 0.1) < 1e-15


def test_bell_diagonal_trivial():
    assert_allclose(bell_diagonal(0, 0, 0), I4 / 4)


def test_bell_diagonal_pure_bell_state():
    rho = bell_diagonal(1.0, -1.0, 1.0)
    vals = np.linalg.eigvalsh(rho)
    assert_allclose(sorted(vals, reverse=True), [1, 0, 0, 0], atol=1e-12)
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert abs(phi.conj() @ rho @ phi - 1.0) < 1e-12


def test_bell_diagonal_marginals_maximally_mixed():
    rho = bell_diagonal(0.7, -0.5, 0.3)
    assert_allclose(partial_trace_a(rho), I2 / 2, atol=1e-15)
    assert_allclose(partial_trace_b(rho), I2 / 2, atol=1e-15)


@pytest.mark.parametrize("triple", [(0.9, 0.7, 0.5), (0.9, -0.7, 0.5), (1.1, 0, 0)])
def test_bell_diagonal_rejects_outside_tetrahedron(triple):
    with pytest.raises(ValueError, match="tetrahedron"):
        bell_diagonal(*triple)


def test_werner_limits():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert_allclose(werner(1.0), np.outer(phi, phi.conj()), atol=1e-15)
    assert_allclose(werner(0.0), I4 / 4)
    with pytest.raises(ValueError):
        werner(1.2)
    with pytest.raises(ValueError):
        werner(-0.5)


@pytest.mark.parametrize(
    "build, args, named",
    [
        (bell_diagonal, (float("nan"), 0.0, 0.0), "bell_diagonal parameter ex = nan"),
        (bell_diagonal, (0.0, 0.0, float("-inf")), "bell_diagonal parameter ez = -inf"),
        (x_state, (0.25, 0.25, 0.25, 0.25, float("inf"), 0.0), "x_state parameter r14 = inf"),
        (x_state, (0.25, float("nan"), 0.25, 0.25, 0.0, 0.0), "x_state parameter r22 = nan"),
    ],
    ids=["bell-ex-nan", "bell-ez-minus-inf", "x-r14-inf", "x-r22-nan"],
)
def test_non_finite_parameters_are_rejected_by_name(build, args, named):
    with pytest.raises(ValueError, match=named):
        build(*args)


def test_x_state_constructor():
    rho = x_state(0.3, 0.2, 0.2, 0.3, 0.1, 0.05)
    assert is_x_state(rho)
    with pytest.raises(ValueError):
        x_state(0.3, 0.2, 0.2, 0.3, 0.35, 0.0)  # indefinite


def test_random_state_deterministic():
    assert_allclose(random_state(1), random_state(1))
    assert np.linalg.norm(random_state(1) - random_state(2)) > 1e-3


def test_random_state_rank_one_is_pure():
    rho = random_state(1, rank=1)
    assert von_neumann_entropy(rho) < 1e-9


def test_random_state_full_rank_marginal():
    for seed in range(10):
        rho = random_state(seed)
        assert np.linalg.eigvalsh(partial_trace_a(rho)).min() >= 1e-6


def test_random_state_rank_validation():
    # bool is an int, but not a rank
    for rank in (5, 2.0, True):
        with pytest.raises(ValueError, match="rank"):
            random_state(0, rank=rank)


def test_random_state_seed_validation():
    # None would draw an unseeded state, and bool is an int, but not a seed
    for seed in (-1, 1.5, "7", None, True, np.int64(-3)):
        with pytest.raises(ValueError, match="seed"):
            random_state(seed)
    assert_allclose(random_state(np.int64(7)), random_state(7))


def test_parse_identity_example():
    text = "\n".join(
        [
            "# maximally mixed",
            "0.25+0j 0+0j 0+0j 0+0j",
            "0+0j 0.25+0j 0+0j 0+0j",
            "0+0j 0+0j 0.25+0j 0+0j",
            "0+0j 0+0j 0+0j 0.25+0j",
        ]
    )
    assert_allclose(parse(text), I4 / 4)


def test_serialize_parse_roundtrip_bit_exact():
    for seed in range(5):
        rho = random_state(seed)
        again = parse(serialize(rho))
        assert np.array_equal(rho, again)


def test_parse_rejects_malformed_token():
    text = "0.25+0j 0+0j 0+0j 0+0j\n0+0j 0.25 0+0j 0+0j\n0+0j 0+0j 0.25+0j 0+0j\n0+0j 0+0j 0+0j 0.25+0j"
    with pytest.raises(ValueError, match="line 2"):
        parse(text)


@pytest.mark.parametrize("row, col, token", [(2, 2, "1e400+0j"), (1, 3, "0+1e400j")])
def test_parse_rejects_an_overflowing_entry_before_the_hermitian_check(row, col, token):
    # the token fits the pattern but parses to inf; inf - inf in the Hermitian check would warn
    lines = [["0.25+0j" if i == j else "0+0j" for j in range(4)] for i in range(4)]
    lines[row - 1][col - 1] = token
    with pytest.raises(ValueError, match=re.escape(f"line {row}: entry {col} ('{token}')")):
        parse("\n".join(" ".join(line) for line in lines))


def test_parse_rejects_wrong_counts():
    with pytest.raises(ValueError, match="expected 4 entries"):
        parse("0.25+0j 0+0j 0+0j\n" * 4)
    with pytest.raises(ValueError, match="expected 4 data lines"):
        parse("0.25+0j 0+0j 0+0j 0+0j\n" * 3)


def test_parse_rejects_non_hermitian_with_entry_names():
    text = "\n".join(
        [
            "0.25+0j 0.1+0j 0+0j 0+0j",
            "0.2+0j 0.25+0j 0+0j 0+0j",
            "0+0j 0+0j 0.25+0j 0+0j",
            "0+0j 0+0j 0+0j 0.25+0j",
        ]
    )
    with pytest.raises(ValueError, match=r"\(1,2\).*\(2,1\)"):
        parse(text)


def test_parse_renormalizes_with_warning():
    # the widely printed variant of the lu matrix has trace 0.9453
    m = np.diag([0.0783, 0.1250, 0.1250, 0.6170]).astype(complex)
    m[1, 2] = m[2, 1] = 0.1
    with pytest.warns(UserWarning, match="renormalized"):
        rho = parse(serialize(m))
    assert abs(np.trace(rho).real - 1.0) < 1e-15
    assert_allclose(rho, m / 0.9453, atol=1e-15)


def test_parse_rejects_far_from_unit_trace():
    with pytest.raises(ValueError, match="too far"):
        parse(serialize(np.array(I4) / 2))


def test_parse_rejects_indefinite():
    m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        parse(serialize(m))


def test_resolve_families():
    assert_allclose(resolve("lu"), lu_state())
    assert_allclose(resolve("bell-diag:0.5,-0.3,0.2"), bell_diagonal(0.5, -0.3, 0.2))
    assert_allclose(resolve("werner:0.8"), werner(0.8))
    assert_allclose(resolve("random:7"), random_state(7))
    assert_allclose(resolve("random:7,2"), random_state(7, 2))
    assert_allclose(
        resolve("x:0.3,0.2,0.2,0.3,0.1,0.05"), x_state(0.3, 0.2, 0.2, 0.3, 0.1, 0.05)
    )


def test_resolve_errors():
    with pytest.raises(ValueError, match="unknown state family"):
        resolve("ghz")
    with pytest.raises(ValueError, match="parameter"):
        resolve("werner:0.5,0.5")
    with pytest.raises(ValueError, match="no parameters"):
        resolve("lu:1")
    for text in ("random", "random:1,2,3"):
        with pytest.raises(ValueError, match=r"seed\[,rank\]"):
            resolve(text)
