"""Two-qubit state catalog, random-state generation and the text format.

The text format is four data lines of four whitespace-separated complex
tokens ``RE{+|-}IMj`` (both parts mandatory, ``j`` suffix mandatory, no
spaces inside a token), row-major over the basis |00>, |01>, |10>, |11>.
Lines starting with ``#`` are comments.  Traces off by at most 10% are
renormalized with a warning; larger deviations are rejected.
"""

from __future__ import annotations

import inspect
import re
import warnings

import numpy as np

from .qmat import SIGMA_X, SIGMA_Y, SIGMA_Z, I4, check_density_matrix, partial_trace_a, tensor

#: |trace - 1| below this is accepted verbatim (no renormalization).
TRACE_EXACT_TOL = 1e-12
#: |trace - 1| up to this is renormalized with a warning; beyond, rejected.
TRACE_RENORM_TOL = 1e-1

#: Diagonal of the three-stationary-point example state.  The last entry is
#: often misprinted as 0.6170 (trace 0.9453); renormalizing that variant
#: flattens the landscape and loses the interior stationary point, while
#: 0.6717 gives exact unit trace and the documented structure.
LU_DIAG = (0.0783, 0.1250, 0.1250, 0.6717)
LU_CROSS = 0.1000

_BELL_SIGNS = {
    "phi+": (1.0, -1.0, 1.0),
    "phi-": (-1.0, 1.0, 1.0),
    "psi+": (1.0, 1.0, -1.0),
    "psi-": (-1.0, -1.0, -1.0),
}

_TOKEN_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)j$"
)


def lu_state():
    """The X state whose optimal measurement sits at an interior angle.

    The objective has exactly three stationary-point classes (polar,
    equatorial, and one near 0.155 pi) and the interior one wins, so the
    two universal candidates alone understate the classical correlation.
    """
    m = np.diag(np.array(LU_DIAG, dtype=complex))
    m[1, 2] = m[2, 1] = LU_CROSS
    return check_density_matrix(m / np.trace(m).real)


def _check_finite(family, **params):
    """ValueError naming the first of ``params`` that is not a finite number."""
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{family} parameter {name} = {value} is not finite")


def bell_diagonal(ex, ey, ez):
    """State (I + ex XX + ey YY + ez ZZ) / 4, diagonal in the Bell basis.

    The four Bell weights (1 + s.eta)/4 must all be nonnegative;
    parameter triples outside that tetrahedron are rejected, and so is a
    parameter that is not finite.
    """
    _check_finite("bell_diagonal", ex=ex, ey=ey, ez=ez)
    weights = {
        name: (1.0 + sx * ex + sy * ey + sz * ez) / 4.0
        for name, (sx, sy, sz) in _BELL_SIGNS.items()
    }
    bad = {n: w for n, w in weights.items() if w < -1e-12}
    if bad:
        detail = ", ".join(f"{n}: {w:.4f}" for n, w in bad.items())
        raise ValueError(f"({ex}, {ey}, {ez}) is outside the Bell tetrahedron ({detail})")
    rho = (
        I4
        + ex * tensor(SIGMA_X, SIGMA_X)
        + ey * tensor(SIGMA_Y, SIGMA_Y)
        + ez * tensor(SIGMA_Z, SIGMA_Z)
    ) / 4.0
    return check_density_matrix(rho)


def werner(p):
    """Mixture p |phi+><phi+| + (1 - p) I/4, for p in [-1/3, 1]."""
    if not -1.0 / 3.0 - 1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"werner parameter {p!r} outside [-1/3, 1]")
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    return check_density_matrix(p * np.outer(phi, phi.conj()) + (1.0 - p) * I4 / 4.0)


def x_state(r11, r22, r33, r44, r14, r23):
    """X-pattern state from real diagonal entries and real cross terms; a
    parameter that is not finite is rejected."""
    _check_finite("x_state", r11=r11, r22=r22, r33=r33, r44=r44, r14=r14, r23=r23)
    m = np.diag(np.array([r11, r22, r33, r44], dtype=complex))
    m[0, 3] = m[3, 0] = r14
    m[1, 2] = m[2, 1] = r23
    return check_density_matrix(m)


def random_state(seed, rank=4):
    """Random density matrix G G^+ / Tr(G G^+) with a 4 x rank Gaussian G.

    Uses numpy's PCG64 generator seeded by ``seed``, a non-negative
    integer, so a given (seed, rank) always yields the same matrix.  Draws
    are rejected (up to 10 times) until the b marginal is comfortably full
    rank; persistent failure is an error.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if isinstance(rank, bool) or not isinstance(rank, (int, np.integer)) or rank not in (1, 2, 3, 4):
        raise ValueError(f"rank must be an integer 1..4, got {rank!r}")
    rng = np.random.default_rng(seed)
    for _ in range(10):
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        if np.linalg.eigvalsh(partial_trace_a(rho)).min() >= 1e-6:
            return check_density_matrix(rho)
    raise ValueError(f"seed {seed!r} keeps producing a near-singular b marginal")


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _format_float(x):
    # repr round-trips doubles exactly
    return repr(float(x))


def serialize(rho):
    """Render a state in the text format (17-significant-digit round trip)."""
    rho = np.asarray(rho, dtype=complex)
    lines = []
    for row in rho:
        tokens = []
        for z in row:
            im = z.imag
            sign = "-" if np.copysign(1.0, im) < 0 else "+"
            tokens.append(f"{_format_float(z.real)}{sign}{_format_float(abs(im))}j")
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def parse(text):
    """Parse the text format into a validated density matrix.

    Raises ``ValueError`` with the offending line number for malformed or
    overflowing tokens, wrong counts, non-Hermitian entry pairs,
    out-of-range traces and indefinite matrices.
    """
    rows = []
    row_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise ValueError(f"line {lineno}: expected 4 entries, found {len(tokens)}")
        row = []
        for pos, tok in enumerate(tokens, start=1):
            m = _TOKEN_RE.match(tok)
            # a token such as 1e400+0j matches the pattern and overflows
            z = complex(float(m.group("re")), float(m.group("im"))) if m else None
            if z is None or not np.isfinite(z):
                raise ValueError(f"line {lineno}: entry {pos} ({tok!r}) is not a finite number of the form RE+IMj")
            row.append(z)
        rows.append(row)
        row_lines.append(lineno)
    if len(rows) != 4:
        raise ValueError(f"expected 4 data lines, found {len(rows)}")

    rho = np.array(rows, dtype=complex)
    for i in range(4):
        for j in range(i, 4):
            if abs(rho[i, j] - np.conj(rho[j, i])) >= 1e-12:
                raise ValueError(
                    f"matrix is not Hermitian: entry ({i + 1},{j + 1}) on line "
                    f"{row_lines[i]} does not match ({j + 1},{i + 1}) on line {row_lines[j]}"
                )

    tr = np.trace(rho).real
    if abs(tr - 1.0) >= TRACE_RENORM_TOL:
        raise ValueError(f"trace {tr:.6f} is too far from 1 to renormalize")
    if abs(tr - 1.0) > TRACE_EXACT_TOL:
        warnings.warn(f"trace {tr:.6f} renormalized to 1", stacklevel=2)
        rho = rho / tr
    return check_density_matrix(rho)


def load(path):
    """Read a state from a file in the text format."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# named-state grammar:  family:p1,p2,...
# ---------------------------------------------------------------------------

def resolve(text):
    """Build a catalog state from a ``family:params`` string.

    Families: ``lu``, ``bell-diag:ex,ey,ez``, ``werner:p``,
    ``x:r11,r22,r33,r44,r14,r23`` and ``random:seed[,rank]``.  A parameter
    that does not parse raises ValueError naming the family's builder, the
    parameter and the token.
    """
    name, _, tail = text.partition(":")
    name = name.strip().lower()
    params = [s.strip() for s in tail.split(",") if s.strip()] if tail else []

    def read(build, kind=float, what="a number"):
        values = []
        for key, s in zip(inspect.signature(build).parameters, params):
            try:
                values.append(kind(s))
            except ValueError:
                raise ValueError(f"{build.__name__} parameter {key} = {s!r} is not {what}") from None
        return build(*values)

    def floats(build, n):
        if len(params) != n:
            raise ValueError(f"family {name!r} takes {n} parameter(s), got {len(params)}")
        return read(build)

    def natural(s):
        if int(s) < 0:
            raise ValueError(s)
        return int(s)

    if name == "lu":
        if params:
            raise ValueError("family 'lu' takes no parameters")
        return lu_state()
    if name in ("bell-diag", "bell_diag"):
        return floats(bell_diagonal, 3)
    if name == "werner":
        return floats(werner, 1)
    if name == "x":
        return floats(x_state, 6)
    if name == "random":
        if len(params) not in (1, 2):
            raise ValueError("family 'random' takes seed[,rank]")
        return read(random_state, natural, "a non-negative integer")
    raise ValueError(f"unknown state family {name!r}")
