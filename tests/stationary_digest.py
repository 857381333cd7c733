"""Print a SHA-256 digest of the discord solvers' output on a fixed corpus.

Run from the repository root with the package on the path:

    PYTHONPATH=src python tests/stationary_digest.py

Each corpus group prints one line: its name, its state count and a SHA-256
over every state's ``DiscordReport`` fields, the fields of each of its
``StationaryPoint`` and, for the stationary method, its ``index_sum``,
floats by their round-trip ``repr``; a state the method refuses records
the error instead.  Five groups run the stationary method; the group
``closed_form`` runs ``xstate_analytic`` on the ``x_state`` and
``bell_diagonal`` states, ``random_state_oracle`` runs the grid oracle
on the first 50 ``random_state`` states, ``universal_candidates``
lists the points of the public reference ``universal_candidates`` on the
``random_state``, ``x_state``, ``bell_diagonal`` and
``near_singular_band`` states, and ``direct_entropy`` records the direct
path's ``conditional_entropy_direct`` on DIRECT_GRID, poles included, for
the ``random_state``, ``x_state`` and ``near_singular_band`` states.  Two
commits that print the same lines give the same answers bit for bit on
these states, by all three methods, the reference and the direct path's
evaluator.  The last bits of a float depend on the numpy build
and on how BLAS runs a matmul, so compare logs made on one machine, with
one numpy, with BLAS at one thread (``OPENBLAS_NUM_THREADS=1``).
``stationary_digest.txt`` holds the lines expected with numpy 2.4.6, and CI
fails there when the output differs:

    PYTHONPATH=src python tests/stationary_digest.py | diff tests/stationary_digest.txt -

A change that moves answers rewrites that file, and CHANGES.md says which
lines moved and why.

After the digest lines comes the work ledger: one line for each group
whose states make channel-path kernel calls (``util.count_gradient_calls``),
with the calls one state's call makes, median, 90th percentile and largest;
then one line for each group whose states start Newton
(``util.record_newton_starts``), with the starts one state's call hands
``_newton_batch``, the same three figures.  The counts do not depend on
timing, so the diff gates the work as it gates the answers: a change that
cuts or adds calls or starts rewrites those lines too.

Standard error gets the timings, which vary from run to run: for the
``near_singular_band`` group, the median and largest number of stationary
points a state reports and the median and slowest ``discord`` call, each
state's call timed best of three; then the median ``universal_candidates``
call; then ``lu_state``'s ``discord`` time by the stationary method and by
the oracle, each best of five, and their ratio; then the total run time.

The name does not start with ``test_``, so pytest does not collect it.
"""

import hashlib
import sys
import time
from types import SimpleNamespace

import numpy as np
from util import (
    count_gradient_calls,
    feasible_bell_triple,
    random_unitary,
    random_x_maximally_mixed,
    record_newton_starts,
)

from qdiscord import affine_from_kraus, decompose, discord
from qdiscord.correlations import conditional_entropy_direct, index_sum, universal_candidates
from qdiscord.states import bell_diagonal, lu_state, random_state

#: Bell-diagonal states whose two largest |c_i| are equal: their optimum is
#: a tie between settings, or a circle of them.
TIED_BELL = [(0.5, -0.2, 0.5), (-0.4, 0.1, 0.4), (0.2, -0.6, 0.6), (0.5, 0.5, -0.3), (-0.3, 0.6, 0.6), (0.4, -0.4, 0.1)]
#: (theta, phi) of the ``direct_entropy`` group: 13 x 24 angles, both poles included.
DIRECT_GRID = (np.linspace(0.0, np.pi, 13)[:, None], np.linspace(0.0, 2 * np.pi, 24, endpoint=False))


def near_singular_band(n=150, seed=2):
    """(1 - eps) diag(p, 1 - p) (x) |0><0| + eps sigma, eps log-uniform in
    [1e-8, 1e-2] and sigma a random state, under a random unitary on qubit
    b: b marginals from near rank one to about 1e-2 from it."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        eps, p = 10.0 ** rng.uniform(-8.0, -2.0), rng.uniform(0.05, 0.95)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sigma = g @ g.conj().T / np.trace(g @ g.conj().T).real
        rho = (1 - eps) * np.kron(np.diag([p, 1 - p]), np.diag([1.0, 0.0])) + eps * sigma
        w = np.kron(np.eye(2), random_unitary(rng))
        yield w @ rho @ w.conj().T


def corpus():
    """(group name, discord method, states) of the digest, in a fixed order."""
    rng = np.random.default_rng(0)
    randoms = [random_state(s, 2 + s % 3) for s in range(300)]
    xs = [random_x_maximally_mixed(rng) for _ in range(100)]
    bells = [bell_diagonal(*feasible_bell_triple(rng)) for _ in range(100)]
    band = list(near_singular_band())
    yield "random_state", "stationary", randoms
    yield "x_state", "stationary", xs
    yield "bell_diagonal", "stationary", bells
    yield "tied_bell_and_lu", "stationary", [bell_diagonal(*c) for c in TIED_BELL] + [lu_state()]
    yield "near_singular_band", "stationary", band
    yield "closed_form", "xstate_analytic", xs + bells
    yield "random_state_oracle", "oracle", randoms[:50]
    yield "universal_candidates", "universal_candidates", randoms + xs + bells + band
    yield "direct_entropy", "direct_entropy", randoms + xs + band


def point_rows(points):
    return [repr((q.kind, q.critical, q.theta, q.phi, q.objective, q.grad_norm)) for q in points]


def solve_record(rho, method, kernel, starts):
    """The text of one state's report, stationary points and index sum (or,
    for the method "universal_candidates", of that function's points), the
    number of its points, the seconds its call took, the entries that call
    added to ``kernel``, a list of :func:`util.count_gradient_calls`, and the
    Newton starts it added to ``starts``, a list of
    :func:`util.record_newton_starts`.  For the method "direct_entropy" the
    text holds the values on DIRECT_GRID."""
    t0, k0, s0 = time.perf_counter(), len(kernel), len(starts)

    def spent():
        return time.perf_counter() - t0, len(kernel) - k0, sum(s.shape[1] for s in starts[s0:])

    try:
        if method == "direct_entropy":
            return repr(conditional_entropy_direct(rho, *DIRECT_GRID).tolist()) + "\n", 0, *spent()
        if method == "universal_candidates":
            d = decompose(rho)
            rows = point_rows(universal_candidates(affine_from_kraus(d.kraus), d.gamma))
            return "\n".join(rows) + "\n", len(rows), *spent()
        rep = discord(rho, method=method)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}\n", 0, *spent()
    # the solve's own work, before index_sum's kernel call
    work = spent()
    head = (rep.mutual_info, rep.classical_corr, rep.discord, rep.theta, rep.phi, rep.method)
    rows = point_rows(rep.stationary_points)
    total = None
    if rep.stationary_points and method == "stationary":
        d = decompose(rho)
        total = index_sum(affine_from_kraus(d.kraus), d.gamma, rep.stationary_points)
    return "\n".join([repr(head), *rows, repr(total)]) + "\n", len(rows), *work


def main():
    t0 = time.perf_counter()
    # counts every kernel call and Newton start of the run: the patches are never undone
    patch = SimpleNamespace(setattr=setattr)
    work = count_gradient_calls(patch), record_newton_starts(patch)
    ledger = {"kernel calls": [], "newton starts": []}
    for name, method, states in corpus():
        digest, costs = hashlib.sha256(), []
        for rho in states:
            runs = [solve_record(rho, method, *work) for _ in range(3 if name == "near_singular_band" else 1)]
            text, count, _, *counts = runs[0]
            digest.update(text.encode())
            costs.append((count, min(run[2] for run in runs), *counts))
        print(f"{name:<20} {len(states):4d} {digest.hexdigest()}")
        points, seconds, *counts = np.array(costs).T
        for (what, lines), n in zip(ledger.items(), counts):
            if n.any():
                figures = f"median {np.median(n):g} p90 {np.percentile(n, 90):g} largest {n.max():g}"
                lines.append(f"{name:<20} {what} per state {figures}")
        if name == "near_singular_band":
            band_points, band_seconds = points, seconds
        elif name == "universal_candidates":
            scan_seconds = seconds
    print("\n".join(ledger["kernel calls"] + ledger["newton starts"]))
    sys.stdout.flush()
    print(
        f"near_singular_band points median {np.median(band_points):g} largest {band_points.max():g}, "
        f"solve median {1e3 * np.median(band_seconds):.1f} ms slowest {1e3 * band_seconds.max():.1f} ms",
        file=sys.stderr,
    )
    print(f"universal_candidates call median {1e3 * np.median(scan_seconds):.2f} ms", file=sys.stderr)
    lu = [min(solve_record(lu_state(), method, *work)[2] for _ in range(5)) for method in ("stationary", "oracle")]
    print(
        f"lu discord stationary {1e3 * lu[0]:.2f} ms oracle {1e3 * lu[1]:.2f} ms ratio {lu[0] / lu[1]:.2f}",
        file=sys.stderr,
    )
    print(f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
