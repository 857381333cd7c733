"""Command-line front end.

Subcommands: ``discord`` (correlations of a state), ``stationary``
(stationary points of the measured objective), ``sweep`` (CSV landscape of
the objective) and ``channel`` (the extracted channel data).

Exit codes: 0 success, 2 invalid state input or usage error, 3 requested
method not applicable (without ``--fallback``), 1 internal error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bloch, choi, correlations, states, xstate
from .qmat import density_state, spectrum_entropy

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_STATE = 2
EXIT_NOT_APPLICABLE = 3


def _add_state_arguments(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--state",
        metavar="FAMILY[:P1,P2,...]",
        help="named state, e.g. lu, bell-diag:0.5,-0.3,0.2, werner:0.8, "
        "x:r11,r22,r33,r44,r14,r23, random:seed[,rank]",
    )
    group.add_argument("--file", metavar="PATH", help="density-matrix text file")


def _parse_grid(text):
    try:
        a, b = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 64x128, got {text!r}")
    if min(a, b) < 1:
        raise argparse.ArgumentTypeError(f"grid sizes must be at least 1, got {text!r}")
    return a, b


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qdiscord",
        description="Quantum discord of two-qubit states via channel decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discord", help="mutual information, classical correlation, discord")
    _add_state_arguments(p)
    p.add_argument(
        "--method",
        choices=("stationary", "oracle", "xstate-analytic"),
        default="stationary",
    )
    p.add_argument("--grid", type=_parse_grid, default=(64, 128), metavar="NTxNP", help="oracle grid")
    p.add_argument("--verify", action="store_true", help="cross-check against the grid oracle")
    p.add_argument(
        "--fallback",
        action="store_true",
        help="fall back to the stationary solver when the method is not applicable",
    )
    p.set_defaults(func=cmd_discord, usage_error=p.error)

    p = sub.add_parser("stationary", help="list stationary points of the objective")
    _add_state_arguments(p)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("sweep", help="CSV sweep of the objective landscape")
    _add_state_arguments(p)
    p.add_argument("--grid", type=_parse_grid, default=(64, 128), metavar="NTxNP")
    p.add_argument("--output", default="-", help="CSV path, or - for standard output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("channel", help="inspect the extracted channel")
    _add_state_arguments(p)
    p.set_defaults(func=cmd_channel)

    return parser


def _resolve_state(args):
    if args.state is not None:
        return states.resolve(args.state), args.state
    return states.load(args.file), args.file


def _pi(x):
    return f"{x / np.pi:.6f} pi"


def cmd_discord(args, out):
    rho, label = _resolve_state(args)
    method = args.method.replace("-", "_")
    try:
        report = correlations.discord(rho, method=method, oracle_resolution=args.grid)
    except xstate.NotApplicableError as exc:
        if not args.fallback:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NOT_APPLICABLE
        print(f"note: {exc}; falling back to the stationary solver", file=out)
        report = correlations.discord(rho, method="stationary")

    print(f"state: {label}", file=out)
    print(f"method: {report.method}", file=out)
    print(f"I = {report.mutual_info:.9f}", file=out)
    print(f"C = {report.classical_corr:.9f}", file=out)
    print(f"Q = {report.discord:.9f}", file=out)
    print(f"optimal theta = {_pi(report.theta)}", file=out)
    print(f"optimal phi   = {_pi(report.phi)}", file=out)
    if args.verify:
        corr = report.classical_corr if report.method == "oracle" else correlations.grid_oracle(rho, *args.grid)[0]
        delta = report.discord - (report.mutual_info - corr)
        print(f"verify: |dQ| vs oracle({args.grid[0]}x{args.grid[1]}) = {abs(delta):.3e}", file=out)
    return EXIT_OK


def cmd_stationary(args, out):
    rho, label = _resolve_state(args)
    try:
        d = choi.decompose(rho)
    except choi.SingularMarginalError as exc:
        print(f"singular marginal: {exc}", file=sys.stderr)
        print("discord is 0 and the classical correlation equals I", file=out)
        return EXIT_OK
    ch = bloch.affine_from_kraus(d.kraus)
    pts = correlations.find_stationary_points(ch, d.gamma)
    print(f"state: {label}", file=out)
    print(
        f"{'class':<16} {'theta/pi':>10} {'phi/pi':>10} {'objective':>14} {'grad_norm':>12} {'critical':>8}",
        file=out,
    )
    for q in pts:
        print(
            f"{q.kind:<16} {q.theta / np.pi:>10.6f} {q.phi / np.pi:>10.6f} "
            f"{q.objective:>14.9f} {q.grad_norm:>12.3e} {'yes' if q.critical else 'no':>8}",
            file=out,
        )
    total = correlations.index_sum(ch, d.gamma, pts)
    print(f"index sum: {'n/a' if total is None else total}", file=out)
    return EXIT_OK


def cmd_sweep(args, out):
    rho, _ = _resolve_state(args)
    n_theta, n_phi = args.grid
    state = density_state(rho)
    sa = spectrum_entropy(state.a_vals)
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    ce = correlations.conditional_entropy_direct(state, tt, pp)

    rows = np.column_stack([tt.ravel(), pp.ravel(), ce.ravel(), sa - ce.ravel()])
    csv = dict(fmt="%.17g", delimiter=",", header="theta,phi,cond_entropy,objective", comments="")
    if args.output == "-":
        np.savetxt(out, rows, **csv)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            np.savetxt(fh, rows, **csv)
    return EXIT_OK


def cmd_channel(args, out):
    rho, label = _resolve_state(args)
    print(f"state: {label}", file=out)
    try:
        d = choi.decompose(rho)
    except choi.SingularMarginalError as exc:
        print(f"singular marginal: {exc}", file=out)
        print("no channel form exists; discord is 0 (classical correlation = I)", file=out)
        return EXIT_OK
    ch = bloch.affine_from_kraus(d.kraus)
    recon = choi.reconstruct(d)
    print(f"gamma = {_pi(d.gamma)} ({d.gamma:.9f} rad)", file=out)
    print("eta =", file=out)
    for row in ch.eta:
        print("  " + "  ".join(f"{v:+.9f}" for v in row), file=out)
    print("c = " + "  ".join(f"{v:+.9f}" for v in ch.c), file=out)
    print(f"kraus operators: {len(d.kraus.operators)}", file=out)
    for m, e in enumerate(d.kraus.operators):
        print(f"  E{m}:", file=out)
        for row in e:
            print(
                "    " + "  ".join(f"{v.real:+.9f}{v.imag:+.9f}j" for v in row),
                file=out,
            )
    print(f"kraus completeness residual = {d.kraus.completeness_residual():.3e}", file=out)
    print(f"reconstruction residual = {np.linalg.norm(recon - rho):.3e}", file=out)
    print(f"channel fidelity F = {choi.channel_fidelity(rho, d):.9f}", file=out)
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "discord" and (args.method == "oracle" or args.verify):
        try:
            correlations.check_oracle_resolution(*args.grid)
        except ValueError as exc:
            args.usage_error(f"argument --grid: {exc}")
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_STATE
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
