"""Command-line frontend: eval, grid, check, tau, sample.

Exit codes: 0 success, 1 failed validity check (``check`` only),
2 usage or domain error, 3 numerical convergence failure, 141 standard
output closed early (a broken pipe, as after ``| head``).  All commands
are deterministic given their full argument list; numeric output uses
shortest round-trip decimals.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .copula import cdf, density
from .diagnostics import (
    grid_validity_report,
    kendall_tau_closed,
    kendall_tau_mc,
    kendall_tau_quadrature,
)
from .families import FAMILIES, TABLE, DomainError, Frailty, check_param, phi
from .numerics import BracketError, ConvergenceError
from .sampling import CONDITIONAL, FRAILTY, sample_conditional, sample_frailty_copula


def _resolve_param(args) -> float | None:
    family = args.family
    name = TABLE[family].param
    for flag in ("alpha", "theta"):
        if flag != name and getattr(args, flag, None) is not None:
            takes = f"--{name}, not --{flag}" if name else "no parameter"
            raise DomainError(f"family {family!r} takes {takes}")
    param = getattr(args, name) if name else None
    check_param(family, param)
    return param


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)


def _write_text(out_path: str | None, text: str) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from None


def _cmd_eval(args) -> int:
    param = _resolve_param(args)
    c_val = cdf(args.family, param, args.u, args.v)
    print(f"C={float(c_val)!r}")
    interior = 0.0 < args.u < 1.0 and 0.0 < args.v < 1.0
    if interior:
        print(f"c={float(density(args.family, param, args.u, args.v))!r}")
    return 0


def _cmd_grid(args) -> int:
    param = _resolve_param(args)
    n = args.grid_n
    if n < 2:
        raise DomainError("--grid-n must be >= 2")
    lines = []
    if args.what == "generator":
        z = (np.arange(n) + 0.5) / n
        lines.append("z,phi")
        for zi, fi in zip(z.tolist(), phi(args.family, param, z).tolist()):
            lines.append(f"{zi!r},{fi!r}")
    else:
        if args.what == "cdf":
            pts = np.linspace(0.0, 1.0, n + 1)
            fn = cdf
        else:  # pdf, interior midpoints only
            pts = (np.arange(n) + 0.5) / n
            fn = density
        lines.append("u,v,value")
        for u in pts:
            vals = fn(args.family, param, np.full(pts.shape, u), pts)
            for v, w in zip(pts, np.atleast_1d(vals)):
                lines.append(f"{float(u)!r},{float(v)!r},{float(w)!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_check(args) -> int:
    param = _resolve_param(args)
    report = grid_validity_report(args.family, param, args.grid_n)
    print(report.to_json())
    return 0 if report.all_passed else 1


def _read_pairs(stream) -> np.ndarray:
    """Parse ``u,v`` lines into an (n, 2) array with entries in [0, 1].

    Blank lines and a ``u,...`` header are skipped; any other line that is
    not two comma-separated numbers, or a pair outside [0, 1], raises
    ``DomainError`` naming its line number.
    """
    rows = []
    skipped = []  # line numbers of blank and header lines
    for number, line in enumerate(stream, 1):
        line = line.strip()
        if not line or line.startswith("u,"):
            skipped.append(number)
            continue
        try:
            u, v = line.split(",")
            rows.append((float(u), float(v)))
        except ValueError:
            raise DomainError(
                f"line {number}: expected two comma-separated numbers, got {line!r}"
            ) from None
    if not rows:
        raise DomainError("no pairs on standard input")
    pairs = np.asarray(rows)
    outside = np.flatnonzero(~((pairs >= 0.0) & (pairs <= 1.0)).all(axis=1))
    if outside.size:
        k = int(outside[0])
        number = k + 1
        for s in skipped:
            number += s <= number
        raise DomainError(f"line {number}: pair {rows[k]} is outside [0, 1]")
    return pairs


def _cmd_tau(args) -> int:
    if args.method == "mc":
        if args.family is None:
            pairs = _read_pairs(sys.stdin)
        else:
            param = _resolve_param(args)
            if args.n is None or args.seed is None:
                raise DomainError("--method mc with --family requires --n and --seed")
            pairs = sample_conditional(args.family, param, args.n, args.seed).pairs
        est = kendall_tau_mc(pairs)
    else:
        if args.family is None:
            raise DomainError("--family is required for this method")
        param = _resolve_param(args)
        if args.method == "closed":
            est = kendall_tau_closed(args.family, param)
        else:
            est = kendall_tau_quadrature(args.family, param)
    print(est.to_json())
    return 0


def _cmd_sample(args) -> int:
    param = _resolve_param(args)
    if args.method == FRAILTY:
        if TABLE[args.family].kind is not Frailty:
            raise DomainError("--method frailty is only available for family f3")
        batch = sample_frailty_copula(param, args.n, args.seed)
    else:
        batch = sample_conditional(args.family, param, args.n, args.seed)
    _write_text(args.out, batch.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archcop",
        description="Evaluate, audit, and sample Archimedean copulas.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print C(u,v) and the density at a point")
    _add_family_args(p)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("grid", help="write a CSV grid of cdf, pdf, or generator values")
    _add_family_args(p)
    p.add_argument("--what", required=True, choices=["cdf", "pdf", "generator"])
    p.add_argument("--grid-n", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("check", help="run the lattice validity audit, print JSON report")
    _add_family_args(p)
    p.add_argument("--grid-n", type=int, default=100)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("tau", help="estimate Kendall tau, print JSON")
    p.add_argument("--family", choices=FAMILIES, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--method", required=True, choices=["closed", "quadrature", "mc"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_tau)

    p = sub.add_parser("sample", help="write a CSV batch of copula-distributed pairs")
    _add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", choices=[CONDITIONAL, FRAILTY], default=CONDITIONAL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors with code 2
        return int(exc.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except (DomainError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader left; send the unflushed rest to devnull so the
        # interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # 141, as a shell reports a writer killed by SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
