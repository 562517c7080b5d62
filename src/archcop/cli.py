"""Command-line frontend: eval, grid, check, tau, sample.

Exit codes: 0 success, 1 failed validity check (``check`` only),
2 usage or domain error, 3 numerical convergence failure, 141 standard
output closed early (a broken pipe, as after ``| head``).  All commands
are deterministic given their full argument list; numeric output uses
shortest round-trip decimals.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
import warnings

import numpy as np

from . import __version__
from .families import (BLOCK, FAMILIES, TABLE, ConvergenceError, DomainError, Frailty,
                       check_param, generator)

# Each command imports the modules it calls, so that a process loads (and,
# with no bytecode written, compiles) only those; the parser needs ``families``.


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


def _add_family_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--family", required=required, choices=FAMILIES)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)


class _OutFile:
    """The file ``--out`` names, as a stream for one ``writelines`` call:
    the file is opened with ``newline=""`` when the first text arrives, so
    an error in making it leaves a file that existed as it was."""

    def __init__(self, path: str):
        self.path = path

    def writelines(self, lines) -> None:
        lines = iter(lines)
        first = next(lines, "")
        with open(self.path, "w", newline="") as fh:
            fh.write(first)
            fh.writelines(lines)


def _write_out(out_path: str | None, write) -> None:
    """Call ``write`` with standard output, or with the file ``--out``
    names (see ``_OutFile``); an OSError there is a usage error.  When
    ``write`` raises, a file that this call created is removed, so a
    failed command leaves no partial output behind."""
    if out_path is None or out_path == "-":
        write(sys.stdout)
        return
    existed = os.path.lexists(out_path)
    try:
        write(_OutFile(out_path))
    except BaseException as exc:
        if not existed and os.path.lexists(out_path):
            os.remove(out_path)
        if isinstance(exc, OSError):
            raise DomainError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from None
        raise


def _cmd_eval(args) -> int:
    from .copula import cdf, density

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
    from . import csvtext  # only the commands that write CSV load it

    g = generator(args.family, param)  # checked once; every point below lies in its domain
    if args.what == "generator":

        def blocks():  # midpoints inside (0, 1): phi's z = 0 and z = 1 branches never apply
            for i in range(0, n, BLOCK):
                z = (np.arange(i, min(i + BLOCK, n)) + 0.5) / n
                yield np.column_stack((z, g.phi(z)))

        text = csvtext.table("z,phi", blocks())
    else:  # each coordinate's term once; a row is one composition of them
        if args.what == "cdf":
            from .copula import _lattice_cdf

            pts = np.linspace(0.0, 1.0, n + 1)
            terms = g.axis(pts[1:-1])
            rows = (_lattice_cdf(g, pts, terms, i, i + 1)[0] for i in range(n + 1))
        else:  # pdf, interior midpoints only
            pts = (np.arange(n) + 0.5) / n
            terms = g.axis(pts)
            rows = (g.density(terms[..., i : i + 1], terms) for i in range(n))
        text = csvtext.lattice("u,v,value", pts, rows)
    _write_out(args.out, lambda out: out.writelines(text))
    return 0


def _cmd_check(args) -> int:
    from .diagnostics import grid_validity_report

    param = _resolve_param(args)
    report = grid_validity_report(args.family, param, args.grid_n)
    print(report.to_json())
    return 0 if report.all_passed else 1


def _parse_text(lines: list[str]) -> np.ndarray | None:
    """A block's pairs in one numpy call, or None for the line loop: when a
    line (bar a leading ``u,`` header) has not one comma, or numpy reads
    other than two values in [0, 1] per line (a blank field reads -1)."""
    body = lines[1:] if lines[0].startswith("u,") else lines
    if not all(line.count(",") == 1 for line in body):
        return None
    text = "".join(body).removesuffix("\n").replace("\n", ",")
    try:
        with warnings.catch_warnings():  # numpy < 2 warns where numpy 2 raises
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, sep=",").reshape(len(body), 2)
    except (ValueError, DeprecationWarning):
        return None
    return values if ((values >= 0.0) & (values <= 1.0)).all() else None


def _parse_lines(lines: list[str], first: int):
    """A block's pairs parsed by ``float()``, and the line number and pair
    of its first pair outside [0, 1] (or None); ``lines[0]`` is line ``first``."""
    values, numbers = [], []  # the block's numbers and each row's input line
    for number, line in enumerate(lines, first):
        line = line.strip()
        if not line or line.startswith("u,"):
            continue
        try:
            u, v = line.split(",")
            values += float(u), float(v)
        except ValueError:
            raise DomainError(
                f"line {number}: expected two comma-separated numbers, got {line!r}"
            ) from None
        numbers.append(number)
    block = np.array(values).reshape(-1, 2)
    bad = np.flatnonzero(~((block >= 0.0) & (block <= 1.0)).all(axis=1))
    return block, (numbers[bad[0]], tuple(block[bad[0]].tolist())) if bad.size else None


def _read_pairs(stream) -> np.ndarray:
    """Parse ``u,v`` lines into an (n, 2) array with entries in [0, 1].

    Blank lines and a ``u,...`` header are skipped; any other line that is
    not two comma-separated numbers, or a pair outside [0, 1], raises
    ``DomainError`` naming its line number.  A malformed line anywhere is
    reported before any pair outside [0, 1].  The lines are read ``BLOCK``
    at a time; ``_parse_lines`` decides every block ``_parse_text`` refuses.
    """
    blocks = []
    outside = None  # the line number and pair of the first pair outside [0, 1]
    first = 1  # the line number of the block's first line
    while lines := list(itertools.islice(stream, BLOCK)):
        block = _parse_text(lines)
        if block is None:
            block, block_outside = _parse_lines(lines, first)
            outside = outside or block_outside
        blocks.append(block)
        first += len(lines)
        del lines  # before the next block's lines are read
    pairs = np.concatenate(blocks or [np.empty((0, 2))])
    if not len(pairs):
        raise DomainError("no pairs on standard input")
    if outside is not None:
        raise DomainError(f"line {outside[0]}: pair {outside[1]} is outside [0, 1]")
    return pairs


def _cmd_tau(args) -> int:
    from . import diagnostics

    if args.method == "mc":
        if args.family is None:
            pairs = _read_pairs(sys.stdin)
        else:
            param = _resolve_param(args)
            if args.n is None or args.seed is None:
                raise DomainError("--method mc with --family requires --n and --seed")
            from .sampling import sample_conditional

            pairs = sample_conditional(args.family, param, args.n, args.seed).pairs
        est = diagnostics.kendall_tau_mc(pairs)
    else:
        if args.family is None:
            raise DomainError("--family is required for this method")
        param = _resolve_param(args)
        if args.method == "closed":
            est = diagnostics.kendall_tau_closed(args.family, param)
        else:
            est = diagnostics.kendall_tau_quadrature(args.family, param)
    print(est.to_json())
    return 0


def _cmd_sample(args) -> int:
    from .sampling import sample_conditional, sample_frailty_copula

    param = _resolve_param(args)
    if args.method == "frailty":
        if TABLE[args.family].kind is not Frailty:
            raise DomainError("--method frailty is only available for family f3")
        batch = sample_frailty_copula(param, args.n, args.seed)
    else:
        batch = sample_conditional(args.family, param, args.n, args.seed)
    _write_out(args.out, batch.to_csv)
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
    _add_family_args(p, required=False)
    p.add_argument("--method", required=True, choices=["closed", "quadrature", "mc"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_tau)

    p = sub.add_parser("sample", help="write a CSV batch of copula-distributed pairs")
    _add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", choices=["conditional", "frailty"], default="conditional")
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
    except DomainError as exc:
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


def entry() -> None:
    """``python -m archcop.cli`` and the ``archcop`` script: ``gc.freeze()``
    spares the collections at exit the objects that the imports made."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
