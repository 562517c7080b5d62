"""End-to-end benchmark of the archcop CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs the CLI as a user does: one ``python -m archcop.cli``
process per command (two for the ``sample | tau`` pipe), timed from spawn
to exit, with its CPU time and max RSS taken from ``os.wait4``.  A round
is a fixed list of operations; the run repeats whole rounds, one after
another (a closed loop, at most two program processes at once, all on
one CPU), while another round fits in S seconds.  Every output is
checked against references that do not use the program's code
(``checks.py``); a repeated output must be byte-identical to the first,
checked one.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
rounds with traced ones, where each command runs under ``tracer.py``,
and prints the per-layer metrics.  The last line of stdout is the
result as one JSON object; the full record (machine, numpy version,
kernel backend, every round) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
COMMANDS = ("eval", "grid", "check", "tau", "sample")


# ------------------------------------------------------------ operations


@dataclass
class Op:
    """One user-level command: argv of the CLI, optionally fed by the
    stdout of ``upstream`` (the documented ``sample | tau`` pipe).

    ``check`` names a checker in checks.py, the outputs it reads ("stdout",
    "piped" for the bytes on the pipe, "file" for the --out file) and its
    keyword arguments.
    """

    label: str
    argv: list[str]
    check: tuple[str, tuple[str, ...], dict]
    upstream: list[str] | None = None
    out_file: str | None = None  # set when argv writes --out <out_file>


def family_args(family: str, param) -> list[str]:
    if family == "gumbel":
        return ["--family", family, "--theta", repr(param)]
    if family == "independence":
        return ["--family", family]
    return ["--family", family, "--alpha", repr(param)]


def mc_pipeline(rnd: random.Random, work: Path) -> list[Op]:
    """sample | tau --method mc across the dependence range; the O(n^2)
    concordance kernel does most of the work."""
    n = 10_000
    cases = [
        ("f1", 0.25, "conditional"),
        ("f2", 0.6, "conditional"),
        ("gumbel", 1.5, "conditional"),
        ("independence", None, "conditional"),
        ("f3", 1.0, "frailty"),
    ]
    ops = []
    for family, param, method in cases:
        sample = ["sample", *family_args(family, param), "--n", str(n),
                  "--seed", str(rnd.randrange(2**32)), "--method", method]
        ops.append(Op(f"sample {family} {method} | tau mc", ["tau", "--method", "mc"],
                      ("check_pipe", ("piped", "stdout"),
                       {"family": family, "param": param, "n": n}),
                      upstream=sample))
    return ops


def sample_write(rnd: random.Random, work: Path) -> list[Op]:
    """Large sample --out FILE runs: bisection over partial_u and CSV
    formatting do the work; the concordance kernel does none."""
    cases = [
        ("f1", 0.5, "conditional", 100_000),
        ("f2", 0.8, "conditional", 100_000),
        ("f3", 2.0, "conditional", 100_000),
        ("gumbel", 4.0, "conditional", 100_000),
        ("independence", None, "conditional", 100_000),
        ("f3", 0.5, "frailty", 300_000),
        # Fails today: phi underflows to 0 and psi' raises "t=0 is
        # singular".  Its input does not depend on the workload seed.
        ("f2", 0.05, "conditional", 200),
    ]
    ops = []
    for i, (family, param, method, n) in enumerate(cases):
        seed = 1 if param == 0.05 else rnd.randrange(2**32)
        path = str(work / f"sample{i}.csv")
        argv = ["sample", *family_args(family, param), "--n", str(n),
                "--seed", str(seed), "--method", method, "--out", path]
        ops.append(Op(f"sample {family} {method} n={n}", argv,
                      ("check_sample_file", ("file",), {"family": family, "param": param, "n": n}),
                      out_file=path))
    return ops


def lattice_audit(rnd: random.Random, work: Path) -> list[Op]:
    """Lattice audit, 1000^2 cdf/pdf grids, a 1e5-point generator grid
    and, per family, tau by quadrature and one eval: vectorised copula
    compositions, row formatting, the scalar phi path and the start-up of
    short processes.  Neither the sampler nor the kernel runs."""
    ops = []
    # f2 at alpha=0.05 fails today: phi'' overflows, so the audit reports
    # generator_conditions false.
    for family, param, grid_n in [("f1", 0.3, 1000), ("f2", 0.05, 20)]:
        ops.append(Op(f"check {family} grid-n={grid_n}",
                      ["check", *family_args(family, param), "--grid-n", str(grid_n)],
                      ("check_audit", ("stdout",),
                       {"family": family, "param": param, "grid_n": grid_n})))
    for what, family, param, n in [("cdf", "f3", 2.0, 1000), ("pdf", "gumbel", 2.5, 1000),
                                   ("generator", "f2", 0.7, 100_000)]:
        path = str(work / f"grid_{what}.csv")
        argv = ["grid", *family_args(family, param), "--what", what,
                "--grid-n", str(n), "--out", path]
        ops.append(Op(f"grid {what} {family} n={n}", argv,
                      (f"check_{what}_grid", ("file",),
                       {"family": family, "param": param, "grid_n": n}),
                      out_file=path))
    for family, param in [("f1", 0.4), ("f2", 0.6), ("f3", 2.0), ("gumbel", 2.5),
                          ("independence", None)]:
        u, v = (round(rnd.uniform(0.02, 0.98), 6) for _ in range(2))
        ops.append(Op(f"eval {family}",
                      ["eval", *family_args(family, param), "--u", repr(u), "--v", repr(v)],
                      ("check_eval", ("stdout",),
                       {"family": family, "param": param, "u": u, "v": v})))
        ops.append(Op(f"tau quadrature {family}",
                      ["tau", *family_args(family, param), "--method", "quadrature"],
                      ("check_tau_quadrature", ("stdout",), {"family": family, "param": param})))
    return ops


WORKLOADS = {
    "mc-pipeline": mc_pipeline,
    "sample-write": sample_write,
    "lattice-audit": lattice_audit,
}


# ------------------------------------------------------------- processes


@dataclass
class Outcome:
    returncodes: list[int]
    stdout: bytes = b""
    piped: bytes = b""
    stderr: str = ""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kib: int = 0
    file_rows: int = 0
    file_digest: str = ""
    command_wall: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(rc == 0 for rc in self.returncodes)

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in (self.stdout, self.piped, self.file_digest.encode()):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
        return h.hexdigest()


class Runner:
    """Spawns CLI processes, plain or under the tracer, and measures them."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        # numpy's OpenBLAS would otherwise start a thread per core in every
        # process, about 60 ms of a 0.25-s command here; archcop makes no
        # BLAS call that threads speed up.
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.env["OMP_NUM_THREADS"] = "1"
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.spawned: list[subprocess.Popen] = []

    def _argv(self, cli_args: list[str], spans: Path | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "archcop.cli", *cli_args]
        return [sys.executable, str(BENCH / "tracer.py"), str(spans), *cli_args]

    def _reap(self, p: subprocess.Popen):
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        return usage

    def _start(self, argv, stdin, stdout, stderr) -> tuple[subprocess.Popen, threading.Thread, dict]:
        """Spawn one process and a thread that reaps it the moment it
        exits, recording its wall time and resource usage."""
        rec = {"start": time.perf_counter()}
        p = subprocess.Popen(argv, stdin=stdin, stdout=stdout, stderr=stderr,
                             env=self.env, cwd=ROOT)
        self.spawned.append(p)

        def reap():
            rec["usage"] = self._reap(p)
            rec["end"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        return p, waiter, rec

    def run(self, op: Op, traced: bool) -> Outcome:
        stages = ([op.upstream] if op.upstream else []) + [op.argv]
        span_files = ([self.work / f"spans{i}.json" for i in range(len(stages))] if traced
                      else [None] * len(stages))
        err_path = self.work / "stderr.txt"
        if op.out_file:
            Path(op.out_file).unlink(missing_ok=True)
        started, relayed = [], []
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            if op.upstream:
                started.append(self._start(self._argv(op.upstream, span_files[0]),
                                           subprocess.DEVNULL, subprocess.PIPE, err))
            up = started[0][0] if started else None
            started.append(self._start(self._argv(op.argv, span_files[-1]),
                                       subprocess.PIPE if up else subprocess.DEVNULL,
                                       subprocess.PIPE, err))
            down = started[-1][0]
            procs = [p for p, _, _ in started]
            timer = threading.Timer(OP_TIMEOUT_S, _kill, args=(procs,))
            timer.start()
            relay = None
            if up:
                relay = threading.Thread(target=_relay, args=(up.stdout, down.stdin, relayed))
                relay.start()
            # Read the downstream's stdout to EOF while the waiters reap, so
            # that a large write never blocks on a full pipe.
            stdout = down.stdout.read()
            down.stdout.close()
            for _, waiter, _ in started:
                waiter.join()
            timer.cancel()
            if relay:
                relay.join()
                up.stdout.close()
        out = Outcome(returncodes=[p.returncode for p in procs], stdout=stdout,
                      piped=b"".join(relayed))
        out.wall_s = max(rec["end"] for _, _, rec in started) - t0
        for argv, (_, _, rec) in zip(stages, started):
            usage = rec["usage"]
            out.cpu_s += usage.ru_utime + usage.ru_stime
            out.maxrss_kib = max(out.maxrss_kib, usage.ru_maxrss)
            out.command_wall[argv[0]] = (out.command_wall.get(argv[0], 0.0)
                                         + rec["end"] - rec["start"])
        if op.out_file and Path(op.out_file).exists():
            out.file_digest, out.file_rows = _scan(op.out_file)
        out.stderr = err_path.read_text(errors="replace")
        for path in span_files:
            if path is not None and path.exists():
                out.spans.append(json.loads(path.read_text()))
                path.unlink()
        return out

    def stop_all(self):
        for p in self.spawned:
            if p.returncode is None:
                p.kill()
                try:
                    self._reap(p)
                except ChildProcessError:  # its waiter thread reaped it
                    pass


def _relay(src, dst, chunks: list[bytes]) -> None:
    """Copy the upstream's stdout into the downstream's stdin, keeping a
    copy for the checks.  If the reader exits early, keep draining."""
    broken = False
    while True:
        chunk = src.read1(1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
        if not broken:
            try:
                dst.write(chunk)
            except BrokenPipeError:
                broken = True
    try:
        dst.close()
    except BrokenPipeError:
        pass


def _scan(path: str) -> tuple[str, int]:
    """Digest and data-row count of a file, read in chunks so that the
    harness stays small."""
    h, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), max(lines - 1, 0)


def _kill(procs) -> None:
    for p in procs:
        if p.returncode is None:
            p.kill()


# ---------------------------------------------------------------- rounds


def data_rows(data: bytes) -> int:
    """Data rows of a CSV output (lines after the header)."""
    return max(data.count(b"\n") - 1, 0)


@dataclass
class Round:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kib: int = 0
    failed: int = 0
    command_wall: dict[str, float] = field(default_factory=dict)
    rows_in: int = 0
    rows_out: int = 0
    spans: list[dict] = field(default_factory=list)
    ops: list[dict] = field(default_factory=list)


class Verifier:
    """Checks each operation's output the first time it succeeds, and
    requires every later output of that operation to be byte-identical.

    The checks run in a child process (``checks.py``) so that this
    process, which spawns the measured ones, never holds large arrays:
    the max RSS wait4 reports for a child includes its parent's.
    """

    def __init__(self, work: Path):
        self.work = work
        self.digests: dict[int, str] = {}
        self.problems: list[str] = []
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "checks.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)

    def __call__(self, i: int, op: Op, out: Outcome) -> None:
        digest = out.digest()
        if i in self.digests:
            if digest != self.digests[i]:
                self.problems.append(f"{op.label}: output differs from its first, checked run")
            return
        fn, streams, kwargs = op.check
        paths = []
        for stream in streams:
            if stream == "file":
                paths.append(op.out_file)
            else:
                path = self.work / f"{stream}.out"
                path.write_bytes(getattr(out, stream))
                paths.append(str(path))
        self.proc.stdin.write(json.dumps({"fn": fn, "paths": paths, "kwargs": kwargs}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the checker process exited")
        self.problems += [f"{op.label}: {p}" for p in json.loads(reply)["problems"]]
        self.digests[i] = digest

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_round(runner: Runner, ops: list[Op], verify: Verifier, traced: bool) -> Round:
    rnd = Round(traced=traced)
    for i, op in enumerate(ops):
        out = runner.run(op, traced)
        rnd.wall_s += out.wall_s
        rnd.cpu_s += out.cpu_s
        rnd.maxrss_kib = max(rnd.maxrss_kib, out.maxrss_kib)
        for cmd, wall in out.command_wall.items():
            rnd.command_wall[cmd] = rnd.command_wall.get(cmd, 0.0) + wall
        rnd.rows_in += data_rows(out.piped)
        rnd.rows_out += data_rows(out.piped) + out.file_rows
        rnd.spans += out.spans
        rnd.ops.append({"op": op.label, "returncodes": out.returncodes,
                        "wall_s": out.wall_s, "cpu_s": out.cpu_s,
                        "maxrss_kib": out.maxrss_kib})
        if out.ok:
            verify(i, op, out)
        else:
            rnd.failed += 1
            rnd.ops[-1]["stderr_tail"] = out.stderr.strip().splitlines()[-1:] or [""]
        if op.out_file:
            Path(op.out_file).unlink(missing_ok=True)
    return rnd


# ----------------------------------------------------------------- set-up


def setup(workload: str, seed: int, runner: Runner) -> tuple[list[Op], dict]:
    """Make the workload's inputs from the seed and start one untimed
    interpreter that imports the CLI, which warms the page cache and
    reports the numpy version and the kernel backend."""
    rnd = random.Random(f"{workload}/{seed}")
    ops = WORKLOADS[workload](rnd, runner.work)
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, archcop.cli, archcop._backend as b;"
         "print(json.dumps({'numpy': numpy.__version__, 'kernel_backend': b.KERNEL_BACKEND}))"],
        env=runner.env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import archcop from {SRC}: {probe.stderr.strip()}")
    return ops, json.loads(probe.stdout)


def machine() -> dict:
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return info


# ---------------------------------------------------------------- metrics


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "peak_rss_mib": (max(r.maxrss_kib for r in rounds) / 1024.0, "MiB"),
    }


def _span_totals(spans: list[dict]):
    totals, counts, import_s = {}, {}, 0.0
    for rec in spans:
        import_s += rec["import_s"]
        for name, (calls, total, self_s) in rec["spans"].items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += total
            t[2] += self_s
        for name, c in rec["counts"].items():
            counts[name] = counts.get(name, 0) + c
    return totals, counts, import_s


def layer_metrics(traced: Round) -> dict:
    totals, counts, import_s = _span_totals(traced.spans)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    families = [k for k in totals if k.startswith("families.")]
    copula = [k for k in totals if k.startswith("copula.")]
    kernel_s = total("kernel")
    pairs = counts.get("kernel.pair_comparisons", 0)
    return {
        "import.s": (import_s, "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.rows_in": (traced.rows_in, "count"),
        "cli.rows_out": (traced.rows_out, "count"),
        "sampling.conditional.self_s": (self_s("sampling.conditional"), "s"),
        "sampling.frailty.self_s": (self_s("sampling.frailty"), "s"),
        "sampling.to_csv.s": (total("sampling.to_csv"), "s"),
        "sampling.pairs": (counts.get("sampling.pairs", 0), "count"),
        "numerics.bisect.self_s": (self_s("numerics.bisect"), "s"),
        "numerics.bisect.g_calls": (counts.get("numerics.bisect.g_calls", 0), "count"),
        "numerics.quad.self_s": (self_s("numerics.quad"), "s"),
        "numerics.quad.evals": (counts.get("numerics.quad.evals", 0), "count"),
        "copula.cdf.self_s": (self_s("copula.cdf"), "s"),
        "copula.partial_u.self_s": (self_s("copula.partial_u"), "s"),
        "copula.density.self_s": (self_s("copula.density"), "s"),
        "copula.calls": (sum(calls(k) for k in copula), "count"),
        "copula.points": (counts.get("copula.points", 0), "count"),
        "families.self_s": (sum(self_s(k) for k in families), "s"),
        "families.calls": (sum(calls(k) for k in families), "count"),
        "families.check_param.calls": (calls("families.check_param"), "count"),
        "diagnostics.tau_mc.self_s": (self_s("diagnostics.tau_mc"), "s"),
        "diagnostics.tau_quad.self_s": (self_s("diagnostics.tau_quad"), "s"),
        "diagnostics.audit.self_s": (self_s("diagnostics.audit"), "s"),
        "kernel.s": (kernel_s, "s"),
        "kernel.calls": (calls("kernel"), "count"),
        "kernel.pair_comparisons": (pairs, "count"),
        "kernel.pairs_per_s": (pairs / kernel_s if kernel_s > 0 else 0.0, "1/s"),
    }


def per_layer(rounds: list[Round]) -> dict:
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    per_round = [layer_metrics(r) for r in traced]
    metrics = {name: (statistics.median(m[name][0] for m in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    for cmd in COMMANDS:
        metrics[f"cli.{cmd}.s"] = (
            statistics.median(r.command_wall.get(cmd, 0.0) for r in plain), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain),
        "s")
    return metrics


# ------------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description="End-to-end benchmark of the archcop CLI.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "archcop" / "cli.py").is_file():
        print(f"error: no archcop sources under {SRC}", file=sys.stderr)
        return 2
    # Every process of the run inherits one CPU.  Whether the host let the
    # two processes of a pipe run side by side changed for minutes at a
    # time, and with it the pipe's wall time by a fifth; on one CPU the
    # pipe always interleaves.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = BENCH / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    verify = Verifier(work)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops, versions = setup(args.workload, args.seed, runner)
            setup_times.append(time.perf_counter() - t0)
        rounds: list[Round] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            rounds.append(run_round(runner, ops, verify, traced))
            now = time.perf_counter()
            # Start another round only if one as long as the last still fits.
            full = now - start + (now - t0) > args.seconds
            if full and (not args.trace or len(rounds) >= 2):
                break
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        verify.close()
        runner.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass

    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, statistics.median(setup_times))
    result = {
        "correct": not verify.problems,
        "attempted": len(ops) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "cpu_affinity": [cpu], **versions,
        "setup_s": setup_times, "problems": verify.problems,
        "rounds": [r.__dict__ | {"spans": len(r.spans)} for r in rounds],
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in verify.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload}: {len(rounds)} rounds, numpy {versions['numpy']}, "
          f"kernel {versions['kernel_backend']}, record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
