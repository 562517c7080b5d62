"""Run one archcop CLI command in this process, with spans around the
library's public functions, and write the per-layer totals as JSON.

Usage: python3 perfbench/tracer.py SPANS_JSON <archcop CLI arguments>

Each public function is wrapped where its calling module looks it up
(``archcop.copula.phi``, ``archcop.diagnostics.concordance_diff``, ...),
so calls nest into spans: a span's self time is its duration minus the
time of the spans it caused.  Spans are folded into per-name totals as
they close (calls, total seconds, self seconds) rather than kept one by
one, because the scalar ``phi`` path alone opens 2e5 of them.  No file of
the program is changed; stdin, stdout, stderr and the exit code are the
command's own.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

_t0 = time.perf_counter()
import archcop.cli  # noqa: E402  (the import is what import.s times)

IMPORT_S = time.perf_counter() - _t0

from archcop import _backend, copula, diagnostics, families, numerics, sampling  # noqa: E402

# (module, public function) -> span name
SPANS = {
    (copula, "cdf"): "copula.cdf",
    (copula, "partial_u"): "copula.partial_u",
    (copula, "density"): "copula.density",
    (diagnostics, "grid_validity_report"): "diagnostics.audit",
    (diagnostics, "kendall_tau_mc"): "diagnostics.tau_mc",
    (diagnostics, "kendall_tau_quadrature"): "diagnostics.tau_quad",
    (diagnostics, "kendall_tau_closed"): "diagnostics.tau_closed",
    (diagnostics, "singularity_limit"): "diagnostics.singularity",
    (sampling, "sample_conditional"): "sampling.conditional",
    (sampling, "sample_frailty_copula"): "sampling.frailty",
    (numerics, "bisect_monotone_batch"): "numerics.bisect",
    (numerics, "adaptive_quad"): "numerics.quad",
    (_backend, "concordance_diff"): "kernel",
}
for _name in (
    "check_param",
    "phi",
    "phi_prime",
    "phi_double_prime",
    "psi",
    "psi_prime",
    "psi_double_prime",
    "generator_ratio",
    "check_generator_conditions",
):
    SPANS[(families, _name)] = f"families.{_name}"

CALLERS = (archcop.cli, copula, diagnostics, families, numerics, sampling)


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # child seconds of each open span
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts = Counter()

    def wrap(self, name, fn):
        stack, spans, counts = self.stack, self.spans, self.counts

        def counted(key, g):
            def inner(*args, **kwargs):
                counts[key] += 1
                return g(*args, **kwargs)

            return inner

        def wrapper(*args, **kwargs):
            if name == "numerics.bisect":
                args = (counted("numerics.bisect.g_calls", args[0]),) + args[1:]
            elif name == "numerics.quad":
                args = (counted("numerics.quad.evals", args[0]),) + args[1:]
            elif name == "kernel":
                n = len(args[0])
                counts["kernel.pair_comparisons"] += n * (n - 1) // 2
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                rec = spans[name]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if name.startswith("copula."):
                counts["copula.points"] += int(getattr(result, "size", 1))
            elif name.startswith("sampling.") and name != "sampling.to_csv":
                counts["sampling.pairs"] += len(result.pairs)
            return result

        return wrapper

    def install(self):
        wrapped = {}
        for (module, attr), name in SPANS.items():
            fn = getattr(module, attr)
            wrapped[id(fn)] = self.wrap(name, fn)
        for module in CALLERS:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and not attr.startswith("__"):
                    setattr(module, attr, wrapped[id(value)])
        batch = sampling.SampleBatch
        batch.to_csv = self.wrap("sampling.to_csv", batch.to_csv)

    def to_dict(self) -> dict:
        return {
            "import_s": IMPORT_S,
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
        }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    run = tracer.wrap("cli.main", archcop.cli.main)
    try:
        return run(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
