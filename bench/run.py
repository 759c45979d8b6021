#!/usr/bin/env python3
"""qmobius benchmark: four closed-loop workloads, every result checked by an oracle.

    python3 bench/run.py --workload classify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                  # all four workloads, untraced then traced
    python3 bench/run.py --self-test      # the checkers against corrupted results

One client runs one operation at a time and starts the next when the last
one returns; the cli workload starts one subprocess at a time.  A run
repeats whole rounds of the workload's operations until --seconds of wall
time have passed, so failed operations are always the same share of those
attempted.  The library runs from ./src; nothing needs to be installed.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (see bench/README.md), and the spans are written to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("classify", "orbit-growth", "orbit-long", "cli")
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_PROBES = 20  # spread evenly over the run, between rounds
CLI_PROBES = 5
LATENCY_QUANTILE = 0.75  # of each operation's latencies over a run's rounds
LAYER_MODULES = ("padic", "mobius", "classify", "orbit", "cli")
# Per-layer metrics computed from the spans: (metric, span name, what).
SPAN_METRICS = (
    ("padic.vp.calls", "padic.vp", "calls"),
    ("padic.vp.self_ms", "padic.vp", "self_ms"),
    ("padic.norm.calls", "padic.norm", "calls"),
    ("padic.norm.self_ms", "padic.norm", "self_ms"),
    ("padic.factor_int.calls", "padic.factor_int", "calls"),
    ("padic.factor_int.self_ms", "padic.factor_int", "self_ms"),
    ("padic.principal_profile.self_ms", "padic.principal_profile", "self_ms"),
    ("mobius.apply.calls", "mobius.apply", "calls"),
    ("mobius.apply.self_ms", "mobius.apply", "self_ms"),
    ("mobius.fixed_points.self_ms", "mobius.fixed_points", "self_ms"),
    ("mobius.from_parameter.self_ms", "mobius.from_parameter", "self_ms"),
    ("mobius.power.self_ms", "mobius.power", "self_ms"),
    ("mobius.detect_period.self_ms", "mobius.detect_period", "self_ms"),
    ("classify.adelic_report.calls", "classify.adelic_report", "calls"),
    ("classify.adelic_report.self_ms", "classify.adelic_report", "self_ms"),
    ("classify.classify_at.self_ms", "classify.classify_at", "self_ms"),
    ("classify.exceptional_primes.self_ms", "classify.exceptional_primes", "self_ms"),
    ("classify.check_adelic_image.self_ms", "classify.check_adelic_image", "self_ms"),
    ("orbit.run_orbit.calls", "orbit.run_orbit", "calls"),
    ("orbit.run_orbit.self_ms", "orbit.run_orbit", "self_ms"),
    ("orbit.distance_trace.self_ms", "orbit.distance_trace", "self_ms"),
    ("orbit.basin_sample.self_ms", "orbit.basin_sample", "self_ms"),
    ("orbit.invariant_sphere_check.self_ms", "orbit.invariant_sphere_check", "self_ms"),
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured wall time per run (default: run_seconds of BENCHMARK.json, %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--self-test", action="store_true", help="run only the checker self-test")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "qmobius" / "__init__.py").is_file():
        print(f"error: the qmobius sources are missing: expected {SRC / 'qmobius'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        return run_all(args)
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result))
    return 0


# --- set-up and self-test in fresh interpreters ----------------------------------


def measure_setup(spec: str) -> float:
    """Seconds from spawning a fresh interpreter until it has imported the
    library and built the inputs that spec lists (bench/setup_probe.py)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(SRC)], input=spec, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1]) - start


def self_test() -> int:
    import selftest

    results = selftest.run()
    for what, accepted, rejected in results:
        print(f"{'ok  ' if accepted and rejected else 'FAIL'} {what}: "
              f"real answer {'accepted' if accepted else 'REJECTED'}, "
              f"corrupted answer {'rejected' if rejected else 'ACCEPTED'}")
    ok = all(accepted and rejected for _, accepted, rejected in results)
    print(json.dumps({"self_test": ok, "cases": len(results)}))
    return 0 if ok else 1


def self_test_passes() -> bool:
    """The self-test, in its own process so that its imports stay out of this one's memory."""
    proc = subprocess.run([sys.executable, __file__, "--self-test"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode == 0


# --- the closed loop -------------------------------------------------------------


class Loop:
    """Every latency of every operation, and per-round busy time, of the rounds run so far.

    A shared 2-vCPU VM runs in fast and slow spells, up to 1.8x apart, that
    last from seconds to minutes.  A run's figures therefore come from each
    operation's upper-quartile latency over the run's rounds.  It reads the
    common, slow speed unless fast spells fill most of the run; a best time
    jumps when a run catches no fast spell, and a median when a run is
    about half in each.
    """

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self.ok: list[bool] = []
        self.round_busy: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.child_rss_kb = 0

    @property
    def rounds(self) -> int:
        return len(self.round_busy)

    def run_round(self, ops, root=None, extra_busy: float = 0.0) -> None:
        import oracles as O

        if not self.samples:
            self.samples, self.ok = [[] for _ in ops], [True] * len(ops)
        busy = extra_busy
        for i, op in enumerate(ops):
            start = time.perf_counter()
            try:
                result = op.run() if root is None else root("bench.op", op.run)
            except Exception as exc:  # an operation that fails is counted, never fatal
                elapsed = time.perf_counter() - start
                self.ok[i] = False
                self.failed += 1
                self.failures.setdefault(op.name, f"{type(exc).__name__}: {exc}"[:160])
            else:
                elapsed = time.perf_counter() - start
                try:
                    op.check(result)
                except O.CheckError as exc:
                    self.mismatches.append(f"{op.name}: {exc}")
                self.child_rss_kb = max(self.child_rss_kb, getattr(result, "rss_kb", 0))
            self.attempted += 1
            self.samples[i].append(elapsed)
            busy += elapsed
        self.round_busy.append(busy)

    def typical(self) -> list[float]:
        """Each operation's upper-quartile latency over the run's rounds."""
        return [percentile(times, LATENCY_QUANTILE) for times in self.samples]

    def report(self) -> None:
        for name, error in sorted(self.failures.items()):
            print(f"failed op {name}: {error}")
        for line in self.mismatches[:5]:
            print(f"MISMATCH {line}", file=sys.stderr)


def cross_check_primes(loop: Loop) -> str:
    import oracles as O

    try:
        return O.cross_check_primes()
    except O.CheckError as exc:
        loop.mismatches.append(str(exc))
        return "miller-rabin, contradicted by sympy.isprime"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_untraced(args) -> dict:
    import workloads as W

    correct = self_test_passes()
    params = W.PARAMS[args.workload](args.seed)
    spec = "\n".join(W.SETUP[args.workload](params))
    ops = W.BUILD[args.workload](params)
    loop = Loop()
    setups = []
    start = time.monotonic()
    while loop.rounds == 0 or time.monotonic() - start < args.seconds:
        # set-up probes, off the op clock, keep pace with the run's elapsed share
        while not setups or len(setups) < SETUP_PROBES * min(1.0, (time.monotonic() - start) / args.seconds):
            setups.append(measure_setup(spec))
        loop.run_round(ops)
    while len(setups) < SETUP_PROBES:
        setups.append(measure_setup(spec))
    setup_s = statistics.median(setups)
    if args.workload == "cli":
        rss_mb = loop.child_rss_kb / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    primality = cross_check_primes(loop)  # after the memory reading: it may import sympy
    loop.report()
    typical = loop.typical()
    completed = [t for t, ok in zip(typical, loop.ok) if ok]
    print(f"workload {args.workload}  seed {args.seed}  rounds {loop.rounds}  ops/round {len(ops)}"
          f"  attempted {loop.attempted}  failed {loop.failed}  set-up probes {len(setups)}"
          f"  primality oracle {primality}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(completed) / sum(typical), "ops/s"),
        "op_p50_ms": (statistics.median(completed) * 1000, "ms"),
        "op_p95_ms": (percentile(completed, 0.95) * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return result_json(correct and not loop.mismatches, loop.attempted, loop.failed, metrics)


def result_json(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


# --- the traced run --------------------------------------------------------------


def _child_ms(argv: list[str], env=None) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1000


def cli_layer() -> dict:
    """Best of CLI_PROBES: a bare interpreter start, the import of qmobius.cli
    beyond it, and the median command's in-process main() call."""
    import workloads as W

    interpreter = min(_child_ms([sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES))
    imported = min(_child_ms([sys.executable, "-c", "import qmobius.cli"], W.cli_env()) for _ in range(CLI_PROBES))
    mains = [min(_main_ms(list(argv) + extra) for _ in range(CLI_PROBES))
             for argv in W.CLI_COMMANDS for extra in ([], ["--json"])]
    return {"cli.interpreter_ms": (interpreter, "ms"), "cli.import_ms": (imported - interpreter, "ms"),
            "cli.main_ms": (statistics.median(mains), "ms")}


def _main_ms(argv: list[str]) -> float:
    import workloads as W

    start = time.perf_counter()
    W.inprocess_cli(argv)
    return (time.perf_counter() - start) * 1000


def source_lines(module: str) -> int:
    lines = (SRC / "qmobius" / f"{module}.py").read_text().splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def run_traced(args) -> dict:
    """Untraced and traced rounds in turn; each round rebuilds the inputs first.

    Alternating the two keeps a slow spell of the machine from landing on
    one side only.  Per-layer figures are per round: counts are the same in
    every traced round, and times are the best traced round's.  The tracing
    overhead is the best traced round's busy time over the best untraced
    one's, less one.
    """
    import tracing
    import workloads as W

    correct = self_test_passes()
    cli_metrics = cli_layer()
    params = W.PARAMS[args.workload](args.seed)
    build = W.BUILD[args.workload]
    if args.workload == "cli":  # subprocesses cannot be traced from here: run main() in-process
        build = lambda p: W.cli_build(p, W.inprocess_cli)  # noqa: E731

    def one_round(loop: Loop, tracer=None) -> None:
        start = time.perf_counter()
        if tracer is None:
            ops = build(params)
        else:
            tracer.mark_round()
            ops = tracer.root("bench.setup", lambda: build(params))
        loop.run_round(ops, tracer and tracer.root, extra_busy=time.perf_counter() - start)

    plain, traced = Loop(), Loop()
    tracer = tracing.Tracer()
    start = time.monotonic()
    while plain.rounds == 0 or time.monotonic() - start < args.seconds:
        one_round(plain)
        tracer.install()
        try:
            one_round(traced, tracer)
        finally:
            tracer.uninstall()
    cross_check_primes(plain)
    plain.failures.update(traced.failures)
    plain.mismatches += traced.mismatches
    plain.report()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path)
    print(f"workload {args.workload}  seed {args.seed}  rounds {plain.rounds} untraced + {traced.rounds} traced"
          f"  spans {len(tracer.start)} -> {spans_path.relative_to(ROOT)}")

    per_round = tracer.per_round()
    metrics = {}
    for metric, span, what in SPAN_METRICS:
        if what == "calls":
            metrics[metric] = (per_round[0][0].get(span, 0), "count")
        else:
            metrics[metric] = (min(self_ns.get(span, 0) for _, self_ns in per_round) / 1e6, "ms")
    metrics["padic.factor_int.distinct_ratio"] = (tracer.distinct_ratio(), "ratio")
    metrics["padic.factor_int.max_input_bits"] = (tracer.max_input_bits, "bits")
    metrics["orbit.run_orbit.steps"] = (tracer.steps / traced.rounds, "count")
    metrics["orbit.run_orbit.peak_bits"] = (tracer.peak_bits, "bits")
    metrics.update(cli_metrics)
    for module in LAYER_MODULES:
        metrics[f"{module}.source_lines"] = (source_lines(module), "lines")
    overhead = min(traced.round_busy) / min(plain.round_busy) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    return result_json(correct and not plain.mismatches, plain.attempted + traced.attempted,
                       plain.failed + traced.failed, metrics)


# --- every workload ---------------------------------------------------------------


def run_all(args) -> int:
    """Each workload untraced, then traced, each in its own interpreter."""
    summary = {}
    for workload in WORKLOADS:
        for traced in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(traced)]
            print(f"== {workload} (trace {traced})", flush=True)
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
                return 1
            summary[f"{workload}/trace{traced}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
