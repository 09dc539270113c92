"""locstab benchmark: runs one workload through the CLI and prints its metrics.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 15 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout and driven the way a user drives it: ``locstab.cli.main``
is called in-process with stdout captured, and each operation is timed
from outside.  The workload seed builds the inputs (see workloads.py), and
every output is checked against a reference verdict.

One run builds the inputs several times (``setup_s`` is the median), then
repeats passes over the operation list for ``--seconds`` seconds, at least
three, so that the median of one slow pass is not a mean of two.  Every pass after the first must print byte-identical stdout
for each operation.  Times are reported at reference speed (speed.py).
With ``--trace 1`` one more setup and one more pass run with every public
function of the package wrapped (tracing.py); the per-layer metrics come
from that traced setup and pass only.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts operations that crashed,
disagreed with the reference, or printed different bytes than the first
pass; ``failed / attempted`` is the error rate.  ``correct`` is false when
any failure is not one of the known defects marked in workloads.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from speed import SpeedProbe, at_reference_speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

# Set-up repeats until both limits are reached (seconds counting the speed
# probes); setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
MIN_PASSES = 3
TRACED_LAYERS = ("numerics", "states", "stability", "constructions", "cli")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "key_op_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "numerics.span_rank.calls": "count",
    "numerics.span_rank.self_s": "s",
    "numerics.span_rank.rows": "count",
    "numerics.span_rank.useful_ratio": "ratio",
    "stability.is_locally_stable.calls": "count",
    "stability.is_locally_stable.calls_per_audit": "count",
    "stability.is_locally_stable.self_s": "s",
    "stability.is_locally_stable.conflict_pairs": "count",
    "states.check_mutual_orthogonality.calls": "count",
    "states.check_mutual_orthogonality.self_s": "s",
    "states.load_set.self_s": "s",
    "states.load_set.bytes": "bytes",
    "states.bpart_decompose.calls": "count",
    "states.bpart_decompose.self_s": "s",
    "states.tensor_expand.self_s": "s",
    "states.save_set.self_s": "s",
    "stability.conflict_audit.self_s": "s",
    "stability.complement_product_search.self_s": "s",
    "constructions.subset_campaign.self_s": "s",
    "constructions.subset_campaign.subsets": "count",
    "constructions.shift_family.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


def percentile_summary(values):
    """Median, the highest of p99/p95/p90/p75 with at least ten samples
    beyond it (None when there are too few), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            tail = (pct, ordered[math.ceil(n * pct / 100) - 1])
            break
    return statistics.median(ordered), tail, n


class Runner:
    """Runs operations through the CLI, times them, and checks their output."""

    def __init__(self, cli, probe):
        self.cli = cli
        self.probe = probe
        self.tracer = None
        self.first_stdout = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reports = {}

    def timed(self, fn, *args):
        """(result, raw seconds, seconds at reference speed) of one call."""
        before = self.probe.measure()
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        return result, raw, at_reference_speed(raw, before, self.probe.measure())

    def _call_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, ops):
        """Run every operation once; return (raw, scaled) seconds per op.
        Outputs are checked after all operations have run."""
        results, times = [], []
        for idx, op in enumerate(ops):
            if self.tracer is not None:
                self.tracer.request = idx
            output, raw, scaled = self.timed(self._call_cli, op.argv)
            results.append(output)
            times.append((raw, scaled))
            if self.tracer is not None:
                self.tracer.add("cli.main", {"stdout_bytes": len(output[1].encode())})
        for op, (code, stdout, stderr) in zip(ops, results):
            self._check(op, code, stdout, stderr)
        return times

    def _check(self, op, code, stdout, stderr):
        self.attempted += 1
        problems, mismatches = [], []
        if stdout != self.first_stdout.setdefault(op.label, stdout):
            problems.append("stdout differs from the first pass")
        if code not in (0, 1):
            problems.append(f"exit {code}: {stderr.strip().splitlines()[-1:]}")
        else:
            try:
                mismatches = op.expect(code, json.loads(stdout))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"malformed output: {exc!r}")
        if problems or mismatches:
            self.failed += 1
            self.unexpected += bool(problems) or op.known_defect is None
        report = self.reports.get(op.label)
        if report is None or (problems and not report[0]):
            self.reports[op.label] = (problems, mismatches)


def build_inputs(workload, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    return workload.build(np.random.default_rng(seed), workdir)


def named_metrics(ops, passes, column):
    """Per pass, the workload metrics that ops name (see workloads.Op)."""
    out, units = {}, {}
    for idx, op in enumerate(ops):
        for name in op.metrics:
            previous = out.get(name, [0.0] * len(passes))
            out[name] = [p + times[idx][column] for p, times in zip(previous, passes)]
            units[name] = units.get(name, 0) + op.units
    for name, values in out.items():
        if name.endswith("_ms"):
            out[name] = [v * 1e3 / units[name] for v in values]
    return out


def layer_metrics(tracer, ops, traced_wall, untraced_wall):
    summary = tracer.summary()
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        layer, _, stat = name.rpartition(".")
        value = summary[layer][stat]
        metrics[name] = int(value) if unit in ("count", "bytes") else value
    rows = summary["numerics.span_rank"]["rows"]
    metrics["numerics.span_rank.useful_ratio"] = (
        summary["numerics.span_rank"]["rank"] / rows if rows else 0.0
    )
    audits = [i for i, op in enumerate(ops) if op.argv[0] == "check" and "--audit" in op.argv]
    calls = sum(
        1 for s in tracer.spans if s[0] == "stability.is_locally_stable" and s[2] in audits
    )
    metrics["stability.is_locally_stable.calls_per_audit"] = calls / len(audits) if audits else 0.0
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "locstab" / "__init__.py").is_file():
        print(f"error: no locstab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import locstab
    import locstab.cli
    if Path(locstab.__file__).resolve().parent != SRC / "locstab":
        print(f"error: imported locstab from {locstab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = WORKDIR / f"{workload.name}-seed{args.seed}"
    runner = Runner(locstab.cli, SpeedProbe())
    try:
        setups = []
        start = time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_SECONDS:
            ops, raw, scaled = runner.timed(build_inputs, workload, args.seed, workdir)
            setups.append((raw, scaled))

        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            passes.append(runner.run_pass(ops))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        def series(column):
            return {
                "setup_s": [s[column] for s in setups],
                "wall_s": [sum(t[column] for t in times) for times in passes],
                **named_metrics(ops, passes, column),
            }

        raw_series, scaled_series = series(0), series(1)
        wall_s = statistics.median(scaled_series["wall_s"])
        if args.trace:
            tracer = Tracer()
            runner.tracer = tracer
            with tracer.installed(locstab, TRACED_LAYERS):
                build_inputs(workload, args.seed, workdir)
                traced = runner.run_pass(ops)
            runner.tracer = None
            tracer.write(WORKDIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
            metrics = layer_metrics(tracer, ops, sum(t[1] for t in traced), wall_s)
            units = PER_LAYER_UNITS
        else:
            key = statistics.median(scaled_series[workload.key_metric])
            metrics = {
                "setup_s": statistics.median(scaled_series["setup_s"]),
                "wall_s": wall_s,
                "key_op_ms": key if workload.key_metric.endswith("_ms") else key * 1e3,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"{len(passes)} passes of {len(ops)} operations; raw median seconds per operation")
    for idx, op in enumerate(ops):
        problems, mismatches = runner.reports[op.label]
        verdict = "; ".join(problems + mismatches) or "ok"
        if mismatches and op.known_defect:
            verdict += f" [known defect: {op.known_defect}]"
        median = statistics.median(times[idx][0] for times in passes)
        print(f"  {op.label:<40} {median:9.4f}  {verdict}")
    print("metric: median at reference speed (raw median), tail percentile, samples")
    for name, values in scaled_series.items():
        median, tail, n = percentile_summary(values)
        unit = "ms" if name.endswith("_ms") else "s"
        tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "too few samples for a tail"
        print(f"  {name:<16} {median:.6g} {unit} ({statistics.median(raw_series[name]):.6g}), "
              f"{tail_text}, n={n}")
    print(f"  {'peak_rss_mb':<16} {peak_rss_mb:.6g} MB")
    print(f"  {'error_rate':<16} {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4g}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<44} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
