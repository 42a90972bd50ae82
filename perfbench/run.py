"""Benchmark for roundmoments: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and benchmarks the package in its ``src/``.
With ``--trace 0`` it times untraced passes and reports ``throughput``,
``peak_rss_mb`` and ``setup_s``; with ``--trace 1`` it alternates traced and
untraced passes and reports the per-layer metrics and ``trace.overhead``.
Every pass is checked against ``reference.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibration
import env

env.pin_threads()

WORKLOAD_NAMES = ("verify", "sweep", "montecarlo", "float_oracle")
SETUP_PROBES = 5
MIN_TIMED_PASSES = 3
PROBE_TIMEOUT_S = 120
WORK_DIR = os.path.join(env.ROOT, ".perfbench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="timed passes run at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "pass"), help=argparse.SUPPRESS)
    p.add_argument("--probe-index", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--probe-dir", default=WORK_DIR, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe(args) -> int:
    """Fresh-interpreter set-up (package import plus input construction),
    scaled by the calibration kernel timed before and after it, then
    optionally one pass; prints the set-up time and the peak RSS."""
    kernel_s = calibration.measure()
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.probe_dir)
    setup_s = time.perf_counter() - t0
    setup_s = calibration.scaled(setup_s, 0.5 * (kernel_s + calibration.measure()))
    if args.probe == "pass":
        wl.run_pass(state, args.probe_index)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}))
    return 0


def run_probes(args, wl, workdir: str) -> tuple[list, list]:
    """Set-up times of SETUP_PROBES fresh interpreters.  The first
    ``wl.rss_passes`` of them also run one pass (pass i in probe i); their
    peak RSS values give ``peak_rss_mb``."""
    base = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed)]
    times, peaks = [], []
    for i in range(max(SETUP_PROBES, wl.rss_passes)):
        mode = ["--probe", "pass", "--probe-index", str(i)] if i < wl.rss_passes else ["--probe", "setup"]
        out = subprocess.run(
            base + mode + ["--probe-dir", workdir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=env.ROOT, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        if i < wl.rss_passes:
            peaks.append(result["peak_rss_mb"])
    return times, peaks


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runner:
    """Runs and gates passes of one workload."""

    def __init__(self, args, workdir: str):
        import gate
        import workloads

        self.gate = gate
        self.ref = gate.load_reference()
        self.seed = args.seed
        self.wl = workloads.WORKLOADS[args.workload]
        self.state = self.wl.setup(args.seed, workdir)
        self.total = gate.GateResult()

    def one_pass(self, index: int, tracer=None):
        """Step times, outputs and gate result of pass ``index`` (traced if a
        tracer is given).  For a core-bound workload each step time is scaled
        by the calibration kernel timed before and after the step.  A pass
        that raises has no step times."""
        scale = self.wl.core_bound
        if tracer is not None:
            tracer.install()
        try:
            raw, times = {}, {}
            kernel_s = calibration.measure() if scale else None
            for label, step in self.wl.steps(self.state):
                t0 = time.perf_counter()
                raw[label] = step(index)
                times[label] = time.perf_counter() - t0
                if scale:
                    after = calibration.measure()
                    times[label] = calibration.scaled(times[label], 0.5 * (kernel_s + after))
                    kernel_s = after
        except Exception:  # a raising pass fails all its operations; keep measuring
            raw, times = None, {}
            problem = traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if raw is None:
            res = self.gate.GateResult(attempted=self.wl.ops)
            res.fail(f"pass {index} raised: {problem}", self.wl.ops)
        else:
            res = self.gate.check(self.wl.name, raw, self.seed, self.ref)
        self.total.merge(res)
        return times, raw, res


def run_untraced(args, runner: Runner, workdir: str) -> tuple[dict, list]:
    """Throughput is the work of one pass over the sum, across its steps, of
    each step's first-quartile time, scaled to the calibration kernel's
    reference core speed for core-bound workloads (see calibration.py).
    Passes are not discarded: a CLI user pays first-call costs on every
    call, and they are milliseconds."""
    wl = runner.wl
    setup_times, peaks = run_probes(args, wl, workdir)
    step_times: dict = {}
    walls = []
    first = None
    t_loop = time.perf_counter()
    while len(walls) < MIN_TIMED_PASSES or time.perf_counter() - t_loop < args.seconds:
        times, _, res = runner.one_pass(len(walls))
        for label, t in times.items():
            step_times.setdefault(label, []).append(t)
        walls.append(sum(times.values()))
        if first is None:
            first = res
    elapsed = time.perf_counter() - t_loop
    best = sum(quartiles(ts)[0] for ts in step_times.values())
    throughput = wl.units / best if best > 0 else 0.0
    q1, med, q3 = quartiles([wl.units / w for w in walls if w > 0])
    setup_s = statistics.median(setup_times)
    peak_rss_mb = statistics.median(peaks)
    total = runner.total
    lines = [
        f"throughput      {throughput:.6g} 1/s ({wl.unit}/s{' at the reference core speed' if wl.core_bound else ''}, "
        f"from the first-quartile time of each of {len(step_times)} steps over {len(walls)} passes; whole-pass rate median "
        f"{med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(walls)}; unscaled wall-clock rate "
        f"{wl.units * len(walls) / elapsed:.6g} over {elapsed:.4g} s of passes, gate and calibration)",
        f"peak_rss_mb     {peak_rss_mb:.6g} MB (ru_maxrss of a fresh process that sets up and runs one pass; "
        f"median over passes " + ", ".join(f"{i}: {p:.4g}" for i, p in enumerate(peaks)) + ")",
        f"setup_s         {setup_s:.6g} s (median of {len(setup_times)} fresh interpreters, scaled: "
        + ", ".join(f"{t:.4g}" for t in setup_times) + ")",
        f"error_rate      {total.failed / max(total.attempted, 1):.6g} ratio ({total.failed} of {total.attempted} {wl.op}s failed)",
    ]
    if first.ratios:
        lines.append(
            f"bound_tightness {statistics.median(first.ratios):.6g} ratio (median bound/|oracle| over "
            f"{len(first.ratios)} non-vacuous values of pass 0; {first.vacuous} vacuous)"
        )
    else:
        lines.append("bound_tightness n/a (this workload evaluates no bound)")
    metrics = {
        "throughput": {"value": throughput, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return metrics, lines


def run_traced(args, runner: Runner, workdir: str) -> tuple[dict, list]:
    import spans

    tracer = spans.Tracer()
    runner.one_pass(0)  # warm-up
    traced, untraced = [], []
    first_raw = None
    t_loop = time.perf_counter()
    while not traced or time.perf_counter() - t_loop < args.seconds:
        tracer.pass_id = len(traced)
        times, raw, _ = runner.one_pass(0, tracer)
        traced.append(sum(times.values()))
        first_raw = first_raw if first_raw is not None else raw
        untraced.append(sum(runner.one_pass(0)[0].values()))
    ids = list(range(len(traced)))
    verify_results = first_raw["suite"].results if first_raw and "suite" in first_raw else None
    values = spans.layer_metrics(tracer, ids, verify_results)
    base = statistics.median(untraced)
    values["trace.overhead"] = statistics.median(traced) / base - 1.0 if base > 0 else 0.0
    repeat = all(tracer.pass_counts(p) == tracer.pass_counts(0) for p in ids)
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    tracer.write_csv(path)
    lines = [
        f"traced passes {len(traced)}, untraced {len(untraced)}; spans {len(tracer.start)} written to "
        f"{os.path.relpath(path, env.ROOT)}; counts repeat across traced passes: {'yes' if repeat else 'NO'}",
    ]
    lines += [f"{name:42s} {_fmt(values[name])} {unit}" for name, unit, _ in spans.PER_LAYER]
    if not repeat:
        runner.total.fail("per-layer counts differ between traced passes of identical input")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.use_checkout_package()
    except env.MissingPackageError as exc:
        print(f"perfbench: {exc}; run from the root of a roundmoments checkout", file=sys.stderr)
        return 2
    if args.probe:
        return probe(args)
    workdir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(args, workdir)
        metrics, lines = (run_traced if args.trace else run_untraced)(args, runner, workdir)
        total = runner.total
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        for line in lines:
            print(line)
        for problem in total.problems:
            print(f"FAILED: {problem}")
        print(json.dumps({"provenance": env.provenance()}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = total.failed == 0
    result = {"correct": correct, "attempted": total.attempted, "failed": total.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
