#!/usr/bin/env python3
"""Benchmark a change against its parent commit and write BENCH_<pr>.json.

Runs ``perfbench/run.py`` on two copies of the package, one run at a time,
in alternating pairs: the parent is unpacked from ``git archive`` into a
temporary directory, and the change (this checkout's working tree) is
copied there too; the directory is removed afterwards.  Each run's result
line, the last line perfbench prints, is kept unchanged, with the side
that ran first in its pair.  Every workload also gets a summary: for each metric the
quartiles on each side, the change's median over the parent's, and the
pairs the change won (by the metric's ``better`` direction in
BENCHMARK.json).

    python3 scripts/bench_record.py --parent 1a52c38 --pr 22 --seed 19 \\
        --seconds 20 --workload float_oracle:10 --workload verify:5 \\
        --workload sweep:8 --workload montecarlo:8 --traced float_oracle:1
    python3 scripts/bench_record.py --compare BENCH_22.json

Run it from a checkout's root on an otherwise idle host: the two sides of a
pair share the machine with nothing but each other.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# the files perfbench/run.py reads from a checkout
RUN_DIRS = ("src", "perfbench")


def better_directions() -> dict:
    """'higher' or 'lower' for every metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def unpack(rev: str, dest: pathlib.Path) -> None:
    """The committed files of ``rev``, from ``git archive``."""
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", "--format=tar", rev), check=True)


def copy_tree(dest: pathlib.Path) -> None:
    """This checkout's working files that a perfbench run reads."""
    dest.mkdir(parents=True)
    for name in RUN_DIRS:
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".perfbench*"))


def run(side: pathlib.Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """perfbench's result line and provenance record for one run in ``side``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        provenance = next(json.loads(line)["provenance"] for line in lines if line.startswith('{"provenance"'))
    except (IndexError, StopIteration, ValueError):
        raise RuntimeError(f"{' '.join(argv)} in {side} gave no result (exit {proc.returncode}):\n{proc.stderr}")
    return result, provenance


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, better: dict) -> dict:
    """Quartiles of each metric on both sides, the change's median over the
    parent's, and the pairs the change won; then the failure counts."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        stats = {side: quartiles(vals[side]) for side in SIDES}
        base = stats["parent"]["median"]
        sign = -1.0 if better.get(name) == "lower" else 1.0
        won = sum(sign * (c - p) > 0.0 for p, c in zip(vals["parent"], vals["change"]))
        out[name] = {
            **stats,
            "change_over_parent_median": stats["change"]["median"] / base if base else None,
            "pairs_won_by_change": f"{won} of {len(pairs)}",
        }
    if "throughput" in out:
        out["throughput_pairs_won_by_change"] = out["throughput"]["pairs_won_by_change"]
    for key in ("failed", "attempted"):
        out[key] = {side: sum(p[side][key] for p in pairs) for side in SIDES}
    out["all_correct"] = all(p[side]["correct"] for p in pairs for side in SIDES)
    return out


def record(args) -> int:
    better = better_directions()
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench_record-"))
    dirs = {side: scratch / side for side in SIDES}
    parent = git("rev-parse", args.parent).decode().strip()
    unpack(parent, dirs["parent"])
    copy_tree(dirs["change"])
    plan = [(spec, 0) for spec in args.workload] + [(spec, 1) for spec in args.traced]
    doc = {
        "description": (
            "perfbench result lines (the last JSON line of `python3 perfbench/run.py --workload W --seed S "
            "--seconds T --trace X`) for the parent commit and the change, each run from its own copy of the "
            "files, in alternating pairs (`first` names the side that ran first) on one host, one run at a "
            "time; written by scripts/bench_record.py"
        ),
        "parent_commit": parent,
        "change": "working tree",
        "host": None,
        "src_sha256": {},
        "workloads": [],
    }
    try:
        for spec, trace in plan:
            workload, _, count = spec.partition(":")
            pairs = []
            for i in range(1, int(count or 1) + 1):
                first = SIDES[(i - 1) % 2]
                pair = {"pair": i, "first": first}
                for side in (first, SIDES[SIDES.index(first) - 1]):
                    print(f"{workload} trace {trace} pair {i}: {side}", file=sys.stderr, flush=True)
                    pair[side], prov = run(dirs[side], workload, args.seed, args.seconds, trace)
                    doc["src_sha256"][side] = prov.pop("src_sha256")
                    prov.pop("commit", None)
                    doc["host"] = doc["host"] or prov
                pairs.append(pair)
            doc["workloads"].append({"workload": workload, "seed": args.seed, "trace": trace,
                                     "seconds": args.seconds, "pairs": pairs,
                                     "summary": summarize(pairs, better)})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    compare(out)
    return 0


def compare(path: pathlib.Path) -> None:
    """For each workload and metric: both sides' medians and quartiles, the
    ratio of the medians and the pairs the change won."""
    better = better_directions()
    doc = json.loads(pathlib.Path(path).read_text())
    for entry in doc["workloads"]:
        summary = summarize(entry["pairs"], better)
        print(f"{entry['workload']} seed {entry['seed']} trace {entry['trace']}: {len(entry['pairs'])} pairs, "
              f"failed {summary['failed']['parent']}/{summary['failed']['change']}, "
              f"all correct {summary['all_correct']}")
        for name, s in summary.items():
            if not isinstance(s, dict) or "parent" not in s or name in ("failed", "attempted"):
                continue
            p, c = s["parent"], s["change"]
            if not any(p.values()) and not any(c.values()):
                continue  # a layer the workload never reaches
            ratio = s["change_over_parent_median"]
            print(f"  {name:40s} {p['median']:11.5g} [{p['q1']:.5g}, {p['q3']:.5g}] -> "
                  f"{c['median']:11.5g} [{c['q1']:.5g}, {c['q3']:.5g}]  "
                  f"x{ratio if ratio is not None else float('nan'):.3f}  won {s['pairs_won_by_change']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--compare", metavar="BENCH_FILE", help="print the summary of a recorded file and stop")
    ap.add_argument("--parent", help="the parent revision, unpacked with git archive")
    ap.add_argument("--pr", help="the number in the output name BENCH_<pr>.json")
    ap.add_argument("--workload", action="append", default=[], metavar="NAME[:PAIRS]",
                    help="an untraced workload and its number of pairs (repeatable)")
    ap.add_argument("--traced", action="append", default=[], metavar="NAME[:PAIRS]",
                    help="a workload run with --trace 1 (repeatable)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()
    if args.compare:
        compare(pathlib.Path(args.compare))
        return 0
    if not (args.parent and args.pr and (args.workload or args.traced)):
        ap.error("give --parent, --pr and at least one --workload or --traced, or --compare")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
