"""Record the benchmark's end-to-end metrics in a BENCH_<label>.json file,
or compare two such files.

    python3 scripts/bench_record.py LABEL [--size tiny] [--workload NAME ...]
    python3 scripts/bench_record.py --compare BENCH_baseline.json BENCH_new.json

A record runs `perfbench/run.py --trace 0` three times per workload that
BENCHMARK.json lists, one after another at seed 0, for BENCHMARK.json's
`run_seconds`.  It writes BENCH_<label>.json at the checkout root.  The file
holds the git revision, the Python version, the CPU count, perfbench's
speed-kernel readings (one before each workload's runs and one after the
last) and, for each workload, each end-to-end metric's values, median and
interquartile range over the runs.

`--compare A B` prints a heading with each file's median speed-kernel
reading and B's over A's, then, for each workload and end-to-end metric in
both files, B's median over A's and the bound BENCHMARK.json gives that
metric.  It reports and does not gate: it exits 0 whatever the ratios are.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0  # one seed, so a workload's spread is the runs' own
RUNS = 3  # the fewest that give an interquartile range
sys.path.insert(0, str(ROOT / "perfbench"))
from common import time_kernel  # noqa: E402  (perfbench is a directory of scripts, not a package)


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _revision() -> str:
    """HEAD's commit, with `-dirty` when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _one_run(workload: str, seed: int, seconds: float, size: str) -> dict:
    """The JSON summary, the last stdout line, of one untraced perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--size", size, "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def record(label: str, workloads: list, seconds: float, size: str) -> dict:
    result = {
        "label": label,
        "revision": _revision(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "seconds": seconds,
        "size": size,
        "runs": RUNS,
        "kernel_s": [],
        "workloads": {},
    }
    for workload in workloads:
        result["kernel_s"].append(time_kernel())
        summaries = [_one_run(workload, SEED, seconds, size) for _ in range(RUNS)]
        metrics = {}
        for name, first in summaries[0]["metrics"].items():
            values = [summary["metrics"][name]["value"] for summary in summaries]
            metrics[name] = {"unit": first["unit"], "values": values, **_spread(values)}
        result["workloads"][workload] = {
            "correct": all(summary["correct"] for summary in summaries),
            "attempted": sum(summary["attempted"] for summary in summaries),
            "failed": sum(summary["failed"] for summary in summaries),
            "metrics": metrics,
        }
    result["kernel_s"].append(time_kernel())
    return result


def compare(base: dict, new: dict, bounds: list) -> list:
    """A heading that gives each record's median speed-kernel reading and
    their ratio, so that a reader can tell the machine's drift from a
    change, then one line per workload and end-to-end metric in both
    records: the two medians, new over base, and the metric's bound."""
    kernels = [statistics.median(r["kernel_s"]) for r in (base, new)]
    lines = [
        f"{base['label']} ({base['revision'][:12]}) -> {new['label']} ({new['revision'][:12]}):"
        f" kernel_s {kernels[0]:.4g} -> {kernels[1]:.4g}, kernel ratio {kernels[1] / kernels[0]:.3f}"
    ]
    for workload, before in base["workloads"].items():
        after = new["workloads"].get(workload)
        if after is None:
            continue
        for metric in bounds:
            name = metric["name"]
            if name not in before["metrics"] or name not in after["metrics"]:
                continue
            a, b = before["metrics"][name]["median"], after["metrics"][name]["median"]
            ratio = b / a if a else float("nan")
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            verdict = "beyond bound" if worse > metric["bound"] else "within bound"
            lines.append(
                f"{workload:<22} {name:<12} {a:>12.6g} -> {b:<12.6g} {metric['unit']:<4}"
                f" ratio {ratio:.3f} ({metric['better']} is better, bound {metric['bound']:.0%}): {verdict}"
            )
    return lines


def main(argv=None) -> int:
    benchmark = _benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", nargs="?", help="writes BENCH_<label>.json")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print B's medians against A's; write nothing")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--workload", nargs="+", choices=names, default=names)
    args = p.parse_args(argv)
    if args.compare:
        base, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
        print("\n".join(compare(base, new, benchmark["end_to_end"])))
        return 0
    if not args.label:
        p.error("a label, or --compare A B, is required")
    result = record(args.label, args.workload, benchmark["run_seconds"], args.size)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
