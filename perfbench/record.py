"""Run the benchmark over several seeds and write a run record.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline/seeds01-10.json

Run from the root of a source checkout.  For every workload in BENCHMARK.json
and every seed this runs ``python3 perfbench/run.py`` with the settings in
BENCHMARK.json and keeps the JSON line it prints last and the ``calibration``
line above it.  The record holds the machine, the versions and the git
commit, and per workload and metric the values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (q3 - q1) / median, next
to the metric's bound.  The calibration figures (the speed probe's median
time and the plain wall-clock throughput and latency) are summarised the
same way, so two records can show that the probe read the same on both.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def machine() -> dict:
    with open("/proc/cpuinfo", encoding="utf-8") as fp:
        cpu = next((line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")), None)
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, platform; print(platform.python_version(), numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": versions[0],
        "numpy": versions[1],
        "commit": commit.stdout.strip() if commit.returncode == 0 else None,
    }


def summary(values: list[float], bound) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "bound": bound}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="range such as 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    record = {"machine": machine(), "run_seconds": spec["run_seconds"], "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs, figures = [], []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            lines = proc.stdout.splitlines()
            runs.append(json.loads(lines[-1]))
            figures.append(next(json.loads(line.split(" ", 1)[1]) for line in lines
                                if line.startswith("calibration ")))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        record["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs], m.get("bound"))
                        for m in metrics},
            "calibration": {name: summary([f[name] for f in figures], None) for name in figures[0]},
        }
        for name, s in record["workloads"][workload]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:<16} {name:<48} median {s['median']:<14.6g} spread {spread} bound {s['bound']}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
