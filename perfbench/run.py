"""twoatom benchmark: one seeded workload through ``twoatom.cli.main``, checked and timed.

    python3 perfbench/run.py --workload rk4_series --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program is imported from the
checkout's ``src`` directory, and the run fails without it.  One process, one
client, closed loop: each job is a ``main(argv)`` call that starts after the
previous one returned and was checked.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory for the workloads, the
metrics and how two sets of results are compared.
"""

import os
import sys

# A fixed string-hash seed.  With a random one, dict and set layouts change
# from run to run, and with them the interpreter's speed: on rk4_series the
# range of jobs_per_s over eight runs of one seed was 12 % with random seeds
# and 3 % with a fixed one.  The interpreter reads the seed only at start, so
# the run restarts itself in place (exec, not a child process).
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

# One BLAS thread (at most nproc): the matrices are 4x4 and 16x16, so more
# threads add only scheduling noise.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import time
import warnings
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
#: at least ten latencies beyond the 90th percentile
MIN_JOBS = 100
#: the timed loop stops here even short of MIN_JOBS, to end well within 180 s;
#: a run cut short this way fails without a result
LOOP_LIMIT_S = 120.0
IMPORT_SPAWNS = 15
IMPORT_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import twoatom.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1, twoatom.cli.__file__)"
)


def spawn_imports(count: int) -> tuple[float, float, float]:
    """Medians of: wall time of a fresh interpreter importing twoatom.cli, the
    numpy import inside it, and the rest of the twoatom.cli import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, numpy_s, own_s = [], [], []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        walls.append(time.perf_counter() - t0)
        numpy_part, own_part, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported twoatom from {path}, not {SRC}")
        numpy_s.append(float(numpy_part))
        own_s.append(float(own_part))
    return statistics.median(walls), statistics.median(numpy_s), statistics.median(own_s)


def run_job(main, argv):
    """Call ``main(argv)`` with stdout and stderr captured; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a job that raises fails; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = (time.perf_counter_ns() - t0) / 1e9
    return workloads.Outcome(code, error, out.getvalue(), err.getvalue(), seconds)


def _raise(argv):
    raise RuntimeError("injected failure")


def self_test(workload, cli) -> list[str]:
    """Run the first cycle untimed (it also warms up) and show, for each kind of
    job that passes, that its check rejects the output with its last number moved
    by 1e-6 and rejects a job that raised."""
    problems, tested = [], set()
    for i in range(workload.cycle):
        job = workload.make_job(i)
        res = run_job(cli.main, job.argv)
        problem = job.check(res)
        if problem:
            print(f"warm-up {job.kind} {' '.join(job.argv)}: {problem}", file=sys.stderr)
        if problem or job.kind in tested:
            continue
        tested.add(job.kind)
        tampered = workloads.perturb(res)
        if tampered is None or job.check(tampered) is None:
            problems.append(f"{job.kind}: the check accepts an output moved by 1e-6")
        if job.check(run_job(_raise, job.argv)) is None:
            problems.append(f"{job.kind}: the check accepts a job that raised")
    return problems


def run_cycles(workload, cli, first: int, seconds: float, tracer):
    """Whole cycles until ``seconds`` have passed and MIN_JOBS jobs ran.

    With a tracer every second cycle is traced, so traced and untraced jobs
    have the same mix.  The speed probe runs before the first job and after
    each job, outside the jobs' time; a job is calibrated with the mean of
    the probes on either side of it.  Returns [(seconds, calibrated seconds, passed, traced)],
    the traced jobs by id and the number of cycles.
    """
    records, traced_jobs, reported = [], {}, 0
    start = time.monotonic()
    i, cycles = first, 0
    before = speed.probe()
    while True:
        traced = tracer is not None and cycles % 2 == 1
        if traced:
            tracer.install()
        for _ in range(workload.cycle):
            job = workload.make_job(i)
            if traced:
                tracer.job_id = i
                traced_jobs[i] = job
            res = run_job(cli.main, job.argv)
            after = speed.probe()
            scale = speed.REFERENCE_S / ((before + after) / 2)
            before = after
            if traced:
                tracer.scale[i] = scale
            problem = job.check(res)
            if problem and reported < 10:
                reported += 1
                print(f"FAILED {job.kind} {' '.join(job.argv)}: {problem}", file=sys.stderr)
            records.append((res.seconds, res.seconds * scale, problem is None, traced))
            i += 1
        if traced:
            tracer.remove()
        cycles += 1
        elapsed = time.monotonic() - start
        enough = elapsed >= seconds and len(records) >= MIN_JOBS
        if (enough and (tracer is None or cycles % 2 == 0)) or elapsed >= LOOP_LIMIT_S:
            return records, traced_jobs, cycles


def end_to_end(records, prefix: str = "", calibrated: bool = True) -> dict[str, tuple[float, str]]:
    """Throughput and latency, in calibrated time (see speed.py) or in wall time."""
    times = [c if calibrated else s for s, c, _, _ in records]
    passed = sum(ok for _, _, ok, _ in records)
    return {
        prefix + "jobs_per_s": (passed / sum(times), "1/s"),
        prefix + "job_ms_p50": (quantile(times, 0.5) * 1e3, "ms"),
        prefix + "job_ms_p90": (quantile(times, 0.9) * 1e3, "ms"),
    }


def calibration(records) -> dict[str, tuple[float, str]]:
    """The speed probe's median time and the plain wall-clock figures: a
    comparison of two commits can show with them that the probe stayed put."""
    probe = statistics.median(s / c for s, c, _, _ in records) * speed.REFERENCE_S
    return {"speed.probe_ms": (probe * 1e3, "ms")} | end_to_end(records, "wall.", calibrated=False)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twoatom" / "cli.py").is_file():
        print(f"error: no twoatom sources in {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import twoatom
    import twoatom.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported twoatom from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("always")  # every job warns as a fresh process would

    setup_s, numpy_s, own_s = spawn_imports(IMPORT_SPAWNS)
    directory = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        exits = {0, 2, 3} | {v for k, v in vars(cli).items() if k.startswith("EXIT_") and isinstance(v, int)}
        workload = workloads.WORKLOADS[args.workload](
            np.random.default_rng(args.seed), workloads.StateFiles(directory), exits)
        problems = self_test(workload, cli)
        if problems:
            print("error: the output check is broken:\n  " + "\n  ".join(problems), file=sys.stderr)
            return 1
        tracer = spans.Tracer(twoatom) if args.trace else None
        gc.collect()
        gc.freeze()  # the benchmark's own objects stay out of the collections jobs trigger
        records, traced_jobs, cycles = run_cycles(workload, cli, workload.cycle, args.seconds, tracer)
        if len(records) < MIN_JOBS or (tracer is not None and cycles < 2):
            print(f"error: the timed loop stopped at {LOOP_LIMIT_S:g} s after {len(records)} jobs in "
                  f"{cycles} cycles; a run needs {MIN_JOBS} jobs and, traced, two cycles", file=sys.stderr)
            return 1
        probes = [(job, job.check(run_job(cli.main, job.argv))) for job in workload.probes]
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    failed = sum(not ok for _, _, ok, _ in records)
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} jobs in {cycles} cycles, "
          f"{failed} failed (failed_frac {failed / len(records):.6g})")
    untraced = [r for r in records if not r[3]]
    figures = calibration(untraced)
    print("calibration " + json.dumps({name: value for name, (value, _) in figures.items()}))
    for job, problem in probes:
        print(f"known-defect probe {job.kind}: {'passes' if problem is None else 'fails: ' + problem}")
    if probes:
        print(f"known-defect probes failing: {sum(p is not None for _, p in probes)} of {len(probes)}")
    if args.trace:
        plain = end_to_end(untraced)["jobs_per_s"][0]
        traced = end_to_end([r for r in records if r[3]])["jobs_per_s"][0]
        metrics = tracer.metrics(traced_jobs) | figures | {
            "import.numpy_s": (numpy_s, "s"),
            "import.twoatom_own_s": (own_s, "s"),
            "trace.overhead_frac": (1.0 - traced / plain, "ratio"),
        }
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans_path)
        print(f"{len(tracer.name)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(records) | {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
