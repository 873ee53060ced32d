"""Machine-speed probe: a fixed piece of work timed next to every job.

On a shared machine other tenants slow the CPU by up to 2x for seconds at a
time, and the speed drifts by about 20 % over minutes.  The probe does the
same kinds of work as the program (building and using an argparse parser,
4x4 eigendecompositions and SVDs, 16x16 matrix-vector products, float
formatting, JSON), on inputs fixed here, so
its time follows the machine and never the program.  A job's calibrated time
is its wall time times REFERENCE_S / (probe time next to it): the time the
job would take on a machine where the probe takes REFERENCE_S.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

#: probe time that defines the reference speed: a round figure near its
#: time on a 2.1 GHz Xeon with Python 3.11 and numpy 2.4 (1.0 ms uncontended)
REFERENCE_S = 1.0e-3
#: timed probe runs after every job, after one untimed warm-up run; the
#: count is fixed so that the probe does not depend on the job before it
RUNS = 3

_rng = np.random.default_rng(20020404)
_g = _rng.standard_normal((8, 4, 4)) + 1j * _rng.standard_normal((8, 4, 4))
_MATS = _g @ np.conj(np.swapaxes(_g, 1, 2))
_GEN = _rng.standard_normal((16, 16)) / 16.0
_VEC = _rng.standard_normal(16)
_FLOATS = _rng.standard_normal(128).tolist()
_RECORDS = [{"t": x, "c": y} for x, y in zip(_FLOATS, _FLOATS[1:])]


def _parse() -> argparse.Namespace:
    top = argparse.ArgumentParser(prog="probe")
    sub = top.add_subparsers(dest="command", required=True)
    for name in ("first", "second", "third"):
        p = sub.add_parser(name, help=f"{name} command")
        p.add_argument("--value", type=float, default=1.0)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return top.parse_args(["second", "--value", "2.5", "--format", "json"])


def _work() -> int:
    _parse()
    for m in _MATS:
        np.linalg.eigh(m)
        np.linalg.svd(m, compute_uv=False)
    y = _VEC
    for _ in range(32):
        y = _GEN @ y
    text = ",".join(repr(x) for x in _FLOATS)
    return len(text) + len(json.loads(json.dumps(_RECORDS)))


def probe() -> float:
    """Median time of RUNS probe runs, after one untimed warm-up run that
    takes the cold caches the job left behind."""
    _work()
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter_ns()
        _work()
        times.append((time.perf_counter_ns() - t0) / 1e9)
    return statistics.median(times)
