"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces each public function of the twoatom modules, and
every other name bound to it (``cli`` binds ``evolve_series`` with
``from .model import ...``), with a wrapper that records a span: name,
start, end, parent span and job id.  Spans stay in memory until
:meth:`Tracer.write`.  A span's self time is its duration minus the time
covered by its child spans; a layer's self time is the sum over its spans.
Times are calibrated with the same speed-probe scale as the span's job.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "model", "propagator", "entanglement", "qmat", "states", "statefile")
#: one-line helpers called per matrix entry or per sample; their time counts to the caller
UNTRACED = {"qmat.dag", "qmat.kron", "statefile.state_to_entries"}


class Tracer:
    def __init__(self, package):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.stack: list[int] = []
        self.job_id = -1
        self.scale: dict[int, float] = {}  # job id -> calibration factor (see speed.py)
        self.bytes = {"out": 0, "in": 0}
        self._patches = self._plan(package)

    def _plan(self, package):
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[fn] = self._wrap(fn, name)
        return [
            (namespace, attr, obj, wrappers[obj])
            for namespace in (package, *modules)
            for attr, obj in vars(namespace).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def remove(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        # bytes a writer adds to its stream (last argument) or a loader reads (first)
        if name.startswith("statefile.write_") or name == "statefile.dump_state":
            counter, stream = "out", lambda args: args[-1]
        elif name == "statefile.load_state":
            counter, stream = "in", lambda args: args[0]
        else:
            counter = stream = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            pos = stream(args).tell() if stream else 0
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                if stream:
                    self.bytes[counter] += stream(args).tell() - pos
                self.end[idx] = time.perf_counter_ns()
                self.stack.pop()

        return traced

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0)
        self.raised.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def write(self, path) -> None:
        """Write every span as one CSV line."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("span,parent,job,name,start_ns,end_ns,raised\n")
            for i, (nid, par, job, t0, t1, exc) in enumerate(
                zip(self.name, self.parent, self.job, self.start, self.end, self.raised)
            ):
                fp.write(f"{i},{par},{job},{self.names[nid]},{t0},{t1},{exc}\n")

    def metrics(self, jobs: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced ``jobs`` (job id -> Job), per job where a total."""
        nid = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        job = np.array(self.job, dtype=np.int64)
        # indexed by job id; spans outside a job (id -1) take the trailing 1.0
        scale = np.array([self.scale.get(j, 1.0) for j in range(max(self.job, default=-1) + 1)] + [1.0])
        dur = (np.array(self.end) - np.array(self.start)) / 1e9 * scale[job]
        has_parent = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_s = dur - covered
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=self_s, minlength=n)
        rejected = np.bincount(nid, weights=np.array(self.raised, dtype=float), minlength=n)
        layer = np.array([LAYERS.index(name.split(".")[0]) for name in self.names], dtype=np.int64)
        span_layer = layer[nid] if len(nid) else nid

        def fn(name):
            if name not in self.names:  # the function no longer exists
                return 0, 0.0, 0.0, 0.0
            i = self.names.index(name)
            return calls[i], total[i], own[i], rejected[i]

        def layer_self(name):
            return float(own[layer == LAYERS.index(name)].sum())

        per_job = max(len(jobs), 1)
        steps = sum(j.rk4_steps for j in jobs.values())
        cf_jobs = [i for i, j in jobs.items() if j.closed_form]
        cf_samples = sum(jobs[i].samples for i in cf_jobs)
        # candidate states cli builds per closed-form sample (entries into states from cli)
        from_cli = has_parent & (span_layer == LAYERS.index("states"))
        from_cli[from_cli] = span_layer[parent[from_cli]] == LAYERS.index("cli")
        builds = int((from_cli & np.isin(job, cf_jobs)).sum())
        writers = [i for i, name in enumerate(self.names) if name.startswith("statefile.write_")]
        write_s = float(own[writers].sum())
        conc_calls, conc_total, _, _ = fn("entanglement.concurrence")
        validate = fn("qmat.validate_state")
        out = {"trace.jobs": (len(jobs), "count")}
        for name in ("model.evolve_series", "model.liouvillian", "entanglement.concurrence",
                     "qmat.sqrt_psd", "propagator.evolve_g1", "propagator.evolve_bell_general",
                     "propagator.evolve_excited_ground_general", "statefile.load_state",
                     "qmat.validate_state", "cli.main", "cli.build_parser"):
            c, _, s, _ = fn(name)
            out[f"{name}.calls"] = (c / per_job, "count/job")
            out[f"{name}.self_s"] = (s / per_job, "s/job")
        for name in LAYERS:
            out[f"{name}.self_s"] = (layer_self(name) / per_job, "s/job")
        out |= {
            "model.rk4_steps": (steps / per_job, "count/job"),
            "model.ns_per_step": (fn("model.evolve_series")[2] / steps * 1e9 if steps else 0.0, "ns"),
            "entanglement.us_per_concurrence": (conc_total / conc_calls * 1e6 if conc_calls else 0.0, "us"),
            "states.calls": (calls[layer == LAYERS.index("states")].sum() / per_job, "count/job"),
            "states.calls_per_closed_form_sample": (builds / cf_samples if cf_samples else 0.0, "ratio"),
            "statefile.write.self_s": (write_s / per_job, "s/job"),
            "statefile.bytes_out": (self.bytes["out"] / per_job, "B/job"),
            "statefile.bytes_in": (self.bytes["in"] / per_job, "B/job"),
            "statefile.us_per_kb_out": (write_s * 1e6 / (self.bytes["out"] / 1024) if self.bytes["out"] else 0.0,
                                        "us/KiB"),
            "qmat.validate_state.rejected": (validate[3] / per_job, "count/job"),
        }
        return out
