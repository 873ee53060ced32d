"""Seeded workloads: state files, job schedules and the check of every job.

A workload is a fixed cycle of job kinds.  The seed draws the states and the
continuous parameters, never the kinds, their order or their sizes, so every
seed puts the same work on each layer and a second seed checks a claim on
inputs not used while the change was written.  Each job's output is parsed
and compared with :mod:`reference`, which does not use the package.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from pathlib import Path
from typing import Callable

import numpy as np

import reference

#: sample times, compared with numpy.linspace
TOL_T = 1e-12
#: density-matrix entries and stationary parameters
TOL_RHO = 1e-9
#: concurrence, purity and peak values.  Concurrence is not Lipschitz at
#: rank-deficient states: rounding of 1e-16 there moves it by ~1e-8.  The
#: check must still reject a 1e-6 perturbation.
TOL_C = 1e-7
#: complex matrix entries the CLI prints with six decimals: half a unit of the
#: sixth decimal in both parts
TOL_PRINTED = 0.5e-6 * np.sqrt(2.0) + TOL_RHO
#: exit code the README documents for an invalid input state
EXIT_BAD_STATE = 2

RHO_LABELS = [f"{j}{k}" for j in range(1, 5) for k in range(1, 5)]
_FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")
_PRINTED_COMPLEX = re.compile(r"([+-]\d+\.\d+)([+-]\d+\.\d+)j")


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What one call of ``main(argv)`` did."""

    code: int | None  # exit code; None when main raised
    error: str | None  # the exception main raised, if any
    out: str
    err: str
    seconds: float


@dataclasses.dataclass
class Job:
    kind: str
    argv: list[str]
    check: Callable[[Outcome], str | None]  # None when the outcome is correct
    samples: int = 0  # time samples of an evolve job
    rk4_steps: int = 0  # steps the RK4 scheme takes, computed from grid and dt
    closed_form: bool = False


@dataclasses.dataclass
class Workload:
    cycle: int  # jobs in one cycle of kinds
    make_job: Callable[[int], Job]  # the i-th job; call in order of i
    probes: list[Job]  # inputs of known contract defects, run untimed


# ---------------------------------------------------------------- state files


class StateFiles:
    """Writes numbered state files into one directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def write(self, payload, rho=None) -> tuple[str, np.ndarray | None]:
        """Write a payload (JSON object or raw text); return (path, rho)."""
        path = self.directory / f"state{self.count:04d}.json"
        self.count += 1
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text, encoding="utf-8")
        return str(path), rho


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).ravel()]


def _ket(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _mixed(rng) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


_FAMILY_PARAMS = {
    "product": lambda rng: {"psi": _pairs(_ket(rng, 2)), "phi": _pairs(_ket(rng, 2))},
    "basis": lambda rng: {"a": str(rng.choice(["excited", "ground"])),
                          "b": str(rng.choice(["excited", "ground"]))},
    "bell": lambda rng: {"which": str(rng.choice(reference.BELL_ORDER))},
    "mes": lambda rng: {"a": float(rng.random()), "theta1": float(rng.uniform(0, 2 * np.pi)),
                        "theta2": float(rng.uniform(0, 2 * np.pi))},
    "bell_diagonal": lambda rng: {"p": [float(x) for x in rng.dirichlet(np.ones(4))]},
    "werner": lambda rng: {"p": float(rng.random())},
    "mems": lambda rng: {"delta": float(rng.random())},
}
STATE_KINDS = ("mixed", "pure", *_FAMILY_PARAMS)


def draw_state(rng, kind: str, form: str):
    """(state-file payload, density matrix) of a seeded state of one kind."""
    if kind == "mixed":
        rho = _mixed(rng)
    elif kind == "pure":
        rho = reference.projector(_ket(rng, 4))
    else:
        params = _FAMILY_PARAMS[kind](rng)
        rho = reference.family_state(kind, params)
        if form == "family":
            return {"family": kind, "params": params}, rho
    return {"entries": _pairs(rho)}, rho


def state_pool(rng, files: StateFiles, size: int) -> list[tuple[str, np.ndarray]]:
    """Every state kind in turn, named families alternating between both forms."""
    pool = []
    for i in range(size):
        kind = STATE_KINDS[i % len(STATE_KINDS)]
        form = ("family", "entries")[(i // len(STATE_KINDS)) % 2]
        pool.append(files.write(*draw_state(rng, kind, form)))
    return pool


# ---------------------------------------------------------------- checks


def _exit_problem(res: Outcome) -> str | None:
    if res.error is not None:
        return f"raised {res.error}"
    if res.code != 0:
        return f"exit {res.code}: {res.err.strip()[:200]}"
    return None


def _compare(got: dict, want: dict) -> str | None:
    """``want`` maps column name to (values, tolerance); names must match in order."""
    if list(got) != list(want):
        return f"columns {list(got)[:6]}... differ from {list(want)[:6]}..."
    for name, (values, tol) in want.items():
        g, w = np.asarray(got[name]), np.asarray(values)
        if g.shape != w.shape:
            return f"{name}: shape {g.shape}, expected {w.shape}"
        dev = float(np.abs(g - w).max()) if g.size else 0.0
        if not dev <= tol:
            return f"{name}: deviation {dev:.3e} above {tol:.0e}"
    return None


def _columns(out: str, fmt: str) -> dict[str, np.ndarray]:
    if fmt == "csv":
        lines = out.splitlines()
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
        return dict(zip(lines[0].split(","), table.T))
    records = json.loads(out)["records"]
    cols = {}
    for key in records[0]:
        if key == "rho":
            rho = np.array([r["rho"] for r in records], dtype=float)
            for j, lbl in enumerate(RHO_LABELS):
                cols[f"rho_re_{lbl}"] = rho[:, j, 0]
                cols[f"rho_im_{lbl}"] = rho[:, j, 1]
        else:
            cols[key] = np.array([r[key] for r in records], dtype=float)
    return cols


def _parsed(check_output):
    """Turn a parse error of malformed output into a failed check."""

    def check(res: Outcome) -> str | None:
        problem = _exit_problem(res)
        if problem:
            return problem
        try:
            return check_output(res.out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"

    return check


def series_check(rho0, gamma0, g, t_max, samples, fmt, with_rho):
    def check_output(out):
        traj = reference.trajectory(rho0, gamma0, g, t_max, samples)
        want = {
            "t": (np.linspace(0.0, t_max, samples), TOL_T * t_max),
            "concurrence": (reference.concurrence(traj), TOL_C),
        }
        if with_rho:
            flat = traj.reshape(samples, 16)
            for j, lbl in enumerate(RHO_LABELS):
                want[f"rho_re_{lbl}"] = (flat[:, j].real, TOL_RHO)
                want[f"rho_im_{lbl}"] = (flat[:, j].imag, TOL_RHO)
        return _compare(_columns(out, fmt), want)

    return _parsed(check_output)


def figure_check(which, gamma0, samples, fmt):
    def check_output(out):
        t_max = 5.0 / gamma0
        t = np.linspace(0.0, t_max, samples)
        if which == "fig1":
            want = {
                "t": (t, TOL_T * t_max),
                "c_phi_plus": (reference.concurrence(reference.trajectory(
                    reference.projector(reference.BELL["phi_plus"]), gamma0, 1.0, t_max, samples)), TOL_C),
                "c_psi_plus": (reference.concurrence(reference.trajectory(
                    reference.projector(reference.BELL["psi_plus"]), gamma0, 1.0, t_max, samples)), TOL_C),
            }
        elif which == "fig2":
            deltas = np.linspace(0.0, 1.0, samples)
            mems = np.array([reference.family_state("mems", {"delta": d}) for d in deltas])
            want = {
                "delta": (deltas, TOL_T),
                "purity": (reference.purity(mems), TOL_C),
                "c_initial": (reference.concurrence(mems), TOL_C),
                "c_asymptotic": (reference.concurrence(reference.stationary(mems)), TOL_C),
            }
        else:
            curves = {
                name: reference.concurrence(reference.trajectory(
                    reference.projector(reference.BELL[bell]), gamma0, 0.99, t_max, samples))
                for name, bell in (("c_plus", "psi_plus"), ("c_minus", "psi_minus"))
            }
            want = {"t": (t, TOL_T * t_max)} | {k: (v, TOL_C) for k, v in curves.items()}
        return _compare(_columns(out, fmt), want)

    return _parsed(check_output)


def _key_values(out: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)


def asymptotic_check(rho0, g, fmt):
    if g == 1.0:
        rho_as = reference.stationary(rho0)
        conc = float(reference.concurrence(rho_as))
        alpha, beta = rho_as[1, 1].real, rho_as[1, 3]
    else:
        rho_as = reference.projector(np.kron(reference.KET["ground"], reference.KET["ground"]))
        conc = 0.0

    def check_output(out):
        if fmt == "json":
            doc = json.loads(out)
            got = {"rho_as": np.array(doc["rho_as"], dtype=float), "concurrence": doc["concurrence"]}
            want = {"rho_as": (np.column_stack([rho_as.real.ravel(), rho_as.imag.ravel()]), TOL_RHO),
                    "concurrence": (conc, TOL_C)}
            if g == 1.0:
                got |= {"alpha": doc["alpha"], "beta": doc["beta"]}
                want |= {"alpha": (alpha, TOL_RHO), "beta": ([beta.real, beta.imag], TOL_RHO)}
        else:
            fields = _key_values(out)
            rows = [_PRINTED_COMPLEX.findall(line) for line in out.splitlines() if line.startswith("  ")]
            printed = np.array([[float(re_) + 1j * float(im) for re_, im in row] for row in rows])
            got = {"rho_as": printed, "concurrence": float(fields["concurrence"])}
            want = {"rho_as": (rho_as, TOL_PRINTED), "concurrence": (conc, TOL_C)}
            if g == 1.0:
                got |= {"alpha": float(fields["alpha"]), "beta": complex(fields["beta"])}
                want |= {"alpha": (alpha, TOL_RHO), "beta": (beta, TOL_RHO)}
        return _compare(got, {k: want[k] for k in got})

    return _parsed(check_output)


def concurrence_check(rho0):
    conc = float(reference.concurrence(rho0))
    return _parsed(lambda out: _compare({"concurrence": float(out)}, {"concurrence": (conc, TOL_C)}))


def peak_check(gamma0, g, fmt):
    t_ref, c_ref = reference.peak(gamma0, g)
    spacing = 1e-4 / gamma0

    def check_output(out):
        doc = json.loads(out) if fmt == "json" else {k: float(v) for k, v in _key_values(out).items()}
        grid_t, grid_c = doc["grid_t"], doc["grid_c"]
        on_curve = np.exp(-gamma0 * grid_t) * np.sinh(g * gamma0 * grid_t)
        got = {k: doc[k] for k in ("t_gamma", "c_max", "grid_t", "grid_c", "residual_t", "residual_c")}
        want = {
            "t_gamma": (t_ref, TOL_C),
            "c_max": (c_ref, TOL_C),
            # the grid maximum lies within one grid spacing of the true peak
            "grid_t": (t_ref, spacing * (1.0 + 1e-9)),
            "grid_c": (on_curve, TOL_C),
            "residual_t": (abs(grid_t - doc["t_gamma"]), TOL_C),
            "residual_c": (abs(grid_c - doc["c_max"]), TOL_C),
        }
        return _compare(got, want)

    return _parsed(check_output)


def error_check(codes):
    """An invalid input passes only with one of ``codes`` and one line on stderr."""

    def check(res: Outcome) -> str | None:
        if res.error is not None:
            return f"raised {res.error}"
        lines = res.err.strip().splitlines()
        if res.code not in codes:
            return f"exit {res.code}, expected one of {sorted(codes)}"
        if res.out or len(lines) != 1:
            return f"expected one stderr line and no stdout, got {len(lines)} lines and {len(res.out)} chars"
        return None

    return check


def perturb(res: Outcome) -> Outcome | None:
    """The outcome with its last printed number moved by 1e-6 (or, for an error, exit 0)."""
    if res.code != 0:
        return dataclasses.replace(res, code=0)
    last = None
    for last in _FLOAT.finditer(res.out):
        pass
    if last is None:
        return None
    bumped = repr(float(last.group()) + 1e-6)
    return dataclasses.replace(res, out=res.out[: last.start()] + bumped + res.out[last.end():])


# ---------------------------------------------------------------- workloads


def rk4_step_count(t_max: float, samples: int, dt: float) -> int:
    """Steps of the fixed-step scheme on linspace(0, t_max, samples): whole steps
    per interval plus one shorter remainder step."""
    gaps = np.diff(np.linspace(0.0, t_max, samples))
    whole = np.floor(gaps / dt + 1e-12)
    return int(whole.sum() + np.count_nonzero(gaps - whole * dt > 1e-15))


def rk4_series(rng, files: StateFiles, error_codes) -> Workload:
    """RK4 time series: the model layer and one concurrence per sample."""
    pool = state_pool(rng, files, 127)
    g_values, sample_counts, t_max = (0.0, 0.3, 0.7, 0.99, 1.0), (101, 501, 2001), 5.0

    def make_job(i: int) -> Job:
        g, samples = g_values[i % 5], sample_counts[i % 3]
        path, rho = pool[i % len(pool)]
        argv = ["evolve", "--state", path, "--method", "rk4", "--g", repr(g), "--samples", str(samples)]
        return Job("evolve-rk4-csv", argv, series_check(rho, 1.0, g, t_max, samples, "csv", False),
                   samples=samples, rk4_steps=rk4_step_count(t_max, samples, 1e-3))

    return Workload(15, make_job, [])


_SPECIAL_STARTS = (
    ("basis", {"a": "excited", "b": "ground"}),
    ("basis", {"a": "ground", "b": "excited"}),
    ("bell", {"which": "psi_plus"}),
    ("bell", {"which": "psi_minus"}),
)
_OUTPUTS = (("json", True), ("csv", False), ("csv", True))  # (format, with rho)


def closed_form_io(rng, files: StateFiles, error_codes) -> Workload:
    """Closed forms, rho(t) output and the figures: propagator, states and writers."""
    seeded = [files.write(*draw_state(rng, "mixed", "entries")) for _ in range(61)]
    special = []  # each start in the family form and the entries form
    for family, params in _SPECIAL_STARTS:
        rho = reference.family_state(family, params)
        special.append([files.write({"family": family, "params": params}, rho),
                        files.write({"entries": _pairs(rho)}, rho)])
    kinds = [("evolve", at, out) for at in ("g1", "g<1") for out in _OUTPUTS]
    kinds += [("figure", which, fmt) for which in ("fig1", "fig2", "fig3") for fmt in ("csv", "json")]
    cycle = list(itertools.product(range(len(special)), kinds))
    # one size: closed-form cost is linear in the samples, and rk4_series varies them
    samples = 301

    def make_job(i: int) -> Job:
        start, (task, what, how) = cycle[i % len(cycle)]
        gamma0 = float(rng.uniform(0.5, 2.0))
        common = ["--gamma0", repr(gamma0), "--samples", str(samples)]
        if task == "figure":
            return Job(f"figure-{what}-{how}", ["figure", what, *common, "--format", how],
                       figure_check(what, gamma0, samples, how))
        fmt, with_rho = how
        if what == "g1":
            g = 1.0
            path, rho = seeded[i % len(seeded)]
        else:
            g = float(rng.choice((0.0, 0.3, 0.7, 0.99)))
            path, rho = special[start][(i // len(cycle)) % 2]
        argv = ["evolve", "--state", path, "--method", "closed-form", "--g", repr(g), *common, "--format", fmt]
        argv += ["--with-rho"] if with_rho else []
        kind = f"evolve-closed-{what}-{fmt}" + ("-rho" if with_rho else "")
        return Job(kind, argv, series_check(rho, gamma0, g, 5.0 / gamma0, samples, fmt, with_rho),
                   samples=samples, closed_form=True)

    return Workload(len(cycle), make_job, [])


_CLI_KINDS = (
    "concurrence", "asymptotic-g1-json", "concurrence", "asymptotic-g1-csv", "peak-csv",
    "bad-json", "concurrence", "asymptotic-below-json", "concurrence", "asymptotic-g1-json",
    "non-psd", "peak-json", "asymptotic-g1-csv", "asymptotic-below-csv", "unknown-family",
)


def _invalid_files(rng, files: StateFiles, pool) -> dict[str, list[str]]:
    bad_json, non_psd, unknown = [], [], []
    for i in range(8):
        text = json.dumps({"entries": _pairs(pool[i][1])})
        bad_json.append(files.write(text[: int(rng.integers(1, len(text) - 1))])[0])
        negative = rng.uniform(0.05, 0.3)  # trace 1 with one eigenvalue below 0
        weights = np.append(rng.dirichlet(np.ones(3)) * (1.0 + negative), -negative)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        non_psd.append(files.write({"entries": _pairs(u @ np.diag(weights) @ u.conj().T)})[0])
        family = str(rng.choice(["ghz", "w_state", "dicke", "cluster"]))
        unknown.append(files.write({"family": family, "params": {}})[0])
    return {"bad-json": bad_json, "non-psd": non_psd, "unknown-family": unknown}


def cli_requests(rng, files: StateFiles, error_codes) -> Workload:
    """Short requests and rejected inputs: argument parsing, state reading and validation."""
    pool = state_pool(rng, files, 101)
    invalid = _invalid_files(rng, files, pool)

    def make_job(i: int) -> Job:
        kind = _CLI_KINDS[i % len(_CLI_KINDS)]
        path, rho = pool[i % len(pool)]
        if kind == "concurrence":
            return Job(kind, ["concurrence", "--state", path], concurrence_check(rho))
        if kind.startswith("asymptotic"):
            fmt = kind.rsplit("-", 1)[1]
            g = 1.0 if "-g1-" in kind else float(rng.uniform(0.0, 1.0))
            argv = ["asymptotic", "--state", path, "--g", repr(g), "--format", fmt]
            return Job(kind, argv, asymptotic_check(rho, g, fmt))
        if kind.startswith("peak"):
            fmt = kind.rsplit("-", 1)[1]
            gamma0, g = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.95))
            argv = ["peak", "--gamma0", repr(gamma0), "--g", repr(g), "--format", fmt]
            return Job(kind, argv, peak_check(gamma0, g, fmt))
        bad = invalid[kind][(i // len(_CLI_KINDS)) % 8]
        return Job(kind, ["concurrence" if kind == "bad-json" else "asymptotic", "--state", bad],
                   error_check({EXIT_BAD_STATE}))

    state = pool[0][0]
    rejected = error_check(set(error_codes) - {0})
    probes = [
        Job("t-max-inf", ["evolve", "--state", state, "--t-max", "inf"], rejected),
        Job("step-too-large", ["evolve", "--state", state, "--samples", "2", "--dt", "5"], rejected),
        Job("asymptotic-g-7", ["asymptotic", "--state", state, "--g", "7"], rejected),
        Job("figure-negative-gamma0", ["figure", "fig1", "--gamma0", "-1"], rejected),
    ]
    return Workload(len(_CLI_KINDS), make_job, probes)


WORKLOADS = {w.__name__: w for w in (rk4_series, closed_form_io, cli_requests)}
