"""Command-line front end: scenario runner and curve-file emitter.

Subcommands
-----------
evolve       time series (t, concurrence[, rho]) for a state file
asymptotic   stationary-state report for a state file
concurrence  one-shot concurrence of a state file
figure       canonical curve files fig1 / fig2 / fig3
peak         transient-entanglement peak (time, height) for g < 1

Exit codes: 0 success, 2 invalid input state, 3 unsupported parameter
combination or parameter out of range, 4 numerical failure (the RK4 step
is too large for the rates, or an eigensolver did not converge).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import entanglement, propagator, qmat, states, statefile
from .model import (
    IntegratorConfig,
    ModelParams,
    ParameterError,
    StepTooLargeError,
    evolve_series,
    time_grid,
)
from .statefile import StateFileError

EXIT_OK = 0
EXIT_BAD_STATE = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERICAL = 4

_SWAP_AB = [0, 2, 1, 3]


class UnsupportedClosedFormError(ValueError):
    """Closed form requested outside its domain of validity."""


def _load_state(source: str, seed) -> np.ndarray:
    if source == "random":
        if seed is not None and seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {seed}")
        rng = np.random.default_rng(seed)
        return qmat.random_density_matrix(rng)
    try:
        if source == "-":
            return statefile.load_state(sys.stdin)
        with open(source, "r", encoding="utf-8") as fp:
            return statefile.load_state(fp)
    except OSError as exc:
        raise StateFileError(str(exc)) from exc


@contextlib.contextmanager
def _output(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        try:
            fp = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise ParameterError(f"cannot write --output: {exc}") from exc
        with fp:
            yield fp


def _t_max(args, params: ModelParams) -> float:
    return args.t_max if args.t_max is not None else 5.0 / params.gamma0


def _closed_form_general(rho0: np.ndarray, gamma0: float, gamma: float, t) -> np.ndarray:
    """Closed form at g < 1 for the few initial states that have one."""
    atol = 1e-12
    excited_ground = states.product_state(qmat.EXCITED, qmat.GROUND)
    ground_excited = states.product_state(qmat.GROUND, qmat.EXCITED)
    if np.allclose(rho0, excited_ground, atol=atol):
        return propagator.evolve_excited_ground_general(gamma0, gamma, t)
    if np.allclose(rho0, ground_excited, atol=atol):
        # atom-swap symmetry of the generator: relabel indices 2 <-> 3
        out = propagator.evolve_excited_ground_general(gamma0, gamma, t)
        return out[..., _SWAP_AB, :][..., _SWAP_AB]
    if np.allclose(rho0, states.bell("psi_plus"), atol=atol):
        return propagator.evolve_bell_general(+1, gamma0, gamma, t)
    if np.allclose(rho0, states.bell("psi_minus"), atol=atol):
        return propagator.evolve_bell_general(-1, gamma0, gamma, t)
    raise UnsupportedClosedFormError(
        "no closed form for this initial state at g < 1; use --method rk4"
    )


def cmd_evolve(args) -> int:
    rho0 = _load_state(args.state, args.seed)
    params = ModelParams(gamma0=args.gamma0, g=args.g)
    t_max = _t_max(args, params)
    grid = time_grid(t_max, args.samples)
    if args.method == "rk4":
        traj = evolve_series(rho0, params, grid, IntegratorConfig(step=args.dt))
    elif params.g == 1.0:
        traj = propagator.evolve_g1(rho0, params.gamma0, grid)
    else:
        traj = _closed_form_general(rho0, params.gamma0, params.gamma, grid)
    columns = {"t": grid, "concurrence": entanglement.concurrence(traj)}
    if args.with_rho:
        columns["rho"] = traj
    metadata = {
        "scenario": "evolve",
        "gamma0": args.gamma0,
        "g": args.g,
        "method": args.method,
        "grid": {"t_max": t_max, "samples": args.samples},
    }
    with _output(args.output) as fp:
        statefile.write_table(columns, metadata, args.format, fp)
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    rho0 = _load_state(args.state, args.seed)
    # the stationary state does not depend on gamma0
    params = ModelParams(gamma0=1.0, g=args.g)
    if params.g == 1.0:
        pars = propagator.asymptotic_params(rho0)
        rho_as = propagator.stationary_matrix(pars)
        conc = entanglement.concurrence(rho_as)
        payload = {
            "g": args.g,
            "alpha": pars.alpha,
            "beta": [pars.beta.real, pars.beta.imag],
            "rho_as": statefile.state_to_entries(rho_as),
            "concurrence": conc,
        }
    else:
        # uniquely relaxing for g < 1: every state ends in ground x ground
        rho_as = states.product_state(qmat.GROUND, qmat.GROUND)
        payload = {
            "g": args.g,
            "rho_as": statefile.state_to_entries(rho_as),
            "concurrence": 0.0,
            "note": "uniquely relaxing for g < 1: asymptotic state is ground x ground",
        }
    with _output(args.output) as fp:
        if args.format == "json":
            json.dump(payload, fp, indent=1)
            fp.write("\n")
        else:
            if "alpha" in payload:
                fp.write(f"alpha = {payload['alpha']!r}\n")
                fp.write(f"beta = {pars.beta!r}\n")
            if "note" in payload:
                fp.write(payload["note"] + "\n")
            fp.write("rho_as =\n")
            for row in np.asarray(rho_as):
                fp.write("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "\n")
            fp.write(f"concurrence = {payload['concurrence']!r}\n")
    return EXIT_OK


def cmd_concurrence(args) -> int:
    rho = _load_state(args.state, args.seed)
    print(repr(entanglement.concurrence(rho)))
    return EXIT_OK


def cmd_peak(args) -> int:
    params = ModelParams(gamma0=args.gamma0, g=args.g)
    if not 0.0 < params.g < 1.0:
        raise propagator.DegenerateRatesError(
            f"peak requires 0 < g < 1, got g={args.g}"
        )
    gamma0, gamma = params.gamma0, params.gamma
    # brute-force verification on a fine grid
    t_end = 20.0 / gamma0
    if not t_end < np.inf:
        raise ParameterError(f"gamma0={gamma0} is too small for the peak search grid")
    t_pk = propagator.t_gamma(gamma0, gamma)
    c_pk = propagator.c_max(gamma0, gamma)
    grid = np.arange(0.0, t_end, 1e-4 / gamma0)
    vals = np.exp(-gamma0 * grid) * np.sinh(gamma * grid)
    i = int(np.argmax(vals))
    payload = {
        "gamma0": gamma0,
        "g": args.g,
        "t_gamma": t_pk,
        "c_max": c_pk,
        "grid_t": float(grid[i]),
        "grid_c": float(vals[i]),
        "residual_t": float(abs(grid[i] - t_pk)),
        "residual_c": float(abs(vals[i] - c_pk)),
    }
    with _output(args.output) as fp:
        if args.format == "json":
            json.dump(payload, fp, indent=1)
            fp.write("\n")
        else:
            for key in ("t_gamma", "c_max", "grid_t", "grid_c", "residual_t", "residual_c"):
                fp.write(f"{key} = {payload[key]!r}\n")
    return EXIT_OK


def _figure_columns(which: str, params: ModelParams, grid: np.ndarray):
    gamma0 = params.gamma0
    if which == "fig1":
        c_phi = entanglement.concurrence(
            propagator.evolve_g1(states.bell("phi_plus"), gamma0, grid)
        )
        c_psi = np.exp(-2.0 * gamma0 * grid)
        return {"t": grid, "c_phi_plus": c_phi, "c_psi_plus": c_psi}, {
            "scenario": "fig1", "gamma0": gamma0, "g": 1.0,
        }
    if which == "fig2":
        deltas = np.linspace(0.0, 1.0, len(grid))
        family = states.mems(deltas)
        return {
            "delta": deltas,
            "purity": states.purity(family),
            "c_initial": entanglement.concurrence(family),
            "c_asymptotic": entanglement.asymptotic_concurrence(family),
        }, {"scenario": "fig2", "g": 1.0}
    if which == "fig3":
        plus = propagator.evolve_bell_general(+1, gamma0, params.gamma, grid)
        minus = propagator.evolve_bell_general(-1, gamma0, params.gamma, grid)
        c_plus, c_minus = entanglement.concurrence(plus), entanglement.concurrence(minus)
        return {"t": grid, "c_plus": c_plus, "c_minus": c_minus}, {
            "scenario": "fig3", "gamma0": gamma0, "g": params.g,
        }
    raise ValueError(f"unknown figure {which!r}")


def cmd_figure(args) -> int:
    params = ModelParams(gamma0=args.gamma0, g=0.99 if args.which == "fig3" else 1.0)
    grid = time_grid(_t_max(args, params), args.samples)
    columns, metadata = _figure_columns(args.which, params, grid)
    with _output(args.output) as fp:
        statefile.write_table(columns, metadata, args.format, fp)
    return EXIT_OK


def _add_state_arg(p):
    p.add_argument(
        "--state",
        required=True,
        help="state file path, '-' for stdin, or 'random' (seeded test ensemble)",
    )
    p.add_argument("--seed", type=int, default=None, help="seed for --state random")


def _add_output_args(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing, and the exit of a parse error, leave it unchanged.
    """
    top = argparse.ArgumentParser(
        prog="twoatom",
        description="Dissipative dynamics and entanglement of two two-level atoms",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="emit a (t, concurrence[, rho]) time series")
    _add_state_arg(p)
    p.add_argument("--gamma0", type=float, default=1.0)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=None, help="default 5/gamma0")
    p.add_argument("--samples", type=int, default=501)
    p.add_argument("--dt", type=float, default=1e-3, help="RK4 step")
    p.add_argument("--method", choices=("closed-form", "rk4"), default="rk4")
    p.add_argument("--with-rho", action="store_true", help="include rho(t) columns")
    _add_output_args(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("asymptotic", help="stationary-state report")
    _add_state_arg(p)
    p.add_argument("--g", type=float, default=1.0)
    _add_output_args(p)
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("concurrence", help="one-shot concurrence of a state file")
    _add_state_arg(p)
    p.set_defaults(func=cmd_concurrence)

    p = sub.add_parser("figure", help="canonical curve files")
    p.add_argument("which", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--gamma0", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=None, help="default 5/gamma0")
    p.add_argument("--samples", type=int, default=501)
    _add_output_args(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("peak", help="transient entanglement peak for 0 < g < 1")
    p.add_argument("--gamma0", type=float, default=1.0)
    p.add_argument("--g", type=float, required=True)
    _add_output_args(p)
    p.set_defaults(func=cmd_peak)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StateFileError, qmat.InvalidStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_STATE
    except (
        ParameterError,
        UnsupportedClosedFormError,
        propagator.DegenerateRatesError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (StepTooLargeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
