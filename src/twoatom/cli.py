"""Command-line front end: scenario runner and curve-file emitter.

Subcommands
-----------
evolve       time series (t, concurrence[, rho]) for a state file
asymptotic   stationary-state report for a state file
concurrence  one-shot concurrence of a state file
figure       canonical curve files fig1 / fig2 / fig3
peak         transient-entanglement peak (time, height) for g < 1

Exit codes: 0 success, 2 invalid input state (or a closed stdin for
``--state -``), 3 a command line the parser rejects, an unsupported parameter
combination or a parameter out of range (a ``--samples`` too large to
allocate included), 4 numerical failure
(RK4 step too large for the rates, eigensolver not converged, computed state
not PSD), 5 the output could not be written (closed pipe, full device, closed
stdout), as in ``twoatom evolve ... | head -1`` or ``... > /dev/full``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import Callable, TextIO

import numpy as np

from . import entanglement, propagator, qmat, states, statefile
from .model import (
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
EXIT_WRITE_FAILED = 5
Writer = Callable[[TextIO], object]  # what a cmd_* returns: it writes the output to a stream

def _load_state(source: str, seed) -> np.ndarray:
    if source == "random":
        if seed is not None and seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {seed}")
        rng = np.random.default_rng(seed)
        return qmat.random_density_matrix(rng)
    try:
        if source == "-":
            if sys.stdin is None:
                raise OSError("stdin is closed")
            return statefile.load_state(sys.stdin)
        with open(source, "r", encoding="utf-8") as fp:
            return statefile.load_state(fp)
    except OSError as exc:
        raise StateFileError(str(exc)) from exc


@contextlib.contextmanager
def _output(path):
    if path in (None, "-"):
        if sys.stdout is None:
            raise OSError("stdout is closed")
        yield sys.stdout
    else:
        try:
            fp = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise ParameterError(f"cannot write --output: {exc}") from exc
        with fp:
            yield fp


def _report(fmt: str, payload, lines) -> Writer:
    """Writer of ``payload`` as JSON, or for any other ``fmt`` of the lines ``lines()``.
    A payload is a tree of Python numbers, str, lists and dicts.  Its JSON is the text
    of ``json.dumps(payload, indent=1)`` and a final newline, laid out by the writer of
    the JSON tables, :func:`statefile._json_text`."""
    if fmt == "json":
        return lambda fp: fp.write(statefile._json_text(payload) + "\n")
    return lambda fp: fp.write("".join(f"{line}\n" for line in lines()))


def _t_max(args, params: ModelParams) -> float:
    return args.t_max if args.t_max is not None else 5.0 / params.gamma0


def cmd_evolve(args) -> Writer:
    rho0 = _load_state(args.state, args.seed)
    params = ModelParams(gamma0=args.gamma0, g=args.g)
    t_max = _t_max(args, params)
    grid = time_grid(t_max, args.samples)
    if args.method == "rk4":
        traj = evolve_series(rho0, params, grid, step=args.dt)
    else:
        traj = propagator.evolve(rho0, params, grid)
    columns = {"t": grid, "concurrence": entanglement.concurrence(traj)}
    if args.with_rho:
        columns["rho"] = traj
    metadata = {"scenario": "evolve", "gamma0": args.gamma0, "g": args.g, "method": args.method,
                "grid": {"t_max": t_max, "samples": args.samples}}
    return functools.partial(statefile.write_table, columns, metadata, args.format)


def cmd_asymptotic(args) -> Writer:
    rho0 = _load_state(args.state, args.seed)
    # the stationary state does not depend on gamma0; asymptotic_state checks g
    rho_as = propagator.asymptotic_state(rho0, args.g)
    rows = rho_as.tolist()  # Python complex entries, for the JSON pairs and the text rows
    payload = {"g": args.g}
    if args.g == 1.0:
        pars = propagator.asymptotic_params(rho0)
        payload |= {"alpha": pars.alpha, "beta": [pars.beta.real, pars.beta.imag]}
    payload |= {
        "rho_as": [[z.real, z.imag] for row in rows for z in row],
        "concurrence": entanglement.asymptotic_concurrence(rho_as),
    }
    if args.g < 1.0:
        payload["note"] = "uniquely relaxing for g < 1: asymptotic state is ground x ground"

    def lines():
        if args.g == 1.0:
            yield from (f"alpha = {pars.alpha!r}", f"beta = {pars.beta!r}")
        else:
            yield payload["note"]
        yield "rho_as ="
        for row in rows:
            yield "  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row)
        yield f"concurrence = {payload['concurrence']!r}"
    return _report(args.format, payload, lines)


def cmd_concurrence(args) -> Writer:
    c = entanglement.concurrence(_load_state(args.state, args.seed))
    return _report("text", c, lambda: [repr(c)])


def _peak_window(gamma0: float, gamma: float, t_end: float, t_pk: float):
    """The argmax of exp(-gamma0 t) sinh(gamma t) over ``arange(0, t_end, 1e-4/gamma0)``.

    Returns the window of grid times searched, the curve on it and the
    window index of the maximum; the time and value there are bit-identical
    to a search of the whole grid.  Point i of that grid is ``i * spacing``
    (numpy's arange fills ``start + i * step``), so a window is built
    without the rest of the grid.

    The window starts at +-64 points around ``t_pk`` and widens 8-fold
    until each edge is an end of the grid or is certified: its value lies
    below ``m (1 - 1e-12) - 1e-320``, with m the window maximum.  The
    widest window is the whole grid, so the loop ends.  Why a certified
    edge bounds everything beyond it: the exact curve f rises on
    [0, t*] and falls after, with one turning point t* (f' = 0 where
    tanh(gamma t) = gamma/gamma0).  For gamma0 t <= 20 each computed value
    is within about 50 eps of f relative, plus a few subnormal units a
    where it underflows; 1e-12 and 1e-320 exceed both a thousandfold.
      * A certified left edge lies before t*: were it at or after t*, f
        there would be at least f at the maximum's index, and its computed
        value at least m (1 - 2*50 eps) - 2a, above the threshold.
      * So f rises up to that edge, every point left of it has f no larger
        than at the edge, and its computed value is at most
        (1 + 3*50 eps)(threshold + a) + a < m.  The right edge mirrors this.
    No point outside a certified window reaches or ties m, and
    ``np.argmax`` returns the same first index as over the whole grid.
    """
    spacing = 1e-4 / gamma0
    n = int(np.ceil(t_end / spacing))  # len(np.arange(0.0, t_end, spacing))
    c = min(int(t_pk / spacing), n - 1)
    k = 64
    while True:
        lo, hi = max(c - k, 0), min(c + k + 1, n)
        grid = np.arange(lo, hi) * spacing
        vals = np.exp(-gamma0 * grid) * np.sinh(gamma * grid)
        i = int(np.argmax(vals))
        floor = vals[i] * (1.0 - 1e-12) - 1e-320
        if (lo == 0 or vals[0] < floor) and (hi == n or vals[-1] < floor):
            return grid, vals, i
        k *= 8


def cmd_peak(args) -> Writer:
    params = ModelParams(gamma0=args.gamma0, g=args.g)
    gamma0, gamma = params.gamma0, params.gamma
    # brute-force verification on a fine grid
    t_end = 20.0 / gamma0
    if not t_end < np.inf:
        raise ParameterError(f"gamma0={gamma0} is too small for the peak search grid")
    t_pk = propagator.t_gamma(gamma0, gamma)
    c_pk = propagator.c_max(gamma0, gamma)
    grid, vals, i = _peak_window(gamma0, gamma, t_end, t_pk)
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
    keys = ("t_gamma", "c_max", "grid_t", "grid_c", "residual_t", "residual_c")
    return _report(args.format, payload, lambda: (f"{key} = {payload[key]!r}" for key in keys))


#: the Bell-start figures: g, and the concurrence column of each start
_BELL_FIGURES = {
    "fig1": (1.0, {"c_phi_plus": "phi_plus", "c_psi_plus": "psi_plus"}),
    "fig3": (0.99, {"c_plus": "psi_plus", "c_minus": "psi_minus"}),
}


def cmd_figure(args) -> Writer:
    g, starts = _BELL_FIGURES.get(args.which, (1.0, {}))
    params = ModelParams(gamma0=args.gamma0, g=g)
    grid = time_grid(_t_max(args, params), args.samples)
    if args.which == "fig2":
        deltas = np.linspace(0.0, 1.0, len(grid))
        family = states.mems(deltas)
        columns = {
            "delta": deltas,
            "purity": states.purity(family),
            "c_initial": entanglement.concurrence(family),
            "c_asymptotic": entanglement.asymptotic_concurrence(family),
        }
        metadata = {"scenario": "fig2", "g": g}
    else:
        columns = {"t": grid} | {
            column: entanglement.concurrence(propagator.evolve(states.bell(start), params, grid))
            for column, start in starts.items()
        }
        metadata = {"scenario": args.which, "gamma0": args.gamma0, "g": g}
    return functools.partial(statefile.write_table, columns, metadata, args.format)


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


class _Parser(argparse.ArgumentParser):
    """Rejects a command line with ``ParameterError`` (exit 3), not a usage block and exit 2.

    ``build_parser`` sets ``subcommands`` on the top parser: the name of each
    subcommand mapped to that subcommand's parser.
    """

    subcommands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    A rejected command line raises ``ParameterError``; parsing, and that
    error, leave the parser unchanged.
    """
    top = _Parser(
        prog="twoatom",
        description="Dissipative dynamics and entanglement of two two-level atoms",
    )
    sub = top.add_subparsers(dest="command", required=True)
    top.subcommands = sub.choices

    p = sub.add_parser("evolve", help="emit a (t, concurrence[, rho]) time series")
    _add_state_arg(p)
    p.add_argument("--gamma0", type=float, default=1.0)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=None, help="default 5/gamma0")
    p.add_argument("--samples", type=int, default=501)
    p.add_argument(
        "--dt", type=float, default=1e-3,
        help="RK4 step; a step above the sample spacing acts as the spacing",
    )
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


def _parse(argv) -> argparse.Namespace:
    top = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = top.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            return args
    return top.parse_args(argv)


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None); returns its exit code.

    A command line whose first word names a subcommand is parsed once, by
    that subcommand's parser, into the namespace ``build_parser().parse_args``
    gives but for ``command``.  A line that parser leaves strings over from,
    and one that starts with anything else (nothing, ``-h``, an option, an
    unknown word, ``--``), goes whole through the top parser as well, so
    every error and help text is the one ``build_parser().parse_args`` gives.
    """
    try:
        args = _parse(argv)
        write = args.func(args)
        # opened once the command has returned, so a failed run leaves --output untouched
        with _output(getattr(args, "output", None)) as fp:
            write(fp)
            fp.flush()
        return EXIT_OK
    except (StateFileError, qmat.InvalidStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_STATE
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (StepTooLargeError, np.linalg.LinAlgError,
            qmat.NotPSDError, qmat.NotHermitianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    try:
        code = main()
    except OSError as exc:
        # main has turned every failure to read into its own error, so this is
        # the output: devnull takes the rest of stdout, the interpreter's flush included
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: output could not be written: {exc.strerror or exc}", file=sys.stderr)
        code = EXIT_WRITE_FAILED
    sys.exit(code)


if __name__ == "__main__":
    entry()
