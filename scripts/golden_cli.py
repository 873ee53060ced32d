#!/usr/bin/env python3
"""Golden comparison of CLI output between this source tree and another.

    python scripts/golden_cli.py OTHER_TREE [--atol X]

Runs a fixed list of argv in process through ``twoatom.cli.main``, first
from this tree's ``src/`` and then from ``OTHER_TREE/src``, and captures
stdout, stderr and the exit code of each call.  The list covers
``evolve`` (rk4 and closed-form, csv and json, with and without
``--with-rho``), ``figure fig1-fig3``, ``asymptotic``, ``concurrence``
and ``peak``, extreme rates, closed-form calls at g near 0 and 1 and
stacks of more than one block (513 to 2,001 samples) included, state
files that the read boundary rejects, the parser's error and help paths,
and calls through the two other streams:
``--output FILE``, whose bytes count as the call's stdout (a file the
call did not create as the line ``[no file]``), and ``--state -``,
written ``... --state - < FILE`` and fed FILE on stdin.  One line per
call says whether the two trees gave byte-identical stdout, stderr and
exit code, and the largest absolute difference between the numbers in
their output.  Exits 1 if any call differs in any byte, 0 otherwise.
With ``--atol X`` a call also passes (marked ``near``) when the exit codes
are equal, stdout and stderr are equal once every number is masked, and
each number differs by at most X.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

THIS_TREE = Path(__file__).resolve().parents[1]

_NUMBER = re.compile(r"[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _entries(rho) -> dict:
    """A 4x4 matrix in the raw-entries form."""
    return {"entries": [[float(z.real), float(z.imag)] for z in np.ravel(rho)]}


def _entries_state(seed: int) -> dict:
    """A fixed full-rank state in the raw-entries form."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    return _entries(rho / np.trace(rho).real)


def _x_entries(diagonal, rho14: complex, rho23: complex) -> dict:
    """An X state (nonzero entries on the diagonal and the anti-diagonal only) as raw entries."""
    rho = np.diag(np.asarray(diagonal, dtype=complex))
    rho[0, 3], rho[1, 2] = rho14, rho23
    rho[3, 0], rho[2, 1] = np.conj(rho14), np.conj(rho23)
    return _entries(rho)


def _rotated(spectrum, seed: int) -> dict:
    """Q diag(spectrum) Q^T for a fixed random orthogonal Q: not an X state, as raw entries."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    return _entries((q * spectrum) @ q.T)


_STATES = {
    "excited_ground": {"family": "basis", "params": {"a": "excited", "b": "ground"}},
    "excited_excited": {"family": "basis", "params": {"a": "excited", "b": "excited"}},
    "phi_plus": {"family": "bell", "params": {"which": "phi_plus"}},
    "psi_plus": {"family": "bell", "params": {"which": "psi_plus"}},
    "psi_minus": {"family": "bell", "params": {"which": "psi_minus"}},
    "werner": {"family": "werner", "params": {"p": 0.7}},
    "bell_diagonal": {"family": "bell_diagonal", "params": {"p": [0.6, 0.1, 0.2, 0.1]}},
    "mems": {"family": "mems", "params": {"delta": 0.9}},
    "mes": {"family": "mes", "params": {"a": 0.3, "theta1": 0, "theta2": 0}},
    # complex-valued, as are entries and random: the other states are real-valued
    "mes_phased": {"family": "mes", "params": {"a": 0.3, "theta1": 0.4, "theta2": 1.9}},
    "entries": _entries_state(7),
    # complex X states: the other X states are real-valued
    "phi_plus_phased": _x_entries([0.5, 0.0, 0.0, 0.5], 0.5 * np.exp(0.7j), 0.0),
    "x_mixed": _x_entries([0.4, 0.2, 0.15, 0.25], 0.25 * np.exp(1.1j), 0.1 * np.exp(-0.4j)),
}

#: state files that the read boundary rejects, as file text; kept out of _STATES,
#: whose loops would multiply them
_REJECTED = {
    "indefinite": json.dumps(_rotated([0.6, 0.3, 0.2, -0.1], 3)),
    "trace_1_2": json.dumps(_entries(0.3 * np.eye(4))),
    "rho12_only": json.dumps(_entries(np.eye(4) / 4 + 0.1 * np.outer(*np.eye(4)[:2]))),
    "nan_entry": json.dumps(_x_entries([0.25, 0.25, 0.25, float("nan")], 0.0, 0.0)),
    "15_entries": json.dumps({"entries": [[0.25, 0.0]] * 15}),
    "unknown_family": json.dumps({"family": "ghz", "params": {}}),
    "werner_p2": json.dumps({"family": "werner", "params": {"p": 2}}),
    "truncated": '{"family": "werner", "params": {"p": 0.',
}

_PEAK_GAMMA0 = ("0.4", "1", "2.5", "1e5", "1e300")
_PEAK_G = (
    "5e-324", "1e-320", "1e-310", "1e-300", "1e-8", "0.01", "0.3", "0.5", "0.99",
    repr(1 - 1e-12), repr(1 - 2**-53), "0", "1",
)


def golden_argvs(state_dir: Path) -> list[list[str]]:
    """The fixed call list; state files are read from ``state_dir``."""
    paths = {name: str(state_dir / f"{name}.json") for name in _STATES}
    argvs = []
    for path in paths.values():
        for g in ("0", "0.3", "0.99", "1"):
            for method in ("rk4", "closed-form"):
                for fmt in ("csv", "json"):
                    for rho in ([], ["--with-rho"]):
                        argvs.append(
                            ["evolve", "--state", path, "--g", g, "--method", method,
                             "--format", fmt] + rho
                        )
    for extra in (
        ["--dt", "0.01"],
        ["--samples", "2001"],
        ["--gamma0", "2.5", "--dt", "0.2"],
        ["--samples", "2", "--dt", "0.85", "--g", "0.9"],
        ["--t-max", "5e-324", "--samples", "3"],
    ):
        for name in ("excited_ground", "mes", "entries"):
            argvs.append(["evolve", "--state", paths[name]] + extra)
    argvs.append(["evolve", "--state", "random", "--seed", "7", "--method", "closed-form"])
    # stacks of more than one block of qmat's passes (256 states), complex non-X and X
    for samples in ("513", "2001"):
        for name in ("mes_phased", "entries", "x_mixed"):
            for extra in (["--method", "closed-form"], ["--with-rho", "--format", "json"]):
                argvs.append(["evolve", "--state", paths[name], "--samples", samples] + extra)
    # near-degenerate rates (the divided difference of propagator._fed) and
    # rate-time products that overflow
    for path in paths.values():
        for g in ("1e-12", "0.999999999999"):
            for extra in ([], ["--gamma0", "1e300"], ["--gamma0", "1e-300"], ["--t-max", "1e6"]):
                argvs.append(
                    ["evolve", "--state", path, "--g", g, "--method", "closed-form",
                     "--with-rho", "--samples", "41"] + extra
                )
    for which in ("fig1", "fig2", "fig3"):
        for fmt in ("csv", "json"):
            for gamma0, samples in (("1", "501"), ("0.7", "301")):
                argvs.append(
                    ["figure", which, "--gamma0", gamma0, "--samples", samples, "--format", fmt]
                )
        argvs.append(["figure", which, "--samples", "1025"])
    for path in paths.values():
        argvs.append(["concurrence", "--state", path])
        for g in ("1", "0.5"):
            for fmt in ("csv", "json"):
                argvs.append(["asymptotic", "--state", path, "--g", g, "--format", fmt])
    # the read boundary's rejections: every line names what the file breaks
    for name in _REJECTED:
        path = str(state_dir / f"{name}.json")
        argvs += [["concurrence", "--state", path],
                  ["asymptotic", "--state", path, "--format", "json"]]
    for gamma0 in _PEAK_GAMMA0:
        for g in _PEAK_G:
            for fmt in ("csv", "json"):
                argvs.append(["peak", "--gamma0", gamma0, "--g", g, "--format", fmt])
    argvs.append(["peak", "--gamma0", "1e-307", "--g", "0.5"])
    out = str(state_dir / "out.txt")
    for fmt in ("csv", "json"):
        for name in ("excited_ground", "entries"):
            argvs.append(["evolve", "--state", paths[name], "--samples", "41", "--with-rho",
                          "--format", fmt, "--output", out])
            for g in ("1", "0.5"):
                argvs.append(["asymptotic", "--state", paths[name], "--g", g, "--format", fmt,
                              "--output", out])
        for which in ("fig1", "fig2", "fig3"):
            argvs.append(["figure", which, "--samples", "41", "--format", fmt, "--output", out])
        argvs.append(["peak", "--g", "0.3", "--format", fmt, "--output", out])
    # failed runs, which must leave no file, and "-" for stdout
    argvs.append(["evolve", "--state", paths["mes"], "--g", "2", "--output", out])
    # the RK4 guard's failure line, on a non-X state and on real and complex X states
    for name in ("mes", "excited_ground", "werner", "x_mixed", "phi_plus_phased"):
        argvs.append(["evolve", "--state", paths[name], "--samples", "2", "--dt", "5",
                      "--t-max", "50", "--output", out])
    argvs.append(["peak", "--g", "1", "--output", out])
    argvs.append(["peak", "--g", "0.3", "--output", "-"])
    for path in paths.values():
        argvs.append(["evolve", "--state", "-", "--samples", "21", "--with-rho", "<", path])
        argvs.append(["asymptotic", "--state", "-", "--format", "json", "<", path])
        argvs.append(["concurrence", "--state", "-", "<", path])
    # the parser's error and help paths: the top parser's lines
    # (nothing, an unknown or abbreviated command, an option or "--" first) and
    # each subcommand parser's (a string left over, a bad or missing flag)
    concurrence = ["concurrence", "--state", "random", "--seed", "1"]
    argvs += [
        [], ["-h"], ["bogus"], ["evo", "--state", "random"],
        ["--seed", "1"] + concurrence[:3], ["--"] + concurrence,
        concurrence + ["extra"], concurrence + ["--bogus"], concurrence + ["--"],
        ["concurrence"], ["evolve", "--state", "random", "--method", "euler"],
        ["evolve", "--state", "random", "--samples", "3.5"], ["evolve", "-h"],
    ]
    return argvs


def run_tree(src: Path, argvs) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of each argv through ``src``'s ``twoatom.cli.main``."""
    for name in [m for m in sys.modules if m == "twoatom" or m.startswith("twoatom.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        importlib.invalidate_caches()
        cli = importlib.import_module("twoatom.cli")
        if Path(cli.__file__).resolve().parents[1] != src.resolve():
            raise SystemExit(f"imported {cli.__file__}, not a module under {src}")
        return [_run_call(cli.main, argv) for argv in argvs]
    finally:
        sys.path.remove(str(src))


def _run_call(main, argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one call; ``< FILE`` at the end of
    ``argv`` feeds FILE on stdin, and an ``--output`` file is read as stdout,
    one the call did not create as ``[no file]``, so that an empty file differs."""
    stdin = sys.stdin
    if "<" in argv:
        argv, source = argv[:-2], argv[-1]
        sys.stdin = io.StringIO(Path(source).read_text(encoding="utf-8"))
    target = argv[argv.index("--output") + 1] if "--output" in argv else "-"
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    if target != "-":
        if Path(target).exists():
            out.write(Path(target).read_bytes().decode("utf-8"))
            Path(target).unlink()
        else:
            out.write("[no file]\n")
    return code, out.getvalue(), err.getvalue()


def max_numeric_diff(a: str, b: str):
    """Largest |x - y| over the numbers of two outputs, paired in order, or
    None if their counts differ.  Equal infinities and two nans count as 0,
    a nan against a number as inf."""
    xs, ys = _NUMBER.findall(a), _NUMBER.findall(b)
    if len(xs) != len(ys):
        return None
    worst = 0.0
    for x, y in zip(map(float, xs), map(float, ys)):
        if not (x == y or (math.isnan(x) and math.isnan(y))):
            d = abs(x - y)
            worst = max(worst, math.inf if math.isnan(d) else d)
    return worst


def same_text(mine, other) -> bool:
    """Same exit code, and same stdout and stderr once their numbers are masked."""
    return mine[0] == other[0] and all(
        _NUMBER.sub("#", a) == _NUMBER.sub("#", b) for a, b in zip(mine[1:], other[1:])
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path, help="root of the tree to compare with")
    parser.add_argument(
        "--atol", type=float, default=None,
        help="also pass calls whose numbers differ by at most this (default: bytes only)",
    )
    args = parser.parse_args(argv)
    other_src = args.other_tree / "src"
    if not (other_src / "twoatom" / "cli.py").is_file():
        parser.error(f"{other_src} holds no twoatom/cli.py")
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp)
        for name, text in ({k: json.dumps(v) for k, v in _STATES.items()} | _REJECTED).items():
            (state_dir / f"{name}.json").write_text(text)
        argvs = golden_argvs(state_dir)
        ours = run_tree(THIS_TREE / "src", argvs)
        theirs = run_tree(other_src, argvs)
    differ, near, worst = 0, 0, 0.0
    for argv, mine, other in zip(argvs, ours, theirs):
        diff = max_numeric_diff(mine[1] + mine[2], other[1] + other[2])
        if mine == other:
            status = "same"
        elif args.atol is not None and same_text(mine, other) and diff <= args.atol:
            status = "near"
        else:
            status = "DIFF"
        differ += status == "DIFF"
        near += status == "near"
        worst = math.inf if diff is None else max(worst, diff)
        shown = [Path(a).name if a.startswith(tmp) else a for a in argv]
        print(
            f"{status}  exit {mine[0]}/{other[0]}  "
            f"max|diff| {'n/a' if diff is None else f'{diff:.3g}'}  {' '.join(shown)}"
        )
    ok = sum(code == 0 for code, _, _ in ours)
    tolerance = "" if args.atol is None else f", {near} within atol {args.atol:g}"
    print(
        f"{len(argvs)} calls ({ok} exit 0 here), {len(argvs) - differ - near} byte-identical"
        f"{tolerance}, {differ} differ; largest numeric difference {worst:.3g}"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
