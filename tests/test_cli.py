import argparse
import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoatom
from twoatom import cli, propagator, qmat, statefile
from twoatom.cli import (
    EXIT_BAD_STATE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_WRITE_FAILED,
    entry,
    main,
)
from twoatom.model import ModelParams, ParameterError

from conftest import cholesky_passes, threshold_states


def _write_state(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))
    header = rows[0]
    cols = {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(header)}
    return header, cols


_HUGE_INT = "1" + "0" * 400


def _with_literal(obj, literal):
    """JSON text of ``obj`` with the string "X" written as the bare token ``literal``."""
    return json.dumps(obj).replace('"X"', literal)


def _entries_text(literal):
    """The maximally mixed state as entries, the real part of rho22 written as ``literal``."""
    pairs = [[0.25 * (i % 5 == 0), 0.0] for i in range(16)]
    pairs[5][0] = "X"
    return _with_literal({"entries": pairs}, literal)


def _entries_near_max(places):
    """The maximally mixed state as entries, the real part at each flat index
    in ``places`` set to its value there."""
    pairs = [[0.25 * (i % 5 == 0), 0.0] for i in range(16)]
    for i, value in places.items():
        pairs[i][0] = value
    return json.dumps({"entries": pairs})


@pytest.fixture
def eg_state(tmp_path):
    return _write_state(
        tmp_path, "eg.json", {"family": "basis", "params": {"a": "excited", "b": "ground"}}
    )


class TestEvolve:
    def test_excited_ground_concurrence_curve(self, tmp_path, eg_state):
        out = tmp_path / "ts.csv"
        rc = main(
            [
                "evolve", "--state", eg_state, "--t-max", "5", "--samples", "51",
                "--output", str(out),
            ]
        )
        assert rc == EXIT_OK
        header, cols = _read_csv(out)
        assert header == ["t", "concurrence"]
        assert np.all(np.diff(cols["t"]) > 0)
        assert np.all((cols["concurrence"] >= 0) & (cols["concurrence"] <= 1))
        # generator solution: C(t) = exp(-t) sinh(t) = (1 - exp(-2t))/2
        expected = np.exp(-cols["t"]) * np.sinh(cols["t"])
        assert np.abs(cols["concurrence"] - expected).max() < 1e-8

    def test_closed_form_matches_rk4_at_g1(self, tmp_path):
        state = _write_state(tmp_path, "w.json", {"family": "werner", "params": {"p": 0.7}})
        curves = {}
        for method in ("closed-form", "rk4"):
            out = tmp_path / f"{method}.csv"
            rc = main(
                [
                    "evolve", "--state", state, "--method", method, "--samples", "21",
                    "--t-max", "3", "--output", str(out),
                ]
            )
            assert rc == EXIT_OK
            curves[method] = _read_csv(out)[1]["concurrence"]
        assert np.abs(curves["closed-form"] - curves["rk4"]).max() < 1e-6

    def test_antisymmetric_bell_constant(self, tmp_path):
        state = _write_state(
            tmp_path, "psim.json", {"family": "bell", "params": {"which": "psi_minus"}}
        )
        out = tmp_path / "ts.csv"
        rc = main(
            ["evolve", "--state", state, "--method", "closed-form", "--samples", "11",
             "--output", str(out)]
        )
        assert rc == EXIT_OK
        _, cols = _read_csv(out)
        assert np.abs(cols["concurrence"] - 1.0).max() < 1e-9

    def test_ground_ground_stays_separable(self, tmp_path):
        state = _write_state(
            tmp_path, "gg.json", {"family": "basis", "params": {"a": "ground", "b": "ground"}}
        )
        out = tmp_path / "ts.csv"
        rc = main(["evolve", "--state", state, "--samples", "11", "--output", str(out)])
        assert rc == EXIT_OK
        _, cols = _read_csv(out)
        assert np.abs(cols["concurrence"]).max() < 1e-12

    def test_closed_form_special_case_below_g1(self, tmp_path, eg_state):
        out = tmp_path / "ts.csv"
        rc = main(
            ["evolve", "--state", eg_state, "--g", "0.5", "--method", "closed-form",
             "--samples", "21", "--t-max", "4", "--output", str(out)]
        )
        assert rc == EXIT_OK
        _, cols = _read_csv(out)
        expected = np.exp(-cols["t"]) * np.sinh(0.5 * cols["t"])
        assert np.abs(cols["concurrence"] - expected).max() < 1e-10

    def test_closed_form_swapped_excitation(self, tmp_path):
        state = _write_state(
            tmp_path, "ge.json", {"family": "basis", "params": {"a": "ground", "b": "excited"}}
        )
        out = tmp_path / "ts.csv"
        rc = main(
            ["evolve", "--state", state, "--g", "0.5", "--method", "closed-form",
             "--samples", "11", "--output", str(out)]
        )
        assert rc == EXIT_OK
        _, cols = _read_csv(out)
        expected = np.exp(-cols["t"]) * np.sinh(0.5 * cols["t"])
        assert np.abs(cols["concurrence"] - expected).max() < 1e-10

    def test_closed_form_any_state_below_g1(self, tmp_path):
        state = _write_state(tmp_path, "w.json", {"family": "werner", "params": {"p": 0.7}})
        tables = {}
        for method in ("closed-form", "rk4"):
            out = tmp_path / f"{method}.csv"
            rc = main(["evolve", "--state", state, "--g", "0.5", "--method", method,
                       "--with-rho", "--output", str(out)])
            assert rc == EXIT_OK
            header, cols = _read_csv(out)
            tables[method] = np.column_stack([cols[name] for name in header])
        assert np.abs(tables["closed-form"] - tables["rk4"]).max() < 1e-6

    def test_small_step_matches_closed_form(self, eg_state, capsys):
        tables = []
        for extra in (["--dt", "1e-8"], ["--method", "closed-form"]):
            argv = ["evolve", "--state", eg_state, "--g", "0.5", "--samples", "3", "--with-rho"]
            assert main(argv + extra) == EXIT_OK
            rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
            tables.append(np.array(rows, dtype=float))
        assert np.abs(tables[0] - tables[1]).max() < 1e-6

    def test_with_rho_columns(self, tmp_path, eg_state):
        out = tmp_path / "ts.csv"
        rc = main(
            ["evolve", "--state", eg_state, "--samples", "5", "--with-rho",
             "--output", str(out)]
        )
        assert rc == EXIT_OK
        header, cols = _read_csv(out)
        assert "rho_re_22" in header and "rho_im_44" in header
        assert cols["rho_re_22"][0] == pytest.approx(1.0)

    def test_json_format(self, tmp_path, eg_state):
        out = tmp_path / "ts.json"
        rc = main(
            ["evolve", "--state", eg_state, "--samples", "5", "--format", "json",
             "--output", str(out)]
        )
        assert rc == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["metadata"]["g"] == 1.0
        assert len(obj["records"]) == 5

    def test_random_state_is_seed_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(
                ["evolve", "--state", "random", "--seed", "7", "--samples", "5",
                 "--output", str(out)]
            )
            assert rc == EXIT_OK
            outs.append(out.read_text())
        assert outs[0] == outs[1]


def _entries(values):
    """A raw-entries state file: flat index -> complex entry, every other entry 0.0."""
    pairs = [[0.0, 0.0] for _ in range(16)]
    for i, z in values.items():
        pairs[i] = [z.real, z.imag]
    return {"entries": pairs}


#: states of the report contract (a state file, or None for random seed 5), and a
#: fragment their g = 1 report holds
_REPORT_STATES = {
    "full-rank": (None, None),
    "x-werner": ({"family": "werner", "params": {"p": 0.7}}, None),
    "x-bell-diagonal": ({"family": "bell_diagonal", "params": {"p": [0.1, 0.2, 0.3, 0.4]}}, None),
    "basis": ({"family": "basis", "params": {"a": "excited", "b": "ground"}}, None),
    # rho11 = rho22 = -0.0 and rho12 = +0.0 make alpha -0.0; rho13 = -0.0 makes beta's real part
    "minus-zeros": (_entries({0: 0.5, 5: complex(-0.0, 0.0), 10: complex(-0.0, 0.0), 15: 0.5,
                              7: complex(-0.0, 0.0), 13: complex(-0.0, -0.0)}),
                    '"alpha": -0.0,\n "beta": [\n  -0.0,'),
    # a -1e-7j coherence of |01> with |00> leaves rho_as entries that print as -0.000000
    "tiny-negative": (_entries({0: 0.25, 5: 0.25, 10: 0.25, 15: 0.25, 7: -1e-7j, 13: 1e-7j}),
                      "-0.000000j"),
}


def _readme_report(rho0, g):
    """The ``asymptotic`` report of rho0 at g as README's "Output bytes" builds it
    from the ndarray ``asymptotic_state(rho0, g)``: ``(json, text)``."""
    rho_as = propagator.asymptotic_state(rho0, g)
    c = twoatom.asymptotic_concurrence(rho_as)
    payload, text = {"g": g}, []
    if g == 1.0:
        pars = propagator.asymptotic_params(rho0)
        payload |= {"alpha": pars.alpha, "beta": [pars.beta.real, pars.beta.imag]}
        text += [f"alpha = {pars.alpha!r}", f"beta = {pars.beta!r}"]
    payload |= {"rho_as": [[float(z.real), float(z.imag)] for z in rho_as.flat], "concurrence": c}
    if g < 1.0:
        payload["note"] = "uniquely relaxing for g < 1: asymptotic state is ground x ground"
        text.append(payload["note"])
    text.append("rho_as =")
    text += ["  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) for row in rho_as]
    text.append(f"concurrence = {c!r}")
    return json.dumps(payload, indent=1) + "\n", "".join(f"{line}\n" for line in text)


class TestAsymptotic:
    @pytest.mark.parametrize("g", ["1", "0.5", "0"])
    @pytest.mark.parametrize("name", sorted(_REPORT_STATES))
    def test_report_bytes_follow_the_readme(self, tmp_path, capsys, name, g):
        """JSON and text reports equal, byte for byte, the ones built from the
        ndarray limit: JSON ``[re, im]`` pairs through ``json.dumps(..., indent=1)``,
        text rows of numpy entries at six decimals."""
        obj, holds = _REPORT_STATES[name]
        if obj is None:
            state = ["--state", "random", "--seed", "5"]
            rho0 = qmat.random_density_matrix(np.random.default_rng(5))
        else:
            path = _write_state(tmp_path, "s.json", obj)
            state = ["--state", path]
            with open(path, encoding="utf-8") as fp:
                rho0 = statefile.load_state(fp)
        want_json, want_text = _readme_report(rho0, float(g))
        if holds is not None and g == "1":
            assert holds in want_json + want_text
        for fmt, want in (("json", want_json), ("csv", want_text)):
            assert main(["asymptotic", *state, "--g", g, "--format", fmt]) == EXIT_OK
            assert capsys.readouterr() == (want, "")

    @pytest.mark.parametrize("g", ["1", "0.5"])
    @pytest.mark.parametrize("name", sorted(_REPORT_STATES))
    def test_json_report_is_laid_out_by_json(self, tmp_path, capsys, name, g):
        """README's contract read directly: the JSON report is the text that
        ``json.dumps(..., indent=1)`` gives for the object it decodes to."""
        obj = _REPORT_STATES[name][0]
        state = ["random", "--seed", "5"] if obj is None else [_write_state(tmp_path, "s.json", obj)]
        assert main(["asymptotic", "--state", *state, "--g", g, "--format", "json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=1) + "\n"

    def test_maximally_mixed_start(self, tmp_path):
        state = _write_state(tmp_path, "w0.json", {"family": "werner", "params": {"p": 0.0}})
        out = tmp_path / "rep.json"
        rc = main(["asymptotic", "--state", state, "--format", "json", "--output", str(out)])
        assert rc == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["concurrence"] == pytest.approx(0.25, abs=1e-10)
        assert obj["alpha"] == pytest.approx(0.125, abs=1e-12)

    def test_doubly_excited_relaxes_to_ground(self, tmp_path):
        state = _write_state(
            tmp_path, "ee.json", {"family": "basis", "params": {"a": "excited", "b": "excited"}}
        )
        out = tmp_path / "rep.json"
        rc = main(["asymptotic", "--state", state, "--format", "json", "--output", str(out)])
        assert rc == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["concurrence"] == pytest.approx(0.0, abs=1e-12)
        rho = np.array([complex(re, im) for re, im in obj["rho_as"]]).reshape(4, 4)
        expected = np.zeros((4, 4)); expected[3, 3] = 1.0
        assert np.allclose(rho, expected, atol=1e-12)

    def test_bell_diagonal_weight(self, tmp_path):
        state = _write_state(
            tmp_path, "bd.json",
            {"family": "bell_diagonal", "params": {"p": [0.1, 0.2, 0.3, 0.4]}},
        )
        out = tmp_path / "rep.json"
        rc = main(["asymptotic", "--state", state, "--format", "json", "--output", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["concurrence"] == pytest.approx(0.4, abs=1e-10)

    def test_below_g1_reports_unique_ground_state(self, tmp_path):
        state = _write_state(tmp_path, "w.json", {"family": "werner", "params": {"p": 0.9}})
        out = tmp_path / "rep.json"
        rc = main(
            ["asymptotic", "--state", state, "--g", "0.5", "--format", "json",
             "--output", str(out)]
        )
        assert rc == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["concurrence"] == 0.0
        assert "uniquely relaxing" in obj["note"]

    @pytest.mark.parametrize("g", ["0", "0.5", "1"])
    def test_concurrence_is_that_of_the_limit(self, tmp_path, g):
        out = tmp_path / "rep.json"
        for seed in range(10):
            argv = ["asymptotic", "--state", "random", "--seed", str(seed), "--g", g,
                    "--format", "json", "--output", str(out)]
            assert main(argv) == EXIT_OK
            rho = qmat.random_density_matrix(np.random.default_rng(seed))
            want = twoatom.concurrence(propagator.asymptotic_state(rho, float(g)))
            assert json.loads(out.read_text())["concurrence"] == pytest.approx(want, abs=1e-12)


class TestConcurrenceCommand:
    def test_bell_state(self, tmp_path, capsys):
        state = _write_state(
            tmp_path, "b.json", {"family": "bell", "params": {"which": "phi_plus"}}
        )
        rc = main(["concurrence", "--state", state])
        assert rc == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-12)

    def test_state_file_at_the_threshold_gets_the_verdict_of_the_measures(self, tmp_path, capsys):
        """A unit-trace state whose smallest eigenvalue lies below -1e-9 but which
        concurrence accepts (m + 1e-9 I has a Cholesky factor) is read from a file too."""
        rho = next(m for m in threshold_states(35, 2000, spread=2e-6, unit=True)
                   if qmat.state_health(m)[2][0] < -qmat.TOL_STRUCTURAL
                   and cholesky_passes(m))
        state = _write_state(tmp_path, "t.json", {"entries": statefile._pairs(rho).tolist()})
        assert main(["concurrence", "--state", state]) == EXIT_OK
        assert capsys.readouterr().out == f"{twoatom.concurrence(rho)!r}\n"


class TestStateOnStdin:
    @pytest.mark.parametrize(
        "command",
        [["evolve", "--samples", "5", "--with-rho"], ["asymptotic", "--format", "json"],
         ["concurrence"]],
        ids=["evolve", "asymptotic", "concurrence"],
    )
    def test_stdin_state_matches_file(self, tmp_path, capsys, monkeypatch, command):
        text = json.dumps({"family": "mes", "params": {"a": 0.3, "theta1": 0.2, "theta2": 0}})
        path = tmp_path / "mes.json"
        path.write_text(text)
        assert main(command + ["--state", str(path)]) == EXIT_OK
        from_file = capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(command + ["--state", "-"]) == EXIT_OK
        assert capsys.readouterr() == from_file

    def test_closed_stdin_is_bad_state(self, capsys, monkeypatch):
        # Python sets sys.stdin to None when file descriptor 0 is closed (<&-)
        monkeypatch.setattr(sys, "stdin", None)
        assert main(["concurrence", "--state", "-"]) == EXIT_BAD_STATE
        assert capsys.readouterr() == ("", "error: stdin is closed\n")


def _strict_stdin(data: bytes):
    """stdin that decodes UTF-8 strictly, as under PYTHONIOENCODING=utf-8."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


_DEEP = "[" * 1000 + "]" * 1000
# past the recursion limit below a test's frames; with fewer frames, a bad p
_DEEP_PARAM = '{"family": "werner", "params": {"p": ' + "[" * 985 + "]" * 985 + "}}"


class TestUndecodableState:
    """A state file that cannot be read as JSON exits 2 with one error line."""

    @pytest.mark.parametrize(
        "data", [_DEEP.encode(), b"\xff\xfe{}", _DEEP_PARAM.encode()],
        ids=["nested-1000", "not-utf8", "param-nested-985"],
    )
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, data, source):
        if source == "file":
            path = tmp_path / "state.json"
            path.write_bytes(data)
            state = str(path)
        else:
            monkeypatch.setattr(sys, "stdin", _strict_stdin(data))
            state = "-"
        assert main(["concurrence", "--state", state]) == EXIT_BAD_STATE
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


class TestFigure:
    def test_fig1_ordering(self, tmp_path):
        out = tmp_path / "fig1.csv"
        rc = main(["figure", "fig1", "--samples", "41", "--t-max", "4", "--output", str(out)])
        assert rc == EXIT_OK
        header, cols = _read_csv(out)
        assert header == ["t", "c_phi_plus", "c_psi_plus"]
        for t_probe in (0.5, 1.0, 2.0):
            i = int(np.argmin(np.abs(cols["t"] - t_probe)))
            assert cols["c_psi_plus"][i] < cols["c_phi_plus"][i]

    def test_fig2_crossover_endpoints(self, tmp_path):
        out = tmp_path / "fig2.csv"
        rc = main(["figure", "fig2", "--samples", "11", "--output", str(out)])
        assert rc == EXIT_OK
        header, cols = _read_csv(out)
        assert header == ["delta", "purity", "c_initial", "c_asymptotic"]
        assert cols["c_initial"][0] == pytest.approx(0.0, abs=1e-10)
        assert cols["c_asymptotic"][0] == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_fig3_curves(self, tmp_path):
        out = tmp_path / "fig3.csv"
        rc = main(["figure", "fig3", "--samples", "21", "--t-max", "5", "--output", str(out)])
        assert rc == EXIT_OK
        header, cols = _read_csv(out)
        assert header == ["t", "c_plus", "c_minus"]
        assert cols["c_plus"][0] == pytest.approx(1.0, abs=1e-12)
        assert cols["c_minus"][0] == pytest.approx(1.0, abs=1e-12)
        mask = cols["t"] > 0
        assert np.all(cols["c_minus"][mask] > cols["c_plus"][mask])
        expected_minus = np.exp(-(1.0 - 0.99) * cols["t"])
        assert np.abs(cols["c_minus"] - expected_minus).max() < 1e-8


class TestPeak:
    def test_half_exchange(self, tmp_path):
        out = tmp_path / "peak.json"
        rc = main(["peak", "--g", "0.5", "--format", "json", "--output", str(out)])
        assert rc == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["t_gamma"] == pytest.approx(np.log(3.0), abs=1e-12)
        assert obj["c_max"] == pytest.approx(3.0**-1.5, abs=1e-12)
        assert obj["residual_t"] < 1e-4
        assert obj["residual_c"] < 1e-4

    def test_small_exchange_still_entangles(self, tmp_path):
        out = tmp_path / "peak.json"
        rc = main(["peak", "--g", "0.01", "--format", "json", "--output", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["c_max"] > 0.0

    @pytest.mark.parametrize(
        "gamma0, g", [("1", "0.5"), ("2.5", "0.01"), ("1e300", "1e-300"), ("0.4", "0.999999")]
    )
    def test_json_report_is_laid_out_by_json(self, capsys, gamma0, g):
        assert main(["peak", "--gamma0", gamma0, "--g", g, "--format", "json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=1) + "\n"

    def test_degenerate_rates_rejected(self):
        assert main(["peak", "--g", "0"]) == EXIT_UNSUPPORTED
        assert main(["peak", "--g", "1.0"]) == EXIT_UNSUPPORTED
        assert main(["peak", "--g", "1.5"]) == EXIT_UNSUPPORTED


def _full_grid_peak(gamma0_arg, g_arg):
    """The brute-force peak check over all 200,000 grid points, as ``cmd_peak``
    did before it searched a window, with ``main``'s error mapping.

    Returns (exit code, {format: stdout}, stderr).
    """
    try:
        params = ModelParams(gamma0=gamma0_arg, g=g_arg)
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
    except ParameterError as exc:
        return EXIT_UNSUPPORTED, {"csv": "", "json": ""}, f"error: {exc}\n"
    payload = {
        "gamma0": gamma0,
        "g": g_arg,
        "t_gamma": t_pk,
        "c_max": c_pk,
        "grid_t": float(grid[i]),
        "grid_c": float(vals[i]),
        "residual_t": float(abs(grid[i] - t_pk)),
        "residual_c": float(abs(vals[i] - c_pk)),
    }
    out = {"json": json.dumps(payload, indent=1) + "\n"}
    out["csv"] = "".join(
        f"{key} = {payload[key]!r}\n"
        for key in ("t_gamma", "c_max", "grid_t", "grid_c", "residual_t", "residual_c")
    )
    return EXIT_OK, out, ""


def _assert_peak_matches_full_grid(gamma0, g):
    code, expected, expected_err = _full_grid_peak(gamma0, g)
    for fmt in ("csv", "json"):
        argv = ["peak", "--gamma0", repr(gamma0), "--g", repr(g), "--format", fmt]
        assert _call(argv) == (code, expected[fmt], expected_err), argv
    return code


class TestPeakWindow:
    """``peak`` searches a certified window of the grid; its bytes and exit
    code equal those of the search over the whole grid."""

    def test_seeded_draws(self):
        rng = np.random.default_rng(20261018)
        draws = [(rng.uniform(0.5, 2.0), rng.uniform(0.001, 0.999)) for _ in range(120)]
        draws += [(10 ** rng.uniform(-300, 300), 10 ** rng.uniform(-320, 0)) for _ in range(40)]
        for gamma0, g in draws:
            _assert_peak_matches_full_grid(float(gamma0), float(g))

    @pytest.mark.parametrize("gamma0", [0.4, 1.0, 2.5, 1e5, 1e300])
    def test_extremes(self, gamma0):
        """Subnormal g * gamma0 (0.4 * 5e-324 rounds to 0, which exits 3), and
        g = 1 - 2**-53, where the curve is flat to rounding over thousands of points."""
        codes = [
            _assert_peak_matches_full_grid(gamma0, g)
            for g in (5e-324, 1e-320, 1e-310, 1e-300, 1e-8, 1 - 1e-12, 1 - 2**-53)
        ]
        assert codes.count(EXIT_UNSUPPORTED) == (1 if gamma0 == 0.4 else 0)


class TestExitCodes:
    def test_malformed_state(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"entries": [[1, 0]]}')
        assert main(["concurrence", "--state", str(bad)]) == EXIT_BAD_STATE

    def test_invalid_density_matrix(self, tmp_path):
        entries = [[float(x.real), float(x.imag)] for x in np.eye(4, dtype=complex).ravel()]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"entries": entries}))
        assert main(["concurrence", "--state", str(bad)]) == EXIT_BAD_STATE

    @pytest.mark.parametrize(
        "rho14,rho41,detail",
        [(0.6, 0.6, "positivity=1.000e-01"), (0.5, 0.4, "hermiticity=1.000e-01")],
        ids=["not-psd", "not-hermitian"],
    )
    def test_invalid_x_state(self, tmp_path, capsys, rho14, rho41, detail):
        """A state with entries on the diagonal and the anti-diagonal only,
        which concurrence measures by a closed form, is still checked first."""
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        rho[0, 3], rho[3, 0] = rho14, rho41
        entries = [[float(x.real), float(x.imag)] for x in rho.ravel()]
        state = _write_state(tmp_path, "x.json", {"entries": entries})
        assert main(["concurrence", "--state", state]) == EXIT_BAD_STATE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: not a valid density matrix: {detail}\n"

    def test_missing_file(self, tmp_path):
        assert main(["concurrence", "--state", str(tmp_path / "nope.json")]) == EXIT_BAD_STATE

    def test_bad_g_value(self, eg_state):
        assert main(["evolve", "--state", eg_state, "--g", "1.5"]) == EXIT_UNSUPPORTED

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["evolve", "--state", "STATE", "--t-max", "inf"], EXIT_UNSUPPORTED),
            (["evolve", "--state", "STATE", "--samples", "2", "--dt", "5"], EXIT_NUMERICAL),
            (["asymptotic", "--state", "STATE", "--g", "7"], EXIT_UNSUPPORTED),
            (["figure", "fig1", "--gamma0", "-1"], EXIT_UNSUPPORTED),
            (["evolve", "--state", "STATE", "--dt", "inf"], EXIT_UNSUPPORTED),
            (["evolve", "--state", "STATE", "--t-max", "5e-324", "--samples", "3"], EXIT_UNSUPPORTED),
            (["evolve", "--state", "STATE", "--g", "0.5", "--samples", "3", "--dt", "1e-16"],
             EXIT_UNSUPPORTED),
            (["evolve", "--state", "STATE", "--g", "0.5", "--samples", "3", "--dt", "1e-18"],
             EXIT_UNSUPPORTED),
            # a sample spacing of 5e9 over a step of 1e-309 overflows the step count
            (["evolve", "--state", "STATE", "--gamma0", "1e300", "--dt", "1e-309", "--t-max",
              "1e10", "--samples", "2"], EXIT_UNSUPPORTED),
            # none of these grids fits the address space, so no memory is taken
            (["evolve", "--state", "STATE", "--samples", str(10**15)], EXIT_UNSUPPORTED),
            (["figure", "fig2", "--samples", str(2**62)], EXIT_UNSUPPORTED),
            (["evolve", "--state", "STATE", "--samples", str(10**20)], EXIT_UNSUPPORTED),
            # command lines the parser rejects
            ([], EXIT_UNSUPPORTED),
            (["peak", "--g", "0.5", "--bogus"], EXIT_UNSUPPORTED),
        ],
        ids=["t-max-inf", "step-too-large", "asymptotic-g-7", "figure-negative-gamma0", "dt-inf",
             "t-max-below-spacing", "dt-1e-16", "dt-1e-18", "spacing-over-step-overflows",
             "samples-1e15", "samples-2e62", "samples-1e20", "no-command", "unknown-flag"],
    )
    def test_bad_parameters_exit_with_one_line(self, eg_state, capsys, argv, code):
        rc = main([eg_state if a == "STATE" else a for a in argv])
        out, err = capsys.readouterr()
        assert rc == code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_rejected_command_line_names_the_subcommand(self, capsys):
        assert main(["evolve", "--state", "random", "--samples", "abc"]) == EXIT_UNSUPPORTED
        err = "error: twoatom evolve: argument --samples: invalid int value: 'abc'\n"
        assert capsys.readouterr() == ("", err)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: twoatom evolve")

    def test_negative_eigenvalue_below_measure_tolerance_exits_4(self, tmp_path, capsys):
        """RK4 at this step leaves an eigenvalue of -7e-7 at t = 5, below what
        concurrence accepts: one error line and exit 4, not a traceback."""
        state = _write_state(
            tmp_path, "mes.json", {"family": "mes", "params": {"a": 0.3, "theta1": 0, "theta2": 0}}
        )
        rc = main(["evolve", "--state", state, "--g", "0.9", "--samples", "2", "--dt", "0.85"])
        out, err = capsys.readouterr()
        assert rc == EXIT_NUMERICAL
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "shrink the step" in err

    @pytest.mark.parametrize(
        "defect,message",
        [("psd", "minimum eigenvalue -1.001e-09 below -1.0e-09"),
         ("hermiticity", "hermiticity defect 1.000e-03 exceeds 1.0e-09")],
        ids=["psd", "hermiticity"],
    )
    def test_measure_rejecting_a_computed_state_exits_4(
        self, eg_state, capsys, monkeypatch, defect, message
    ):
        """A trajectory that the PSD or hermiticity check of concurrence
        rejects: one error line and exit 4, not a traceback."""
        bad = np.diag([0.5, 0.3, 0.2 + 1.001e-9, -1.001e-9]).astype(complex)
        if defect == "hermiticity":
            bad = np.diag([0.25] * 4).astype(complex)
            bad[0, 1] = 1e-3
        monkeypatch.setattr(
            "twoatom.cli.evolve_series", lambda rho0, params, grid, step: np.array([bad] * len(grid))
        )
        rc = main(["evolve", "--state", eg_state, "--samples", "3"])
        out, err = capsys.readouterr()
        assert rc == EXIT_NUMERICAL
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [["asymptotic"], ["concurrence"], ["evolve", "--samples", "3"]],
                             ids=["asymptotic", "concurrence", "evolve-rk4"])
    @pytest.mark.parametrize(
        "text,detail",
        [
            (_entries_text("NaN"), "non-finite entries rho22"),
            (_entries_text("Infinity"), "non-finite entries rho22"),
            (_entries_text("1e400"), "non-finite entries rho22"),
            (_with_literal({"family": "product", "params": {"psi": [["X", 0], [0, 0]],
                                                            "phi": [[1, 0], [0, 0]]}}, "NaN"),
             "psi must be normalized"),
            (_with_literal({"family": "bell_diagonal", "params": {"p": ["X", 0.5, 0.5, 0]}}, "NaN"),
             "probability vector"),
            (_with_literal({"family": "mes", "params": {"a": 0.3, "theta1": "X", "theta2": 0}}, "NaN"),
             "finite phases"),
            (_entries_text(_HUGE_INT), "int too large to convert to float"),
            (_with_literal({"family": "product", "params": {"psi": [["X", 0], [0, 0]],
                                                            "phi": [[1, 0], [0, 0]]}}, _HUGE_INT),
             "int too large to convert to float"),
            (_with_literal({"family": "mes", "params": {"a": 0.3, "theta1": "X", "theta2": 0}},
                           _HUGE_INT), "int too large to convert to float"),
            (_with_literal({"family": "bell_diagonal", "params": {"p": ["X", 0.5, 0.5, 0]}},
                           _HUGE_INT), "int too large to convert to float"),
            (_with_literal({"family": "mems", "params": {"delta": "X"}}, _HUGE_INT),
             "int too large to convert to float"),
            (_entries_near_max({1: 1e308, 4: -1e308}), "hermiticity=inf"),
            (_entries_near_max({0: 1e308, 5: 1e308}), "trace=inf"),
        ],
        ids=["entries-nan", "entries-infinity", "entries-1e400", "product-psi-nan",
             "bell-diagonal-p-nan", "mes-theta1-nan", "entries-huge-int", "product-psi-huge-int",
             "mes-theta1-huge-int", "bell-diagonal-p-huge-int", "mems-delta-huge-int",
             "entries-antihermitian-1e308", "entries-diagonal-1e308"],
    )
    def test_out_of_range_numbers_in_state_file_exit_2(self, tmp_path, capsys, command, text, detail):
        # RuntimeWarnings are errors in this suite, so a numpy warning fails here
        path = tmp_path / "state.json"
        path.write_text(text)
        rc = main(command + ["--state", str(path)])
        out, err = capsys.readouterr()
        assert rc == EXIT_BAD_STATE
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and detail in err

    @pytest.mark.parametrize(
        "params,detail",
        [({"family": "mems", "params": {"delta": [[2, 2], [2, 2]]}},
          "bad parameters for family 'mems': delta must be one number"),
         ({"family": "bell_diagonal", "params": {"p": [1e308] * 4}}, "probability vector"),
         # states.mems accepts an array of deltas and builds a stack of states
         ({"family": "mems", "params": {"delta": [0.5, 0.5]}},
          "bad parameters for family 'mems': delta must be one number"),
         ({"family": "mems", "params": {"delta": json.loads("[" * 60 + "0.5" + "]" * 60)}},
          "bad parameters for family 'mems': delta must be one number"),
         # a column of weights is not four numbers, though it sums to 1
         ({"family": "bell_diagonal", "params": {"p": [[0.25], [0.25], [0.25], [0.25]]}},
          "bad parameters for family 'bell_diagonal': p[0] must be one number"),
         ({"family": "bell_diagonal", "params": {"p": 0.25}},
          "bad parameters for family 'bell_diagonal': p must list 4 numbers"),
         ({"family": "bell_diagonal", "params": {"p": [0.2] * 5}},
          "bad parameters for family 'bell_diagonal': p must list 4 numbers"),
         ({"family": "basis", "params": {"a": ["x"], "b": "ground"}},
          "basis params 'a' and 'b' must be 'excited' or 'ground'"),
         ({"family": json.loads("[" * 500 + "]" * 500)}, "unknown state family [[["),
         ({"family": "werner", "params": {"p": 10**400 - 1}},
          "bad parameters for family 'werner': p must lie in [0, 1], got 999"),
         ({"family": "mems", "params": {"delta": 1.5}},
          "bad parameters for family 'mems': delta must lie in [0, 1], got 1.5")],
        ids=["mems-delta-matrix", "bell-diagonal-p-overflow", "mems-delta-stack",
             "mems-delta-nested-60", "bell-diagonal-p-column", "bell-diagonal-p-scalar",
             "bell-diagonal-p-five", "basis-a-list", "family-nested-500",
             "werner-p-400-digits", "mems-delta-out-of-range"],
    )
    def test_bad_family_parameter_is_one_line(self, tmp_path, capsys, params, detail):
        # a numpy array printed across lines, or a warning, would add a line
        rc = main(["concurrence", "--state", _write_state(tmp_path, "s.json", params)])
        out, err = capsys.readouterr()
        assert rc == EXIT_BAD_STATE
        assert out == "" and len(err.splitlines()) == 1 and detail in err
        assert len(err) <= 201  # an echoed value of any length is cut to fit the line

    def test_unreadable_state_is_bad_state(self, tmp_path, capsys):
        assert main(["concurrence", "--state", str(tmp_path)]) == EXIT_BAD_STATE
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and str(tmp_path) in err

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_exits_3(self, tmp_path, eg_state, capsys, where):
        path = str(tmp_path / "missing" / "x.csv") if where == "missing-dir" else str(tmp_path)
        rc = main(["evolve", "--state", eg_state, "--samples", "3", "--output", path])
        out, err = capsys.readouterr()
        assert rc == EXIT_UNSUPPORTED
        assert out == "" and len(err.splitlines()) == 1 and path in err

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["evolve", "--state", "BAD", "--samples", "3"], EXIT_BAD_STATE),
            (["evolve", "--state", "STATE", "--samples", "3", "--g", "2"], EXIT_UNSUPPORTED),
            (["evolve", "--state", "STATE", "--dt", "5", "--t-max", "50", "--samples", "2"],
             EXIT_NUMERICAL),
        ],
        ids=["bad-state", "bad-g", "step-too-large"],
    )
    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "missing"])
    def test_failed_run_leaves_output_untouched(self, tmp_path, eg_state, capsys, argv, code,
                                                exists):
        bad = tmp_path / "bad.json"
        bad.write_text('{"entries": [[1, 0]]}')
        out = tmp_path / "out.csv"
        if exists:
            out.write_text("keep")
        argv = [{"STATE": eg_state, "BAD": str(bad)}.get(a, a) for a in argv]
        assert main(argv + ["--output", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert (out.read_text() == "keep") if exists else not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--state", "STATE", "--gamma0", "1e308"],
            ["evolve", "--state", "STATE", "--gamma0", "1e-320", "--t-max", "1"],
            ["peak", "--gamma0", "1e-320", "--g", "0.5"],
            ["peak", "--gamma0", "1e-307", "--g", "0.5"],
        ],
        ids=["evolve-huge-gamma0", "evolve-subnormal-gamma0", "peak-subnormal-gamma0", "peak-grid-overflow"],
    )
    def test_extreme_gamma0_rejected_without_warnings(self, eg_state, capsys, argv):
        # RuntimeWarnings are errors in this suite, so a numpy overflow fails here
        rc = main([eg_state if a == "STATE" else a for a in argv])
        out, err = capsys.readouterr()
        assert rc == EXIT_UNSUPPORTED
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


# command lines that each subcommand's parser takes alone
_DISPATCH_VALID = [
    ["evolve", "--state", "random", "--seed", "1", "--gamma0", "2", "--g", "0.3", "--t-max", "4",
     "--samples", "3", "--dt", "0.1", "--method", "closed-form", "--with-rho", "--format", "json",
     "--output", "out.json"],
    ["evolve", "--state", "random", "--sam", "3"],
    ["asymptotic", "--state", "random", "--g=0.3", "--format", "json"],
    ["concurrence", "--state", "random", "--seed", "1"],
    ["figure", "fig2", "--gamma0", "0.7", "--t-max", "3", "--samples", "5", "--output", "-"],
    ["peak", "--g", "-0.5", "--gamma0", "2", "--format", "csv"],
]
# command lines the top parser takes whole, and lines a subcommand's parser
# rejects; whether a line that starts with "--" parses depends on the Python
# version's argparse, so only the reference decides each outcome
_DISPATCH_OTHER = [
    [],
    ["bogus"],
    ["evo", "--state", "random"],
    ["--seed", "1", "concurrence", "--state", "random"],
    ["--", "concurrence", "--state", "random"],
    ["-h"],
    ["concurrence", "--state", "random", "extra"],
    ["concurrence", "--state", "random", "--bogus"],
    ["concurrence", "--state", "random", "--"],
    ["concurrence"],
    ["evolve", "--state", "random", "--method", "euler"],
    ["evolve", "--state", "random", "--samples", "3.5"],
    ["evolve", "-h"],
]


def _parse_outcome(parse, argv, capsys):
    """What ``parse(argv)`` gives: the namespace without ``command``, the text of
    the ``ParameterError`` or the ``SystemExit`` code, with the output it printed."""
    try:
        args = vars(parse(argv))
        args.pop("command", None)
        outcome = ("args", args)
    except ParameterError as exc:
        outcome = ("error", str(exc))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


@pytest.fixture
def parses(monkeypatch):
    """The ``prog`` of each parser that parses a command line, in call order."""
    progs = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        progs.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    return progs


class TestDispatch:
    """``main`` hands a command line to its subcommand's parser, and to the top
    parser only what that parser cannot take; ``build_parser().parse_args`` is
    the reference."""

    @pytest.mark.parametrize("argv", _DISPATCH_VALID + _DISPATCH_OTHER,
                             ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_parse_matches_the_top_parser(self, capsys, parses, argv):
        ours = _parse_outcome(cli._parse, argv, capsys)
        dispatched = list(parses)
        assert ours == _parse_outcome(cli.build_parser().parse_args, argv, capsys)
        if argv in _DISPATCH_VALID:
            assert ours[0][0] == "args"
            assert dispatched == [f"twoatom {argv[0]}"]

    def test_valid_line_skips_the_top_parser(self, capsys, parses):
        assert main(["concurrence", "--state", "random", "--seed", "1"]) == EXIT_OK
        assert parses == ["twoatom concurrence"]
        assert float(capsys.readouterr().out) > 0.0

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["concurrence", "--state", "random", "--seed", "1"], EXIT_OK),
            (["--seed", "1", "concurrence", "--state", "random"], EXIT_UNSUPPORTED),
            (["concurrence", "--state", "random", "--bogus"], EXIT_UNSUPPORTED),
        ],
        ids=["valid", "option-first", "unknown-flag"],
    )
    def test_main_reads_sys_argv(self, capsys, monkeypatch, argv, code):
        assert main(argv) == code
        expected = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["twoatom", *argv])
        assert main() == code
        assert capsys.readouterr() == expected


def _cli_argv_env(*args):
    """Argv and environment that run this source tree's CLI in a new process: through
    the console script that TWOATOM_CONSOLE_SCRIPT names (an installed ``twoatom``)
    when that is set, else ``python -m twoatom.cli``."""
    src = str(Path(twoatom.__file__).resolve().parents[1])
    script = os.environ.get("TWOATOM_CONSOLE_SCRIPT")
    command = [script] if script else [sys.executable, "-m", "twoatom.cli"]
    return [*command, *args], {**os.environ, "PYTHONPATH": src}


class TestBrokenPipe:
    def test_reader_closing_early_gives_one_error_line(self):
        """A reader that stops after one line (``| head -1``) leaves exit code 5
        and one stderr line, with no traceback from the interpreter's flush."""
        argv, env = _cli_argv_env("evolve", "--state", "random", "--seed", "1",
                                  "--method", "closed-form", "--with-rho", "--samples", "2001")
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"t,concurrence,rho_re_11,")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_WRITE_FAILED
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
class TestFullDevice:
    @pytest.mark.parametrize(
        "args,to_stdout",
        [
            (["concurrence", "--state", "random", "--seed", "1"], True),
            (["evolve", "--state", "random", "--seed", "1", "--method", "closed-form"], True),
            (["evolve", "--state", "random", "--seed", "1", "--output", "/dev/full"], False),
        ],
        ids=["concurrence", "evolve", "evolve-output"],
    )
    def test_full_device_gives_one_error_line(self, args, to_stdout):
        """Output to a full device (stdout or ``--output``) exits 5 with one line."""
        argv, env = _cli_argv_env(*args)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full if to_stdout else subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_WRITE_FAILED
        assert err == "error: output could not be written: No space left on device\n"


_ENTRY_ARGVS = {
    "evolve": ["evolve", "--state", "random", "--seed", "1", "--samples", "3"],
    "asymptotic": ["asymptotic", "--state", "random", "--seed", "1"],
    "concurrence": ["concurrence", "--state", "random", "--seed", "1"],
    "figure": ["figure", "fig1", "--samples", "3", "--format", "json"],
    "peak": ["peak", "--g", "0.5"],
}


class TestClosedStdout:
    """Python sets sys.stdout to None when file descriptor 1 is closed (>&-)."""

    @pytest.mark.parametrize("command", sorted(_ENTRY_ARGVS))
    def test_closed_stdout_gives_one_error_line(self, capsys, monkeypatch, command):
        monkeypatch.setattr(sys, "argv", ["twoatom", *_ENTRY_ARGVS[command]])
        monkeypatch.setattr(sys, "stdout", None)
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == EXIT_WRITE_FAILED
        assert capsys.readouterr().err == "error: output could not be written: stdout is closed\n"

    @pytest.mark.parametrize("command", ["evolve", "asymptotic", "figure", "peak"])
    def test_output_file_needs_no_stdout(self, tmp_path, capsys, monkeypatch, command):
        out = tmp_path / "out.txt"
        argv = _ENTRY_ARGVS[command] + ["--output", str(out)]
        assert main(argv) == EXIT_OK
        expected = out.read_text()
        out.unlink()
        monkeypatch.setattr(sys, "argv", ["twoatom", *argv])
        monkeypatch.setattr(sys, "stdout", None)
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert out.read_text() == expected

    def test_closed_file_descriptor(self, tmp_path):
        argv, env = _cli_argv_env("concurrence", "--state", "random", "--seed", "1")
        out = tmp_path / "out.csv"
        closed = ["sh", "-c", '"$@" >&-', "sh"]
        proc = subprocess.run(closed + argv, stderr=subprocess.PIPE, env=env, timeout=60)
        assert proc.returncode == EXIT_WRITE_FAILED
        assert proc.stderr == b"error: output could not be written: stdout is closed\n"
        argv, env = _cli_argv_env("evolve", "--state", "random", "--seed", "1", "--samples", "3",
                                  "--output", str(out))
        proc = subprocess.run(closed + argv, stderr=subprocess.PIPE, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert out.read_text().startswith("t,concurrence\n")


#: command lines that a parser rejects, read from a real sys.argv: nothing, an unknown
#: subcommand, an option before the subcommand, an unknown flag after it
_REJECTED = {
    "nothing": [],
    "bogus": ["bogus"],
    "option-first": ["--seed", "1", "concurrence", "--state", "random"],
    "unknown-flag": ["concurrence", "--state", "random", "--bogus"],
}


def _readme_figure_loop() -> str:
    """The lines of README's Scripts block that write the three figure files."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.startswith(("mkdir -p out", "for f in "))]
    assert len(lines) == 2, lines
    return "\n".join(lines)


@pytest.fixture(scope="module")
def console_runs(tmp_path_factory):
    """``(exit code, stdout, stderr)`` of each console probe, and the directory they
    ran in.  The probes start at once: a spawn takes about 0.25 s, mostly numpy's import."""
    cwd = tmp_path_factory.mktemp("console")
    (cwd / "bad.json").write_bytes(b"\xff\xfe{}")
    argv, env = _cli_argv_env()
    probes = {
        "closed-stdin": (["sh", "-c", '"$@" <&-', "sh", *argv, "concurrence", "--state", "-"],
                         None, env),
        "strict-utf8-stdin": ([*argv, "concurrence", "--state", "-"], "bad.json",
                              {**env, "PYTHONIOENCODING": "utf-8"}),
        "figure-loop": (["sh", "-c", f'twoatom() {{ command {shlex.join(argv)} "$@"; }}\n'
                         + _readme_figure_loop()], None, env),
    } | {f"rejected-{name}": ([*argv, *args], None, env) for name, args in _REJECTED.items()}
    with contextlib.ExitStack() as stack:
        procs = {
            name: subprocess.Popen(
                command, cwd=cwd, env=penv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                stdin=stack.enter_context(open(cwd / stdin, "rb")) if stdin else subprocess.DEVNULL)
            for name, (command, stdin, penv) in probes.items()
        }
        for proc in procs.values():
            stack.callback(proc.kill)  # a no-op once the probe has exited
        runs = {}
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=60)
            runs[name] = (proc.returncode, out, err.decode())
    return runs, cwd


class TestConsoleProbes:
    """The checks of the workflow's console-script steps that need a real process:
    fd 0 closed (``<&-``), a stdin that decodes UTF-8 strictly, a real ``sys.argv``,
    and README's figure loop in a shell."""

    def test_closed_stdin_is_bad_state(self, console_runs):
        runs, _ = console_runs
        assert runs["closed-stdin"] == (EXIT_BAD_STATE, b"", "error: stdin is closed\n")

    def test_undecodable_stdin_is_bad_state(self, console_runs):
        runs, _ = console_runs
        code, out, err = runs["strict-utf8-stdin"]
        assert (code, out) == (EXIT_BAD_STATE, b"")
        assert len(err.splitlines()) == 1 and err.count("error:") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(_REJECTED))
    def test_rejected_command_line(self, console_runs, name):
        runs, _ = console_runs
        code, out, err = runs[f"rejected-{name}"]
        assert (code, out) == (EXIT_UNSUPPORTED, b"")
        assert len(err.splitlines()) == 1 and err.count("error:") == 1

    def test_readme_figure_loop_writes_three_files(self, console_runs):
        runs, cwd = console_runs
        assert runs["figure-loop"] == (EXIT_OK, b"", "")
        headers = {
            "fig1": "t,c_phi_plus,c_psi_plus",
            "fig2": "delta,purity,c_initial,c_asymptotic",
            "fig3": "t,c_plus,c_minus",
        }
        for which, header in headers.items():
            assert (cwd / "out" / f"{which}.csv").read_text().split("\n", 1)[0] == header


class TestLargeRates:
    def test_rk4_scheme_is_scale_free(self, eg_state, capsys):
        """gamma0 = 1e20 over t_max = 5e-20 is the gamma0 = 1 scheme at --dt 10:
        one RK4 step per sample interval, on the same dimensionless grid."""
        curves = []
        for gamma0, extra in (("1e20", ["--t-max", "5e-20"]), ("1", ["--t-max", "5", "--dt", "10"])):
            argv = ["evolve", "--state", eg_state, "--gamma0", gamma0, "--g", "0.5", "--samples", "11"]
            assert main(argv + extra) == EXIT_OK
            rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
            curves.append(np.array([float(r[1]) for r in rows]))
        large, unit = curves
        assert unit[-1] > 0.04
        assert np.abs(large - unit).max() <= 1e-12

    def test_fig1_rate_times_time_overflow_decays_to_zero(self, capsys):
        # 2 gamma0 t overflows to inf at the last sample; RuntimeWarnings are errors here
        argv = ["figure", "fig1", "--gamma0", "1e154", "--t-max", "1e154", "--samples", "3"]
        assert main(argv) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert [float(r[2]) for r in rows] == [1.0, 0.0, 0.0]


_STRANGE = ["0", "-1", "nan", "inf", "-inf", "5e-324", "1e-320", "1e308"]
# argv strings from a process hold no NUL and no unpaired surrogate outside surrogateescape
_JUNK = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=6,
)
_FLOAT = st.one_of(st.sampled_from(_STRANGE), st.floats().map(repr), _JUNK)
# 10**15 samples (7.11 PiB) exceed any address space, so drawing it allocates nothing
_INT = st.one_of(st.sampled_from(_STRANGE + ["1000000000000000"]), st.integers(-3, 3000).map(str),
                 _JUNK)
_SEED = st.one_of(st.sampled_from(_STRANGE), st.integers().map(str), _JUNK)
_OPTIONS = {
    "--gamma0": _FLOAT,
    "--g": _FLOAT,
    "--t-max": _FLOAT,
    "--dt": _FLOAT,
    "--samples": _INT,
    "--seed": _SEED,
    "--method": st.sampled_from(["rk4", "closed-form", "euler"]),
    "--format": st.sampled_from(["csv", "json", "xml"]),
}
_COMMANDS = {
    "evolve": ["--state", "--seed", "--gamma0", "--g", "--t-max", "--samples", "--dt",
               "--method", "--with-rho", "--format", "--output"],
    "asymptotic": ["--state", "--seed", "--g", "--format", "--output"],
    "concurrence": ["--state", "--seed"],
    "figure": ["WHICH", "--gamma0", "--t-max", "--samples", "--format", "--output"],
    "peak": ["--gamma0", "--g", "--format", "--output"],
}
# a call whose output depends on every default of its subparser
_PROBE = ["figure", "fig1", "--samples", "4"]


_FUZZ_STATES = [
    json.dumps({"family": "basis", "params": {"a": "excited", "b": "ground"}}),
    json.dumps({"family": "bell", "params": {"which": "psi_minus"}}),
    json.dumps({"family": "werner", "params": {"p": 0.7}}),
    _entries_text("0.25"),
    json.dumps({"family": "mes", "params": {"a": 0.3, "theta1": 0, "theta2": 0}}),
    _entries_text("NaN"),
    _entries_text("1e400"),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    for i, text in enumerate(_FUZZ_STATES):
        (base / f"state{i}.json").write_text(text)
    return base


@pytest.fixture(scope="module")
def fresh_probe_output():
    """stdout of the probe call in a fresh interpreter."""
    src = str(Path(twoatom.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        f"from twoatom.cli import main; sys.exit(main({_PROBE!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return proc.stdout


# a first word that (but for a rare junk draw) names no subcommand, so that the
# top parser takes the line; never an option the top parser reads as "-h",
# whose help exits the call
_LEAD = st.one_of(
    st.sampled_from(["bogus", "evo", "--", "--bogus", "--seed=1", "-x"]),
    _JUNK.filter(lambda word: not word.startswith("-")),
)


@st.composite
def _argv(draw, base):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [draw(_LEAD), command] if draw(st.integers(0, 3)) == 0 else [command]
    for flag in _COMMANDS[command]:
        required = flag in ("WHICH", "--state") or (command == "peak" and flag == "--g")
        if not (required or draw(st.booleans())):
            continue
        if flag == "WHICH":
            argv.append(draw(st.sampled_from(["fig1", "fig2", "fig3", "fig4"])))
        elif flag == "--with-rho":
            argv.append(flag)
        elif flag == "--state":
            names = [f"state{i}.json" for i in range(len(_FUZZ_STATES))] + ["missing.json", "."]
            state = draw(st.one_of(st.sampled_from(names).map(lambda n: str(base / n)),
                                   st.just("random"), _JUNK))
            argv.append(f"--state={state}")
        elif flag == "--output":
            out = draw(st.sampled_from(["-", "out.txt", "missing/out.txt", "."]))
            argv.append(f"--output={out if out == '-' else base / out}")
        else:
            argv.append(f"{flag}={draw(_OPTIONS[flag])}")
    return argv


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_argv_ends_in_a_documented_exit(self, fuzz_dir, fresh_probe_output, data):
        """Any argv, one the parser rejects included, ends in a documented exit
        code with one error line; the shared parser serves later calls unchanged."""
        argv = data.draw(_argv(fuzz_dir))
        code, out, err = _call(argv)
        assert code in (EXIT_OK, EXIT_BAD_STATE, EXIT_UNSUPPORTED, EXIT_NUMERICAL)
        if code != EXIT_OK:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert _call(_PROBE) == (EXIT_OK, fresh_probe_output, "")


# what a state file may hold where a number belongs: numbers a float cannot
# hold, an int past the 4,300 digits int() reads, and JSON's other literals
_STATE_NUMBER = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "0.25", "-0.0", "1e308", "-1e308", "1e400", "-1e400",
                     "5e-324", "NaN", "Infinity", _HUGE_INT, "9" * 5000, "true", "false",
                     "null"]),
    st.floats(-2, 2).map(repr),
    st.floats().map(repr),
)
_STATE_KEYS = ["entries", "family", "params", "psi", "phi", "which", "a", "b", "theta1",
               "theta2", "p", "delta"]
# each family's params with a value that makes a state, and a family that does not exist
_FAMILY_PARAMS = {
    "product": {"psi": "[[0.6, 0], [0, 0.8]]", "phi": "[[1, 0], [0, 0]]"},
    "bell": {"which": '"psi_minus"'},
    "mes": {"a": "0.3", "theta1": "-0.0", "theta2": "2"},
    "bell_diagonal": {"p": "[0.25, 0.25, 0.5, 0]"},
    "werner": {"p": "0.5"},
    "mems": {"delta": "0.9"},
    "basis": {"a": '"excited"', "b": '"ground"'},
    "ghz": {},
}


def _json_list(items):
    return "[" + ", ".join(items) + "]"


def _json_object(pairs):
    """An object from (key, JSON text of the value) pairs; a key may repeat."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"


_STATE_WORD = st.one_of(
    st.sampled_from(list(_FAMILY_PARAMS) + _STATE_KEYS + ["phi_plus", "psi_minus", "excited",
                                                          "ground"]),
    st.text(max_size=3),
).map(json.dumps)
_STATE_TREE = st.recursive(
    _STATE_NUMBER | _STATE_WORD,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(_json_list),
        st.lists(st.tuples(st.sampled_from(_STATE_KEYS), inner), max_size=3).map(_json_object),
    ),
    max_leaves=8,
)


@st.composite
def _nested(draw):
    """A value inside up to 3,000 levels of lists or objects."""
    depth = draw(st.integers(1, 3000))
    inner = draw(_STATE_TREE)
    if draw(st.booleans()):
        return "[" * depth + inner + "]" * depth
    return '{"p": ' * depth + inner + "}" * depth


_STATE_PARAM = st.one_of(
    _STATE_NUMBER,
    _STATE_WORD,
    st.lists(_STATE_NUMBER, min_size=1, max_size=5).map(_json_list),
    st.lists(st.lists(_STATE_NUMBER, min_size=2, max_size=2).map(_json_list),
             min_size=2, max_size=2).map(_json_list),
    _STATE_TREE,
    _nested(),
)


@st.composite
def _state_text(draw):
    """A family with drawn params, the maximally mixed entries with drawn cells, or any value."""
    kind = draw(st.sampled_from(["family"] * 4 + ["entries"] * 3 + ["value"]))
    if kind == "family":
        family = draw(st.sampled_from(list(_FAMILY_PARAMS)))
        params = [(k, draw(st.just(valid) | _STATE_PARAM))
                  for k, valid in _FAMILY_PARAMS[family].items() if draw(st.integers(0, 9))]
        params += [(k, draw(_STATE_PARAM)) for k in draw(st.lists(st.sampled_from(_STATE_KEYS),
                                                                  max_size=1))]
        return _json_object([("family", json.dumps(family)), ("params", _json_object(params))])
    if kind == "entries":
        size = draw(st.sampled_from([16] * 4 + [15, 17]))
        pairs = [["0.25" if i % 5 == 0 else "0", "0"] for i in range(size)]
        for _ in range(draw(st.integers(0, 3))):
            cell = draw(st.one_of(_STATE_NUMBER, _STATE_NUMBER, _STATE_TREE, _nested()))
            pairs[draw(st.integers(0, 14))][draw(st.integers(0, 1))] = cell
        return _json_object([("entries", _json_list(_json_list(pair) for pair in pairs))])
    return draw(st.one_of(_STATE_TREE, _nested()))


@st.composite
def _state_bytes(draw):
    """State text in UTF-8, after a BOM, with a byte that is not UTF-8, or raw bytes."""
    data = draw(_state_text()).encode()
    how = draw(st.sampled_from(["utf-8"] * 7 + ["bom", "bad-byte", "raw"]))
    if how == "bom":
        return b"\xef\xbb\xbf" + data
    if how == "bad-byte":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xfe", b"\xc3", b"\x80"])) + data[at:]
    if how == "raw":
        return draw(st.binary(max_size=12))
    return data


@pytest.fixture(scope="module")
def state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("content") / "state.json"


class TestStateContentFuzz:
    @settings(max_examples=100, deadline=None)
    @given(data=_state_bytes(), command=st.sampled_from([["concurrence"], ["asymptotic"],
                                                        ["evolve", "--samples", "3"]]))
    def test_every_state_file_ends_in_a_documented_exit(self, state_path, data, command):
        """Any state file content, from a file or on a strict stdin, ends in output
        or in exit 2 (4 for a state at the positivity threshold) with one error line."""
        state_path.write_bytes(data)
        from_file = _call(command + ["--state", str(state_path)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stdin", _strict_stdin(data))
            from_stdin = _call(command + ["--state", "-"])
        assert from_stdin == from_file
        code, out, err = from_file
        assert code in (EXIT_OK, EXIT_BAD_STATE, EXIT_NUMERICAL)
        if code != EXIT_OK:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
