import contextlib
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoatom
from twoatom import qmat
from twoatom.cli import EXIT_BAD_STATE, EXIT_NUMERICAL, EXIT_OK, EXIT_UNSUPPORTED, main


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

    def test_closed_form_unsupported_below_g1(self, tmp_path):
        state = _write_state(tmp_path, "w.json", {"family": "werner", "params": {"p": 0.7}})
        rc = main(["evolve", "--state", state, "--g", "0.5", "--method", "closed-form"])
        assert rc == EXIT_UNSUPPORTED

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


class TestAsymptotic:
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


class TestConcurrenceCommand:
    def test_bell_state(self, tmp_path, capsys):
        state = _write_state(
            tmp_path, "b.json", {"family": "bell", "params": {"which": "phi_plus"}}
        )
        rc = main(["concurrence", "--state", state])
        assert rc == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-12)


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

    def test_degenerate_rates_rejected(self):
        assert main(["peak", "--g", "1.0"]) == EXIT_UNSUPPORTED
        assert main(["peak", "--g", "1.5"]) == EXIT_UNSUPPORTED


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
        ],
        ids=["t-max-inf", "step-too-large", "asymptotic-g-7", "figure-negative-gamma0", "dt-inf",
             "t-max-below-spacing"],
    )
    def test_bad_parameters_exit_with_one_line(self, eg_state, capsys, argv, code):
        rc = main([eg_state if a == "STATE" else a for a in argv])
        out, err = capsys.readouterr()
        assert rc == code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

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


_STRANGE = ["0", "-1", "nan", "inf", "-inf", "5e-324", "1e-320", "1e308"]
# argv strings from a process hold no NUL and no unpaired surrogate outside surrogateescape
_JUNK = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=6,
)
_FLOAT = st.one_of(st.sampled_from(_STRANGE), st.floats().map(repr), _JUNK)
_INT = st.one_of(st.sampled_from(_STRANGE), st.integers(-3, 3000).map(str), _JUNK)
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


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    states = [
        {"family": "basis", "params": {"a": "excited", "b": "ground"}},
        {"family": "bell", "params": {"which": "psi_minus"}},
        {"family": "werner", "params": {"p": 0.7}},
        {"entries": [[0.25 * (i % 5 == 0), 0.0] for i in range(16)]},
    ]
    for i, obj in enumerate(states):
        (base / f"state{i}.json").write_text(json.dumps(obj))
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


@st.composite
def _argv(draw, base):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for flag in _COMMANDS[command]:
        required = flag in ("WHICH", "--state") or (command == "peak" and flag == "--g")
        if not (required or draw(st.booleans())):
            continue
        if flag == "WHICH":
            argv.append(draw(st.sampled_from(["fig1", "fig2", "fig3", "fig4"])))
        elif flag == "--with-rho":
            argv.append(flag)
        elif flag == "--state":
            names = ["state0.json", "state1.json", "state2.json", "state3.json", "missing.json", "."]
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
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("parse", exc.code)
    return code, out.getvalue(), err.getvalue()


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_argv_ends_in_a_documented_exit(self, fuzz_dir, fresh_probe_output, data):
        """Any argv ends in a documented exit code with one error line, or in an
        argparse usage error; the shared parser serves later calls unchanged."""
        argv = data.draw(_argv(fuzz_dir))
        code, out, err = _call(argv)
        if code == ("parse", 2):
            assert "Traceback" not in err
            assert _call(_PROBE) == (EXIT_OK, fresh_probe_output, "")
            return
        assert code in (EXIT_OK, EXIT_BAD_STATE, EXIT_UNSUPPORTED, EXIT_NUMERICAL)
        if code != EXIT_OK:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
