import csv
import io
import json

import numpy as np
import pytest

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
        ],
        ids=["t-max-inf", "step-too-large", "asymptotic-g-7", "figure-negative-gamma0", "dt-inf"],
    )
    def test_bad_parameters_exit_with_one_line(self, eg_state, capsys, argv, code):
        rc = main([eg_state if a == "STATE" else a for a in argv])
        out, err = capsys.readouterr()
        assert rc == code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
