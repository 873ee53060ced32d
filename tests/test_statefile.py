import io
import json

import numpy as np
import pytest

from twoatom import qmat
from twoatom.statefile import (
    StateFileError,
    dump_state,
    load_state,
    parse_state,
    state_to_entries,
    write_table,
)
from twoatom.states import bell, mems, mes, product_state, werner

from conftest import random_states


def _roundtrip(rho):
    buf = io.StringIO()
    dump_state(rho, buf)
    buf.seek(0)
    return load_state(buf)


class TestStateRoundTrip:
    def test_bit_identical_reload(self):
        for rho in random_states(211, 10):
            back = _roundtrip(rho)
            assert np.array_equal(back, rho)

    def test_serialization_stable(self, rng):
        # writing, reading and writing again produces identical bytes
        rho = qmat.random_density_matrix(rng)
        first = io.StringIO()
        dump_state(rho, first)
        second = io.StringIO()
        dump_state(_roundtrip(rho), second)
        assert first.getvalue() == second.getvalue()


class TestFamilies:
    @pytest.mark.parametrize(
        "obj,expected",
        [
            ({"family": "werner", "params": {"p": 0.3}}, werner(0.3)),
            ({"family": "bell", "params": {"which": "psi_minus"}}, bell("psi_minus")),
            ({"family": "mems", "params": {"delta": 0.8}}, mems(0.8)),
            (
                {"family": "mes", "params": {"a": 0.5, "theta1": 0.1, "theta2": 2.0}},
                mes(0.5, 0.1, 2.0),
            ),
            (
                {"family": "basis", "params": {"a": "excited", "b": "ground"}},
                product_state(qmat.EXCITED, qmat.GROUND),
            ),
            (
                {
                    "family": "bell_diagonal",
                    "params": {"p": [0.1, 0.2, 0.3, 0.4]},
                },
                0.1 * bell("phi_plus")
                + 0.2 * bell("phi_minus")
                + 0.3 * bell("psi_plus")
                + 0.4 * bell("psi_minus"),
            ),
        ],
    )
    def test_named_families(self, obj, expected):
        assert np.allclose(parse_state(obj), expected, atol=1e-12)

    def test_product_family(self):
        obj = {
            "family": "product",
            "params": {"psi": [[1.0, 0.0], [0.0, 0.0]], "phi": [[0.0, 0.0], [1.0, 0.0]]},
        }
        assert np.allclose(
            parse_state(obj), product_state(qmat.EXCITED, qmat.GROUND), atol=1e-15
        )

    def test_unknown_family(self):
        with pytest.raises(StateFileError):
            parse_state({"family": "ghz", "params": {}})

    def test_missing_parameter(self):
        with pytest.raises(StateFileError):
            parse_state({"family": "werner", "params": {}})

    def test_rejects_invalid_entries_matrix(self):
        entries = state_to_entries(np.eye(4, dtype=complex))  # trace 4, not a state
        with pytest.raises(qmat.InvalidStateError):
            parse_state({"entries": entries})

    def test_rejects_malformed(self):
        with pytest.raises(StateFileError):
            parse_state({"entries": [[1.0, 0.0]]})
        with pytest.raises(StateFileError):
            parse_state({})
        with pytest.raises(StateFileError):
            load_state(io.StringIO("not json"))


class TestTimeSeries:
    def test_csv_layout(self):
        buf = io.StringIO()
        write_table({"t": [0.0, 0.5], "concurrence": [0.0, 0.25]}, {}, "csv", buf)
        assert buf.getvalue() == "t,concurrence\n0.0,0.0\n0.5,0.25\n"

    def test_csv_with_states(self):
        rho = np.zeros((1, 4, 4), dtype=complex)
        rho[0, 0, 0] = 0.1
        rho[0, 0, 1] = 0.2 - 0.3j
        rho[0, 3, 3] = 1.0 / 3.0
        buf = io.StringIO()
        write_table({"t": [0.0], "concurrence": [0.5], "rho": rho}, {}, "csv", buf)
        header, row = buf.getvalue().splitlines()
        labels = [f"{j}{k}" for j in range(1, 5) for k in range(1, 5)]
        assert header == "t,concurrence," + ",".join(
            f"rho_re_{lbl},rho_im_{lbl}" for lbl in labels
        )
        values = ["0.0"] * 32
        values[0:4] = ["0.1", "0.0", "0.2", "-0.3"]
        values[30] = "0.3333333333333333"
        assert row == "0.0,0.5," + ",".join(values)
        assert buf.getvalue().endswith("\n")

    def test_json_envelope(self):
        buf = io.StringIO()
        write_table(
            {"t": np.array([0.0, 1.0]), "concurrence": np.array([0.0, 0.3])},
            {"scenario": "evolve", "g": 1.0},
            "json",
            buf,
        )
        assert buf.getvalue() == (
            '{\n "metadata": {\n  "scenario": "evolve",\n  "g": 1.0\n },\n'
            ' "records": [\n'
            '  {\n   "t": 0.0,\n   "concurrence": 0.0\n  },\n'
            '  {\n   "t": 1.0,\n   "concurrence": 0.3\n  }\n'
            " ]\n}\n"
        )

    def test_json_with_states(self):
        rho = np.zeros((1, 4, 4), dtype=complex)
        rho[0, 0, 0] = 0.1
        rho[0, 0, 1] = 0.2 - 0.3j
        buf = io.StringIO()
        write_table({"t": [0.5], "rho": rho}, {}, "json", buf)
        text = buf.getvalue()
        assert text.startswith(
            '{\n "metadata": {},\n "records": [\n  {\n   "t": 0.5,\n   "rho": [\n'
            "    [\n     0.1,\n     0.0\n    ],\n    [\n     0.2,\n     -0.3\n    ],\n"
        )
        assert json.loads(text)["records"][0]["rho"] == state_to_entries(rho[0])


def _reference_json(columns, metadata):
    """The table as ``json.dump`` lays out a list of per-sample dicts."""
    names = list(columns)
    cells = [
        [state_to_entries(x) for x in col] if np.iscomplexobj(col) else np.asarray(col).tolist()
        for col in columns.values()
    ]
    records = [dict(zip(names, row)) for row in zip(*cells)]
    buf = io.StringIO()
    json.dump({"metadata": metadata, "records": records}, buf, indent=1)
    return buf.getvalue() + "\n"


class TestJsonGolden:
    @pytest.mark.parametrize("samples", [0, 1, 2, 301])
    @pytest.mark.parametrize("with_rho", [False, True])
    def test_matches_json_dump(self, samples, with_rho):
        gen = np.random.default_rng(samples)
        columns = {"t": np.linspace(0.0, 5.0, samples), "concurrence": gen.random(samples)}
        if with_rho:
            columns["rho"] = gen.standard_normal((samples, 4, 4)) + 1j * gen.standard_normal(
                (samples, 4, 4)
            )
        if samples > 1:
            columns["concurrence"][:3] = [np.nan, np.inf, -np.inf][:samples]
            if with_rho:
                columns["rho"][-1, 0, 1] = complex(np.nan, -np.inf)
        metadata = {"scenario": "50% %s %d", "grid": {"t_max": 5.0, "samples": samples}, "x": None}
        buf = io.StringIO()
        write_table(columns, metadata, "json", buf)
        assert buf.getvalue() == _reference_json(columns, metadata)

    def test_percent_and_digits_in_column_names(self):
        columns = {"c%d": [0.5, 1e-300], "t0": [2.0, 3.0]}
        buf = io.StringIO()
        write_table(columns, {"n": 10}, "json", buf)
        assert buf.getvalue() == _reference_json(columns, {"n": 10})
