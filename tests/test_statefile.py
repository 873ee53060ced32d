import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom import qmat
from twoatom.statefile import (
    StateFileError,
    _json_text,
    _pairs,
    load_state,
    parse_state,
    write_table,
)
from twoatom.states import bell, mems, mes, product_state, werner

from conftest import random_states


def _dump_state(rho, fp):
    json.dump({"entries": _pairs(rho).tolist()}, fp, indent=1)
    fp.write("\n")


def _roundtrip(rho):
    buf = io.StringIO()
    _dump_state(rho, buf)
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
        _dump_state(rho, first)
        second = io.StringIO()
        _dump_state(_roundtrip(rho), second)
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

    def test_json_booleans_read_as_one_and_zero(self):
        """The format asks for numbers; true and false are accepted as 1 and 0."""
        def read(text):
            return load_state(io.StringIO(text))

        pairs = ", ".join("[0.25, false]" if i % 5 == 0 else "[false, false]" for i in range(16))
        assert np.array_equal(read(f'{{"entries": [{pairs}]}}'), np.eye(4) / 4)
        ket = "[[true, false], [false, false]]"
        product = f'{{"family": "product", "params": {{"psi": {ket}, "phi": {ket}}}}}'
        assert np.array_equal(read(product), product_state(qmat.EXCITED, qmat.EXCITED))
        for flag, p in (("true", 1.0), ("false", 0.0)):
            assert np.array_equal(read(f'{{"family": "werner", "params": {{"p": {flag}}}}}'),
                                  werner(p))

    def test_unknown_family(self):
        with pytest.raises(StateFileError):
            parse_state({"family": "ghz", "params": {}})

    def test_missing_parameter(self):
        with pytest.raises(StateFileError):
            parse_state({"family": "werner", "params": {}})

    @pytest.mark.parametrize(
        "obj,message",
        [({"family": "bell_diagonal", "params": {"p": 0.25}},
          "bad parameters for family 'bell_diagonal': p must list 4 numbers"),
         ({"family": "bell_diagonal", "params": {"p": [0.2] * 5}},
          "bad parameters for family 'bell_diagonal': p must list 4 numbers"),
         ({"family": "bell_diagonal", "params": {"p": "abcd"}},
          "bad parameters for family 'bell_diagonal': p must list 4 numbers"),
         ({"family": "basis", "params": {"a": ["x"], "b": "ground"}},
          "basis params 'a' and 'b' must be 'excited' or 'ground'"),
         ({"family": "basis", "params": {"a": "excited", "b": {"ground": 1}}},
          "basis params 'a' and 'b' must be 'excited' or 'ground'")],
        ids=["bell-diagonal-p-scalar", "bell-diagonal-p-five", "bell-diagonal-p-string",
             "basis-a-list", "basis-b-object"],
    )
    def test_bad_parameter_is_named(self, obj, message):
        with pytest.raises(StateFileError) as info:
            parse_state(obj)
        assert str(info.value) == message

    def test_rejects_invalid_entries_matrix(self):
        entries = _pairs(np.eye(4, dtype=complex)).tolist()  # trace 4, not a state
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

    def test_csv_non_finite_spelling(self):
        """CSV spells non-finite floats as Python's repr does, not as JSON does."""
        buf = io.StringIO()
        rho = np.zeros((1, 4, 4), dtype=complex)
        rho[0, 0, 1] = complex(np.nan, -np.inf)
        write_table({"c": [np.nan, np.inf, -np.inf], "rho": np.repeat(rho, 3, axis=0)}, {}, "csv",
                    buf)
        rows = buf.getvalue().splitlines()[1:]
        assert [row.split(",")[:5] for row in rows] == [
            [c, "0.0", "0.0", "nan", "-inf"] for c in ("nan", "inf", "-inf")
        ]

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

    def test_csv_zero_rows_with_states(self):
        buf = io.StringIO()
        rho = np.zeros((0, 4, 4), dtype=complex)
        write_table({"t": np.zeros(0), "rho": rho}, {}, "csv", buf)
        header, = buf.getvalue().splitlines()
        assert header.startswith("t,rho_re_11,rho_im_11,") and header.endswith(",rho_im_44")

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
        assert json.loads(text)["records"][0]["rho"] == _pairs(rho[0]).tolist()


def _reference_json(columns, metadata):
    """The table as ``json.dump`` lays out a list of per-sample dicts."""
    names = list(columns)
    cells = [
        [_pairs(x).tolist() for x in col] if np.iscomplexobj(col) else np.asarray(col).tolist()
        for col in columns.values()
    ]
    records = [dict(zip(names, row)) for row in zip(*cells)]
    buf = io.StringIO()
    json.dump({"metadata": metadata, "records": records}, buf, indent=1)
    return buf.getvalue() + "\n"


def _reference_csv(columns):
    """The table as ``csv.writer`` writes a header and one list of floats per sample."""
    labels = [f"{j}{k}" for j in range(1, 5) for k in range(1, 5)]
    header, cells = [], []
    for name, col in columns.items():
        if np.iscomplexobj(col):
            header += [f"{name}_{part}_{lbl}" for lbl in labels for part in ("re", "im")]
            cells.append([sum(_pairs(x).tolist(), []) for x in col])
        else:
            header.append(name)
            cells.append([[x] for x in np.asarray(col, dtype=float).tolist()])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(sum(parts, []) for parts in zip(*cells))
    return buf.getvalue()


_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5]


class TestCsvGolden:
    @pytest.mark.parametrize("samples", [0, 1, 2, 301])
    @pytest.mark.parametrize("with_rho", [False, True])
    def test_matches_csv_writer(self, samples, with_rho):
        gen = np.random.default_rng(samples)
        columns = {"t": np.linspace(0.0, 5.0, samples), "concurrence": gen.random(samples)}
        columns["concurrence"][:7] = _SPECIAL_FLOATS[:samples]
        if with_rho:
            columns["rho"] = gen.standard_normal((samples, 4, 4)) + 1j * gen.standard_normal(
                (samples, 4, 4)
            )
            if samples:
                columns["rho"][-1, :2].real.flat[:7] = _SPECIAL_FLOATS
                columns["rho"][-1, 2:].imag.flat[:7] = _SPECIAL_FLOATS
        buf = io.StringIO()
        write_table(columns, {"ignored": 1}, "csv", buf)
        assert buf.getvalue() == _reference_csv(columns)

    def test_names_that_need_quoting(self):
        rho = np.zeros((2, 4, 4), dtype=complex)
        rho[:, 0, 0] = [1.0, 0.25]
        columns = {"a,b": [0.5, -0.0], 'c"d': rho, "e": [1e16, 5e-324]}
        buf = io.StringIO()
        write_table(columns, {}, "csv", buf)
        assert buf.getvalue() == _reference_csv(columns)
        assert buf.getvalue().startswith('"a,b","c""d_re_11","c""d_im_11",')


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


#: keys and strings: quotes, backslashes, control characters, % and non-ASCII text
_TEXT = st.text(st.sampled_from('"\\%/\n\t\x00\x1f\x7f a0\u00e9\u2028\U0001f600') | st.characters(),
                max_size=6)
_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e22, math.inf, -math.inf, math.nan])
_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | _TEXT
            | _FLOATS | st.floats() | (_FLOATS | st.floats()).map(np.float64))
_TREES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=30,
)


class TestJsonText:
    """The one JSON writer of reports and tables is ``json.dumps(..., indent=1)``."""

    @settings(max_examples=200, deadline=None)
    @given(_TREES)
    def test_matches_json_dumps(self, tree):
        assert _json_text(tree) == json.dumps(tree, indent=1)

    @pytest.mark.parametrize("leaf", [np.int64(1), np.float32(0.5), {1, 2}, object()],
                             ids=["int64", "float32", "set", "object"])
    def test_a_leaf_json_cannot_spell_raises_its_type_error(self, leaf):
        tree = {"a": [1.0, {"b": leaf}]}
        with pytest.raises(TypeError) as want:
            json.dumps(tree, indent=1)
        with pytest.raises(TypeError) as got:
            _json_text(tree)
        assert str(got.value) == str(want.value)
