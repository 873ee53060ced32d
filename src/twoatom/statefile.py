"""JSON state files and CSV/JSON table output.

A state file is a JSON object in one of two forms:

* raw entries, row-major in the fixed basis, each complex number as a
  ``[re, im]`` pair::

      {"entries": [[re11, im11], [re12, im12], ..., [re44, im44]]}

* a named family with keyword parameters::

      {"family": "werner", "params": {"p": 0.5}}

Supported families: ``product`` (params ``psi``, ``phi``: 2-vectors of
``[re, im]`` pairs), ``bell`` (``which``: phi_plus | phi_minus | psi_plus |
psi_minus), ``mes`` (``a``, ``theta1``, ``theta2``), ``bell_diagonal``
(``p``: 4 weights), ``werner`` (``p``), ``mems`` (``delta``), ``basis``
(``a``, ``b``: each "excited" or "ground").

The number parameters (``a`` and the phases of ``mes``, ``p`` of
``werner``, ``delta`` and each of the four weights, which ``p`` of
``bell_diagonal`` lists) must each be one JSON number, not a list or a
string.  JSON ``true`` and ``false`` are accepted where a number is
expected, and read as 1 and 0 (``complex(0, True)`` is ``1j``).

Floats are serialized with Python's shortest round-trip repr, so a state
written and re-read is bit-identical.
"""

from __future__ import annotations

import csv
import json
import math
import re
import reprlib
from json.encoder import encode_basestring_ascii

import numpy as np

from . import qmat, states


class StateFileError(ValueError):
    """Malformed state file content."""


_KET = {"excited": qmat.EXCITED, "ground": qmat.GROUND}


def _complexes(pairs, n: int, name: str) -> np.ndarray:
    try:
        v = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFileError(f"{name} must be a list of [re, im] pairs: {exc}") from exc
    if v.shape != (n,):
        raise StateFileError(f"{name} must list {n} [re, im] pairs")
    return v


def _number(x, name: str):
    """``x`` if it is one JSON number (``true``/``false`` are ints), else ValueError."""
    if not isinstance(x, (int, float)):
        raise ValueError(f"{name} must be one number")
    return x


def _weights(p) -> list:
    """The four Bell-diagonal weights, each one JSON number, else ValueError."""
    if not isinstance(p, list) or len(p) != 4:
        raise ValueError("p must list 4 numbers")
    return [_number(w, f"p[{i}]") for i, w in enumerate(p)]


def _ket(name) -> np.ndarray:
    """The ket named "excited" or "ground"; KeyError for any other value, a list too."""
    if isinstance(name, str) and name in _KET:
        return _KET[name]
    raise KeyError(name)


_FAMILIES = {
    "product": lambda p: states.product_state(
        _complexes(p["psi"], 2, "psi"), _complexes(p["phi"], 2, "phi")
    ),
    "bell": lambda p: states.bell(p["which"]),
    "mes": lambda p: states.mes(*(_number(p[k], k) for k in ("a", "theta1", "theta2"))),
    "bell_diagonal": lambda p: states.bell_diagonal(*_weights(p["p"])),
    "werner": lambda p: states.werner(_number(p["p"], "p")),
    "mems": lambda p: states.mems(_number(p["delta"], "delta")),
    "basis": lambda p: states.product_state(_ket(p["a"]), _ket(p["b"])),
}
# a KeyError is a missing parameter, unless the family names its own message
# (basis: a missing, unknown or non-string ket name)
_KEY_ERROR = {"basis": "basis params 'a' and 'b' must be 'excited' or 'ground'"}


def _from_family(family, params) -> np.ndarray:
    build = _FAMILIES.get(family) if isinstance(family, str) else None
    if build is None:
        raise StateFileError(f"unknown state family {reprlib.repr(family)}")
    try:
        return build(params)
    except KeyError as exc:
        message = _KEY_ERROR.get(family, f"family {family!r} is missing parameter {exc}")
        raise StateFileError(message) from exc
    except StateFileError:  # the product kets' own message
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        detail = str(exc)  # it may echo a parameter of any length
        detail = detail if len(detail) <= 120 else detail[:117] + "..."
        raise StateFileError(f"bad parameters for family {family!r}: {detail}") from exc


def parse_state(obj: dict) -> np.ndarray:
    """Build and validate a density matrix from decoded state-file JSON."""
    if not isinstance(obj, dict):
        raise StateFileError("state file must be a JSON object")
    if "entries" in obj:
        rho = _complexes(obj["entries"], 16, "'entries'").reshape(4, 4)
    elif "family" in obj:
        rho = _from_family(obj["family"], obj.get("params", {}))
    else:
        raise StateFileError("state file needs either 'entries' or 'family'")
    return qmat.validate_state(rho)


def load_state(fp) -> np.ndarray:
    """Parse a state file from an open text stream.  The one place where decoding
    fails: text that is not JSON, bytes the stream cannot decode and nesting past
    the recursion limit raise ``StateFileError``."""
    try:
        obj = json.load(fp)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise StateFileError(f"not valid JSON: {exc}") from exc
    return parse_state(obj)


def _pairs(rho: np.ndarray) -> np.ndarray:
    """(..., 4, 4) complex to (..., 16, 2) real: row-major [re, im] pairs."""
    rho = np.asarray(rho, dtype=complex)
    return np.stack([rho.real, rho.imag], axis=-1).reshape(rho.shape[:-2] + (16, 2))


_RHO_LABELS = [f"{j}{k}" for j in range(1, 5) for k in range(1, 5)]


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=1)`` for a tree of dicts with str keys, lists, tuples,
    str, bool, None, int and float; ``indent`` is the newline and indentation of the
    line ``obj`` starts on.

    Each node is spelled by its exact type: a finite float by ``float.__repr__``, an
    int by ``int.__repr__``, a str by json's own escape.  Anything else (NaN, +-inf,
    numpy scalars, other types) is spelled by ``json.dumps``, which may raise its
    ``TypeError``.  json's own encoder is pure Python whenever ``indent`` is set;
    this takes about half its time on a report.
    """
    kind = type(obj)
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = indent + " "
        # a float item, the bulk of a report, is spelled without a call
        items = [float.__repr__(v) if type(v) is float and math.isfinite(v)
                 else _json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = indent + " "
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    return json.dumps(obj)


def write_table(columns: dict, metadata: dict, fmt: str, fp) -> None:
    """Write equal-length columns to ``fp`` as ``"csv"`` or ``"json"``.

    A column is either T floats or a (T, 4, 4) complex stack of states.
    CSV is a header line and one row per sample; a stack named ``rho``
    spreads over the 32 columns ``rho_re_11, rho_im_11, ..., rho_im_44``.
    CSV carries no metadata.  JSON is ``{"metadata": ..., "records": [...]}``
    with one object per sample, a stack giving its 16 row-major [re, im]
    pairs, laid out exactly as ``json.dump(..., indent=1)`` lays it out.
    Floats are written in shortest round-trip form.
    """
    cells = {
        name: _pairs(col) if np.iscomplexobj(col) else np.asarray(col, dtype=float)
        for name, col in columns.items()
    }
    if fmt == "csv":
        header = []
        for name, col in cells.items():
            header += [name] if col.ndim == 1 else [
                f"{name}_{part}_{lbl}" for lbl in _RHO_LABELS for part in ("re", "im")
            ]
        # the trailing size, not -1, which a zero-row stack cannot resolve
        rows = np.column_stack(
            [col.reshape(len(col), math.prod(col.shape[1:])) for col in cells.values()]
        )
        csv.writer(fp, lineterminator="\n").writerow(header)  # quotes a name that needs it
        line = ",".join(["%r"] * rows.shape[1]) + "\n"  # csv.writer spells a float as its repr
        fp.write((line * len(rows)) % tuple(rows.ravel().tolist()))
    else:
        fp.write(_json_table(cells, metadata))
        fp.write("\n")


def _json_table(cells: dict, metadata: dict) -> str:
    """The ``json.dumps(..., indent=1)`` text of the table, numbers formatted at once.

    :func:`_json_text` lays out the envelope and one record whose numbers are placeholders;
    the record becomes a ``%``-template and every row fills a copy of it with
    the text json's C encoder gives each float.
    """
    rows = len(next(iter(cells.values()), ()))
    if not rows:
        return _json_text({"metadata": metadata, "records": []})
    envelope = _json_text({"metadata": metadata, "records": [0]})
    # "records" is the last key, so the last 0 is its placeholder
    head, _, tail = envelope.rpartition("0")
    indent = "\n" + head[head.rindex("\n") + 1:]
    record = _json_text(
        {name: np.zeros(col.shape[1:], dtype=int).tolist() for name, col in cells.items()}
    )
    # with indent set, a number is the last token of its line and no other line ends in 0
    record = re.sub(r"0(,?)$", r"%s\1", record.replace("%", "%%"), flags=re.M)
    record = record.replace("\n", indent)
    flat = np.column_stack([col.reshape(rows, -1) for col in cells.values()]).ravel()
    numbers = json.dumps(flat.tolist())[1:-1].split(", ")
    return head + ("," + indent).join([record] * rows) % tuple(numbers) + tail
