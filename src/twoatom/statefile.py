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

Floats are serialized with Python's shortest round-trip repr, so a state
written and re-read is bit-identical.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

from . import qmat, states


class StateFileError(ValueError):
    """Malformed state file content."""


_KET = {"excited": qmat.EXCITED, "ground": qmat.GROUND}


def _vector(pairs, name: str) -> np.ndarray:
    try:
        v = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"{name} must be a list of [re, im] pairs") from exc
    if v.shape != (2,):
        raise StateFileError(f"{name} must have exactly 2 components")
    return v


def _from_family(family: str, params: dict) -> np.ndarray:
    try:
        if family == "product":
            return states.product_state(
                _vector(params["psi"], "psi"), _vector(params["phi"], "phi")
            )
        if family == "bell":
            return states.bell(params["which"])
        if family == "mes":
            return states.mes(params["a"], params["theta1"], params["theta2"])
        if family == "bell_diagonal":
            return states.bell_diagonal(*params["p"])
        if family == "werner":
            return states.werner(params["p"])
        if family == "mems":
            return states.mems(params["delta"])
        if family == "basis":
            try:
                ka, kb = _KET[params["a"]], _KET[params["b"]]
            except KeyError as exc:
                raise StateFileError(
                    "basis params 'a' and 'b' must be 'excited' or 'ground'"
                ) from exc
            return states.product_state(ka, kb)
    except KeyError as exc:
        raise StateFileError(f"family {family!r} is missing parameter {exc}") from exc
    except (ValueError, TypeError) as exc:
        if isinstance(exc, StateFileError):
            raise
        raise StateFileError(f"bad parameters for family {family!r}: {exc}") from exc
    raise StateFileError(f"unknown state family {family!r}")


def parse_state(obj: dict) -> np.ndarray:
    """Build and validate a density matrix from decoded state-file JSON."""
    if not isinstance(obj, dict):
        raise StateFileError("state file must be a JSON object")
    if "entries" in obj:
        entries = obj["entries"]
        if not isinstance(entries, list) or len(entries) != 16:
            raise StateFileError("'entries' must list 16 [re, im] pairs, row-major")
        try:
            flat = [complex(re, im) for re, im in entries]
        except (TypeError, ValueError) as exc:
            raise StateFileError("'entries' must list 16 [re, im] pairs") from exc
        rho = np.array(flat, dtype=complex).reshape(4, 4)
    elif "family" in obj:
        rho = _from_family(obj["family"], obj.get("params", {}))
    else:
        raise StateFileError("state file needs either 'entries' or 'family'")
    return qmat.validate_state(rho)


def load_state(fp) -> np.ndarray:
    """Parse a state file from an open text stream."""
    try:
        obj = json.load(fp)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"not valid JSON: {exc}") from exc
    return parse_state(obj)


def _pairs(rho: np.ndarray) -> np.ndarray:
    """(..., 4, 4) complex to (..., 16, 2) real: row-major [re, im] pairs."""
    rho = np.asarray(rho, dtype=complex)
    return np.stack([rho.real, rho.imag], axis=-1).reshape(rho.shape[:-2] + (16, 2))


def state_to_entries(rho: np.ndarray) -> list[list[float]]:
    """Row-major [re, im] pairs; floats round-trip exactly through JSON."""
    return _pairs(rho).tolist()


def dump_state(rho: np.ndarray, fp) -> None:
    json.dump({"entries": state_to_entries(rho)}, fp, indent=1)
    fp.write("\n")


_RHO_LABELS = [f"{j}{k}" for j in range(1, 5) for k in range(1, 5)]


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
        rows = np.column_stack([col.reshape(len(col), -1) for col in cells.values()])
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows.tolist())
    else:
        fp.write(_json_table(cells, metadata))
        fp.write("\n")


def _json_table(cells: dict, metadata: dict) -> str:
    """The ``json.dumps(..., indent=1)`` text of the table, numbers formatted at once.

    json lays out the envelope and one record whose numbers are placeholders;
    the record becomes a ``%``-template and every row fills a copy of it with
    the text json's C encoder gives each float.
    """
    rows = len(next(iter(cells.values()), ()))
    if not rows:
        return json.dumps({"metadata": metadata, "records": []}, indent=1)
    envelope = json.dumps({"metadata": metadata, "records": [0]}, indent=1)
    # "records" is the last key, so the last 0 is its placeholder
    head, _, tail = envelope.rpartition("0")
    indent = "\n" + head[head.rindex("\n") + 1:]
    record = json.dumps(
        {name: np.zeros(col.shape[1:], dtype=int).tolist() for name, col in cells.items()},
        indent=1,
    )
    # with indent set, a number is the last token of its line and no other line ends in 0
    record = re.sub(r"0(,?)$", r"%s\1", record.replace("%", "%%"), flags=re.M)
    record = record.replace("\n", indent)
    flat = np.column_stack([col.reshape(rows, -1) for col in cells.values()]).ravel()
    numbers = json.dumps(flat.tolist())[1:-1].split(", ")
    return head + ("," + indent).join([record] * rows) % tuple(numbers) + tail
