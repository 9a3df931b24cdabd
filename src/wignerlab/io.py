"""Artifact serialization: deterministic JSON, CSV artifacts, ensemble files.

JSON output is byte-deterministic: keys are sorted, floats are printed with
17 significant digits, complex values as [re, im] pairs, tuples and arrays
as lists, and no whitespace depends on the environment.

The field, marginal and state CSV writers print every number as
``format(v, ".17g")`` would, through the vectorized formatter and line
assembler of ``_csvtext`` (docs/conventions.md, Number text).  They import
it when they run, so a command that writes no CSV never loads it.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .ensemble import Ensemble
from .grid import PhaseSpaceField, PhaseSpaceGrid, _row_blocks, catalog_state

__all__ = [
    "canonical_json",
    "write_json",
    "write_field_csv",
    "field_metadata",
    "write_marginal_csv",
    "write_state_csv",
    "load_ensemble_json",
]


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} in JSON output")
    return format(value, ".17g")


def _emit(obj: Any) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_format_float(float(obj.real))},{_format_float(float(obj.imag))}]"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        keyed = {str(k): v for k, v in obj.items()}
        inner = ",".join(f"{json.dumps(k)}:{_emit(v)}" for k, v in sorted(keyed.items()))
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to canonical JSON")


def canonical_json(obj: Any) -> str:
    """Serialize to deterministic JSON (sorted keys, 17-digit floats)."""
    return _emit(obj) + "\n"


def write_json(path: str, obj: Any) -> None:
    # Serialize before opening, so a refused value leaves no empty file.
    text = canonical_json(obj)
    with open(path, "w") as fh:
        fh.write(text)


def field_metadata(field: PhaseSpaceField) -> dict:
    grid = field.grid
    return {
        "n": grid.n_points,
        "L": grid.half_width,
        "dx": grid.dx,
        "dp": grid.dp,
        "hbar": grid.hbar,
    }


def write_field_csv(path: str, field: PhaseSpaceField) -> None:
    """Field CSV, row-major over x then p, with CRLF line ends.

    Real fields get columns x,p,value; complex fields x,p,re,im.  Every
    number is written as ``format(v, ".17g")`` would write it (see
    docs/conventions.md, Number text).  The x and p columns are formatted
    and packed once; the values are formatted and written one row block of
    x rows (grid._row_blocks) at a time.
    """
    from ._csvtext import _csv_lines, _number_text, _packed

    values = field.values
    is_complex = np.iscomplexobj(values)
    xs = _packed(field.grid.x_points())[:, None]
    ps = _packed(field.grid.wigner_p_points())
    with open(path, "wb") as fh:
        fh.write(b"x,p,re,im\r\n" if is_complex else b"x,p,value\r\n")
        for rows in _row_blocks(len(values)):
            block = values[rows]
            cells = (block.real, block.imag) if is_complex else (block,)
            fh.write(_csv_lines(xs[rows], ps, *map(_number_text, cells)))


def write_marginal_csv(path: str, axis_name: str, axis: np.ndarray, values: np.ndarray) -> None:
    """Marginal CSV: columns axis_name,value, ``%.17g`` numbers, CRLF line ends."""
    from ._csvtext import _csv_lines, _number_text

    with open(path, "wb") as fh:
        fh.write(f"{axis_name},value\r\n".encode())
        fh.write(_csv_lines(_number_text(axis), _number_text(values)))


def write_state_csv(path: str, x: np.ndarray, values: np.ndarray) -> None:
    """State CSV: columns x,re,im, ``%.17g`` numbers, CRLF line ends."""
    from ._csvtext import _csv_lines, _number_text

    values = np.asarray(values, dtype=complex)
    with open(path, "wb") as fh:
        fh.write(b"x,re,im\r\n")
        fh.write(_csv_lines(_number_text(x), _number_text(values.real), _number_text(values.imag)))


def load_ensemble_json(path: str, grid: PhaseSpaceGrid) -> Ensemble:
    """Load an ensemble file: JSON {label, members: [{weight, state}]}.

    Each member's ``state`` is either a catalog descriptor or a bare path to
    a sampled-state CSV; a relative bare path is read from the directory of
    the ensemble file.  Any other key is refused, except the ``config`` and
    ``eigenvalue_sum`` that ensemble-spectral writes beside the members.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("members"), list):
        raise ValueError(f"{path}: expected an object with a 'members' list")
    unknown = sorted(doc.keys() - {"label", "members", "config", "eigenvalue_sum"})
    if unknown:
        raise ValueError(f"{path}: unknown key {', '.join(map(json.dumps, unknown))}")
    members = []
    for idx, entry in enumerate(doc["members"]):
        if not isinstance(entry, dict) or "weight" not in entry or "state" not in entry:
            raise ValueError(f"{path}: member {idx} needs 'weight' and 'state'")
        unknown = sorted(entry.keys() - {"weight", "state"})
        if unknown:
            raise ValueError(
                f"{path}: member {idx} has unknown key {', '.join(map(json.dumps, unknown))}"
            )
        raw, desc = entry["weight"], entry["state"]
        # A JSON number only: json reads true as a bool, which float() takes as 1.
        try:
            weight = float(raw) if type(raw) in (int, float) else None
        except OverflowError:
            weight = None
        if weight is None:
            raise ValueError(
                f"{path}: member {idx} weight must be a number, got {json.dumps(raw)}"
            )
        if not isinstance(desc, str):
            raise ValueError(
                f"{path}: member {idx} state must be a string, got {json.dumps(desc)}"
            )
        if ":" not in desc:
            desc = f"file:{os.path.join(os.path.dirname(path), desc)}"
        state = catalog_state(desc, grid)
        members.append((state, weight))
    label = doc.get("label", os.path.basename(path))
    if not isinstance(label, str):
        raise ValueError(f"{path}: label must be a string, got {json.dumps(label)}")
    return Ensemble(tuple(members), label)
