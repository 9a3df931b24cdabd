"""Artifact serialization: deterministic JSON, field CSV, ensemble files.

JSON output is byte-deterministic: keys are sorted, floats are printed with
17 significant digits, complex values as [re, im] pairs, and no whitespace
depends on the environment.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .ensemble import Ensemble
from .grid import PhaseSpaceField, PhaseSpaceGrid, catalog_state
from .modspace import WeightedNormReport
from .moments import CovarianceReport, MarginalReport

__all__ = [
    "canonical_json",
    "write_json",
    "write_field_csv",
    "field_metadata",
    "norm_report_to_dict",
    "covariance_report_to_dict",
    "marginal_report_to_dict",
    "write_marginal_csv",
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
    number is printed with ``%.17g``.  The p column is formatted once and
    each x row is written as one block, so at most one row of the field is
    held as Python objects at a time.
    """
    values = field.values
    is_complex = np.iscomplexobj(values)
    ps = [f"{p:.17g}" for p in field.p_axis.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("x,p,re,im\r\n" if is_complex else "x,p,value\r\n")
        for xv, row in zip(field.x_axis.tolist(), values):
            xs = f"{xv:.17g}"
            if is_complex:
                lines = [
                    f"{xs},{p},{v.real:.17g},{v.imag:.17g}\r\n" for p, v in zip(ps, row.tolist())
                ]
            else:
                lines = [f"{xs},{p},{v:.17g}\r\n" for p, v in zip(ps, row.tolist())]
            fh.write("".join(lines))


def norm_report_to_dict(report: WeightedNormReport) -> dict:
    return {
        "s": report.s,
        "window": report.window_label,
        "partials": [[cut, value] for cut, value in report.partial_norms],
        "growth_exponent": report.growth_exponent,
        "verdict": report.verdict,
    }


def covariance_report_to_dict(report: CovarianceReport) -> dict:
    return {
        "mean": list(report.mean),
        "sigma": [list(row) for row in report.sigma],
        "second_moments_fd": [list(row) for row in report.second_moments_fd],
        "residual": report.residual,
        "fd_step_change": report.fd_step_change,
        "flags": list(report.flags),
    }


def marginal_report_to_dict(report: MarginalReport) -> dict:
    return {
        "x_residual": report.x_residual,
        "p_residual": report.p_residual,
        "norm_residual": report.norm_residual,
    }


def write_marginal_csv(path: str, axis_name: str, axis: np.ndarray, values: np.ndarray) -> None:
    """Marginal CSV: columns axis_name,value, ``%.17g`` numbers, CRLF line ends."""
    axis = np.asarray(axis, dtype=float).tolist()
    values = np.asarray(values, dtype=float).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(f"{axis_name},value\r\n")
        fh.write("".join([f"{a:.17g},{v:.17g}\r\n" for a, v in zip(axis, values)]))


def load_ensemble_json(path: str, grid: PhaseSpaceGrid) -> Ensemble:
    """Load an ensemble file: JSON {label, members: [{weight, state}]}.

    Each member's ``state`` is either a catalog descriptor or a bare path to
    a sampled-state CSV; a relative bare path is read from the directory of
    the ensemble file.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("members"), list):
        raise ValueError(f"{path}: expected an object with a 'members' list")
    members = []
    for idx, entry in enumerate(doc["members"]):
        if not isinstance(entry, dict) or "weight" not in entry or "state" not in entry:
            raise ValueError(f"{path}: member {idx} needs 'weight' and 'state'")
        try:
            weight = float(entry["weight"])
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"{path}: member {idx} weight must be a number, got {entry['weight']!r}"
            ) from None
        desc = str(entry["state"])
        if ":" not in desc:
            desc = f"file:{os.path.join(os.path.dirname(path), desc)}"
        state = catalog_state(desc, grid)
        members.append((state, weight))
    label = str(doc.get("label", os.path.basename(path)))
    return Ensemble(tuple(members), label)
