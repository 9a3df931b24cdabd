"""Pinned artifact bytes: one fixed set of CLI invocations and their digests.

digests.json holds the sha256 of every artifact each invocation writes and
its exit code, next to a fingerprint of the numpy and BLAS build that wrote
them.  OpenBLAS picks its kernels per CPU, so the bytes are pinned per
fingerprint, not across machines.  tests/test_golden.py runs the same
invocations and compares.

Regenerate, from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

A change to any digest is a change to the artifact contract: list every
changed artifact with the reason it moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
REGENERATE = "PYTHONPATH=src python tests/golden/regenerate.py"

SMALL = ["--grid-n", "256", "--grid-l", "8"]
ENSEMBLE = ["--grid-n", "512", "--grid-l", "10", "--dim", "8"]
# A grid on which grid._row_blocks caps the blocks below ROW_BLOCK rows.
LARGE = ["--grid-n", "4096", "--grid-l", "16"]

# Every path is relative to the working directory: a file member's label
# embeds the ensemble file's directory, and the label is in the artifacts.
INVOCATIONS = {
    "wigner": ["wigner", "--state", "hermite:1", *SMALL],
    "wigner-scale": ["wigner", "--state", "gaussian:0.7", "--apply", "scale:1.3", *SMALL],
    "cross-wigner": ["cross-wigner", "--state", "hermite:0", "--state2", "hermite:1", *SMALL],
    "marginals": ["marginals", "--ensemble", "inputs/trio.json", *SMALL],
    "moments": ["moments", "--ensemble", "inputs/trio.json", *SMALL],
    "wigner-blocks": ["wigner", "--state", "hermite:3"],
    "cross-wigner-blocks": [
        "cross-wigner", "--state", "box:-1:1", "--state2", "hermite:2",
        "--grid-n", "512", "--grid-l", "10",
    ],
    # 16 row blocks of 512 rows, 121344 of 131072 values an exact zero.
    "wigner-zeros": ["wigner", "--state", "box:-1:0.5", "--grid-n", "512", "--grid-l", "10"],
    # Two row blocks; the x column mixes fixed and exponent notation.
    "wigner-notations": [
        "wigner", "--state", "box:-0.0005:0.0005", "--grid-n", "64", "--grid-l", "0.001",
    ],
    "modnorm": ["modnorm", "--state", "box:-1:1", "--s", "1", *SMALL],
    "diagnose": ["diagnose", "--state", "hermite:0", *SMALL],
    "diagnose-coarse": ["diagnose", "--state", "box:-0.5:0.5", "--grid-n", "64", "--grid-l", "8"],
    "diagnose-large": ["diagnose", "--state", "box:-1:1", *LARGE],
    "modnorm-large": ["modnorm", "--state", "hermite:3", "--s", "2", *LARGE],
    # A compact window on a dense state: the cross field's support rows are
    # the window's, so the streamed kernel skips the blocks outside them.
    "modnorm-box-window": [
        "modnorm", "--state", "hermite:3", "--window", "box:0.5:2", "--s", "0",
        "--grid-n", "1024", "--grid-l", "12",
    ],
    "marginals-refused": ["marginals", "--state", "hermite:0", "--grid-n", "64", "--grid-l", "8"],
    "ensemble-build": ["ensemble-build", "--ensemble", "inputs/eigen.json", *ENSEMBLE],
    "ensemble-equiv": [
        "ensemble-equiv", "--ensemble", "inputs/eigen.json",
        "--ensemble2", "inputs/rotated.json", *ENSEMBLE,
    ],
    "ensemble-spectral": ["ensemble-spectral", "--ensemble", "inputs/trio.json", *ENSEMBLE],
    "reproduce-prop1": ["reproduce", "prop1"],
    "reproduce-prop2": ["reproduce", "prop2"],
    "reproduce-prop3": ["reproduce", "prop3"],
    "reproduce-cor5": ["reproduce", "cor5"],
}


def _openblas_core() -> str:
    """The CPU core OpenBLAS picked at run time, which may differ from its build target."""
    from wignerlab.cli import _openblas

    blas = _openblas()
    return "unknown" if blas is None else blas["get_corename"]().decode()


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "openblas_core": _openblas_core(),
    }


def _write_inputs() -> None:
    from wignerlab.grid import hermite_combination, make_grid
    from wignerlab.io import write_state_csv

    os.makedirs("inputs")
    grid = make_grid(512, 10.0)
    for name, coeffs in (("plus", (1.0, 1.0)), ("minus", (1.0, -1.0))):
        state = hermite_combination(grid, coeffs, name)
        write_state_csv(f"inputs/{name}.csv", grid.x_points(), state.values)
    ensembles = {
        "eigen": [(0.5, "hermite:0"), (0.5, "hermite:1")],
        "rotated": [(0.5, "plus.csv"), (0.5, "minus.csv")],
        "trio": [(0.5, "hermite:0"), (0.25, "hermite:1"), (0.25, "hermite:2")],
    }
    for name, members in ensembles.items():
        doc = {"label": name, "members": [{"weight": w, "state": s} for w, s in members]}
        with open(f"inputs/{name}.json", "w") as fh:
            json.dump(doc, fh)


def run_invocations(invocations: dict | None = None) -> dict:
    """Run invocations (INVOCATIONS by default) in the working directory.

    Returns each one's exit code and the digests of its artifacts.  Each
    one's standard error goes to stderr/NAME.txt, for compare.py; it is not
    digested.
    """
    from wignerlab.cli import main

    _write_inputs()
    os.makedirs("stderr")
    results = {}
    for name, argv in (INVOCATIONS if invocations is None else invocations).items():
        out = os.path.join("out", name)
        with open(os.path.join("stderr", f"{name}.txt"), "w") as err, contextlib.redirect_stderr(err):
            code = main([*argv, "--out", out])
        artifacts = {}
        for artifact in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, artifact), "rb") as fh:
                artifacts[artifact] = hashlib.sha256(fh.read()).hexdigest()
        results[name] = {"argv": " ".join(argv), "exit": code, "artifacts": artifacts}
    return results


def main() -> int:
    doc = {"fingerprint": fingerprint()}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            doc["invocations"] = run_invocations()
        finally:
            os.chdir(cwd)
    with open(DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    count = sum(len(r["artifacts"]) for r in doc["invocations"].values())
    print(f"wrote {count} digests of {len(INVOCATIONS)} invocations to {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
