"""Say how every pinned artifact moved between a revision and the working tree.

Runs the working tree's INVOCATIONS (regenerate.py) twice on the same
inputs: once against the library of REV, once against the working tree's
src/.  Each side runs in its own subprocess whose PYTHONPATH is that side's
src/.  For every artifact it prints "identical" or the difference:

- JSON: each key path whose value differs, with old, new, |Δ| and the
  distance in ulps for numbers, and both values verbatim otherwise;
- CSV: for each column that differs, its largest |Δ|, its largest distance
  in ulps and the number of lines where it differs.

Exit codes and standard error are compared too: the report lists the
stderr lines only one side wrote.  From the repository root:

    python tests/golden/compare.py REV [--extra FILE] [--json PATH]

FILE adds invocations outside the pinned set: a JSON object that maps each
new name to its argv list, as INVOCATIONS does.  PATH receives the report as
JSON: the revision, the overall verdict, and per invocation its exit codes,
its differing stderr lines and, per artifact, "identical" or the moved key
paths and columns.  It exits 0 when every artifact, exit code and stderr
line is identical, 1 otherwise, and 2 when REV or FILE cannot be read.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

GOLDEN = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(GOLDEN))

# Run in a side's directory: the invocations are read from invocations.json,
# the pinned inputs and artifacts go to inputs/ and out/NAME/, standard error
# to stderr/NAME.txt and the exit codes to exits.json.
_RUN_SIDE = """
import json, regenerate
with open("invocations.json") as fh:
    results = regenerate.run_invocations(json.load(fh))
with open("exits.json", "w") as fh:
    json.dump({name: r["exit"] for name, r in results.items()}, fh)
"""


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Number of float64 steps from a to b, elementwise; -0.0 and +0.0 are one point."""
    keys = []
    for v in (a, b):
        bits = np.asarray(v, dtype=np.float64).view(np.int64)
        # Negative doubles order backwards in their bits: flip them below 0.
        keys.append(np.where(bits < 0, np.iinfo(np.int64).min - bits, bits))
    ka, kb = keys
    # Unsigned differences wrap, so take the larger key minus the smaller.
    ua, ub = ka.view(np.uint64), kb.view(np.uint64)
    return np.where(ka >= kb, ua - ub, ub - ua)


def _json_diff(old, new, path: str = ""):
    """Yield one entry per key path where two parsed JSON documents differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in new or key not in old:
                yield {"path": sub, "only_in": "old" if key in old else "new"}
            else:
                yield from _json_diff(old[key], new[key], sub)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for idx, (a, b) in enumerate(zip(old, new)):
            yield from _json_diff(a, b, f"{path}[{idx}]")
    elif type(old) is float and type(new) is float:
        steps = int(_ulps(np.array([old]), np.array([new]))[0])
        if steps or np.signbit(old) != np.signbit(new):
            yield {"path": path, "old": old, "new": new, "abs_delta": abs(new - old), "ulps": steps}
    elif json.dumps(old) != json.dumps(new):
        yield {"path": path, "old": old, "new": new}


def _load_json(path: str):
    # Every number is read as a float, so "-0" keeps its sign.
    with open(path) as fh:
        return json.load(fh, parse_int=float)


def _read_csv(path: str) -> tuple[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip()
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _csv_diff(old_path: str, new_path: str) -> list[dict]:
    (head_a, a), (head_b, b) = _read_csv(old_path), _read_csv(new_path)
    if head_a != head_b or a.shape != b.shape:
        return [{"note": f"old {head_a} {a.shape} new {head_b} {b.shape}"}]
    entries = []
    for col, name in enumerate(head_a.split(",")):
        # Bits, not values: %.17g text differs exactly where the bits do.
        differ = a[:, col].view(np.int64) != b[:, col].view(np.int64)
        if differ.any():
            entries.append({
                "column": name,
                "differing_lines": int(differ.sum()),
                "max_abs_delta": float(np.max(np.abs(b[:, col] - a[:, col]))),
                "max_ulps": int(_ulps(a[:, col], b[:, col]).max()),
            })
    return entries


def _artifact_diff(old_path: str, new_path: str) -> list[dict]:
    with open(old_path, "rb") as fa, open(new_path, "rb") as fb:
        if fa.read() == fb.read():
            return []
    # Every pinned artifact is a JSON report or a CSV table.
    if old_path.endswith(".json"):
        entries = list(_json_diff(_load_json(old_path), _load_json(new_path)))
    else:
        entries = _csv_diff(old_path, new_path)
    return entries or [{"note": "bytes differ, values equal"}]


def _stderr_diff(old_path: str, new_path: str) -> list[str]:
    """The stderr lines only one side wrote, "- " for old and "+ " for new."""
    texts = []
    for path in (old_path, new_path):
        with open(path) as fh:
            texts.append(fh.read().splitlines())
    return [line for line in difflib.ndiff(*texts) if line[:2] in ("- ", "+ ")]


def compare_runs(old_dir: str, new_dir: str) -> dict:
    """The report for two side directories.

    A side directory holds exits.json ({invocation: exit code}), one
    directory of artifacts per invocation under out/ and one stderr text per
    invocation under stderr/.  The report maps each invocation to its exit
    codes, its differing stderr lines and, per artifact, "identical" or a
    list of entries (report_lines shows them as text), and says whether
    everything is identical.
    """
    exits = []
    for side in (old_dir, new_dir):
        with open(os.path.join(side, "exits.json")) as fh:
            exits.append(json.load(fh))
    invocations, same = {}, True
    for name in sorted(exits[0].keys() | exits[1].keys()):
        code_a, code_b = exits[0].get(name), exits[1].get(name)
        errs = [os.path.join(side, "stderr", f"{name}.txt") for side in (old_dir, new_dir)]
        stderr = _stderr_diff(*errs) if code_a is not None and code_b is not None else []
        dirs = [os.path.join(side, "out", name) for side in (old_dir, new_dir)]
        listed = [set(os.listdir(d)) if os.path.isdir(d) else set() for d in dirs]
        artifacts = {}
        for artifact in sorted(listed[0] | listed[1]):
            if artifact not in listed[0] or artifact not in listed[1]:
                diff = [{"only_in": "old" if artifact in listed[0] else "new"}]
            else:
                diff = _artifact_diff(*(os.path.join(d, artifact) for d in dirs))
            artifacts[artifact] = diff or "identical"
        same = same and code_a == code_b and not stderr and all(
            diff == "identical" for diff in artifacts.values()
        )
        invocations[name] = {
            "exit": {"old": code_a, "new": code_b}, "stderr": stderr, "artifacts": artifacts,
        }
    return {"identical": same, "invocations": invocations}


def _entry_line(entry: dict) -> str:
    if "column" in entry:
        return (
            f"{entry['column']}: differing lines {entry['differing_lines']}, "
            f"max |Δ| {entry['max_abs_delta']:.3g}, max ulps {entry['max_ulps']}"
        )
    if "only_in" in entry:
        where = f"only in {entry['only_in']}"
        return f"{entry['path']}: {where}" if "path" in entry else where
    if "ulps" in entry:
        return (
            f"{entry['path']}: old {entry['old']!r} new {entry['new']!r} "
            f"|Δ| {entry['abs_delta']:.3g} ulps {entry['ulps']}"
        )
    if "path" in entry:
        return f"{entry['path']}: old {json.dumps(entry['old'])} new {json.dumps(entry['new'])}"
    return entry["note"]


def report_lines(report: dict) -> list[str]:
    """compare_runs's report as indented text, one line per difference."""
    lines = []
    for name, inv in report["invocations"].items():
        code_a, code_b = inv["exit"]["old"], inv["exit"]["new"]
        lines.append(f"{name}: exit {code_a}" + ("" if code_a == code_b else f" -> {code_b}"))
        if inv["stderr"]:
            lines.append("  stderr:")
            lines.extend(f"    {line}" for line in inv["stderr"])
        for artifact, diff in inv["artifacts"].items():
            if diff == "identical":
                lines.append(f"  {artifact}: identical")
            else:
                lines.append(f"  {artifact}:")
                lines.extend(f"    {_entry_line(entry)}" for entry in diff)
    return lines


def _extract_src(rev: str, dest: str) -> str:
    """Write REV's src/ under dest and return its path."""
    tar = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def load_extra(path: str, pinned: dict) -> dict:
    """The invocations of an --extra file: {name: argv list}, no pinned name."""
    with open(path) as fh:
        try:
            extra = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(extra, dict) or not all(
        isinstance(argv, list) and all(isinstance(arg, str) for arg in argv)
        for argv in extra.values()
    ):
        raise ValueError(f"{path}: expected an object that maps names to argv lists of strings")
    clash = sorted(extra.keys() & pinned.keys())
    if clash:
        raise ValueError(f"{path}: {', '.join(clash)} already pinned")
    return extra


def compare_sources(old_src: str, new_src: str, invocations: dict, work: str) -> dict:
    """Run the invocations against two src/ trees, in side directories under work; compare."""
    sides = [os.path.join(work, side) for side in ("old", "new")]
    for src, side_dir in zip((old_src, new_src), sides):
        _run_side(src, side_dir, invocations)
    return compare_runs(*sides)


def _run_side(src: str, side_dir: str, invocations: dict) -> None:
    os.makedirs(side_dir)
    with open(os.path.join(side_dir, "invocations.json"), "w") as fh:
        json.dump(invocations, fh)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, GOLDEN])}
    run = subprocess.run(
        [sys.executable, "-c", _RUN_SIDE], cwd=side_dir, env=env, capture_output=True, text=True
    )
    if run.returncode != 0:
        raise RuntimeError(f"the invocations failed against {src}:\n{run.stderr}")


def write_json(path: str, rev: str, report: dict) -> None:
    """Write compare_runs's report for REV against the working tree to path."""
    with open(path, "w") as fh:
        json.dump({"revision": rev, "new": "working tree", **report}, fh, indent=1)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare REV's artifacts with the working tree's.")
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--extra", metavar="FILE", help="JSON object of more invocations to run")
    parser.add_argument("--json", metavar="PATH", help="also write the report to PATH as JSON")
    ns = parser.parse_args(argv)
    from regenerate import INVOCATIONS  # beside this script, which is run directly

    invocations = dict(INVOCATIONS)
    if ns.extra:
        try:
            invocations.update(load_extra(ns.extra, INVOCATIONS))
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            old_src = _extract_src(ns.rev, os.path.join(tmp, "rev"))
        except subprocess.CalledProcessError as exc:
            parser.error(f"git archive {ns.rev}: {exc.stderr.decode().strip()}")
        report = compare_sources(old_src, os.path.join(ROOT, "src"), invocations, tmp)
    if ns.json:
        write_json(ns.json, ns.rev, report)
    print(f"old: {ns.rev}, new: the working tree")
    print("\n".join(report_lines(report)))
    print(
        "every artifact, exit code and stderr line identical"
        if report["identical"] else "differences found"
    )
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
