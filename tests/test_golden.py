"""Every artifact of the pinned invocation set keeps its bytes and exit code."""

import json
import os
import shutil

import numpy as np
import pytest

from golden.compare import compare_runs, compare_sources, load_extra, report_lines, write_json
from golden.regenerate import DIGESTS, INVOCATIONS, REGENERATE, fingerprint, run_invocations

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    with open(DIGESTS) as fh:
        pinned = json.load(fh)
    here = fingerprint()
    mismatched = [
        f"{key}: pinned {pinned['fingerprint'].get(key)!r}, here {value!r}"
        for key, value in here.items()
        if pinned["fingerprint"].get(key) != value
    ]
    if mismatched:
        pytest.fail(
            "digests were pinned on another numpy/BLAS build, so the bytes may differ: "
            + "; ".join(mismatched)
            + f".  Regenerate with `{REGENERATE}` on this build and review the diff."
        )
    monkeypatch.chdir(tmp_path)
    results = run_invocations()
    assert results.keys() == pinned["invocations"].keys()
    for name, result in results.items():
        assert result == pinned["invocations"][name], name


def _side(root, exits, artifacts, stderr=None):
    """A compare.py side directory: exits.json, out/NAME/ARTIFACT files and
    stderr/NAME.txt texts (empty unless given)."""
    root.mkdir()
    (root / "exits.json").write_text(json.dumps(exits))
    (root / "stderr").mkdir()
    for name in exits:
        (root / "stderr" / f"{name}.txt").write_text((stderr or {}).get(name, ""))
    for (name, artifact), text in artifacts.items():
        (root / "out" / name).mkdir(parents=True, exist_ok=True)
        (root / "out" / name / artifact).write_bytes(text.encode())


def test_compare_reports_each_moved_value(tmp_path):
    one_ulp_up = float(np.nextafter(1.0, 2.0))
    csv = "x,p,value\r\n0,0,1\r\n0,1,0.5\r\n1,0,-0.25\r\n"
    # One ulp away in two lines of the value column, and -0 for 0 in p.
    moved_csv = "x,p,value\r\n0,-0,1\r\n0,1,0.5000000000000001\r\n1,0,-0.25000000000000006\r\n"
    report = {"verdict": "convergent", "partials": [[1, 0.5], [2, 1]], "pass": True}
    moved = {"verdict": "diverging", "partials": [[1, 0.5], [2, one_ulp_up]], "pass": True}
    _side(tmp_path / "old", {"wigner": 0, "moments": 0, "refused": 1}, {
        ("wigner", "field.csv"): csv,
        ("wigner", "field.json"): '{"n":4}\n',
        ("moments", "report.json"): json.dumps(report),
        ("moments", "gone.csv"): csv,
    })
    _side(tmp_path / "new", {"wigner": 0, "moments": 0, "refused": 2}, {
        ("wigner", "field.csv"): moved_csv,
        ("wigner", "field.json"): '{"n":4}\n',
        ("moments", "report.json"): json.dumps(moved),
    })
    report = compare_runs(str(tmp_path / "old"), str(tmp_path / "new"))
    assert not report["identical"]
    assert report_lines(report) == [
        "moments: exit 0",
        "  gone.csv:",
        "    only in old",
        "  report.json:",
        f"    partials[1][1]: old 1.0 new {one_ulp_up!r} |Δ| 2.22e-16 ulps 1",
        '    verdict: old "convergent" new "diverging"',
        "refused: exit 1 -> 2",
        "wigner: exit 0",
        "  field.csv:",
        "    p: differing lines 1, max |Δ| 0, max ulps 0",
        "    value: differing lines 2, max |Δ| 1.11e-16, max ulps 1",
        "  field.json: identical",
    ]


def test_compare_reads_equal_sides_as_identical(tmp_path):
    artifacts = {("diagnose", "report.json"): '{"partials":[[1,-0]],"verdict":"diverging"}\n'}
    for side in ("old", "new"):
        _side(tmp_path / side, {"diagnose": 0}, artifacts)
    report = compare_runs(str(tmp_path / "old"), str(tmp_path / "new"))
    assert report["identical"]
    assert report_lines(report) == ["diagnose: exit 0", "  report.json: identical"]


def test_compare_runs_extra_invocations_on_both_sides(tmp_path):
    # Two copies of the working tree's src/, the second with hbar written one
    # ulp high in every field JSON; only the extra invocation is run.
    for side in ("a", "b"):
        shutil.copytree(SRC, tmp_path / side / "src", ignore=shutil.ignore_patterns("__pycache__"))
    io_py = tmp_path / "b" / "src" / "wignerlab" / "io.py"
    io_py.write_text(io_py.read_text().replace('"hbar": grid.hbar,', '"hbar": grid.hbar * (1 + 2**-52),'))
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"wigner-64": ["wigner", "--state", "hermite:0", "--grid-n", "64"]}))
    invocations = load_extra(str(extra), INVOCATIONS)
    a, b = (str(tmp_path / side / "src") for side in ("a", "b"))
    report = compare_sources(a, a, invocations, str(tmp_path / "same"))
    assert report["identical"]
    assert report_lines(report) == [
        "wigner-64: exit 0", "  wigner_field.csv: identical", "  wigner_field.json: identical",
    ]
    report = compare_sources(a, b, invocations, str(tmp_path / "moved"))
    assert not report["identical"]
    assert report_lines(report) == [
        "wigner-64: exit 0",
        "  wigner_field.csv: identical",
        "  wigner_field.json:",
        f"    hbar: old 1.0 new {1 + 2**-52!r} |Δ| 2.22e-16 ulps 1",
    ]


def test_compare_writes_its_report_as_json(tmp_path):
    one_ulp_up = float(np.nextafter(1.0, 2.0))
    csv = "x,p,value\r\n0,0,1\r\n0,1,0.5\r\n"
    _side(tmp_path / "old", {"moments": 0, "wigner": 0}, {
        ("moments", "report.json"): '{"hbar":1,"verdict":"convergent"}',
        ("wigner", "field.csv"): csv,
    }, {"moments": "warning: coarse grid\n"})
    _side(tmp_path / "new", {"moments": 0, "wigner": 0}, {
        ("moments", "report.json"): json.dumps({"hbar": one_ulp_up, "verdict": "diverging"}),
        ("wigner", "field.csv"): csv.replace("0.5", "0.5000000000000001"),
    }, {"moments": "warning: fine grid\n"})
    path = tmp_path / "report.json"
    write_json(str(path), "HEAD~1", compare_runs(str(tmp_path / "old"), str(tmp_path / "new")))
    assert json.loads(path.read_text()) == {
        "revision": "HEAD~1",
        "new": "working tree",
        "identical": False,
        "invocations": {
            "moments": {
                "exit": {"old": 0, "new": 0},
                "stderr": ["- warning: coarse grid", "+ warning: fine grid"],
                "artifacts": {"report.json": [
                    {"path": "hbar", "old": 1.0, "new": one_ulp_up, "abs_delta": 2.0**-52, "ulps": 1},
                    {"path": "verdict", "old": "convergent", "new": "diverging"},
                ]},
            },
            "wigner": {
                "exit": {"old": 0, "new": 0},
                "stderr": [],
                "artifacts": {"field.csv": [
                    {"column": "value", "differing_lines": 1, "max_abs_delta": 2.0**-53, "max_ulps": 1},
                ]},
            },
        },
    }


def test_compare_reports_a_different_stderr_line(tmp_path):
    # Two copies of src/, the second printing its grid warnings under another
    # word; the warning in the report artifact is the same on both sides.
    for side in ("a", "b"):
        shutil.copytree(SRC, tmp_path / side / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = tmp_path / "b" / "src" / "wignerlab" / "cli.py"
    text = cli_py.read_text()
    assert text.count('print(f"warning: {messages[-1]}"') == 1
    cli_py.write_text(text.replace('print(f"warning: {messages[-1]}"', 'print(f"caution: {messages[-1]}"'))
    name = "diagnose-coarse-64"
    invocations = {name: ["diagnose", "--state", "hermite:0", "--grid-n", "64", "--grid-l", "8"]}
    a, b = (str(tmp_path / side / "src") for side in ("a", "b"))
    report = compare_sources(a, b, invocations, str(tmp_path / "work"))
    assert not report["identical"]
    inv = report["invocations"][name]
    assert inv["exit"] == {"old": 0, "new": 0}
    assert set(inv["artifacts"].values()) == {"identical"}
    old, new = inv["stderr"]
    assert old.startswith("- warning: state hermite:0: momentum band")
    assert new == "+ caution: " + old[len("- warning: "):]
    assert report_lines(report)[:4] == [f"{name}: exit 0", "  stderr:", f"    {old}", f"    {new}"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "invalid JSON"),
        ('["wigner"]', "maps names to argv lists"),
        ('{"x": ["wigner", 3]}', "maps names to argv lists"),
        ('{"wigner": ["wigner", "--state", "hermite:2"]}', "wigner already pinned"),
    ],
    ids=["not-json", "not-an-object", "not-strings", "pinned-name"],
)
def test_compare_refuses_a_bad_extra_file(tmp_path, text, message):
    path = tmp_path / "extra.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_extra(str(path), INVOCATIONS)
