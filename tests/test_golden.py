"""Every artifact of the pinned invocation set keeps its bytes and exit code."""

import json

import pytest

from golden.regenerate import DIGESTS, REGENERATE, fingerprint, run_invocations


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
