import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab.cli import COMMANDS, FLAGS, TOL_DEFAULTS, RunConfig, main
from wignerlab.ensemble import Ensemble
from wignerlab.grid import catalog_state, make_grid, write_state_csv

from conftest import hermite_combination

SMALL = ["--grid-n", "512", "--grid-l", "10"]
DIM = ["--dim", "16"]  # only the ensemble commands take --dim


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_ensemble(path, label, members):
    """Ensemble file from (weight, state descriptor) pairs."""
    with open(path, "w") as fh:
        json.dump({"label": label, "members": [{"weight": w, "state": d} for w, d in members]}, fh)


def test_run_config_validation(tmp_path, capsys):
    # RunConfig carries the run's one PhaseSpaceGrid.  The grid refuses a bad
    # size, step or hbar and the ensemble layer a bad dim, each with exit 2.
    cfg = RunConfig()
    assert cfg.tolerances == TOL_DEFAULTS
    assert cfg.grid == make_grid(1024, 12.0, 1.0)
    eigen = str(tmp_path / "eigen.json")
    write_ensemble(eigen, "pair:eigen", [(0.5, "hermite:0"), (0.5, "hermite:1")])
    out = tmp_path / "out"
    for argv, says in [
        (["diagnose", "--state", "hermite:0", "--grid-n", "100"], "power of two >= 8, got 100"),
        (["diagnose", "--state", "hermite:0", "--grid-l", "0"], "half_width 0.0 gives no"),
        (["diagnose", "--state", "hermite:0", "--hbar", "-1"], "hbar -1.0 gives no"),
        (["ensemble-build", "--ensemble", eigen, "--dim", "0"] + SMALL, "dim must be in 1..128"),
    ]:
        assert main(argv + ["--out", str(out)]) == 2
        assert says in capsys.readouterr().err
        assert not out.exists()


def test_grid_larger_than_memory_is_refused(tmp_path, capsys):
    # One n x n complex array at n = 2**20 is 17.6 TB; refused before any array exists.
    with pytest.raises(ValueError, match="physical memory"):
        RunConfig(make_grid(2**20, 12.0))
    args = ["diagnose", "--state", "hermite:0", "--grid-n", str(2**20), "--out", str(tmp_path)]
    assert main(args) == 2
    assert "physical memory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_help_and_usage_errors(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    assert main(["wigner"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_unknown_tolerance_flag(capsys):
    assert main(["diagnose", "--state", "hermite:0", "--tol.bogus", "1"]) == 2
    err = capsys.readouterr().err
    assert "error: diagnose does not take --tol.bogus 1\n" in err


def test_wigner_writes_artifacts(tmp_path):
    out = str(tmp_path)
    code = main(["wigner", "--state", "hermite:0", "--out", out] + SMALL)
    assert code == 0
    doc = read_json(os.path.join(out, "wigner_field.json"))
    assert doc["n"] == 512
    assert doc["source"] == "hermite:0"
    assert doc["config"]["grid_n"] == 512
    assert os.path.exists(os.path.join(out, "wigner_field.csv"))
    assert doc["max_abs"] == pytest.approx(1.0 / np.pi, abs=1e-9)


def test_wigner_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("WIGNERLAB_OUT", str(tmp_path))
    code = main(["wigner", "--state", "hermite:0"] + SMALL)
    assert code == 0
    assert os.path.exists(tmp_path / "wigner_field.json")


def test_wigner_apply_fourier_needs_matched_grid(tmp_path, capsys):
    args = ["wigner", "--state", "hermite:0", "--apply", "fourier", "--out", str(tmp_path)]
    assert main(args + SMALL) == 2
    assert "self-reciprocal" in capsys.readouterr().err
    ok = main(["wigner", "--state", "hermite:0", "--apply", "scale:2", "--out", str(tmp_path)] + SMALL)
    assert ok == 0


def test_bad_descriptor_is_usage_error(tmp_path, capsys):
    args = ["wigner", "--state", "nope:1", "--out", str(tmp_path)] + SMALL
    assert main(args) == 2
    assert "error" in capsys.readouterr().err
    args = ["wigner", "--state", "hermite:0", "--apply", "scale:inf", "--out", str(tmp_path)]
    assert main(args + SMALL) == 2
    assert "scale factor" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "wigner_field.csv")
    # A finite factor that pushes the state off the grid is refused on norm.
    args = [
        "wigner", "--state", "hermite:0", "--apply", "scale:1e-300",
        "--grid-n", "64", "--grid-l", "8", "--out", str(tmp_path),
    ]
    assert main(args) == 2
    assert "does not keep the norm of hermite:0" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "wigner_field.csv")


def test_cross_wigner_artifacts(tmp_path):
    args = [
        "cross-wigner", "--state", "hermite:0", "--state2", "hermite:1",
        "--out", str(tmp_path),
    ] + SMALL
    assert main(args) == 0
    doc = read_json(tmp_path / "cross_wigner_field.json")
    assert doc["sources"] == ["hermite:0", "hermite:1"]
    assert doc["overlap_residual"] <= 1e-12
    header = open(tmp_path / "cross_wigner_field.csv").readline().strip()
    assert header == "x,p,re,im"


def test_marginals_subcommand(tmp_path):
    args = ["marginals", "--state", "hermite:1", "--out", str(tmp_path)] + SMALL
    assert main(args) == 0
    doc = read_json(tmp_path / "marginals_report.json")
    assert doc["report"]["x_residual"] <= 1e-10
    assert "grid_warnings" not in doc
    assert os.path.exists(tmp_path / "marginal_x.csv")
    assert os.path.exists(tmp_path / "marginal_p.csv")


def test_moments_subcommand_and_gate(tmp_path, capsys):
    args = ["moments", "--state", "hermite:0", "--out", str(tmp_path)] + SMALL
    assert main(args) == 0
    doc = read_json(tmp_path / "moments_report.json")
    sigma = np.array(doc["covariance"]["sigma"])
    np.testing.assert_allclose(sigma, 0.5 * np.eye(2), atol=1e-8)
    assert doc["member_verdicts"][0]["verdict"] == "convergent"
    assert "grid_warnings" not in doc
    capsys.readouterr()
    gate = ["moments", "--state", "box:-0.5:0.5", "--out", str(tmp_path)] + SMALL
    assert main(gate) == 1
    assert "check failed" in capsys.readouterr().err


def test_modnorm_tolerance_override_changes_verdict(tmp_path):
    base = ["modnorm", "--state", "box:-0.5:0.5", "--out", str(tmp_path)]
    assert main(base + SMALL) == 0
    verdict = read_json(tmp_path / "modnorm_report.json")["verdict"]
    assert verdict == "diverging"
    assert main(base + SMALL + ["--tol.convergent_tail=10"]) == 0
    relaxed = read_json(tmp_path / "modnorm_report.json")["verdict"]
    assert relaxed == "convergent"


def test_diagnose_box_warns_and_diverges(tmp_path, capsys):
    args = ["diagnose", "--state", "box:-0.5:0.5", "--out", str(tmp_path)]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "verdict diverging" in captured.out
    doc = read_json(tmp_path / "diagnose_report.json")
    assert doc["verdict"] == "diverging"
    assert 0.8 <= doc["growth_exponent"] <= 1.2


# A band of 6.28 against the 16.4 that hermite:0 needs: its ladder reads "diverging".
COARSE = ["--grid-n", "64", "--grid-l", "8"]


REPORTS = {
    "marginals": "marginals_report.json",
    "moments": "moments_report.json",
    "modnorm": "modnorm_report.json",
    "diagnose": "diagnose_report.json",
}


@pytest.mark.parametrize(
    "command, role, code",
    [("marginals", "member", 1), ("moments", "member", 1), ("modnorm", "state", 0),
     ("diagnose", "state", 0)],
)
def test_verdict_commands_warn_on_coarse_grid(tmp_path, capsys, command, role, code):
    args = [command, "--state", "hermite:0", *COARSE, "--out", str(tmp_path)]
    assert main(args) == code
    message = f"{role} hermite:0: momentum band 6.28"
    assert f"warning: {message}" in capsys.readouterr().err
    report = tmp_path / REPORTS[command]
    if code == 0:
        warnings = read_json(report)["grid_warnings"]
        assert warnings[0].startswith(message)
        # modnorm's default window is hermite:0 as well, flagged the same way.
        assert len(warnings) == (2 if command == "modnorm" else 1)
    else:
        assert not report.exists()


# A band of 12.6 against the 16.6 that hermite:0 needs, yet both checks pass.
@pytest.mark.parametrize("command", ["marginals", "moments"])
def test_passing_reports_record_grid_warnings(tmp_path, capsys, command):
    args = [command, "--state", "hermite:0", "--grid-n", "128", "--grid-l", "8",
            "--out", str(tmp_path)]
    assert main(args) == 0
    err = capsys.readouterr().err
    (warning,) = read_json(tmp_path / REPORTS[command])["grid_warnings"]
    assert warning.startswith("member hermite:0: momentum band 12.6")
    assert f"warning: {warning}\n" in err


def test_ensemble_equiv_warns_on_coarse_grid(tmp_path, capsys):
    ens = str(tmp_path / "ens.json")
    write_ensemble(ens, "pair", [(0.5, "hermite:0"), (0.5, "hermite:1")])
    args = ["ensemble-equiv", "--ensemble", ens, "--ensemble2", ens, "--dim", "8",
            "--grid-n", "128", "--grid-l", "8", "--out", str(tmp_path)]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert err.count("warning: member hermite:0: momentum band") == 2
    assert err.count("warning: member hermite:1: momentum band") == 2
    warnings = read_json(tmp_path / "closure_report.json")["grid_warnings"]
    labels = [w.split(": momentum band")[0] for w in warnings]
    assert labels == ["member hermite:0", "member hermite:1"] * 2
    assert "grid_warnings" not in read_json(tmp_path / "isometry.json")


def test_modnorm_warns_on_one_sample_window(tmp_path, capsys):
    args = ["modnorm", "--state", "hermite:0", "--window", "box:0:0.0001", "--out", str(tmp_path)]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "warning: window box:0:0.0001: momentum band" in err
    assert "warning: state" not in err
    doc = read_json(tmp_path / "modnorm_report.json")
    assert doc["window"] == "box:0:0.0001"
    (warning,) = doc["grid_warnings"]
    assert warning.startswith("window box:0:0.0001: momentum band")


def write_pair_files(tmp_path, grid):
    plus = hermite_combination(grid, (1.0, 1.0), "mix:+")
    minus = hermite_combination(grid, (1.0, -1.0), "mix:-")
    plus_csv = str(tmp_path / "plus.csv")
    minus_csv = str(tmp_path / "minus.csv")
    write_state_csv(plus_csv, grid.x_points(), plus.values)
    write_state_csv(minus_csv, grid.x_points(), minus.values)
    eigen = str(tmp_path / "eigen.json")
    rotated = str(tmp_path / "rotated.json")
    write_ensemble(eigen, "pair:eigen", [(0.5, "hermite:0"), (0.5, "hermite:1")])
    write_ensemble(rotated, "pair:rotated", [(0.5, plus_csv), (0.5, minus_csv)])
    return eigen, rotated


def test_ensemble_build_subcommand(tmp_path):
    grid = make_grid(512, 10.0, 1.0)
    eigen, _ = write_pair_files(tmp_path, grid)
    args = ["ensemble-build", "--ensemble", eigen, "--out", str(tmp_path)] + SMALL + DIM
    assert main(args) == 0
    rho_doc = read_json(tmp_path / "ensemble_rho.json")
    rho = np.array([[complex(re, im) for re, im in row] for row in rho_doc["matrix"]])
    assert rho.shape == (16, 16)
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert rho_doc["residuals"]["route_residual"] <= 1e-12
    a_doc = read_json(tmp_path / "ensemble_A.json")
    assert a_doc["dim"] == 16


def test_ensemble_equiv_subcommand(tmp_path, capsys):
    grid = make_grid(512, 10.0, 1.0)
    eigen, rotated = write_pair_files(tmp_path, grid)
    args = [
        "ensemble-equiv", "--ensemble", eigen, "--ensemble2", rotated,
        "--out", str(tmp_path),
    ] + SMALL + DIM
    assert main(args) == 0
    assert "closure implication holds" in capsys.readouterr().out
    iso = read_json(tmp_path / "isometry.json")
    assert iso["rank"] == 2
    assert iso["residuals"]["defect"] <= 1e-10
    closure = read_json(tmp_path / "closure_report.json")
    assert closure["implication_holds"] is True
    assert closure["e1_verdicts"] == ["convergent", "convergent"]
    assert "grid_warnings" not in closure


def test_ensemble_spectral_subcommand(tmp_path):
    grid = make_grid(512, 10.0, 1.0)
    eigen, _ = write_pair_files(tmp_path, grid)
    args = ["ensemble-spectral", "--ensemble", eigen, "--out", str(tmp_path)] + SMALL + DIM
    assert main(args) == 0
    doc = read_json(tmp_path / "spectral_ensemble.json")
    assert doc["eigenvalue_sum"] == pytest.approx(1.0, abs=1e-10)
    assert len(doc["members"]) == 2
    for entry in doc["members"]:
        assert os.path.exists(tmp_path / entry["state"])
        assert entry["weight"] == pytest.approx(0.5, abs=1e-10)


def test_spectral_ensemble_loads_from_another_directory(tmp_path, monkeypatch):
    # Bare member names are read next to the ensemble file, not from the
    # working directory, even where that holds files of the same names.
    grid = make_grid(512, 10.0, 1.0)
    eigen, _ = write_pair_files(tmp_path, grid)
    out = tmp_path / "out"
    assert main(["ensemble-spectral", "--ensemble", eigen, "--out", str(out)] + SMALL + DIM) == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    for idx, k in enumerate((2, 3)):
        decoy = str(elsewhere / f"spectral_member_{idx}.csv")
        write_state_csv(decoy, grid.x_points(), catalog_state(f"hermite:{k}", grid).values)
    monkeypatch.chdir(elsewhere)
    args = [
        "ensemble-equiv", "--ensemble", eigen, "--ensemble2",
        os.path.join("..", "out", "spectral_ensemble.json"), "--out", str(tmp_path / "equiv"),
    ] + SMALL + DIM
    assert main(args) == 0
    assert read_json(tmp_path / "equiv" / "isometry.json")["rank"] == 2


@pytest.mark.parametrize("rows", ["all", "one"])
def test_state_file_with_nan_x_is_usage_error(tmp_path, capsys, rows):
    # NaN fails every comparison, so it used to pass as lying on the grid.
    grid = make_grid(64, 8.0)
    x = grid.x_points()
    x[slice(None) if rows == "all" else 5] = np.nan
    path = tmp_path / "b.csv"
    write_state_csv(str(path), x, catalog_state("hermite:0", grid).values)
    out = tmp_path / "out"
    argv = ["diagnose", "--state", f"file:{path}", "--grid-n", "64", "--grid-l", "8"]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{path}: x must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("part", ["re", "im"])
def test_state_file_with_nan_value_is_usage_error(tmp_path, capsys, part):
    # SampledState refuses it too, but with a message that names no file.
    grid = make_grid(64, 8.0)
    values = catalog_state("hermite:0", grid).values.copy()
    values[5] = complex(np.nan, 0.0) if part == "re" else complex(values[5].real, np.nan)
    path = tmp_path / "r.csv"
    write_state_csv(str(path), grid.x_points(), values)
    out = tmp_path / "out"
    argv = ["diagnose", "--state", f"file:{path}", "--grid-n", "64", "--grid-l", "8"]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{path}:7: re and im must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["wigner", "cross-wigner", "modnorm"])
def test_state_file_whose_norm_overflows_is_usage_error(tmp_path, capsys, command):
    # Every sample is finite, but the squares overflow; the field was all inf and nan.
    grid = make_grid(64, 8.0)
    path = tmp_path / "big.csv"
    write_state_csv(str(path), grid.x_points(), 1e200 * catalog_state("hermite:0", grid).values)
    state = f"file:{path}"
    second = {"wigner": [], "cross-wigner": ["--state2", state], "modnorm": ["--window", state]}
    out = tmp_path / "out"
    argv = [command, "--state", state, *second[command], "--grid-n", "64", "--grid-l", "8"]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{path}: the state's norm overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["wigner", "cross-wigner", "modnorm", "diagnose"])
def test_state_file_of_zero_norm_is_usage_error(tmp_path, capsys, command):
    # An all-zero state gave an all-zero field and a "convergent" modnorm verdict.
    grid = make_grid(64, 8.0)
    path = tmp_path / "zero.csv"
    write_state_csv(str(path), grid.x_points(), np.zeros(64))
    state = f"file:{path}"
    second = {"cross-wigner": ["--state2", state], "modnorm": ["--s", "2"]}
    out = tmp_path / "out"
    argv = [command, "--state", state, *second.get(command, []), "--grid-n", "64", "--grid-l", "8"]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{path}: the state has zero norm" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_unknown_scenario():
    assert main(["reproduce", "prop9"]) == 2


def test_reproduce_refuses_grid_flags(tmp_path, capsys):
    # Each scenario pins its own grid; a grid flag would only mislabel the artifact.
    assert main(["reproduce", "prop1", "--grid-n", "64", "--out", str(tmp_path)]) == 2
    assert "--grid-n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_reproduce_tight_tolerance_fails(tmp_path, capsys):
    args = [
        "reproduce", "prop1", "--out", str(tmp_path),
        "--tol.route_agreement", "1e-9",
    ]
    # prop1 reads no tolerance, so an override would only mislabel the artifact.
    assert main(args) == 2
    assert "--tol.route_agreement" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["reproduce", "prop1", "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "reproduce_prop1.json")
    assert doc["pass"] is True
    assert len(doc["checks"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "body, member",
    [
        ('{"members": 5}', None),
        ('{"members": [{"weight": null, "state": "hermite:0"}]}', 0),
        ('{"members": [{"weight": 1%s, "state": "hermite:0"}]}' % ("0" * 400), 0),
    ],
    ids=["members-not-a-list", "null-weight", "weight-overflows-float"],
)
def test_ensemble_file_shape_errors_are_usage_errors(tmp_path, capsys, body, member):
    path = tmp_path / "bad.json"
    path.write_text(body)
    args = ["ensemble-build", "--ensemble", str(path), "--out", str(tmp_path)] + SMALL + DIM
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    if member is not None:
        assert f"member {member}" in err


@pytest.mark.parametrize(
    "flag_args, flag",
    [
        (["--tol.convergent_tail", "nan"], "--tol.convergent_tail"),
        (["--tol.diverging_growth=inf"], "--tol.diverging_growth"),
        (["--s", "inf"], "--s"),
        (["--s", "nan"], "--s"),
    ],
    ids=["tol-nan", "tol-inf-inline", "s-inf", "s-nan"],
)
def test_non_finite_flag_values_rejected_at_parse_time(tmp_path, capsys, flag_args, flag):
    argv = ["modnorm", "--state", "hermite:0", "--out", str(tmp_path)] + flag_args
    assert main(argv + SMALL) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def count_calls(monkeypatch, fn):
    """Count calls to fn through every wignerlab module that imported it by name."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "wignerlab" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def test_each_command_computes_each_object_once(tmp_path, monkeypatch):
    from wignerlab.ensemble import build_A
    from wignerlab.wigner import cross_wigner

    transforms = count_calls(monkeypatch, cross_wigner)
    args = ["cross-wigner", "--state", "hermite:0", "--state2", "hermite:1", "--out", str(tmp_path)]
    assert main(args + SMALL) == 0
    assert len(transforms) == 1

    grid = make_grid(512, 10.0, 1.0)
    eigen, rotated = write_pair_files(tmp_path, grid)
    operators = count_calls(monkeypatch, build_A)
    args = ["ensemble-equiv", "--ensemble", eigen, "--ensemble2", rotated, "--out", str(tmp_path)]
    assert main(args + SMALL + DIM) == 0
    assert len(operators) == 2


def test_mixed_wigner_makes_one_kernel_pass(monkeypatch):
    from wignerlab.wigner import cross_wigner, mixed_wigner, wigner

    grid = make_grid(512, 10.0, 1.0)
    states = [catalog_state(f"hermite:{k}", grid) for k in range(3)]
    ens = Ensemble(tuple(zip(states, (0.5, 0.3, 0.2))), "three")
    crosses = count_calls(monkeypatch, cross_wigner)
    diagonals = count_calls(monkeypatch, wigner)
    mixed_wigner(ens)
    assert crosses == [] and diagonals == []


# What each command reads, as the README states it; the command table must agree.
READS = {
    "wigner": set(),
    "cross-wigner": set(),
    "marginals": set(),
    "moments": {"convergent_tail", "diverging_growth", "route_agreement"},
    "modnorm": {"convergent_tail", "diverging_growth"},
    "diagnose": {"convergent_tail", "diverging_growth"},
    "ensemble-build": set(),
    "ensemble-equiv": {"density_match", "factor_residual", "field_match"},
    "ensemble-spectral": set(),
    "reproduce": set(),
}
TAKES_DIM = {"ensemble-build", "ensemble-equiv", "ensemble-spectral"}
# Otherwise valid argv; the ensemble file need not exist, since a refused flag
# must stop the command before any file is read.
BASE = {
    "wigner": ["--state", "hermite:0"],
    "cross-wigner": ["--state", "hermite:0", "--state2", "hermite:1"],
    "marginals": ["--state", "hermite:0"],
    "moments": ["--state", "hermite:0"],
    "modnorm": ["--state", "hermite:0"],
    "diagnose": ["--state", "hermite:0"],
    "ensemble-build": ["--ensemble", "absent.json"],
    "ensemble-equiv": ["--ensemble", "absent.json", "--ensemble2", "absent.json"],
    "ensemble-spectral": ["--ensemble", "absent.json"],
    "reproduce": ["prop1"],
}


@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_refuses_flags_it_does_not_read(tmp_path, capsys, command):
    assert set(COMMANDS) == set(READS) == set(BASE)
    cmd = COMMANDS[command]
    assert set(cmd.tolerances) == READS[command]
    assert ("--dim" in cmd.flags) == (command in TAKES_DIM)
    out = tmp_path / "out"
    # Every flag of the table the command does not take, every tolerance it
    # does not read, and a tolerance no command reads.
    unread = [f for f in FLAGS if f.startswith("--") and f not in cmd.flags + cmd.one_of]
    unread += [f"--tol.{name}" for name in TOL_DEFAULTS if name not in READS[command]]
    for flag in unread + ["--tol.bogus"]:
        assert main([command, *BASE[command], flag, "1", "--out", str(out)]) == 2
        assert f"error: {command} does not take {flag} 1\n" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, says",
    [
        (["diagnose", "--state", "hermite:0", "--stat", "hermite:1"], "take --stat hermite:1"),
        (["diagnose", "--state", "hermite:0", "--tol.conv", "10"], "take --tol.conv 10"),
        (["--tol.convergent_tail", "10", "diagnose", "--state", "hermite:0"], "choice: '10'"),
    ],
    ids=["state-prefix", "tol-prefix", "tol-before-subcommand"],
)
def test_flags_are_read_by_full_name_after_the_subcommand(tmp_path, capsys, argv, says):
    # A prefix of a flag is no abbreviation, and the top-level parser takes
    # no flag but --help.
    out = tmp_path / "out"
    assert main([*argv, *COARSE, "--out", str(out)]) == 2
    assert says in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["marginals", "moments"])
def test_ensemble_and_state_are_one_required_choice(tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "out")]
    both = [command, "--ensemble", "absent.json", "--state", "hermite:0"]
    assert main(both + out) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert main([command] + out) == 2
    assert "one of the arguments --ensemble --state is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, says",
    [
        (["wigner", "--state", "hermite:99999999999"], "hermite order must be <= 127"),
        (["wigner", "--state", "gaussian:1e-300"], "gaussian width"),
        (["modnorm", "--state", "hermite:0", "--window", "gaussian:1e-300"], "gaussian width"),
        (["ensemble-build", "--ensemble", "EIGEN", "--dim", "100000"], "dim must be in 1..128"),
        (["modnorm", "--state", "hermite:0", "--s", "1e308"] + SMALL, "s = 1e+308"),
        (["wigner", "--state", "box:-0.5:0.5", "--hbar", "1e308", "--grid-n", "8"], "hbar 1e+308"),
    ],
    ids=[
        "huge-hermite-order", "tiny-gaussian", "tiny-gaussian-window", "huge-dim", "huge-s",
        "huge-hbar",
    ],
)
def test_inputs_that_raised_now_exit_2(tmp_path, capsys, argv, says):
    # Each of these raised a traceback, except huge-hbar, which exited 2 but
    # left wigner_field.csv behind.
    eigen = str(tmp_path / "eigen.json")
    write_ensemble(eigen, "pair:eigen", [(0.5, "hermite:0"), (0.5, "hermite:1")])
    out = tmp_path / "out"
    argv = [eigen if a == "EIGEN" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert says in capsys.readouterr().err
    assert not out.exists()


STATES = [
    "hermite:0", "hermite:3", "hermite:-1", "hermite:99999999999", "gaussian:1",
    "gaussian:1e-300", "gaussian:nan", "box:-0.5:0.5", "box:0:0", "nope:1",
    "file:absent.csv", "",
]
NUMBERS = ["0", "-1", "nan", "inf", "1e-300", "1e308"]
ENSEMBLE_BODIES = [
    '{"members": [{"weight": 0.5, "state": "hermite:0"}, {"weight": 0.5, "state": "hermite:1"}]}',
    '{"members": [',
    '{"members": 5}',
    '{"members": []}',
    '{"members": [{"weight": NaN, "state": "hermite:0"}]}',
    '{"members": [{"weight": 1, "state": "hermite:99999999999"}]}',
    '{"members": [{"weight": 1, "state": 7}]}',
]
POOL = {
    "--state": STATES,
    "--state2": STATES,
    "--window": STATES,
    "--apply": ["fourier", "scale:1.3", "scale:0", "scale:nan", "scale:1e-300", "turn:1"],
    "--s": ["2", "700", "-1", "nan", "1e308"],
    "--hbar": NUMBERS,
    "--grid-n": ["8", "16", "32", "64", "9", str(2**20)],
    "--grid-l": NUMBERS,
    "--dim": ["1", "0", "129", "100000", "nan"],
    "scenario": ["prop9", "", "nan"],
    **{f"--tol.{name}": NUMBERS for name in TOL_DEFAULTS},
}
# A valid value for every flag, on a grid small enough to keep each run fast;
# the ensemble flags take ENSEMBLE_BODIES[0].
VALID = {
    "--state": "hermite:1",
    "--state2": "hermite:0",
    "--window": "hermite:0",
    "--apply": "scale:1.3",
    "--s": "0",
    "--hbar": "1",
    "--grid-n": "128",
    "--grid-l": "8",
    "--dim": "8",
    "scenario": "prop1",
    **{f"--tol.{name}": "1e-3" for name in TOL_DEFAULTS},
}


def own_flags(cmd, source):
    """Every flag the command takes, with source as its choice from one_of."""
    tols = [f"--tol.{name}" for name in cmd.tolerances]
    return [*cmd.flags, *([source] if source else []), *tols]


def invocations():
    """(command, its flags) for each command and each choice of its one_of."""
    return [
        (name, own_flags(cmd, source))
        for name, cmd in sorted(COMMANDS.items())
        for source in cmd.one_of or (None,)
    ]


ALL_FLAGS = sorted({flag for _, flags in invocations() for flag in flags} | {"--dim"})


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """POOL and VALID with the ensemble flags bound to files in tmp."""
    root = tmp_path_factory.mktemp("ensembles")
    paths = [root / f"e{idx}.json" for idx in range(len(ENSEMBLE_BODIES))]
    for path, body in zip(paths, ENSEMBLE_BODIES):
        path.write_text(body)
    files = [str(path) for path in paths + [root / "absent.json"]]
    ensembles = {"--ensemble": files, "--ensemble2": files}
    return {**POOL, **ensembles}, {**VALID, **{k: v[0] for k, v in ensembles.items()}}


def check_boundary(out, command, flags, drawn, pools):
    """Run a valid invocation with the drawn values laid over it.

    Every input is read or refused: exit 0, 1 or 2, never a traceback, and a
    refusal (exit 2) leaves no artifact behind.
    """
    argv = [command]
    for flag in flags:
        value = drawn.get(flag, pools[1][flag])
        argv += [value] if flag == "scenario" else [flag, value]
    code = main(argv + ["--out", str(out)])
    assert code in (0, 1, 2), argv
    if code == 2:
        assert not out.exists() or list(out.iterdir()) == [], argv


def test_every_pool_value_is_read_or_refused(tmp_path, pools):
    # Each flag of each command in turn takes each value of its pool.
    runs = 0
    for command, flags in invocations():
        for flag in flags:
            for value in pools[0][flag]:
                runs += 1
                check_boundary(tmp_path / str(runs), command, flags, {flag: value}, pools)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_boundary_fuzz(tmp_path_factory, pools, data):
    # Pairs of pool values, and one time in four a flag of another command.
    command, flags = data.draw(st.sampled_from(invocations()))
    drawn_flags = data.draw(st.sets(st.sampled_from(flags), min_size=1, max_size=2))
    if data.draw(st.integers(0, 3)) == 0:
        foreign = data.draw(st.sampled_from([f for f in ALL_FLAGS if f not in flags]))
        flags, drawn_flags = flags + [foreign], drawn_flags | {foreign}
    drawn = {f: data.draw(st.sampled_from(pools[0][f])) for f in sorted(drawn_flags)}
    check_boundary(tmp_path_factory.mktemp("fuzz") / "out", command, flags, drawn, pools)
