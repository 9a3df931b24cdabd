"""Seeded jobs for each benchmark workload and the checks on their artifacts.

A job is the fixed sequence of ``wignerlab`` command lines a user runs on one
input.  A round is a fixed pattern of jobs whose parameters come from the
seed; every round of a workload has the same pattern, so per-job counts are
the same in every run.  Each check recomputes its reference values here, from
``numpy.polynomial`` closed forms or from the parameters the benchmark chose;
nothing is compared against stored program output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import hermite, laguerre

ROUNDS_PER_LIST = 4

OCTAVE_RATE = 4.0 / math.pi**2


@dataclass(frozen=True)
class Job:
    """Command lines run back to back, and the check of what they wrote.

    ``check(out_dir, logs)`` returns a list of problems; ``logs`` holds the
    captured stderr text of each call.
    """

    calls: tuple[tuple[str, ...], ...]
    check: Callable[[str, list], list]


def lattice(n: int, half_width: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Position axis, Wigner momentum axis, dx and dp of a centered lattice (hbar = 1)."""
    dx = 2.0 * half_width / n
    dp = 2.0 * math.pi / (n * dx)
    x = -half_width + dx * np.arange(n)
    p = (np.arange(n // 2) - n // 4) * dp
    return x, p, dx, dp


def hermite_function(k: int, x: np.ndarray) -> np.ndarray:
    """Normalized oscillator eigenfunction psi_k(x) for hbar = 1."""
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    norm = math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
    return hermite.hermval(x, coeffs) * np.exp(-0.5 * x * x) / norm


def hermite_wigner(k: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W_k = ((-1)^k / pi) exp(-r^2) L_k(2 r^2) for hbar = 1."""
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    r2 = x * x + p * p
    return (-1) ** k / math.pi * np.exp(-r2) * laguerre.lagval(2.0 * r2, coeffs)


def _trapezoid(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _gap(label: str, value: float, tol: float) -> list:
    if not value <= tol:
        return [f"{label}: {value:.3e} exceeds {tol:.1e}"]
    return []


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: str, header: str) -> np.ndarray:
    """Numeric rows of a CSV artifact after checking its header line."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{os.path.basename(path)}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _field_grid(table: np.ndarray, x: np.ndarray, p: np.ndarray, what: str) -> list:
    """Row-major (x, p) layout of a field CSV against the independent lattice."""
    if table.shape[0] != x.size * p.size:
        return [f"{what}: {table.shape[0]} rows, expected {x.size * p.size}"]
    gap_x = float(np.abs(table[:, 0] - np.repeat(x, p.size)).max())
    gap_p = float(np.abs(table[:, 1] - np.tile(p, x.size)).max())
    return _gap(f"{what} x column", gap_x, 1e-12) + _gap(f"{what} p column", gap_p, 1e-12)


# --- verdicts -------------------------------------------------------------

VERDICT_N = 2048
VERDICT_L = 1024.0 / 151.0  # dx = 1/151: box supports of width >= 1 carry no grid warning


def _verdict_job(rng: np.random.Generator, command: str, kind: str, s: float) -> Job:
    if kind == "box":
        left = float(rng.uniform(-2.0, 0.0))
        state = f"box:{left!r}:{left + float(rng.uniform(1.0, 2.0))!r}"
    elif kind == "hermite":
        state = f"hermite:{int(rng.integers(0, 7))}"
    else:
        state = f"gaussian:{float(rng.uniform(0.5, 1.2))!r}"
    argv = [command, "--state", state, "--grid-n", str(VERDICT_N), "--grid-l", repr(VERDICT_L)]
    if command == "modnorm":
        argv += ["--s", repr(s)]
    report = "diagnose_report.json" if command == "diagnose" else "modnorm_report.json"
    # A Gaussian pure state has a positive Wigner function with unit integral,
    # so its L1 norm, the top rung of the self ladder, is 1.
    unit_top = command == "diagnose" and (kind == "gaussian" or state == "hermite:0")

    def check(out_dir: str, logs: list) -> list:
        doc = _read_json(os.path.join(out_dir, report))
        values = [v for _, v in doc["partials"]]
        expected = "diverging" if kind == "box" else "convergent"
        problems = []
        if doc["verdict"] != expected:
            problems.append(f"{state} s={doc['s']}: verdict {doc['verdict']}, expected {expected}")
        if command == "modnorm" and doc["s"] != s:
            problems.append(f"{state}: report s={doc['s']}, requested {s}")
        if kind == "box" and command == "diagnose":
            rate = float(np.mean(np.diff(values))) / math.log(2.0)
            problems += _gap(f"{state} octave rate vs 4/pi^2", abs(rate / OCTAVE_RATE - 1.0), 0.25)
            if "warning" in logs[0]:
                problems.append(f"{state}: unexpected grid warning")
        if unit_top:
            problems += _gap(f"{state} top rung vs 1", abs(values[-1] - 1.0), 1e-6)
        return problems

    return Job((tuple(argv),), check)


VERDICT_ROUND = (
    ("diagnose", "box", 0.0),
    ("modnorm", "box", 0.0),
    ("diagnose", "hermite", 0.0),
    ("modnorm", "hermite", 0.0),
    ("modnorm", "hermite", 2.0),
    ("diagnose", "gaussian", 0.0),
    ("modnorm", "gaussian", 0.0),
    ("modnorm", "gaussian", 2.0),
)


def verdicts(rng: np.random.Generator, work_dir: str) -> list:
    return [[_verdict_job(rng, *spec) for spec in VERDICT_ROUND] for _ in range(ROUNDS_PER_LIST)]


# --- field-export -----------------------------------------------------------

FIELD_N = 512
FIELD_L = 10.0


def _field_job(rng: np.random.Generator, scaled: bool) -> Job:
    j, k = (int(v) for v in rng.integers(0, 7, size=2))
    lam = float(rng.uniform(0.8, 1.25)) if scaled else 1.0
    grid = ("--grid-n", str(FIELD_N), "--grid-l", repr(FIELD_L))
    first = ("wigner", "--state", f"hermite:{j}") + grid
    if scaled:
        first += ("--apply", f"scale:{lam!r}")
    second = ("cross-wigner", "--state", f"hermite:{j}", "--state2", f"hermite:{k}") + grid

    def check(out_dir: str, logs: list) -> list:
        x, p, dx, dp = lattice(FIELD_N, FIELD_L)
        table = _read_csv(os.path.join(out_dir, "wigner_field.csv"), "x,p,value")
        problems = _field_grid(table, x, p, "wigner field")
        if problems:
            return problems
        # scale:lam maps (x, p) to (lam x, p / lam): W'(x, p) = W(x / lam, lam p).
        ref = hermite_wigner(j, table[:, 0] / lam, table[:, 1] * lam)
        problems += _gap(f"W_{j} scale {lam:.4f} vs Laguerre form", float(np.abs(table[:, 2] - ref).max()), 1e-8)

        table = _read_csv(os.path.join(out_dir, "cross_wigner_field.csv"), "x,p,re,im")
        problems += _field_grid(table, x, p, "cross field")
        if problems:
            return problems
        field = (table[:, 2] + 1j * table[:, 3]).reshape(x.size, p.size)
        x_marginal = field.sum(axis=1) * dp
        target = hermite_function(j, x) * hermite_function(k, x)
        problems += _gap(f"W({j},{k}) x-marginal", float(np.abs(x_marginal - target).max()), 1e-8)
        total = complex(np.sum(_trapezoid(x.size) @ field) * dx * dp)
        problems += _gap(f"W({j},{k}) integral vs delta", abs(total - float(j == k)), 1e-8)
        return problems

    return Job((first, second), check)


def field_export(rng: np.random.Generator, work_dir: str) -> list:
    return [[_field_job(rng, False), _field_job(rng, True)] for _ in range(ROUNDS_PER_LIST)]


# --- ensembles --------------------------------------------------------------

ENSEMBLE_N = 512
ENSEMBLE_L = 10.0
ENSEMBLE_DIM = 32
ENSEMBLE_MEMBERS = 3


def _seeded_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _write_state(path: str, x: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        for xv, v in zip(x.tolist(), values.tolist()):
            fh.write(f"{xv!r},{v.real!r},{v.imag!r}\n")


def _write_ensemble(path: str, label: str, members: list) -> None:
    doc = {"label": label, "members": [{"weight": w, "state": s} for w, s in members]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _ensemble_job(rng: np.random.Generator, work_dir: str, tag: str) -> Job:
    m = ENSEMBLE_MEMBERS
    orders = sorted(int(v) for v in rng.choice(9, size=m, replace=False))
    weights = 0.5 * rng.dirichlet(np.ones(m)) + 0.5 / m
    u = _seeded_unitary(rng, m)
    x, _, _, _ = lattice(ENSEMBLE_N, ENSEMBLE_L)
    # Columns of A' = A U^H hold sqrt(w'_j) phi_j; then A = A' U, so the
    # partial isometry recovered from the pair is U on the members' span.
    amplitudes = np.sqrt(weights)[:, None] * u.conj().T
    mixed_weights = np.sum(np.abs(amplitudes) ** 2, axis=0)
    basis = np.array([hermite_function(k, x) for k in orders])
    first = [(float(w), f"hermite:{k}") for w, k in zip(weights, orders)]
    second = []
    for col in range(m):
        path = os.path.join(work_dir, f"{tag}-member{col}.csv")
        _write_state(path, x, (amplitudes[:, col] @ basis) / math.sqrt(mixed_weights[col]))
        second.append((float(mixed_weights[col]), f"file:{path}"))
    e1 = os.path.join(work_dir, f"{tag}-eigen.json")
    e2 = os.path.join(work_dir, f"{tag}-mixed.json")
    _write_ensemble(e1, "eigen", first)
    _write_ensemble(e2, "mixed", second)
    argv = (
        "ensemble-equiv", "--ensemble", e1, "--ensemble2", e2,
        "--grid-n", str(ENSEMBLE_N), "--grid-l", repr(ENSEMBLE_L), "--dim", str(ENSEMBLE_DIM),
    )

    def check(out_dir: str, logs: list) -> list:
        iso = _read_json(os.path.join(out_dir, "isometry.json"))
        closure = _read_json(os.path.join(out_dir, "closure_report.json"))
        problems = []
        if not closure["implication_holds"]:
            problems.append("closure implication fails")
        verdicts = closure["e1_verdicts"] + closure["e2_verdicts"]
        if any(v != "convergent" for v in verdicts):
            problems.append(f"member verdicts {verdicts}, expected all convergent")
        if iso["rank"] != m:
            problems.append(f"isometry rank {iso['rank']}, expected {m}")
        matrix = np.array([[complex(re, im) for re, im in row] for row in iso["matrix"]])
        problems += _gap("isometry vs seeded unitary", float(np.abs(matrix[:m, :m] - u).max()), 1e-6)
        return problems

    return Job((argv,), check)


def ensembles(rng: np.random.Generator, work_dir: str) -> list:
    return [[_ensemble_job(rng, work_dir, f"pair{r}")] for r in range(ROUNDS_PER_LIST)]


# --- moments ----------------------------------------------------------------

MOMENT_N = 1024  # the command-line default grid
MOMENT_L = 12.0


def _moments_job(rng: np.random.Generator, work_dir: str, tag: str) -> Job:
    orders = sorted(int(v) for v in rng.choice(7, size=3, replace=False))
    weights = rng.dirichlet(np.ones(3))
    weights /= weights.sum()
    path = os.path.join(work_dir, f"{tag}.json")
    _write_ensemble(path, tag, [(float(w), f"hermite:{k}") for w, k in zip(weights, orders)])

    def density(t: np.ndarray) -> np.ndarray:
        # Hermite functions are Fourier eigenfunctions of unit modulus, so
        # the p-marginal has the same closed form as the x-marginal.
        return sum(w * hermite_function(k, t) ** 2 for w, k in zip(weights, orders))

    def check(out_dir: str, logs: list) -> list:
        x, p, _, _ = lattice(MOMENT_N, MOMENT_L)
        problems = []
        for name, header, axis in (("marginal_x.csv", "x,value", x), ("marginal_p.csv", "p,value", p)):
            table = _read_csv(os.path.join(out_dir, name), header)
            if table.shape[0] != axis.size:
                problems.append(f"{name}: {table.shape[0]} rows, expected {axis.size}")
                continue
            problems += _gap(f"{name} axis", float(np.abs(table[:, 0] - axis).max()), 1e-12)
            problems += _gap(f"{name} vs sum w|psi_k|^2", float(np.abs(table[:, 1] - density(axis)).max()), 1e-8)
        cov = _read_json(os.path.join(out_dir, "moments_report.json"))["covariance"]
        sigma = float(np.dot(weights, np.asarray(orders) + 0.5)) * np.eye(2)
        problems += _gap("mean", float(np.abs(cov["mean"]).max()), 1e-8)
        problems += _gap("sigma vs sum w(k+1/2)I", float(np.abs(np.asarray(cov["sigma"]) - sigma).max()), 1e-8)
        problems += _gap("route error vs 2h probe", cov["residual"] - cov["fd_step_change"], 0.0)
        return problems

    return Job((("marginals", "--ensemble", path), ("moments", "--ensemble", path)), check)


def moments(rng: np.random.Generator, work_dir: str) -> list:
    return [[_moments_job(rng, work_dir, f"mixture{r}")] for r in range(ROUNDS_PER_LIST)]


WORKLOADS = {
    "verdicts": verdicts,
    "field-export": field_export,
    "ensembles": ensembles,
    "moments": moments,
}
