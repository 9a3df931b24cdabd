"""Batch command-line interface.

Every library operation is reachable from a subcommand; artifacts are CSV
and JSON files written into the output directory (flag --out, else the
WIGNERLAB_OUT environment variable, else the working directory).  Exit
codes: 0 success, 1 failed numerical check, 2 usage or file error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .ensemble import (
    Ensemble,
    build_A,
    density_matrix,
    density_matrix_direct,
    find_partial_isometry,
    spectral_ensemble,
)
from .grid import (
    CheckError,
    PhaseSpaceGrid,
    SampledState,
    catalog_state,
    hermite_combination,
    make_grid,
    make_self_reciprocal_grid,
)
from .io import (
    field_metadata,
    load_ensemble_json,
    write_field_csv,
    write_json,
    write_marginal_csv,
    write_state_csv,
)
from .modspace import (
    GROWTH_THRESHOLD,
    TAIL_TOL,
    WeightedNormReport,
    diagnostic_grid_warning,
    feichtinger_closure_check,
    feichtinger_diagnostic,
    modulation_norm,
)
from .moments import covariance, marginals
from .wigner import apply_metaplectic, cross_wigner, mixed_wigner, overlap_identity_check, wigner

__all__ = ["RunConfig", "TOL_DEFAULTS", "main"]

TOL_DEFAULTS = {
    "convergent_tail": TAIL_TOL,
    "diverging_growth": GROWTH_THRESHOLD,
    "route_agreement": 1e-3,
    "density_match": 1e-6,
    "factor_residual": 1e-6,
    "field_match": 1e-5,
}


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


@dataclass
class RunConfig:
    grid: PhaseSpaceGrid = field(default_factory=lambda: make_grid(1024, 12.0))
    dim: int = 32
    tolerances: dict = field(default_factory=lambda: dict(TOL_DEFAULTS))
    output_dir: str = "."

    def __post_init__(self) -> None:
        # tracemalloc peaks of main at n = 2048, artifacts written:
        # cross-wigner 9.0 n^2 bytes (its complex n x n/2 field plus the CSV
        # writer's text for one row block), wigner 8.0 n^2, marginals and
        # moments 4.5 n^2 (the real mixed field; the covariance quadrature
        # reads it in row blocks), diagnose and modnorm below 0.5 n^2 (the
        # ladder reads the kernel's row blocks).  16 n^2 bytes covers the
        # largest of them.
        n = self.grid.n_points
        need = 16 * n**2
        have = _physical_memory()
        if have is not None and need > have:
            raise ValueError(
                f"grid_n {n} needs {need / 1e9:.3g} GB at its peak (16 n^2 bytes), "
                f"more than the {have / 1e9:.3g} GB of physical memory"
            )

    def ladder(self) -> dict:
        """The verdict ladder's two tolerances, as modspace keyword arguments."""
        tol = self.tolerances
        return {"tail_tol": tol["convergent_tail"], "growth_threshold": tol["diverging_growth"]}

    def write(self, name: str, doc: dict, grid_warnings: Sequence[str] = ()) -> None:
        """Write one JSON artifact, stamped with this configuration.

        Grid-adequacy warnings go in under "grid_warnings", only when there
        are any, so an unflagged artifact keeps its bytes.
        """
        doc = {"config": self.as_dict(), **doc}
        if grid_warnings:
            doc["grid_warnings"] = list(grid_warnings)
        write_json(self.out(name), doc)

    def as_dict(self) -> dict:
        return {
            "hbar": self.grid.hbar,
            "grid_n": self.grid.n_points,
            "grid_l": self.grid.half_width,
            "dim": self.dim,
            "tolerances": dict(self.tolerances),
        }

    def out(self, name: str) -> str:
        os.makedirs(self.output_dir, exist_ok=True)
        return os.path.join(self.output_dir, name)


def _finite_float(raw: str) -> float:
    """Parse a flag value, rejecting NaN and infinities."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _tolerance(raw: str) -> float:
    """Parse a --tol.* value: finite and >= 0."""
    value = _finite_float(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a tolerance >= 0, got {raw!r}")
    return value


def _config_from(ns: argparse.Namespace) -> RunConfig:
    tols = {name: getattr(ns, f"tol.{name}", value) for name, value in TOL_DEFAULTS.items()}
    out = ns.out or os.environ.get("WIGNERLAB_OUT") or "."
    flags: dict = {}
    if "grid_n" in ns:
        flags["grid"] = make_grid(ns.grid_n, ns.grid_l, ns.hbar)
    if "dim" in ns:
        flags["dim"] = ns.dim
    return RunConfig(**flags, tolerances=tols, output_dir=out)


def _ensemble_from(ns: argparse.Namespace, cfg: RunConfig) -> Ensemble:
    if ns.ensemble is not None:
        return load_ensemble_json(ns.ensemble, cfg.grid)
    state = catalog_state(ns.state, cfg.grid)
    return Ensemble(((state, 1.0),), ns.state)


def _warn_coarse_grid(states: Iterable[SampledState], role: str) -> list[str]:
    """Print diagnostic_grid_warning's message for each state it flags; return them."""
    messages = []
    for state in states:
        warning = diagnostic_grid_warning(state)
        if warning:
            messages.append(f"{role} {state.label}: {warning}")
            print(f"warning: {messages[-1]}", file=sys.stderr)
    return messages


def cmd_wigner(ns: argparse.Namespace, cfg: RunConfig) -> int:
    state = catalog_state(ns.state, cfg.grid)
    if ns.apply:
        state = apply_metaplectic(state, ns.apply)
    field = wigner(state)
    write_field_csv(cfg.out("wigner_field.csv"), field)
    meta = field_metadata(field)
    meta.update({"source": state.label, "max_abs": float(np.abs(field.values).max())})
    cfg.write("wigner_field.json", meta)
    print(f"wrote wigner_field.csv and wigner_field.json to {cfg.output_dir}")
    return 0


def cmd_cross_wigner(ns: argparse.Namespace, cfg: RunConfig) -> int:
    grid = cfg.grid
    psi = catalog_state(ns.state, grid)
    phi = catalog_state(ns.state2, grid)
    field = cross_wigner(psi, phi, grid)
    write_field_csv(cfg.out("cross_wigner_field.csv"), field)
    meta = {**field_metadata(field), "sources": [psi.label, phi.label]}
    meta["overlap_residual"] = overlap_identity_check(psi, phi, field)
    cfg.write("cross_wigner_field.json", meta)
    print(f"wrote cross_wigner_field.csv and cross_wigner_field.json to {cfg.output_dir}")
    return 0


def cmd_marginals(ns: argparse.Namespace, cfg: RunConfig) -> int:
    grid = cfg.grid
    ens = _ensemble_from(ns, cfg)
    warnings = _warn_coarse_grid((st for st, _ in ens.members), "member")
    report = marginals(mixed_wigner(ens), ens)
    doc = {
        "ensemble": ens.label,
        "members": [st.label for st, _ in ens.members],
        "report": {
            "x_residual": report.x_residual,
            "p_residual": report.p_residual,
            "norm_residual": report.norm_residual,
        },
    }
    cfg.write("marginals_report.json", doc, warnings)
    write_marginal_csv(cfg.out("marginal_x.csv"), "x", grid.x_points(), report.x_marginal)
    write_marginal_csv(cfg.out("marginal_p.csv"), "p", grid.wigner_p_points(), report.p_marginal)
    print(
        f"marginal residuals: x={report.x_residual:.3e} p={report.p_residual:.3e} "
        f"norm={report.norm_residual:.3e}"
    )
    return 0


def cmd_moments(ns: argparse.Namespace, cfg: RunConfig) -> int:
    ens = _ensemble_from(ns, cfg)
    warnings = _warn_coarse_grid((st for st, _ in ens.members), "member")
    verdicts = [modulation_norm(st, 2.0, **cfg.ladder()) for st, _ in ens.members]
    rho = mixed_wigner(ens)
    report = covariance(rho, verdicts, route_tol=cfg.tolerances["route_agreement"])
    doc = {
        "ensemble": ens.label,
        "members": [st.label for st, _ in ens.members],
        "member_verdicts": [vars(v) for v in verdicts],
        "covariance": vars(report),
    }
    cfg.write("moments_report.json", doc, warnings)
    if report.flags:
        print(f"warning: {', '.join(report.flags)}", file=sys.stderr)
    print(f"covariance route residual {report.residual:.3e}")
    return 0


def _write_verdict(
    cfg: RunConfig,
    name: str,
    state: SampledState,
    report: WeightedNormReport,
    warnings: list[str],
) -> int:
    cfg.write(name, {"state": state.label, **vars(report)}, warnings)
    print(f"verdict {report.verdict} (growth_exponent {report.growth_exponent:.4f})")
    return 0


def cmd_modnorm(ns: argparse.Namespace, cfg: RunConfig) -> int:
    state = catalog_state(ns.state, cfg.grid)
    window = catalog_state(ns.window, cfg.grid)
    warnings = _warn_coarse_grid([state], "state") + _warn_coarse_grid([window], "window")
    report = modulation_norm(state, ns.s, window=window, **cfg.ladder())
    return _write_verdict(cfg, "modnorm_report.json", state, report, warnings)


def cmd_diagnose(ns: argparse.Namespace, cfg: RunConfig) -> int:
    state = catalog_state(ns.state, cfg.grid)
    warnings = _warn_coarse_grid([state], "state")
    report = feichtinger_diagnostic(state, **cfg.ladder())
    return _write_verdict(cfg, "diagnose_report.json", state, report, warnings)


def cmd_ensemble_build(ns: argparse.Namespace, cfg: RunConfig) -> int:
    ens = load_ensemble_json(ns.ensemble, cfg.grid)
    op = build_A(ens, cfg.dim)
    rho = density_matrix(op)
    direct = density_matrix_direct(ens, cfg.dim)
    route_residual = float(np.abs(rho.matrix - direct).max())
    cfg.write(
        "ensemble_A.json",
        {
            "dim": op.dim,
            "basis": "hermite",
            "matrix": op.matrix,
            "residuals": {"truncation_residual": op.truncation_residual},
        },
    )
    cfg.write(
        "ensemble_rho.json",
        {
            "dim": rho.dim,
            "matrix": rho.matrix,
            "residuals": {
                "trace_residual": rho.trace_residual,
                "route_residual": route_residual,
            },
        },
    )
    print(f"wrote ensemble_A.json and ensemble_rho.json to {cfg.output_dir}")
    return 0


def cmd_ensemble_equiv(ns: argparse.Namespace, cfg: RunConfig) -> int:
    grid = cfg.grid
    e1 = load_ensemble_json(ns.ensemble, grid)
    e2 = load_ensemble_json(ns.ensemble2, grid)
    warnings = _warn_coarse_grid((st for st, _ in e1.members + e2.members), "member")
    a = build_A(e1, cfg.dim)
    a_prime = build_A(e2, cfg.dim)
    tol = cfg.tolerances
    isometry = find_partial_isometry(a, a_prime, tol["density_match"], tol["factor_residual"])
    closure = feichtinger_closure_check(e1, e2, ns.s, tol["field_match"])
    cfg.write(
        "isometry.json",
        {
            "dim": a.dim,
            "matrix": isometry.matrix,
            "residuals": {"defect": isometry.defect},
            "rank": isometry.rank,
        },
    )
    cfg.write(
        "closure_report.json",
        {
            "s": closure.s,
            "density_residual": isometry.density_residual,
            "field_residual": closure.field_residual,
            "e1_verdicts": list(closure.e1_verdicts),
            "e2_verdicts": list(closure.e2_verdicts),
            "implication_holds": closure.implication_holds,
            "inconclusive": closure.inconclusive,
        },
        warnings,
    )
    print(
        f"isometry rank {isometry.rank}, defect {isometry.defect:.3e}; "
        f"closure implication {'holds' if closure.implication_holds else 'fails'}"
    )
    if not closure.implication_holds:
        return 1
    return 0


def cmd_ensemble_spectral(ns: argparse.Namespace, cfg: RunConfig) -> int:
    grid = cfg.grid
    ens = load_ensemble_json(ns.ensemble, grid)
    rho = density_matrix(build_A(ens, cfg.dim))
    spectral = spectral_ensemble(rho, grid)
    entries = []
    for idx, (state, weight) in enumerate(spectral.members):
        name = f"spectral_member_{idx}.csv"
        write_state_csv(cfg.out(name), grid.x_points(), state.values)
        entries.append({"weight": weight, "state": name})
    cfg.write(
        "spectral_ensemble.json",
        {
            "label": spectral.label,
            "members": entries,
            "eigenvalue_sum": float(spectral.weights().sum()),
        },
    )
    print(f"wrote spectral ensemble with {len(entries)} members to {cfg.output_dir}")
    return 0


def _eigen_pair(grid: PhaseSpaceGrid) -> Ensemble:
    h0, h1 = (catalog_state(f"hermite:{k}", grid) for k in (0, 1))
    return Ensemble(((h0, 0.5), (h1, 0.5)), "pair:eigen")


def _hadamard_pair(grid: PhaseSpaceGrid) -> tuple[Ensemble, Ensemble]:
    plus = hermite_combination(grid, (1.0, 1.0), "mix:+")
    minus = hermite_combination(grid, (1.0, -1.0), "mix:-")
    return _eigen_pair(grid), Ensemble(((plus, 0.5), (minus, 0.5)), "pair:rotated")


def _check(name: str, value: float, tol: float) -> dict:
    ok = bool(value <= tol)
    print(f"{'PASS' if ok else 'FAIL'} {name} value={value:.6e} tol={tol:.1e}")
    return {"name": name, "value": float(value), "tolerance": float(tol), "pass": ok}


def _hadamard_block_gap(u: np.ndarray) -> float:
    target = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    block = u[:2, :2]
    gap = 0.0
    for j in range(2):
        phase = np.vdot(target[:, j], block[:, j])
        phase = phase / abs(phase) if abs(phase) > 0 else 1.0
        gap = max(gap, float(np.abs(block[:, j] - phase * target[:, j]).max()))
    return gap


def cmd_reproduce(ns: argparse.Namespace, cfg: RunConfig) -> int:
    scenario = ns.scenario
    checks: list[dict] = []
    if scenario == "prop1":
        grid = make_grid(1024, 12.0, 1.0)
        ens = _eigen_pair(grid)
        report = marginals(mixed_wigner(ens), ens)
        checks.append(_check("norm_residual", report.norm_residual, 1e-6))
        checks.append(_check("x_marginal_residual", report.x_residual, 1e-6))
        checks.append(_check("p_marginal_residual", report.p_residual, 1e-6))
    elif scenario == "prop2":
        grid = make_self_reciprocal_grid(2048, 1.0)
        ens = _eigen_pair(grid)
        verdicts = [modulation_norm(st, 2.0) for st, _ in ens.members]
        report = covariance(mixed_wigner(ens), verdicts)
        sigma_gap = float(np.abs(report.sigma - np.eye(2)).max())
        checks.append(_check("sigma_vs_identity", sigma_gap, 1e-5))
        checks.append(_check("route_agreement", report.residual, 1e-3))
    elif scenario == "prop3":
        grid = make_grid(512, 10.0, 1.0)
        e1, e2 = _hadamard_pair(grid)
        a = build_A(e1, 32)
        a_prime = build_A(e2, 32)
        rho_gap = float(
            np.abs(density_matrix(a).matrix - density_matrix(a_prime).matrix).max()
        )
        isometry = find_partial_isometry(a, a_prime, factor_tol=1e-8)
        checks.append(_check("density_match", rho_gap, 1e-10))
        checks.append(_check("factorization_residual", isometry.factor_residual, 1e-8))
        checks.append(_check("isometry_defect", isometry.defect, 1e-8))
        checks.append(_check("hadamard_block", _hadamard_block_gap(isometry.matrix), 1e-8))
    else:
        grid = make_grid(512, 10.0, 1.0)
        e1, e2 = _hadamard_pair(grid)
        # An infinite field tolerance records a failing gap as a failed check.
        closure = feichtinger_closure_check(e1, e2, field_tol=math.inf)
        checks.append(_check("mixed_field_match", closure.field_residual, 1e-5))
        verdicts = closure.e1_verdicts + closure.e2_verdicts
        nonconv = float(sum(v != "convergent" for v in verdicts))
        checks.append(_check("nonconvergent_members", nonconv, 0.0))
    ok = all(c["pass"] for c in checks)
    cfg.write(f"reproduce_{scenario}.json", {"scenario": scenario, "checks": checks, "pass": ok})
    return 0 if ok else 1


# argparse keywords of every flag; each command names the ones it takes.
FLAGS = {
    "--hbar": {"type": float, "default": 1.0},
    "--grid-n": {"type": int, "default": 1024},
    "--grid-l": {"type": float, "default": 12.0},
    "--dim": {"type": int, "default": 32},
    "--state": {"required": True},
    "--state2": {"required": True},
    "--apply": {"default": None, "help": "metaplectic descriptor applied first"},
    "--s": {"type": _finite_float, "default": 0.0},
    "--window": {"default": "hermite:0"},
    "--ensemble": {"required": True},
    "--ensemble2": {"required": True},
    "scenario": {"choices": ["prop1", "prop2", "prop3", "cor5"]},
}
_GRID = ("--hbar", "--grid-n", "--grid-l")
_LADDER = ("convergent_tail", "diverging_growth")


@dataclass(frozen=True)
class Command:
    """A subcommand: handler, help, the flags it takes besides --out, the
    tolerances it reads, and the flags of which it requires exactly one."""

    run: Callable[[argparse.Namespace, RunConfig], int]
    help: str
    flags: tuple[str, ...]
    tolerances: tuple[str, ...] = ()
    one_of: tuple[str, ...] = ()


COMMANDS = {
    "wigner": Command(cmd_wigner, "Wigner transform of one state", (*_GRID, "--state", "--apply")),
    "cross-wigner": Command(
        cmd_cross_wigner, "cross-Wigner transform of two states", (*_GRID, "--state", "--state2")
    ),
    "marginals": Command(
        cmd_marginals, "marginal densities of an ensemble", _GRID, (), ("--ensemble", "--state")
    ),
    "moments": Command(
        cmd_moments,
        "mean and covariance of an ensemble",
        _GRID,
        (*_LADDER, "route_agreement"),
        ("--ensemble", "--state"),
    ),
    "modnorm": Command(
        cmd_modnorm,
        "weighted modulation norm ladder",
        (*_GRID, "--state", "--s", "--window"),
        _LADDER,
    ),
    "diagnose": Command(
        cmd_diagnose, "integrability verdict for a state", (*_GRID, "--state"), _LADDER
    ),
    "ensemble-build": Command(
        cmd_ensemble_build,
        "operator and density matrix of an ensemble",
        (*_GRID, "--dim", "--ensemble"),
    ),
    "ensemble-equiv": Command(
        cmd_ensemble_equiv,
        "partial isometry between two ensembles",
        (*_GRID, "--dim", "--ensemble", "--ensemble2", "--s"),
        ("density_match", "factor_residual", "field_match"),
    ),
    "ensemble-spectral": Command(
        cmd_ensemble_spectral,
        "eigen-ensemble of a density matrix",
        (*_GRID, "--dim", "--ensemble"),
    ),
    # Each scenario pins its own grid and tolerances, so reproduce takes neither.
    "reproduce": Command(cmd_reproduce, "run a pinned verification scenario", ("scenario",)),
}


# Built once per process: main dispatches through COMMANDS when it runs, and
# rebuilding the parser on every call fragments the heap of a long-lived caller.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Phase-space analysis of sampled quantum states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        # Without abbreviations a flag is read by its full name only, and any
        # flag the command does not take is left over for main to refuse.
        p = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        for flag in cmd.flags:
            p.add_argument(flag, **FLAGS[flag])
        for tol in cmd.tolerances:
            p.add_argument(
                f"--tol.{tol}", type=_tolerance, default=TOL_DEFAULTS[tol],
                metavar="VALUE", help="default %(default)g",
            )
        if cmd.one_of:
            group = p.add_mutually_exclusive_group(required=True)
            for flag in cmd.one_of:
                group.add_argument(flag)
        p.add_argument("--out", default=None, help="output directory")
    return parser


# Symbol names of numpy's bundled OpenBLAS: the scipy-openblas build (64-bit
# integers, prefixed and suffixed names) first, then a plain OpenBLAS build.
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}")
# The OpenBLAS functions used here: name -> (result type, argument types).
_OPENBLAS_API = {
    "get_num_threads": (ctypes.c_int, []),
    "set_num_threads": (None, [ctypes.c_int]),
    "get_corename": (ctypes.c_char_p, []),
}
# OpenBLAS's pre-fork hook, unprefixed in the scipy-openblas build: it joins
# the worker threads, and the next threaded call or set_num_threads starts
# them again.  Optional: where the library lacks it, the API entry is None.
_OPENBLAS_STOP = "blas_thread_shutdown_"


@functools.cache
def _openblas() -> dict[str, Callable] | None:
    """The _OPENBLAS_API functions of numpy's bundled OpenBLAS and its
    _OPENBLAS_STOP hook (None where missing), looked up once per process;
    None when numpy carries no OpenBLAS with that API (MKL, Accelerate, a
    system BLAS)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for pattern in _OPENBLAS_SYMBOLS:
            if all(hasattr(lib, pattern.format(name)) for name in _OPENBLAS_API):
                api = {}
                for name, (restype, argtypes) in _OPENBLAS_API.items():
                    fn = api[name] = getattr(lib, pattern.format(name))
                    fn.restype, fn.argtypes = restype, argtypes
                stop = api[_OPENBLAS_STOP] = getattr(lib, _OPENBLAS_STOP, None)
                if stop is not None:
                    stop.restype, stop.argtypes = ctypes.c_int, []
                return api
    return None


def _set_blas_threads(blas: dict[str, Callable], count: int) -> None:
    """Set the thread count, then stop the worker pool that setting starts."""
    blas["set_num_threads"](count)
    if blas[_OPENBLAS_STOP] is not None:
        blas[_OPENBLAS_STOP]()


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body on one OpenBLAS thread, then restore the process's count.

    The package's largest BLAS calls are matrix-vector products.  On the
    default grid none is larger than 1024 x 512, but they grow with the grid:
    the p marginal in marginals is 4096 x 2048 at --grid-n 4096.  The
    ensemble layer's matrix products and LAPACK calls (svd, eigh, eigvalsh)
    are --dim (<= 128) wide.  A helper thread gains little on any of them
    and would spin on the caller's CPU.  The thread count moves no bits.

    The worker pool is stopped after each set, on entry and after the restore:
    a worker woken by the caller's own threaded product, or started by the
    set itself, spins for OpenBLAS's idle timeout (about 0.1 s) and would
    share the command's CPU, or the caller's after the return.  The caller's
    next threaded call starts the pool again.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    before = blas["get_num_threads"]()
    _set_blas_threads(blas, 1)
    try:
        yield
    finally:
        _set_blas_threads(blas, before)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; return its exit code.

    It runs on one OpenBLAS thread, parsing included, with OpenBLAS's worker
    pool stopped, and the count in force before is restored on every exit,
    with the pool stopped again.  The count and the pool belong to the whole
    process, so main is not meant to be entered from two threads at once, nor
    while another thread is inside a threaded BLAS call: stopping the pool
    joins its workers.
    """
    with _one_blas_thread():
        try:
            ns, unread = build_parser().parse_known_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if unread:
            print(f"error: {ns.command} does not take {' '.join(unread)}", file=sys.stderr)
            return 2
        try:
            return COMMANDS[ns.command].run(ns, _config_from(ns))
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
