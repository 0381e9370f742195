"""Configuration-driven experiment runner.

Usage: ``lrkrylov run config.json [--out DIR] [--validate-only]
[--seed-override N]``.  The config is one JSON document with a problem
spec and a solver list; each solver writes an iteration CSV, per-outer
spectrum CSVs and its best reconstruction as PGM, and a summary.json
collects the minimum relative errors.  LRK_THREADS caps parallel solver
runs.
"""

import argparse
import concurrent.futures
import inspect
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import krylov, nnr, problems
from .linops import unvec

SOLVER_NAMES = frozenset({
    "gmres", "lsqr", "rs-lr-gmres", "lr-fgmres", "lr-flsqr",
    "irn-gmres-nnrp", "irn-lsqr-nnrp", "fgmres-nnrp", "flsqr-nnrp",
    "fgmres-nnrp-v", "flsqr-nnrp-v", "svt",
})

# solvers built on the Arnoldi process, which needs a square operator
GMRES_FAMILY = frozenset({
    "gmres", "rs-lr-gmres", "lr-fgmres", "irn-gmres-nnrp", "fgmres-nnrp",
    "fgmres-nnrp-v",
})
# rank parameters of the truncating solvers; each must lie in [1, n]
RANK_KEYS = {"rs-lr-gmres": ("truncation_rank",),
             "lr-fgmres": ("kappa_B", "kappa"),
             "lr-flsqr": ("kappa_B", "kappa")}
_DEFAULT_RANK = 30
# lambda rules each solver acts on; the flexible solvers never project the
# exact solution, so "optimal" would silently run them with lambda = 0,
# and rs-lr-gmres and svt have no lambda at all
_ALL_RULES = frozenset({"zero", "fixed", "secant", "optimal"})
_NO_OPTIMAL = frozenset({"zero", "fixed", "secant"})
LAMBDA_RULES = {
    "gmres": _ALL_RULES, "lsqr": _ALL_RULES,
    "irn-gmres-nnrp": _ALL_RULES, "irn-lsqr-nnrp": _ALL_RULES,
    "lr-fgmres": _NO_OPTIMAL, "lr-flsqr": _NO_OPTIMAL,
    "fgmres-nnrp": _NO_OPTIMAL, "flsqr-nnrp": _NO_OPTIMAL,
    "fgmres-nnrp-v": _NO_OPTIMAL, "flsqr-nnrp-v": _NO_OPTIMAL,
    "rs-lr-gmres": frozenset({"zero"}), "svt": frozenset({"zero"}),
}
# solvers whose discrepancy stop comes only from "use_discrepancy"; the
# secant rule aims at that stop, so it needs the flag here and a
# discrepancy level (epsilon or the noise norm) everywhere
DISCREPANCY_BY_FLAG = frozenset({"gmres", "lsqr", "lr-fgmres", "lr-flsqr"})


class ConfigError(Exception):
    pass


def build_problem(spec, seed_override=None):
    spec = dict(spec)
    kind = spec.pop("type", None)
    if seed_override is not None:
        spec["seed"] = seed_override
    try:
        if kind == "star":
            return problems.star_problem(**spec)
        if kind == "phantom":
            return problems.phantom_problem(**spec)
        if kind == "inpainting":
            return problems.inpainting_problem(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}") from exc
    raise ConfigError(f"problem.type: unknown problem type {kind!r}")


def _nnr_config(spec, noise_norm):
    epsilon = spec.get("epsilon")
    if epsilon is None and spec.get("use_noise_norm", True):
        epsilon = noise_norm
    kwargs = {k: spec[k] for k in (
        "p", "gamma0", "gamma_decay", "gamma_min", "lambda_rule",
        "lambda_value", "theta", "max_outer", "max_inner", "max_iter",
        "tau_sigma") if k in spec}
    for key, value in dict(kwargs, epsilon=epsilon).items():
        if isinstance(value, bool):  # JSON true passes as 1 otherwise
            raise ConfigError(f"solver config: {key} must be a number, "
                              f"got {value!r}")
    try:
        return nnr.NnrConfig(epsilon=float(epsilon or 0.0), **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver config: {exc}") from exc


def _check_config(spec, noise_norm):
    """Reject a solver config that would fail at this noise norm."""
    cfg = _nnr_config(spec, noise_norm)
    if cfg.lambda_rule == "secant" and cfg.stop() is None:
        raise ConfigError(f"solver {spec['name']}: lambda_rule 'secant' "
                          "needs a discrepancy level, a positive "
                          "\"epsilon\" or the noise norm of noisy data")


def run_solver(spec, problem):
    name = spec["name"]
    op, b, x_exact = problem.op, problem.b, problem.x_exact
    cfg = _nnr_config(spec, problem.noise_norm)
    stop = cfg.stop() if spec.get("use_discrepancy", False) else None
    if name in DISCREPANCY_BY_FLAG:  # the solvers that take a rule here
        rule = krylov._LambdaRule(cfg.lambda_rule, cfg.lambda_value, stop)
    if name == "gmres":
        return krylov.gmres(op, b, cfg.max_iter, stop, rule, x_exact)
    if name == "lsqr":
        return krylov.lsqr(op, b, cfg.max_iter, stop, rule, x_exact)
    if name == "rs-lr-gmres":
        return krylov.rs_lr_gmres(
            op, b, spec.get("restart_len", 40),
            spec.get("truncation_rank", _DEFAULT_RANK),
            spec.get("max_outer", 5), stop, x_exact)
    if name in ("lr-fgmres", "lr-flsqr"):
        fn = krylov.lr_fgmres if name == "lr-fgmres" else krylov.lr_flsqr
        return fn(op, b, spec.get("kappa_B", _DEFAULT_RANK),
                  spec.get("kappa", _DEFAULT_RANK), cfg.max_iter, stop,
                  rule, x_exact)
    if name in ("irn-gmres-nnrp", "irn-lsqr-nnrp"):
        return nnr.irn_nnrp(op, b, cfg, gkb=name == "irn-lsqr-nnrp",
                            x_exact=x_exact)
    if name in ("fgmres-nnrp", "flsqr-nnrp", "fgmres-nnrp-v", "flsqr-nnrp-v"):
        return nnr.flexible_nnrp(op, b, cfg, gkb=name.startswith("flsqr"),
                                 from_basis=name.endswith("-v"),
                                 x_exact=x_exact)
    if name == "svt":
        return nnr.svt(op, b, float(spec.get("tau", 1.0)),
                       float(spec.get("delta", 2.0)), cfg.max_iter,
                       stop, x_exact)
    raise ConfigError(f"solver.name: unknown solver {name!r}")


def _write_report(report, name, problem, outdir, emit_images, emit_spectra):
    csv_path = outdir / f"{name}_iterations.csv"
    with open(csv_path, "w") as fh:
        fh.write("iter,outer,rel_error,residual,lambda_hat\n")
        for i in range(len(report.iterations)):
            fh.write(
                f"{report.iterations[i]},{report.outer_indices[i]},"
                f"{report.rel_errors[i]:.17g},{report.residuals[i]:.17g},"
                f"{report.lambdas[i]:.17g}\n")
    if emit_spectra:
        for outer, sigma in report.spectra:
            with open(outdir / f"{name}_spectrum_outer{outer}.csv", "w") as fh:
                fh.write("index,normalized_sigma\n")
                for i, s in enumerate(sigma):
                    fh.write(f"{i + 1},{s:.17g}\n")
    if emit_images and report.best_x is not None:
        problems.write_pgm(outdir / f"{name}_best.pgm",
                           unvec(report.best_x, problem.op.image_side))


def _cross_check_residuals(report, problem, tol=1e-8):
    """Recompute the true residual of the final iterate and compare to the
    recorded projected value."""
    if report.final_x is None or not report.residuals:
        return
    true = np.linalg.norm(problem.b - problem.op.matvec(report.final_x))
    scale = max(np.linalg.norm(problem.b), 1.0)
    if abs(true - report.residuals[-1]) > tol * scale:
        raise RuntimeError(
            f"{report.solver}: projected residual {report.residuals[-1]:.3e} "
            f"disagrees with true residual {true:.3e}")


def _validate_solver(spec, problem):
    name, kind = spec["name"], problem.get("type")
    if name in GMRES_FAMILY and kind in ("phantom", "inpainting"):
        raise ConfigError(f"solver {name}: needs a square operator, and "
                          f"{kind!r} operators are not square")
    rule = spec.get("lambda_rule", "zero")
    if not isinstance(rule, str) or rule not in LAMBDA_RULES[name]:
        raise ConfigError(f"solver {name}: lambda_rule must be one of "
                          f"{sorted(LAMBDA_RULES[name])}, got {rule!r}")
    if (rule == "secant" and name in DISCREPANCY_BY_FLAG
            and not spec.get("use_discrepancy", False)):
        raise ConfigError(f"solver {name}: lambda_rule 'secant' needs a "
                          "discrepancy stop, \"use_discrepancy\": true")
    unused = sorted({"gamma0", "gamma_decay", "gamma_min"} & spec.keys())
    if name.endswith("-v") and unused:
        raise ConfigError(f"solver {name}: {unused[0]} has no effect, the "
                          "weights come from each basis vector alone")
    _check_config(spec, 1.0)  # a stand-in until b gives the noise norm
    for key in ("tau", "delta") if name == "svt" else ():
        value = spec.get(key, 1.0)
        if not (isinstance(value, (int, float))
                and not isinstance(value, bool) and value > 0):
            raise ConfigError(f"solver svt: {key} must be positive, "
                              f"got {value!r}")
    restart = spec.get("restart_len", 40) if name == "rs-lr-gmres" else 1
    if not nnr.is_count(restart):
        raise ConfigError(f"solver {name}: restart_len must be an integer "
                          f">= 1, got {restart!r}")
    n = problem.get("n")
    if n is None and kind == "inpainting":
        n = inspect.signature(
            problems.inpainting_problem).parameters["n"].default
    for key in RANK_KEYS.get(name, ()):
        rank = spec.get(key, _DEFAULT_RANK)
        if not nnr.is_count(rank, n if isinstance(n, int) else None):
            raise ConfigError(f"solver {name}: {key} must be an integer in "
                              f"[1, n] (n = {n}), got {rank!r}")


def validate_config(config):
    problem = config.get("problem")
    if problem is None:
        raise ConfigError("problem: missing section")
    if not isinstance(problem, dict):
        raise ConfigError("problem: must be a JSON object")
    solvers = config.get("solvers")
    if not solvers:
        raise ConfigError("solvers: the solver list is empty")
    for spec in solvers:
        name = spec.get("name")
        if name not in SOLVER_NAMES:
            raise ConfigError(f"solver.name: unknown solver {name!r}")
        _validate_solver(spec, problem)
    names = [s["name"] for s in solvers]
    if len(set(names)) != len(names):
        raise ConfigError("solvers: duplicate solver names")


def run(config_path, out_dir=None, validate_only=False, seed_override=None):
    """Execute a config; returns the process exit code."""
    try:
        config = json.loads(Path(config_path).read_text())
        validate_config(config)
        if validate_only:
            print(json.dumps(config, indent=2))
            return 0
        threads = os.environ.get("LRK_THREADS", "1")
        if not threads.isdecimal() or int(threads) < 1:
            raise ConfigError("LRK_THREADS must be an integer >= 1, not "
                              f"{threads!r}")
        problem = build_problem(config["problem"], seed_override)
        if not np.all(np.isfinite(problem.b)):
            raise ConfigError("problem: the data b has non-finite entries")
        for spec in config["solvers"]:
            _check_config(spec, problem.noise_norm)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    outdir = Path(out_dir or config.get("output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    emit_images = bool(config.get("emit_images", True))
    emit_spectra = bool(config.get("emit_spectra", True))
    cross_check = bool(config.get("cross_check_residuals", False))

    def job(spec):
        name = spec["name"]
        try:
            report = run_solver(spec, problem)
            if cross_check:
                _cross_check_residuals(report, problem)
            _write_report(report, name, problem, outdir, emit_images,
                          emit_spectra)
        except Exception as exc:
            # one failed solver must not take down the others' results
            traceback.print_exc()
            return name, {"status": "failed",
                          "error": f"{type(exc).__name__}: {exc}"}
        best_iter, best_err = report.best
        return name, {
            "min_rel_error": None if np.isnan(best_err) else best_err,
            "best_iteration": int(best_iter),
            "stop_reason": report.stop_reason,
            "iterations_run": len(report.iterations),
        }

    with concurrent.futures.ThreadPoolExecutor(int(threads)) as pool:
        summary = dict(pool.map(job, config["solvers"]))
    failed = any(entry.get("status") == "failed" for entry in summary.values())
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2))
    return 2 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="lrkrylov")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("config", help="path to the JSON config")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--validate-only", action="store_true",
                      help="parse and echo the config without computing")
    runp.add_argument("--seed-override", type=int, default=None)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.validate_only,
                   args.seed_override)
    return 1


if __name__ == "__main__":
    sys.exit(main())
