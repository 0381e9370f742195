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
import numbers
import os
import sys
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import krylov, nnr, problems
from .linops import unvec


class _Solver(NamedTuple):
    run: Callable  # run(problem, NnrConfig, the flag's stop, settings)
    square: bool  # built on the Arnoldi process, which needs A square
    keys: dict  # every key it reads -> default, None where NnrConfig has it
    rules: tuple  # the lambda rules it acts on


def _keys(*names, **defaults):
    # every solver reads the discrepancy level: "epsilon", else the noise
    # norm of b unless "use_noise_norm" is false, times "theta"
    return dict(dict.fromkeys(("epsilon", "theta", *names)),
                use_noise_norm=True, **defaults)


def _hybrid(fn):
    # the low-rank solvers take their ranks kappa_B and kappa first
    return lambda p, cfg, stop, s: fn(
        p.op, p.b, *[s[k] for k in ("kappa_B", "kappa") if k in s],
        cfg.max_iter, stop, cfg.lambda_rule, cfg.lambda_value, p.x_exact)


def _irn(gkb):
    return lambda p, cfg, stop, s: nnr.irn_nnrp(p.op, p.b, cfg, gkb=gkb,
                                                x_exact=p.x_exact)


def _flexible(gkb, from_basis):
    return lambda p, cfg, stop, s: nnr.flexible_nnrp(
        p.op, p.b, cfg, gkb=gkb, from_basis=from_basis, x_exact=p.x_exact)


_RANK = 30  # default of every truncation rank; each must lie in [1, n]
_HYBRID = _keys("max_iter", "lambda_rule", "lambda_value",
                use_discrepancy=False)
_LOW_RANK = dict(_HYBRID, kappa_B=_RANK, kappa=_RANK)
_GAMMA = dict.fromkeys(("gamma0", "gamma_decay", "gamma_min"))
_IRN = _keys("p", "max_outer", "max_inner", "tau_sigma", "lambda_rule",
             "lambda_value", **_GAMMA)
# the "-v" variants weigh each basis vector by itself, with no gamma
_FLEX_V = _keys("p", "max_iter", "lambda_rule", "lambda_value")
_FLEX = dict(_FLEX_V, **_GAMMA)
_RULES = ("zero", "fixed", "secant", "optimal")
# the flexible solvers never project the exact solution, which the optimal
# rule aims at: validation rejects "optimal" for them, so that the run does
# not fail later with exit 2; rs-lr-gmres and svt have no lambda
_NO_OPT = _RULES[:3]
SOLVERS = {
    "gmres": _Solver(_hybrid(krylov.gmres), True, _HYBRID, _RULES),
    "lsqr": _Solver(_hybrid(krylov.lsqr), False, _HYBRID, _RULES),
    "rs-lr-gmres": _Solver(
        lambda p, cfg, stop, s: krylov.rs_lr_gmres(
            p.op, p.b, s["restart_len"], s["truncation_rank"],
            cfg.max_outer, stop, p.x_exact),
        True, _keys("lambda_rule", restart_len=40, truncation_rank=_RANK,
                    max_outer=5, use_discrepancy=False), ("zero",)),
    "lr-fgmres": _Solver(_hybrid(krylov.lr_fgmres), True, _LOW_RANK, _NO_OPT),
    "lr-flsqr": _Solver(_hybrid(krylov.lr_flsqr), False, _LOW_RANK, _NO_OPT),
    "irn-gmres-nnrp": _Solver(_irn(False), True, _IRN, _RULES),
    "irn-lsqr-nnrp": _Solver(_irn(True), False, _IRN, _RULES),
    "fgmres-nnrp": _Solver(_flexible(False, False), True, _FLEX, _NO_OPT),
    "flsqr-nnrp": _Solver(_flexible(True, False), False, _FLEX, _NO_OPT),
    "fgmres-nnrp-v": _Solver(_flexible(False, True), True, _FLEX_V, _NO_OPT),
    "flsqr-nnrp-v": _Solver(_flexible(True, True), False, _FLEX_V, _NO_OPT),
    "svt": _Solver(
        lambda p, cfg, stop, s: nnr.svt(
            p.op, p.b, s["tau"], s["delta"], cfg.max_iter, stop, p.x_exact),
        False, _keys("max_iter", "lambda_rule", tau=1.0, delta=2.0,
                     use_discrepancy=False), ("zero",)),
}
_FIELDS = inspect.signature(nnr.NnrConfig).parameters.keys() - {"epsilon"}


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


def _settings(spec, noise_norm):
    """The keys the solver reads outside NnrConfig, defaults filled in, and
    its NnrConfig, whose secant rule needs a discrepancy level to aim at."""
    name = spec["name"]
    settings = {k: spec.get(k, d) for k, d in SOLVERS[name].keys.items()
                if k in spec or d is not None}
    epsilon = settings.pop("epsilon", None)
    if epsilon is None:
        epsilon = noise_norm if settings["use_noise_norm"] else 0.0
    kwargs = {k: settings.pop(k) for k in settings.keys() & _FIELDS}
    for key, value in dict(kwargs, epsilon=epsilon).items():
        if key != "lambda_rule" and (isinstance(value, bool) or
                                     not isinstance(value, numbers.Real)):
            raise ConfigError(f"solver {name}: {key} must be a number, "
                              f"got {value!r}")
    try:
        cfg = nnr.NnrConfig(epsilon=epsilon, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver {name}: {exc}") from exc
    if cfg.lambda_rule == "secant" and cfg.stop() is None:
        raise ConfigError(f"solver {name}: lambda_rule 'secant' needs a "
                          "discrepancy level, a positive \"epsilon\" or the "
                          "noise norm of noisy data")
    return settings, cfg


def run_solver(spec, problem):
    settings, cfg = _settings(spec, problem.noise_norm)
    stop = cfg.stop() if settings.get("use_discrepancy") else None
    return SOLVERS[spec["name"]].run(problem, cfg, stop, settings)


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


def _cross_check_residuals(report, problem):
    """Recompute the true residual of the final iterate and compare to the
    recorded projected value."""
    if report.final_x is None or not report.residuals:
        return
    true = np.linalg.norm(problem.b - problem.op.matvec(report.final_x))
    scale = max(np.linalg.norm(problem.b), 1.0)
    if abs(true - report.residuals[-1]) > 1e-8 * scale:
        raise RuntimeError(
            f"{report.solver}: projected residual {report.residuals[-1]:.3e} "
            f"disagrees with true residual {true:.3e}")


def _validate_solver(spec, problem):
    name, kind = spec["name"], problem.get("type")
    solver = SOLVERS[name]
    unread = sorted(spec.keys() - solver.keys.keys() - {"name"})
    if unread:
        raise ConfigError(f"solver {name}: never reads {unread[0]!r}; its "
                          f"keys are {', '.join(sorted(solver.keys))}")
    if solver.square and kind in ("phantom", "inpainting"):
        raise ConfigError(f"solver {name}: needs a square operator, and "
                          f"{kind!r} operators are not square")
    rule = spec.get("lambda_rule", "zero")
    if not isinstance(rule, str) or rule not in solver.rules:
        raise ConfigError(f"solver {name}: lambda_rule must be one of "
                          f"{sorted(solver.rules)}, got {rule!r}")
    n = problem.get("n", inspect.signature(problems.inpainting_problem)
                    .parameters["n"].default if kind == "inpainting" else None)
    # the keys NnrConfig does not check; 1.0 stands in for the noise norm
    for key, value in _settings(spec, 1.0)[0].items():
        if key.startswith("use_"):
            ok, want = isinstance(value, bool), "true or false"
        elif key in ("tau", "delta"):
            ok = not isinstance(value, bool) and isinstance(
                value, numbers.Real) and 0 < value <= sys.float_info.max
            want = "a finite number > 0"
        else:  # restart_len and the ranks
            top = n if key != "restart_len" and isinstance(n, int) else None
            ok = nnr.is_count(value, top)
            want = f"an integer in [1, {top}]" if top else "an integer >= 1"
        if not ok:
            raise ConfigError(f"solver {name}: {key} must be {want}, "
                              f"got {value!r}")
    if (rule == "secant" and "use_discrepancy" in solver.keys
            and not spec.get("use_discrepancy", False)):
        raise ConfigError(f"solver {name}: lambda_rule 'secant' needs a "
                          "discrepancy stop, \"use_discrepancy\": true")


# the top-level keys, each with its type
_FLAG = (bool, "true or false")
_TOP_LEVEL = {"problem": (dict, "an object"), "solvers": (list, "a list"),
              "output_dir": (str, "a string"), "emit_images": _FLAG,
              "emit_spectra": _FLAG, "cross_check_residuals": _FLAG}


def validate_config(config):
    if not isinstance(config, dict):
        raise ConfigError(f"the config must be a JSON object, got {config!r}")
    for key, value in config.items():
        if key not in _TOP_LEVEL:
            raise ConfigError(f"{key}: unknown key; the config takes "
                              f"{', '.join(_TOP_LEVEL)}")
        kind, want = _TOP_LEVEL[key]
        if not isinstance(value, kind):
            raise ConfigError(f"{key}: must be {want}, got {value!r}")
    if "problem" not in config:
        raise ConfigError("problem: missing section")
    solvers = config.get("solvers")
    if not solvers:
        raise ConfigError("solvers: the solver list is empty")
    for spec in solvers:
        name = spec.get("name") if isinstance(spec, dict) else None
        if not isinstance(name, str) or name not in SOLVERS:
            raise ConfigError(f"solvers: {spec!r} is not an object naming a "
                              "known solver")
        _validate_solver(spec, config["problem"])
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
            _settings(spec, problem.noise_norm)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    outdir = Path(out_dir or config.get("output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)

    def job(spec):
        name = spec["name"]
        try:
            report = run_solver(spec, problem)
            if config.get("cross_check_residuals", False):
                _cross_check_residuals(report, problem)
            _write_report(report, name, problem, outdir,
                          config.get("emit_images", True),
                          config.get("emit_spectra", True))
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
    args = parser.parse_args(argv)  # "run" is the only command
    return run(args.config, args.out, args.validate_only, args.seed_override)


if __name__ == "__main__":
    sys.exit(main())
