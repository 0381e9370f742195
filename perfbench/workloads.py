"""Benchmark workloads: each is one CLI-style config (a problem spec plus a
solver list) generated from the workload name and the workload seed.

Every solver runs a fixed iteration budget: discrepancy stops and the IRN
outer stop on converged spectra are switched off (``use_noise_norm:
false``, ``tau_sigma: 0``).  With them on, the number of iterations, and
so the work, depended on the noise and mask drawn from the seed
(``flsqr-nnrp`` stopped after 24 to 54 of 60 iterations on seeds 0-3), and
a run-to-run spread over seeds would have measured the data, not the code.
"""

import copy

WORKLOADS = {
    "deblur-krylov": {
        "problem": {"type": "star", "n": 256},
        "solvers": [
            {"name": "gmres", "max_iter": 100},
            {"name": "lsqr", "max_iter": 100},
        ],
        # min_rel_error ceilings for seeds without stored references
        "ceilings": {"gmres": 0.02, "lsqr": 0.01},
    },
    "tomo-irn": {
        "problem": {"type": "phantom", "n": 128, "n_angles": 60,
                    "angle_span_degrees": 90.0},
        "solvers": [
            {"name": "irn-lsqr-nnrp", "max_outer": 4, "max_inner": 30,
             "lambda_rule": "optimal", "use_noise_norm": False,
             "tau_sigma": 0.0},
            {"name": "lsqr", "max_iter": 40, "lambda_rule": "optimal"},
        ],
        "ceilings": {"irn-lsqr-nnrp": 0.05, "lsqr": 0.25},
    },
    "inpaint-lowrank": {
        "problem": {"type": "inpainting", "image": "peppers-like", "n": 192,
                    "rank_cap": 50, "missing_fraction": 0.4,
                    "pattern": "random"},
        "solvers": [
            {"name": "flsqr-nnrp", "max_iter": 60, "use_noise_norm": False},
            {"name": "flsqr-nnrp-v", "max_iter": 60,
             "use_noise_norm": False},
            {"name": "lr-flsqr", "kappa_B": 30, "kappa": 30, "max_iter": 60},
            {"name": "svt", "max_iter": 60},
            {"name": "irn-lsqr-nnrp", "max_outer": 4, "max_inner": 25,
             "use_noise_norm": False, "tau_sigma": 0.0},
        ],
        "ceilings": {"flsqr-nnrp": 0.5, "flsqr-nnrp-v": 0.5, "lr-flsqr": 0.5,
                     "svt": 0.75, "irn-lsqr-nnrp": 0.2},
    },
}

# every solver name that any workload runs, in a fixed order
SOLVERS = sorted({s["name"] for w in WORKLOADS.values() for s in w["solvers"]})

_WARMUP_SIDE = 16
_WARMUP_ITERS = 3


def config(name, seed):
    """The CLI config of workload ``name`` with problem seed ``seed``."""
    w = WORKLOADS[name]
    return {
        "problem": dict(w["problem"], seed=seed),
        "solvers": copy.deepcopy(w["solvers"]),
    }


def warmup_config(name):
    """A tiny config with the same problem type and solver list, so that a
    warm-up solve walks every code path of the workload."""
    cfg = config(name, 0)
    problem = cfg["problem"]
    problem["n"] = _WARMUP_SIDE
    if "rank_cap" in problem:
        problem["rank_cap"] = min(problem["rank_cap"], _WARMUP_SIDE)
    if "n_angles" in problem:
        problem["n_angles"] = 4
    for spec in cfg["solvers"]:
        for key in ("max_iter", "max_inner", "max_outer"):
            if key in spec:
                spec[key] = min(spec[key], _WARMUP_ITERS)
        for key in ("kappa", "kappa_B"):
            if key in spec:
                spec[key] = min(spec[key], _WARMUP_SIDE)
    return cfg
