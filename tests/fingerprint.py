"""One SHA-256 per answer-fixture case, taken over the full solve report.

Runs every case of ``test_answers.py``, then every solver list of the
benchmark workloads at warm-up size (``perfbench/workloads.warmup_config``),
and hashes each report's iterations, outer indices, residuals, lambdas,
relative errors, ``final_x``, ``best_x``, spectra and stop reason, so that
two checkouts can be compared bitwise, from the root of each:

    python tests/fingerprint.py > after.txt
    diff before.txt after.txt    # before.txt: the same command on the parent

The package is loaded from the checkout's ``src/``.  pytest does not
collect this file.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from test_answers import CASES, problem  # noqa: E402

from lrkrylov import cli  # noqa: E402

import workloads  # noqa: E402


def _floats(values):
    return np.asarray(values, dtype=float).tobytes()


def fingerprint(report):
    h = hashlib.sha256()
    for part in (report.iterations, report.outer_indices, report.residuals,
                 report.lambdas, report.rel_errors):
        h.update(_floats(part))
    for x in (report.final_x, report.best_x):
        h.update(b"none" if x is None else _floats(x))
    for outer, sigma in report.spectra:
        h.update(_floats([outer]) + _floats(sigma))
    h.update(report.stop_reason.encode())
    return h.hexdigest()


def main():
    for case in sorted(CASES):
        pname, spec = CASES[case]
        print(fingerprint(cli.run_solver(spec, problem(pname))), case)
    for name in sorted(workloads.WORKLOADS):
        cfg = workloads.warmup_config(name)
        prob = cli.build_problem(cfg["problem"])
        for spec in cfg["solvers"]:
            print(fingerprint(cli.run_solver(spec, prob)),
                  f"warmup/{name}/{spec['name']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
