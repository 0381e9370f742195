"""Import footprint: the deblurring and inpainting paths need only NumPy,
and scipy is loaded only when a tomography operator is built."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent("""
    import sys

    import lrkrylov
    import lrkrylov.cli as cli

    def scipy_modules():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    for spec in ({"type": "star", "n": 16, "seed": 0},
                 {"type": "inpainting", "n": 16, "rank_cap": 8, "seed": 0}):
        problem = cli.build_problem(spec)
        report = cli.run_solver({"name": "lsqr", "max_iter": 2}, problem)
        assert len(report.iterations) == 2, report.iterations
    assert scipy_modules() == [], scipy_modules()

    cli.build_problem({"type": "phantom", "n": 16, "n_angles": 4})
    assert "scipy.sparse" in sys.modules, scipy_modules()
""")


def test_only_tomography_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
