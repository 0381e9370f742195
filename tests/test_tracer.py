"""The benchmark tracer (``perfbench/tracer.py``) still fits the package.

The tracer wraps package functions and methods by name, through
``owner.__dict__[attr]``, so a renamed or moved name breaks
``perfbench/run.py --trace 1`` with a ``KeyError``.  These tests load the
tracer from its file, check that every name it patches exists, and that
it installs its wrappers and then restores each original.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lrkrylov import cli

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

MODULES = [importlib.import_module(f"lrkrylov.{m}") for m in tracer._MODULES]


def owner_of(path):
    module, _, cls = path.partition(".")
    mod = importlib.import_module(f"lrkrylov.{module}")
    return getattr(mod, cls) if cls else mod


def bindings():
    """Every (namespace, attribute) -> object that the tracer may patch:
    each target on its owner, and each module re-export of it."""
    out = {}
    for _, path, attr, _ in tracer.TARGETS:
        for ns in [owner_of(path)] + MODULES:
            if attr in ns.__dict__:
                out[(ns, attr)] = ns.__dict__[attr]
    return out


@pytest.mark.parametrize("target", tracer.TARGETS,
                         ids=lambda t: f"{t[1]}.{t[2]}")
def test_target_resolves(target):
    _, path, attr, _ = target
    assert callable(owner_of(path).__dict__[attr])


def test_tracer_installs_and_restores_every_patch():
    before = bindings()
    spec = {"name": "lsqr", "max_iter": 3}
    with tracer.Tracer() as t:
        for _, path, attr, _ in tracer.TARGETS:
            original = before[(owner_of(path), attr)]
            assert owner_of(path).__dict__[attr].__wrapped__ is original
        cli.run_solver(spec, cli.build_problem({"type": "star", "n": 16}))
    assert {span[tracer.NAME] for span in t.spans} >= {
        "cli.build_problem", "cli.run_solver", "krylov.step",
        "linops.matvec", "linops.rmatvec"}
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
