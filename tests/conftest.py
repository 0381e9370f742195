import numpy as np
import pytest
from hypothesis import settings

from lrkrylov import nnr
from lrkrylov.lowrank import Reweighter

# every @given draw is the same on every run; each test keeps its own
# max_examples and deadline
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def identity_reweighting(monkeypatch):
    """W = S = I throughout every nuclear-norm solver: the IRN reweighter
    is rebuilt as the identity and the flexible preconditioner returns a
    copy, so each solver must reproduce plain GMRES or LSQR."""
    monkeypatch.setattr(nnr, "build_reweighter",
                        lambda f, p, gamma: Reweighter(np.eye(f.sigma.size),
                                                       np.ones(f.sigma.size)))
    monkeypatch.setattr(nnr, "precondition",
                        lambda rw, v, power: np.array(v, copy=True))
