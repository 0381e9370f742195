import numpy as np
import pytest

from lrkrylov import nnr
from lrkrylov.lowrank import identity_reweighter


@pytest.fixture
def identity_reweighting(monkeypatch):
    """W = S = I throughout every nuclear-norm solver: the IRN reweighter
    is rebuilt as the identity and the flexible preconditioner returns a
    copy, so each solver must reproduce plain GMRES or LSQR."""
    monkeypatch.setattr(nnr, "build_reweighter",
                        lambda f, p, gamma: identity_reweighter(f.sigma.size))
    monkeypatch.setattr(nnr, "precondition",
                        lambda rw, v, power: np.array(v, copy=True))
