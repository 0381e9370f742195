import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrkrylov.krylov import gmres
from lrkrylov.problems import star_problem
from lrkrylov.report import SolveReport

# relative errors as a solver records them: None (no error, so NaN), NaN,
# values from a short list, which makes exact ties common, and any other
ERRORS = st.one_of(st.none(), st.just(math.nan),
                   st.sampled_from([0.25, 0.5, 1.0]),
                   st.floats(0, 4, allow_nan=False))


@given(st.lists(ERRORS, max_size=12))
@settings(deadline=None)
def test_best_is_the_first_minimum_and_best_x_its_iterate(errors):
    report = SolveReport()
    xs = [np.full(2, float(i)) for i in range(len(errors))]
    for x, err in zip(xs, errors):
        report.record(0, x, 1.0, 0.0, err=err)
    recorded = np.array([math.nan if e is None else e for e in errors])
    if np.all(np.isnan(recorded)):  # also when nothing was recorded
        assert report.best[0] == len(errors)
        assert np.isnan(report.best[1])
    else:
        i = int(np.nanargmin(recorded))
        assert report.best == (i + 1, recorded[i])
    if errors:
        assert report.best_x is xs[report.best[0] - 1]
        assert report.final_x is xs[-1]


def test_exact_tie_keeps_the_first_iterate():
    x_exact = np.array([1.0, 0.0])
    report = SolveReport("probe", x_exact)
    first, second = np.zeros(2), np.array([2.0, 0.0])  # both at error 1
    for x in (first, second):
        report.record(0, x, 1.0, 0.0)
    assert report.rel_errors == [1.0, 1.0]
    assert report.best == (1, 1.0)
    assert report.best_x is first
    assert report.final_x is second


def test_run_without_reference_keeps_the_last_iterate():
    prob = star_problem(16, noise_level=1e-3, seed=1)
    report = gmres(prob.op, prob.b, 5)
    assert report.best[0] == 5 and np.isnan(report.best[1])
    assert np.array_equal(report.best_x, report.final_x)
