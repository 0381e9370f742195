"""Outside-in layer tracing of lrkrylov.

The tracer replaces chosen functions and methods of the package with
wrappers that record one span per call: name, start, end, parent span and
an optional size (bytes of a basis matrix, nonzeros of a traced ray set).
A function is replaced in every package namespace that bound it, so
``svd`` is caught whether it is called from ``lowrank``, ``krylov``,
``nnr`` or ``problems``.  Spans stay in memory; ``layer_metrics`` turns
them into the per-layer metrics.  Nothing in the package changes on disk.
"""

import functools
import importlib
import time


def _nbytes(out):
    return out.nbytes


def _nnz(out):
    return out[2].size


# (span name, owner, attribute, size of the result or None).  An owner is a
# module or a class inside one; a name shared by several attributes sums
# them into one layer.
TARGETS = [
    ("cli.build_problem", "cli", "build_problem", None),
    ("cli.run_solver", "cli", "run_solver", None),
    ("problems.build", "problems", "star_problem", None),
    ("problems.build", "problems", "phantom_problem", None),
    ("problems.build", "problems", "inpainting_problem", None),
    ("tomo_kernels.trace", "_tomo_kernels", "trace_rays", _nnz),
    ("linops.matvec", "linops.LinearOperator", "matvec", None),
    ("linops.rmatvec", "linops.LinearOperator", "rmatvec", None),
    ("krylov.step", "krylov", "arnoldi_step", None),
    ("krylov.step", "krylov", "gkb_step", None),
    ("krylov.basis", "krylov.ArnoldiState", "V_mat", _nbytes),
    ("krylov.basis", "krylov.ArnoldiState", "Z_mat", _nbytes),
    ("krylov.basis", "krylov.ArnoldiState", "H_mat", _nbytes),
    ("krylov.basis", "krylov.GkbState", "U_mat", _nbytes),
    ("krylov.basis", "krylov.GkbState", "V_mat", _nbytes),
    ("krylov.basis", "krylov.GkbState", "Z_mat", _nbytes),
    ("krylov.basis", "krylov.GkbState", "M_mat", _nbytes),
    ("krylov.basis", "krylov.GkbState", "T_mat", _nbytes),
    ("krylov.proj_solve", "krylov", "projected_tikhonov", None),
    ("nnr.lambda_search", "nnr", "optimal_lambda_search", None),
    ("nnr.lambda_search", "nnr", "secant_lambda_update", None),
    ("nnr.inner_cycle", "nnr", "reweighted_krylov_solve", None),
    ("lowrank.svd", "lowrank", "svd", None),
    ("lowrank.truncate", "lowrank", "truncate", None),
    ("lowrank.precondition", "lowrank", "precondition", None),
    ("lowrank.apply_transform", "lowrank", "apply_transform", None),
    ("lowrank.reweighter", "lowrank", "build_reweighter", None),
    ("lowrank.reweighter", "lowrank", "build_reweighter_from_basis", None),
    ("report.record", "report.SolveReport", "record", None),
]

_MODULES = ("cli", "krylov", "linops", "lowrank", "nnr", "problems",
            "report", "_tomo_kernels")

# Spans under a cli.build_problem root belong to set-up; all other layer
# metrics count only spans under cli.run_solver roots.
SETUP_ROOT = "cli.build_problem"
SOLVE_ROOT = "cli.run_solver"

# Each span is a list [name, start, end, parent index, size].
NAME, START, END, PARENT, SIZE = range(5)


class Tracer:
    """Context manager that installs the span-recording wrappers."""

    def __init__(self):
        self.modules = [importlib.import_module(f"lrkrylov.{m}")
                        for m in _MODULES]
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size is not None:
                span[SIZE] = size(out)
            return out

        return traced

    def _owner(self, path):
        module, _, cls = path.partition(".")
        mod = next(m for m in self.modules
                   if m.__name__.rpartition(".")[2] == module)
        return getattr(mod, cls) if cls else mod

    def __enter__(self):
        for name, owner_path, attr, size in TARGETS:
            owner = self._owner(owner_path)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, size)
            owners = [owner]
            if not isinstance(owner, type):
                owners += [m for m in self.modules if m is not owner
                           and m.__dict__.get(attr) is original]
            for o in owners:
                self._patches.append((o, attr, original))
                setattr(o, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def self_times_add_up(spans):
    """True when self times sum to the root spans' total, so that no
    interval is counted twice or lost."""
    total = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    own = self_times(spans)
    return min(own) > -1e-9 and abs(sum(own) - total) <= 1e-9 * total


def roots(spans):
    """Index of the root span of each span (spans are in start order)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out


def layer_metrics(spans, iterations, n_unknowns):
    """Per-layer counts and times from one traced set-up plus solve.

    ``iterations`` is the number of iterations recorded over all solvers
    and ``n_unknowns`` is N, the base of ``krylov.basis_copy_ratio``.
    """
    own = self_times(spans)
    root_of = roots(spans)
    tally = {}  # (phase, span name) -> [count, inclusive s, self s, size]
    for i, s in enumerate(spans):
        phase = spans[root_of[i]][NAME]
        t = tally.setdefault((phase, s[NAME]), [0, 0.0, 0.0, 0])
        t[0] += 1
        t[1] += s[END] - s[START]
        t[2] += own[i]
        t[3] += s[SIZE]

    def solve(name):
        return tally.get((SOLVE_ROOT, name), [0, 0.0, 0.0, 0])

    def setup(name):
        return tally.get((SETUP_ROOT, name), [0, 0.0, 0.0, 0])

    basis, proj = solve("krylov.basis"), solve("krylov.proj_solve")
    step, lam = solve("krylov.step"), solve("nnr.lambda_search")
    svd, rw = solve("lowrank.svd"), solve("lowrank.reweighter")
    transform = solve("lowrank.apply_transform")
    matvec, rmatvec = solve("linops.matvec"), solve("linops.rmatvec")
    record = solve("report.record")
    trace = setup("tomo_kernels.trace")
    per_iter = max(iterations, 1)
    return {
        "krylov.basis_n": basis[0],
        "krylov.basis_s": basis[1],
        "krylov.basis_bytes": basis[3],
        "krylov.basis_copy_ratio": basis[3] / (per_iter * n_unknowns * 8),
        "krylov.step_n": step[0],
        "krylov.step_self_s": step[2],
        "krylov.proj_solve_n": proj[0],
        "krylov.proj_solve_s": proj[1],
        "krylov.proj_solve_per_iter": proj[0] / per_iter,
        "nnr.lambda_search_n": lam[0],
        "nnr.lambda_search_self_s": lam[2],
        "nnr.inner_cycles_n": solve("nnr.inner_cycle")[0],
        "lowrank.svd_n": svd[0],
        "lowrank.svd_s": svd[1],
        "lowrank.truncate_n": solve("lowrank.truncate")[0],
        "lowrank.precondition_s": solve("lowrank.precondition")[1],
        "lowrank.apply_transform_n": transform[0],
        "lowrank.apply_transform_s": transform[1],
        "lowrank.reweighter_n": rw[0],
        "lowrank.reweighter_self_s": rw[2],
        "tomo_kernels.trace_s": trace[1],
        "tomo_kernels.nnz": trace[3],
        "problems.build_self_s": setup("problems.build")[2],
        "linops.matvec_n": matvec[0],
        "linops.matvec_s": matvec[1],
        "linops.rmatvec_n": rmatvec[0],
        "linops.rmatvec_s": rmatvec[1],
        "report.record_n": record[0],
        "report.record_s": record[1],
        "trace.spans_n": len(spans),
        "trace.setup_s": setup(SETUP_ROOT)[1],
        "trace.solve_s": solve(SOLVE_ROOT)[1],
    }
