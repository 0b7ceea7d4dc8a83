"""Equality-form linear programs, solved by the HiGHS dual simplex.

min c.x  s.t.  A x = b, x >= 0.

`lp_solve` calls HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018) through the
binding that scipy ships, `scipy.optimize._highspy._core`, the one that
`scipy.optimize.linprog` uses.  It passes the options linprog passes for
`method="highs-ds"`: presolve on, the simplex solver with the dual
strategy, primal and dual feasibility tolerances `FEAS_TOL`, no output and
no debug checks; everything else stays at the HiGHS defaults.  The same
solver with the same options gives the same solutions and iteration counts
as linprog, without linprog's input cleaning and result assembly.  The
model status maps to a result as linprog maps it: optimal, infeasible
(a model error counts as infeasible), unbounded, or `LPError` for the
rest.  As in linprog's result check, a NaN entry or one below `-BOUND_TOL`
in an optimal solution raises `LPError`.  The dual simplex ends on a basic
solution, so every witness is a vertex.

`transport_lp` builds the marginal rows of a coupling as a sparse matrix
and stacks any extra equality rows under them.  Without extra rows, a
transport with one atom on a side has one feasible plan, the other side's
weights, and one with two atoms on a side is solved in closed form.

`transport_batch` solves many transports without extra rows at once: the
closed forms run over whole batches of one shape, and every member they
leave open goes into block-diagonal LPs of at most `BLOCK_COLUMNS` columns,
one HiGHS call each.  An optimal basis of a block-diagonal LP splits into
bases of its blocks, so each member's plan is still a vertex.  Every
returned solution passes the same primal residual check.

scipy.optimize and scipy.sparse are imported on first use: processes that
never solve an LP do not pay for them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-10      # HiGHS primal and dual feasibility tolerance
RESID_TOL = 1e-8      # largest |A x - b| accepted in a returned solution
ZERO_TOL = 1e-14      # solution entries below this are set to exactly 0
# An optimal solution with an entry below -BOUND_TOL is a solver failure;
# linprog's result check uses the same bound, 10 * sqrt(1e-9).
BOUND_TOL = 10 * np.sqrt(1e-9)
# Most columns in one block-diagonal LP of `transport_batch`.  HiGHS's own
# memory grows by about 1.1-1.6 KB per column, so one LP over every member
# of a large batch would raise peak memory by megabytes; a member larger
# than this gets an LP to itself.
BLOCK_COLUMNS = 1024

# HiGHS model status -> result status, as linprog maps them
_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible",
           "kModelError": "infeasible", "kUnbounded": "unbounded"}


class LPError(RuntimeError):
    """The LP backend failed, or its solution failed the residual check."""


@dataclass
class LPResult:
    status: str            # "optimal" | "infeasible" | "unbounded"
    value: float
    x: np.ndarray
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def _optimal(c, x, iterations, resid) -> LPResult:
    if resid > RESID_TOL:
        raise LPError(f"primal residual {resid:.3e} too large")
    return LPResult("optimal", float(c @ x), x, iterations, {"residual": resid})


@functools.cache
def _highs():
    """scipy's HiGHS binding and the options linprog passes for highs-ds."""
    from scipy.optimize._highspy import _core as highs

    options = highs.HighsOptions()
    options.presolve = "on"
    options.solver = "simplex"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = FEAS_TOL
    options.dual_feasibility_tolerance = FEAS_TOL
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    return highs, options


def _highs_solve(c, A, b):
    """One HiGHS run on min c.x, A x = b, x >= 0.  Returns the name of the
    model status, the column values (None unless optimal) and the simplex
    iterations.  Non-finite data raises ValueError, as in linprog."""
    from scipy.sparse import csc_array

    highs, options = _highs()
    A = csc_array(A)
    if not (np.isfinite(c).all() and np.isfinite(b).all()
            and np.isfinite(A.data).all()):
        raise ValueError("LP data must be finite")
    m, n = A.shape
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, highs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = b
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    solver = highs._Highs()
    solver.passOptions(options)
    if solver.passModel(lp) == highs.HighsStatus.kError:
        return "kModelError", None, 0
    if solver.run() == highs.HighsStatus.kError:
        return solver.getModelStatus().name, None, 0
    status = solver.getModelStatus()
    iterations = solver.getInfo().simplex_iteration_count
    if status != highs.HighsModelStatus.kOptimal:
        return status.name, None, iterations
    return status.name, np.array(solver.getSolution().col_value), iterations


def lp_solve(c, A, b) -> LPResult:
    """Solve min c.x, A x = b, x >= 0 to an optimal basic solution; status
    optimal/infeasible/unbounded.  A is a dense array or a scipy sparse
    matrix."""
    c = np.asarray(c, dtype=float).ravel()
    if not hasattr(A, "tocsr"):
        A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.shape != (b.size, c.size):
        raise ValueError("inconsistent LP dimensions")
    n = c.size
    if n == 0:
        return LPResult("optimal", 0.0, np.zeros(0), 0)
    highs_status, x, iterations = _highs_solve(c, A, b)
    status = _STATUS.get(highs_status)
    if status == "infeasible":
        return LPResult(status, np.nan, np.full(n, np.nan), iterations)
    if status == "unbounded":
        return LPResult(status, -np.inf, np.full(n, np.nan), iterations)
    if status is None:
        raise LPError(f"HiGHS model status {highs_status}")
    if np.isnan(x).any() or (x < -BOUND_TOL).any():
        raise LPError("HiGHS solution has a NaN entry or violates x >= 0")
    x = np.where(x < ZERO_TOL, 0.0, x)
    resid = float(np.max(np.abs(A @ x - b), initial=0.0))
    return _optimal(c, x, iterations, resid)


def _two_row_plan(p, q, cost):
    """Optimal plans with two rows, over any leading batch axes: p (..., 2),
    q (..., n), cost (..., 2, n).  Row 1 is q minus row 0, which leaves a
    fractional knapsack: row 0 takes whole columns in ascending order of
    cost[0] - cost[1] (stable sort, so ties go in index order) until p[0]
    is spent.  At most one column is split, so each plan is a vertex."""
    if q.shape[-1] == 2:
        # the sort is one comparison, which puts a NaN difference last too
        d0 = cost[..., 0, 0] - cost[..., 1, 0]
        d1 = cost[..., 0, 1] - cost[..., 1, 1]
        swap = ~(d0 <= d1) & (d1 == d1)
        first = np.where(swap, q[..., 1], q[..., 0])
        head = np.clip(p[..., 0], 0.0, first)
        tail = np.clip(p[..., 0] - first, 0.0, np.where(swap, q[..., 0], q[..., 1]))
        row0 = np.stack([np.where(swap, tail, head), np.where(swap, head, tail)], axis=-1)
    else:
        order = np.argsort(cost[..., 0, :] - cost[..., 1, :], axis=-1, kind="stable")
        qs = np.take_along_axis(q, order, axis=-1)
        before = np.cumsum(np.insert(qs[..., :-1], 0, 0.0, axis=-1), axis=-1)
        row0 = np.empty_like(q)
        np.put_along_axis(row0, order, np.clip(p[..., :1] - before, 0.0, qs), axis=-1)
    return np.stack([row0, q - row0], axis=-2)


def _reduce(ufunc, a, axis):
    """ufunc.reduce(a, axis), written out when the axis has one or two
    entries: numpy's reductions over such short axes cost many times the
    arithmetic they do."""
    if a.shape[axis] > 2:
        return ufunc.reduce(a, axis=axis)
    at = (slice(None),) * axis
    return ufunc(a[at + (0,)], a[at + (1,)]) if a.shape[axis] == 2 else a[at + (0,)]


def _closed_form(p, q, cost):
    """Plans and residuals of a batch of transports with one or two atoms on
    a side: p (B, m), q (B, n), cost (B, m, n); negative weights give inf."""
    m, n = cost.shape[1:]
    if min(m, n) == 1:
        # one atom forces the plan to the other side's weights
        plan = np.zeros(cost.shape) + (q[:, None] if m == 1 else p[..., None])
    else:
        plan = (_two_row_plan(p, q, cost) if m == 2 else
                _two_row_plan(q, p, cost.swapaxes(1, 2)).swapaxes(1, 2))
        plan = np.where(plan < ZERO_TOL, 0.0, plan)
    resid = np.maximum(
        _reduce(np.maximum, np.abs(_reduce(np.add, plan, 2) - p), 1),
        _reduce(np.maximum, np.abs(_reduce(np.add, plan, 1) - q), 1))
    resid[_reduce(np.logical_or, p < 0, 1) | _reduce(np.logical_or, q < 0, 1)] = np.inf
    return plan, resid


def _marginal_rows(m: int, n: int, count: int):
    """Column indices and row starts (CSR) of the marginal rows of `count`
    m x n transports stacked block-diagonally.  Member k owns the columns
    k*m*n onwards (row-major cells) and m + n rows: sum_j x[i, j] = p[i],
    then sum_i x[i, j] = q[j].  Each column has two nonzeros."""
    cells = np.arange(m * n)
    first = m * n * np.arange(count)[:, None]
    indices = np.concatenate([cells, cells.reshape(m, n).T.ravel()]) + first
    starts = np.concatenate([np.arange(0, m * n, n),
                             m * n + np.arange(0, m * n, m)]) + 2 * first
    return indices.ravel(), starts.ravel()


def _transport_rows(npp: int, nq: int, extra_rows):
    """CSR rows of sum_j x[i, j] = p[i], then of sum_i x[i, j] = q[j], then
    the extra rows."""
    from scipy.sparse import csr_matrix, vstack

    indices, starts = _marginal_rows(npp, nq, 1)
    A = csr_matrix((np.ones(indices.size), indices,
                    np.append(starts, indices.size)), shape=(npp + nq, npp * nq))
    if extra_rows is None:
        return A
    return vstack([A, csr_matrix(extra_rows)], format="csr")


def transport_lp(p: np.ndarray, q: np.ndarray, cost: np.ndarray,
                 extra_rows: np.ndarray | None = None,
                 extra_rhs: np.ndarray | None = None) -> LPResult:
    """Transport problem between weight vectors with optional extra equality
    rows over the flattened coupling matrix (row-major: cell (i,j) -> i*nq+j)."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    npp, nq = p.size, q.size
    c = np.asarray(cost, dtype=float).ravel()
    if extra_rows is None and min(npp, nq) <= 2:
        plan, resid = _closed_form(p[None], q[None], c.reshape(1, npp, nq))
        # negative or unbalanced weights go to HiGHS, which classifies them
        if resid[0] <= RESID_TOL:
            return _optimal(c, plan.ravel(), 0, float(resid[0]))
    A = _transport_rows(npp, nq, extra_rows)
    b = np.zeros(A.shape[0])
    b[:npp], b[npp:npp + nq] = p, q
    if extra_rhs is not None:
        b[npp + nq:] = extra_rhs
    return lp_solve(c, A, b)


def transport_batch(groups):
    """`transport_lp` without extra rows over several batches at once, one
    batch per shape: each group is p (B, m), q (B, n), cost (B, m, n).

    The closed forms run on each whole group.  The members they leave open
    (a failed residual check) and every member with three or more atoms on
    both sides are packed, in order, into block-diagonal LPs of at most
    `BLOCK_COLUMNS` columns, one `lp_solve` call each.  Returns one (values
    (B,), plans (B, m, n)) pair per group and the summed simplex
    iterations; an infeasible member raises `LPError`."""
    plans, members = [], []
    for p, q, cost in groups:
        if min(cost.shape[1:]) <= 2:
            plan, resid = _closed_form(p, q, cost)
            members.append(np.flatnonzero(~(resid <= RESID_TOL)))
        else:
            plan = np.empty(cost.shape)
            members.append(np.arange(len(cost)))
        plans.append(plan)
    iterations = _block_lps([(group, idx, plan) for group, idx, plan
                             in zip(groups, members, plans) if idx.size])
    out = []
    for (_, _, cost), plan in zip(groups, plans):
        B, m, n = cost.shape
        # one dot product per member: values equal `c @ x` in `_optimal` exactly
        values = np.matmul(cost.reshape(B, 1, m * n), plan.reshape(B, m * n, 1))
        out.append((values.reshape(B), plan))
    return out, iterations


def _block_lps(open_members) -> int:
    """Solve the members `idx` of each (group, idx, plan) of `open_members`
    as block-diagonal LPs and write their plans into `plan`; returns the
    summed simplex iterations."""
    if not open_members:
        return 0
    from scipy.sparse import csr_matrix

    iterations = 0
    for pack in _packs(open_members):
        indices, starts, c, b, col = [], [], [], [], 0
        for (p, q, cost), idx, _ in pack:
            m, n = cost.shape[1:]
            ind, st = _marginal_rows(m, n, idx.size)
            indices.append(ind + col)
            starts.append(st + 2 * col)
            c.append(cost[idx].ravel())
            b.append(np.concatenate([p[idx], q[idx]], axis=1).ravel())
            col += idx.size * m * n
        starts.append([2 * col])   # where the last row ends
        A = csr_matrix((np.ones(2 * col), np.concatenate(indices),
                        np.concatenate(starts)), shape=(sum(map(len, b)), col))
        res = lp_solve(np.concatenate(c), A, np.concatenate(b))
        if res.status != "optimal":
            raise LPError(f"transport LP ended with status {res.status}")
        iterations += res.iterations
        col = 0
        for (_, _, cost), idx, plan in pack:
            size = idx.size * cost[0].size
            plan[idx] = res.x[col:col + size].reshape(idx.size, *cost.shape[1:])
            col += size
    return iterations


def _packs(open_members):
    """Split the members, in order, into packs of (group, idx, plan) pieces
    of at most BLOCK_COLUMNS columns in all; a member larger than that
    makes a pack alone."""
    pack, used = [], 0
    for group, idx, plan in open_members:
        size = group[2][0].size
        while idx.size:
            fits = max((BLOCK_COLUMNS - used) // size, 0 if used else 1)
            if not fits:
                yield pack
                pack, used = [], 0
                continue
            pack.append((group, idx[:fits], plan))
            used += idx[:fits].size * size
            idx = idx[fits:]
    if pack:
        yield pack
