"""Equality-form linear programs, solved by the HiGHS dual simplex.

min c.x  s.t.  A x = b, x >= 0.

`lp_solve` is a thin wrapper over scipy's HiGHS interface (Huangfu & Hall,
Math. Prog. Comp. 2018).  The dual simplex ends on a basic solution, so
every witness is a vertex.  `transport_lp` builds the marginal rows of a
coupling as a sparse matrix and stacks any extra equality rows under them.
Without extra rows, a transport with one atom on a side has one feasible
plan, the other side's weights, and one with two atoms on a side is solved
in closed form; `transport_batch` runs these closed forms over a batch of
transports at once.  Every returned solution passes the same primal
residual check.

scipy.optimize and scipy.sparse are imported on first use: processes that
never solve an LP do not pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-10      # HiGHS primal and dual feasibility tolerance
RESID_TOL = 1e-8      # largest |A x - b| accepted in a returned solution
ZERO_TOL = 1e-14      # solution entries below this are set to exactly 0

_HIGHS_OPTIONS = {"primal_feasibility_tolerance": FEAS_TOL,
                  "dual_feasibility_tolerance": FEAS_TOL}


class LPError(RuntimeError):
    """The LP backend failed, or its solution failed the residual check."""


@dataclass
class LinearProgram:
    c: np.ndarray
    A: np.ndarray         # dense array or scipy sparse matrix
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        if not hasattr(self.A, "tocsr"):
            self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.A.shape != (self.b.size, self.c.size):
            raise ValueError("inconsistent LP dimensions")


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


def lp_solve(lp: LinearProgram) -> LPResult:
    """Solve to an optimal basic solution; status optimal/infeasible/unbounded."""
    c, A, b = lp.c, lp.A, lp.b
    n = c.size
    if n == 0:
        return LPResult("optimal", 0.0, np.zeros(0), 0)
    from scipy.optimize import linprog

    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds",
                  options=_HIGHS_OPTIONS)
    if res.status == 2:
        return LPResult("infeasible", np.nan, np.full(n, np.nan), res.nit)
    if res.status == 3:
        return LPResult("unbounded", -np.inf, np.full(n, np.nan), res.nit)
    if res.status != 0:
        raise LPError(f"HiGHS status {res.status}: {res.message}")
    x = np.where(res.x < ZERO_TOL, 0.0, res.x)
    resid = float(np.max(np.abs(A @ x - b), initial=0.0))
    return _optimal(c, x, res.nit, resid)


def _two_row_plan(p, q, cost):
    """Optimal plans with two rows, over any leading batch axes: p (..., 2),
    q (..., n), cost (..., 2, n).  Row 1 is q minus row 0, which leaves a
    fractional knapsack: row 0 takes whole columns in ascending order of
    cost[0] - cost[1] (stable sort, so ties go in index order) until p[0]
    is spent.  At most one column is split, so each plan is a vertex."""
    order = np.argsort(cost[..., 0, :] - cost[..., 1, :], axis=-1, kind="stable")
    qs = np.take_along_axis(q, order, axis=-1)
    before = np.cumsum(np.insert(qs[..., :-1], 0, 0.0, axis=-1), axis=-1)
    row0 = np.empty_like(q)
    np.put_along_axis(row0, order, np.clip(p[..., :1] - before, 0.0, qs), axis=-1)
    return np.stack([row0, q - row0], axis=-2)


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
    resid = np.maximum(np.abs(plan.sum(axis=2) - p).max(axis=1),
                       np.abs(plan.sum(axis=1) - q).max(axis=1))
    resid[(p < 0).any(axis=1) | (q < 0).any(axis=1)] = np.inf
    return plan, resid


def _transport_rows(npp: int, nq: int, extra_rows):
    """CSR rows of sum_j x[i, j] = p[i], then of sum_i x[i, j] = q[j], then
    the extra rows."""
    from scipy.sparse import csr_matrix, vstack

    n = npp * nq
    cells = np.arange(n)
    indices = np.concatenate([cells, cells.reshape(npp, nq).T.ravel()])
    indptr = np.concatenate([np.arange(0, n + 1, nq),
                             n + npp * np.arange(1, nq + 1)])
    A = csr_matrix((np.ones(2 * n), indices, indptr), shape=(npp + nq, n))
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
    return lp_solve(LinearProgram(c, A, b))


def transport_batch(p: np.ndarray, q: np.ndarray, cost: np.ndarray):
    """`transport_lp` on a batch of one shape, p (B, m), q (B, n), cost
    (B, m, n), with the closed forms run on the whole batch.  Returns the
    values (B,), the plans (B, m, n) and the summed simplex iterations."""
    B, m, n = cost.shape
    plans, resid = (_closed_form(p, q, cost) if min(m, n) <= 2
                    else (np.empty(cost.shape), np.full(B, np.inf)))
    iterations = 0
    for b in np.flatnonzero(~(resid <= RESID_TOL)):
        res = transport_lp(p[b], q[b], cost[b])
        if res.status != "optimal":
            raise LPError(f"transport LP ended with status {res.status}")
        plans[b] = res.x.reshape(m, n)
        iterations += res.iterations
    # one dot product per member: values equal `c @ x` in `_optimal` exactly
    values = np.matmul(cost.reshape(B, 1, m * n), plans.reshape(B, m * n, 1))
    return values.reshape(B), plans, iterations
