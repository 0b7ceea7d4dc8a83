"""Equality-form linear programs, solved by the HiGHS dual simplex.

min c.x  s.t.  A x = b, x >= 0.

`lp_solve` is a thin wrapper over scipy's HiGHS interface (Huangfu & Hall,
Math. Prog. Comp. 2018).  The dual simplex ends on a basic solution, so
every witness is a vertex.  `transport_lp` builds the marginal rows of a
coupling as a sparse matrix and stacks any extra equality rows under them.
A transport with one atom on a side has one feasible plan, the other side's
weights; with two atoms on a side (and no extra rows) it is solved in
closed form.  Every returned solution passes the same primal residual
check.

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
    """Optimal plan with two rows.  Row 1 is q minus row 0, which leaves a
    fractional knapsack: row 0 takes whole columns in ascending order of
    cost[0] - cost[1] (stable sort, so ties go in index order) until p[0]
    is spent.  At most one column is split, so the plan is a vertex."""
    order = np.argsort(cost[0] - cost[1], kind="stable")
    qs = q[order]
    before = np.concatenate(([0.0], np.cumsum(qs[:-1])))
    row0 = np.empty_like(q)
    row0[order] = np.clip(p[0] - before, 0.0, qs)
    return np.vstack([row0, q - row0])


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
    # one atom on a side forces the plan to the other side's weights
    if npp == 1 or nq == 1:
        x, total = (q, float(p[0])) if npp == 1 else (p, float(q[0]))
        xs = x.tolist()  # list arithmetic: this path runs once per DP node
        resid = abs(sum(xs) - total)
        if extra_rows is not None:
            rhs = 0.0 if extra_rhs is None else extra_rhs
            resid = max(resid, float(np.abs(extra_rows @ x - rhs).max(initial=0.0)))
        # negative, unbalanced or row-violating inputs go to HiGHS, which
        # classifies them
        if total >= 0 and min(xs) >= 0 and resid <= RESID_TOL:
            return _optimal(c, x.copy(), 0, resid)
    if extra_rows is None and 2 in (npp, nq):
        cost2 = c.reshape(npp, nq)
        plan = (_two_row_plan(p, q, cost2) if npp == 2
                else _two_row_plan(q, p, cost2.T).T)
        plan = np.where(plan < ZERO_TOL, 0.0, plan)
        resid = max(np.abs(plan.sum(axis=1) - p).max(),
                    np.abs(plan.sum(axis=0) - q).max())
        # negative or unbalanced weights go to HiGHS, which classifies them
        if (p >= 0).all() and (q >= 0).all() and resid <= RESID_TOL:
            return _optimal(c, plan.ravel(), 0, float(resid))
    A = _transport_rows(npp, nq, extra_rows)
    b = np.zeros(A.shape[0])
    b[:npp], b[npp:npp + nq] = p, q
    if extra_rhs is not None:
        b[npp + nq:] = extra_rhs
    return lp_solve(LinearProgram(c, A, b))
