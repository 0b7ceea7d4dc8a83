"""Equality-form linear programs, solved by the HiGHS dual simplex.

min c.x  s.t.  A x = b, x >= 0.

`lp_solve` calls HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018) through the
binding that scipy ships, `scipy.optimize._highspy._core`, the one that
`scipy.optimize.linprog` uses.  It passes the options linprog passes for
`method="highs-ds"`: presolve on (but see below), the simplex solver with
the dual strategy, primal and dual feasibility tolerances `FEAS_TOL`, no
output and no debug checks; everything else stays at the HiGHS defaults.
The same solver with the same options gives the same solutions and
iteration counts as linprog, without linprog's input cleaning and result
assembly, and the model goes to HiGHS as arrays in one call.  The
model status maps to a result as linprog maps it: optimal, infeasible
(a model error counts as infeasible), unbounded, or `LPError` for the
rest.  As in linprog's result check, a NaN entry or one below `-BOUND_TOL`
in an optimal solution raises `LPError`.  The dual simplex ends on a basic
solution, so every witness is a vertex.

`transport_lp` builds the marginal rows of a coupling as a sparse matrix
and stacks any extra equality rows under them.  Without extra rows, three
transport shapes skip HiGHS: one with one atom on a side has one feasible
plan, the other side's weights; one with two atoms on a side is solved in
closed form; and a 3 x 3 is solved exactly by enumerating its 81 bases,
the spanning trees of K_{3,3} (Dantzig's transportation simplex), and
taking the feasible one of least cost.  Either way the plan is a vertex.

`transport_batch` solves many transports without extra rows at once: the
exact small-shape solvers run over whole batches of one shape, and the
members they leave open, laid end to end, fill block-diagonal LPs of at
most `BLOCK_COLUMNS` columns, one HiGHS call each.  An optimal basis of a
block-diagonal LP splits into bases of its blocks, so each member's plan is
still a vertex.  These LPs skip presolve, which costs small transports more
than it saves; every other LP keeps linprog's options.  `transport_values`
gives the values of such a batch only, and solves each open member over
its cells below its largest cost U, with a slack on each row and column
that has one (Pele & Werman, ICCV 2009), so a member whose cells mostly sit
at U, as under a capped ground cost, makes a much smaller LP.  Every
returned solution passes the same primal residual check, and all three
functions reject a non-finite cost or weight with ValueError.

scipy.optimize and scipy.sparse are imported on first use, and the basis
table of the 3 x 3 shape is built on first use: processes that never solve
such a problem do not pay for them.
"""

from __future__ import annotations

import functools
import itertools
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
# Most 3 x 3 members `_basis_plans` takes at once: its (chunk, 5, 81)
# temporaries stay under 2 MB each however large the batch.
_BASIS_CHUNK = 512

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
def _highs(presolve: bool = True):
    """scipy's HiGHS binding and linprog's highs-ds options, presolve or not."""
    from scipy.optimize._highspy import _core as highs

    options = highs.HighsOptions()
    options.presolve = "on" if presolve else "off"
    options.solver = "simplex"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = FEAS_TOL
    options.dual_feasibility_tolerance = FEAS_TOL
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    return highs, options


def _highs_solve(c, A, b, presolve: bool):
    """One HiGHS run on min c.x, A x = b, x >= 0.  Returns the name of the
    model status, the column values (None unless optimal) and the simplex
    iterations.  Non-finite data raises ValueError, as in linprog."""
    from scipy.sparse import csc_array

    highs, options = _highs(presolve)
    A = csc_array(A)
    if not (np.isfinite(c).all() and np.isfinite(b).all()
            and np.isfinite(A.data).all()):
        raise ValueError("LP data must be finite")
    m, n = A.shape
    solver = highs._Highs()
    solver.passOptions(options)
    # column-wise, minimized, no offset, every column continuous
    if solver.passModel(n, m, A.nnz, highs.MatrixFormat.kColwise,
                        highs.ObjSense.kMinimize, 0.0, c, np.zeros(n),
                        np.full(n, highs.kHighsInf), b, b,
                        A.indptr.astype(np.int32), A.indices.astype(np.int32),
                        A.data, np.zeros(n, dtype=np.int32)) == highs.HighsStatus.kError:
        return "kModelError", None, 0
    if solver.run() == highs.HighsStatus.kError:
        return solver.getModelStatus().name, None, 0
    status = solver.getModelStatus()
    iterations = solver.getInfo().simplex_iteration_count
    if status != highs.HighsModelStatus.kOptimal:
        return status.name, None, iterations
    return status.name, np.array(solver.getSolution().col_value), iterations


def lp_solve(c, A, b, *, presolve: bool = True) -> LPResult:
    """Solve min c.x, A x = b, x >= 0 to an optimal basic solution; status
    optimal/infeasible/unbounded.  A is a dense array or a scipy sparse
    matrix; `_block_lps` passes presolve=False."""
    c = np.asarray(c, dtype=float).ravel()
    if not hasattr(A, "tocsr"):
        A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.shape != (b.size, c.size):
        raise ValueError("inconsistent LP dimensions")
    n = c.size
    if n == 0:
        return LPResult("optimal", 0.0, np.zeros(0), 0)
    highs_status, x, iterations = _highs_solve(c, A, b, presolve)
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


def _reach(edges, start):
    """The vertices that `edges` join to `start`."""
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for e in edges:
            if v in e and (w := e[0] + e[1] - v) not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@functools.cache
def _bases():
    """Tables of the 81 bases of a 3 x 3 transport, in lexicographic order
    of their cells.  Vertices 0-2 of K_{3,3} are the rows and 3-5 the
    columns, and cell i*3 + j is the edge (i, 3 + j); five cells make a
    basis when they make a spanning tree.  Taking one tree edge away cuts
    the tree in two, and the edge carries the net weight (p minus q) of the
    side that holds its row.  Over r = (p0, p1, p2, q0, q1), q2 being
    implied, that flow is an integer row; when the side holds column 2, the
    negated net weight of the other side is used.  Only 42 flows occur over
    all bases.  Returns

    - cells (81, 5): each basis's basic cells, row-major;
    - flows (5, 42): the distinct flows, one column each;
    - flow (81, 5): the flow each basic cell carries;
    - mask (81,): bit f set when the basis uses flow f;
    - terms (2, 99): the distinct (cell, flow) pairs of all bases;
    - term (5, 81): the pair of each basic cell, so that a basis costs the
      sum of its five products cost[cell] * flow."""
    cells, flow, term, flows, terms = [], [], [], {}, {}
    for tree in itertools.combinations(range(9), 5):
        edges = [(c // 3, 3 + c % 3) for c in tree]
        if len(_reach(edges, 0)) < 6:
            continue
        cells.append(tree)
        for k, (i, _) in enumerate(edges):
            side, sign = _reach(edges[:k] + edges[k + 1:], i), 1.0
            if 5 in side:
                side, sign = set(range(6)) - side, -1.0
            row = tuple(sign * (v in side) * (1.0 if v < 3 else -1.0) + 0.0
                        for v in range(5))
            flow.append(flows.setdefault(row, len(flows)))
            term.append(terms.setdefault((tree[k], flow[-1]), len(terms)))
    flow = np.array(flow).reshape(-1, 5)
    mask = np.bitwise_or.reduce(np.uint64(1) << flow.astype(np.uint64), axis=1)
    tables = (np.array(cells), np.array(list(flows)).T, flow, mask,
              np.array(list(terms)).T, np.array(term).reshape(-1, 5).T.copy())
    for t in tables:   # every caller shares them
        t.flags.writeable = False
    return tables


def _basis_plans(p, q, cost):
    """Optimal plans of a batch of 3 x 3 transports: p (B, 3), q (B, 3),
    cost (B, 3, 3) finite.  Every basic solution is formed; those with no
    entry below -ZERO_TOL are feasible, and the feasible one of least cost
    wins, ties going to the lowest basis index.  Returns the plans and a
    mask of the members with no feasible basis.  Every sum runs elementwise
    in a fixed order, so a member's plan does not depend on its batch."""
    cells, flows, flow, mask, (tcell, tflow), term = _bases()
    bits = np.uint64(1) << np.arange(flows.shape[1], dtype=np.uint64)
    B = len(cost)
    plan = np.zeros((B, 9))
    none = np.zeros(B, dtype=bool)
    rhs = np.concatenate([p, q[:, :2]], axis=1)
    flat = cost.reshape(B, 9)
    for s in range(0, B, _BASIS_CHUNK):
        r, c = rhs[s:s + _BASIS_CHUNK], flat[s:s + _BASIS_CHUNK]
        f = flows[0] * r[:, :1]
        for k in range(1, 5):
            f += flows[k] * r[:, k:k + 1]
        # the bits of the negative (or NaN) flows: distinct bits sum to their OR
        negative = np.where(f >= -ZERO_TOL, 0, bits).sum(axis=1, dtype=np.uint64)
        g = (c[:, tcell] * f[:, tflow])[:, term]
        total = g[:, 0] + g[:, 1] + g[:, 2] + g[:, 3] + g[:, 4]
        ok = ((negative[:, None] & mask) == 0) & (total < np.inf)
        best = np.where(ok, total, np.inf).argmin(axis=1)
        at = np.arange(best.size)[:, None]
        plan[s + at, cells[best]] = f[at, flow[best]]
        none[s:s + best.size] = ~ok[at[:, 0], best]
    return plan.reshape(B, 3, 3), none


def _has_closed_form(m: int, n: int) -> bool:
    """Whether `_closed_form` solves m x n transports."""
    return min(m, n) <= 2 or (m, n) == (3, 3)


def _closed_form(p, q, cost):
    """Plans and residuals of a batch of transports with one or two atoms on
    a side, or of 3 x 3 ones: p (B, m), q (B, n), cost (B, m, n) finite;
    negative weights, or no feasible 3 x 3 basis, give inf."""
    m, n = cost.shape[1:]
    if min(m, n) == 1:
        # the plan is the other side's weights: only the one atom can be off
        one, other = (p, q) if m == 1 else (q, p)
        resid = np.abs(_reduce(np.add, other, 1) - one[:, 0])
        resid[(one[:, 0] < 0) | _reduce(np.logical_or, other < 0, 1)] = np.inf
        return (q[:, None] if m == 1 else p[..., None]) + 0.0, resid
    none = False
    if m == 2:
        plan = _two_row_plan(p, q, cost)
    elif n == 2:
        plan = _two_row_plan(q, p, cost.swapaxes(1, 2)).swapaxes(1, 2)
    else:
        plan, none = _basis_plans(p, q, cost)
    plan = np.where(plan < ZERO_TOL, 0.0, plan)
    resid = np.maximum(
        _reduce(np.maximum, np.abs(_reduce(np.add, plan, 2) - p), 1),
        _reduce(np.maximum, np.abs(_reduce(np.add, plan, 1) - q), 1))
    resid[_reduce(np.logical_or, p < 0, 1) | _reduce(np.logical_or, q < 0, 1)
          | none] = np.inf
    return plan, resid


def _check_finite(cost):
    if not np.isfinite(cost).all():
        raise ValueError("LP data must be finite")


def _transport_rows(npp: int, nq: int, extra_rows):
    """CSR rows of sum_j x[i, j] = p[i], then of sum_i x[i, j] = q[j], then
    the extra rows."""
    from scipy.sparse import csr_matrix, vstack

    cells = np.arange(npp * nq)
    indices = np.concatenate([cells, cells.reshape(npp, nq).T.ravel()])
    starts = np.concatenate([np.arange(0, npp * nq + 1, nq),
                             npp * nq + np.arange(npp, npp * nq + 1, npp)])
    A = csr_matrix((np.ones(indices.size), indices, starts),
                   shape=(npp + nq, npp * nq))
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
    _check_finite(c)
    if extra_rows is None and _has_closed_form(npp, nq):
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


def _closed_forms(groups):
    """Per group of `transport_batch`: the plans `_closed_form` gives on a
    group of a shape it solves (its other members' entries are unset), and
    the members it leaves open: those that fail the residual check, or all
    of them."""
    plans, open_members = [], []
    for p, q, cost in groups:
        _check_finite(cost)
        if _has_closed_form(*cost.shape[1:]):
            plan, resid = _closed_form(p, q, cost)
            open_members.append((~(resid <= RESID_TOL)).nonzero()[0])
        else:
            plan = np.empty(cost.shape)
            open_members.append(np.arange(len(cost)))
        plans.append(plan)
    return plans, open_members


def _member_values(cost, plan):
    """cost . plan per member, one dot product each: the value `c @ x` that
    `_optimal` gives for the same plan, bit for bit."""
    B, m, n = cost.shape
    return np.matmul(cost.reshape(B, 1, m * n), plan.reshape(B, m * n, 1)).reshape(B)


def transport_batch(groups):
    """`transport_lp` without extra rows over several batches at once, one
    batch per shape: each group is p (B, m), q (B, n), cost (B, m, n).

    `_closed_form` runs on each whole group of one or two atoms on a side or
    of 3 x 3 members.  The members it leaves open (a failed residual check)
    and every member of a larger shape go to `_block_lps` with every cell
    as a column.  Returns one (values (B,), plans (B, m, n)) pair per group
    and the summed simplex iterations; a non-finite cost or weight raises
    ValueError and an infeasible member `LPError`."""
    plans, open_members = _closed_forms(groups)
    opened = [(group, idx, plan) for group, idx, plan
              in zip(groups, open_members, plans) if idx.size]
    solved, iterations = _block_lps([(p[idx], q[idx], cost[idx])
                                     for (p, q, cost), idx, _ in opened])
    for (_, idx, plan), cells in zip(opened, solved):
        plan[idx] = cells
    return [(_member_values(cost, plan), plan)
            for (_, _, cost), plan in zip(groups, plans)], iterations


def transport_values(groups):
    """The optimal values of the transports of `transport_batch`, without
    their plans: one values (B,) array per group and the summed simplex
    iterations.

    The members `_closed_form` solves get the values of its plans.  Every
    other member, with U its largest cost, is solved over its cells below
    U only (Pele & Werman, "Fast and robust Earth Mover's Distances", ICCV
    2009): a plan splits into a sub-plan rho on those cells and a remainder
    that costs exactly U per unit, so its value is U * sum(p) plus the
    least sum of (c - U) * rho over rho >= 0 whose row sums are at most p
    and column sums at most q.  A slack column on each row and column with
    a cell below U turns these bounds into equalities, and rows and columns
    without one drop out.  At an optimum no leftover row meets a leftover
    column at a cell below U, so any completion of rho by the leftovers is
    an optimal plan.  A member with no cell below U is worth U * sum(p) and
    makes no LP.  The bounded LP is feasible for any weights, so a
    negative weight, or sides whose totals differ by more than `RESID_TOL`,
    raise `LPError` here."""
    plans, open_members = _closed_forms(groups)
    values, opened = [], []
    for (p, q, cost), idx, plan in zip(groups, open_members, plans):
        plan[idx] = 0.0   # the open members' values are set below
        values.append(_member_values(cost, plan))
        if not idx.size:
            continue
        p, q, cost = p[idx], q[idx], cost[idx]
        _check_finite(p)
        _check_finite(q)
        if (p < 0).any() or (q < 0).any():
            raise LPError("transport LP is infeasible: a negative weight")
        mass = p.sum(axis=1)
        gap = np.abs(mass - q.sum(axis=1))
        if (gap > RESID_TOL).any():
            raise LPError(f"transport LP is infeasible: sides differ by {gap.max():.3e}")
        top = cost.max(axis=(1, 2))
        opened.append((values[-1], idx, top * mass, p, q, cost - top[:, None, None]))
    solved, iterations = _block_lps([(p, q, below) for *_, p, q, below in opened],
                                    [below < 0 for *_, below in opened])
    for (v, idx, capped, _, _, below), sub in zip(opened, solved):
        v[idx] = capped + _member_values(below, sub)
    return values, iterations


def _block_lps(batches, keeps=None):
    """Solve the members of `batches`, (p (K, m), q (K, n), cost (K, m, n))
    each, laid end to end and packed in that order into block-diagonal LPs
    of at most `BLOCK_COLUMNS` columns (a larger member gets an LP to
    itself), one `lp_solve` call each, without presolve.  With keeps None
    every cell is a column; otherwise keeps marks per batch the cells that
    are, each marginal row with such a cell gets a slack column of cost 0,
    and the other rows drop out.  An LP's cell columns come first,
    row-major by member, then its slacks in row order.  Returns per batch
    the solution on its cells (K, m, n), 0 off the columns, and the summed
    simplex iterations."""
    if not batches:
        return [], 0
    from scipy.sparse import csc_array

    m, n = (np.concatenate([np.full(len(c), c.shape[k]) for *_, c in batches])
            for k in (1, 2))
    weight = np.concatenate([np.concatenate([p, q], axis=1).ravel() for p, q, _ in batches])
    cost = np.concatenate([c.ravel() for *_, c in batches])
    cols = (np.arange(cost.size) if keeps is None
            else np.flatnonzero(np.concatenate([k.ravel() for k in keeps])))
    cell0 = np.cumsum(m * n) - m * n   # each member's first cell
    row0 = np.cumsum(m + n) - m - n    # and first marginal row
    member = np.searchsorted(cell0, cols, side="right") - 1
    i, j = np.divmod(cols - cell0[member], n[member])
    rows = np.stack([row0[member] + i, row0[member] + m[member] + j])  # a column's rows
    on = np.zeros(weight.size, dtype=bool)
    on[rows.ravel()] = True
    size = np.bincount(member, minlength=m.size)
    if keeps is not None:
        size += np.bincount(np.searchsorted(row0, np.flatnonzero(on), side="right") - 1,
                            minlength=m.size)
    packed = np.flatnonzero(size)
    ends = np.cumsum(size[packed])
    at = np.append(np.searchsorted(cols, cell0), cols.size)  # each member's first column
    x = np.zeros(cost.size)
    iterations = start = 0
    while start < packed.size:
        room = BLOCK_COLUMNS + (ends[start - 1] if start else 0)
        stop = max(int(np.searchsorted(ends, room, side="right")), start + 1)
        a, b = packed[start], packed[stop - 1]
        span, rowspan = cols[at[a]:at[b + 1]], slice(row0[a], row0[b] + m[b] + n[b])
        number = np.cumsum(on[rowspan]) - 1   # the LP row of each row that stays
        count = int(number[-1]) + 1
        pairs = number[rows[:, at[a]:at[b + 1]] - row0[a]].T.ravel()
        slack = np.arange(0 if keeps is None else count)
        starts = np.concatenate([np.arange(0, pairs.size, 2),
                                 pairs.size + np.arange(slack.size + 1)])
        A = csc_array((np.ones(starts[-1]), np.concatenate([pairs, slack]), starts),
                      shape=(count, starts.size - 1))
        res = lp_solve(np.concatenate([cost[span], np.zeros(slack.size)]), A,
                       weight[rowspan][on[rowspan]], presolve=False)
        if res.status != "optimal":
            raise LPError(f"transport LP ended with status {res.status}")
        iterations += res.iterations
        x[span] = res.x[:span.size]
        start = stop
    bounds = np.cumsum([c.size for *_, c in batches])[:-1]
    return [cells.reshape(c.shape) for cells, (*_, c)
            in zip(np.split(x, bounds), batches)], iterations
