"""The distance family on scenario trees.

Plain Wasserstein, strict bicausal (nested) via backward dynamic
programming, eps-bicausal and eps-causal via global LPs, the outer
minimization over the information shift, and the Hellwig metric via nested
transport problems.

The bicausal problem at shift 0 factorizes into per-node-pair transport
subproblems; any positive shift misaligns the conditioning and is solved as
one global LP over leaf-pair cells, which is why leaf products are capped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coupling import (Coupling, EpsShift, X_TO_Y, Y_TO_X, _path_distances,
                       causality_constraints, is_eps_bicausal, is_eps_causal,
                       path_cost_matrix)
from .lp import LPError, transport_lp
from .prediction import rank1_conditional_laws
from .trees import FilteredTree, align, check_valid, law, _path_ids

DEFAULT_CELL_CAP = 40_000
DEFAULT_STATE_CAP = 2_000_000


@dataclass
class DistanceReport:
    kind: str
    p: float
    value: float
    eps_steps: Optional[int] = None
    epsilon_time: float = 0.0
    coupling: Optional[Coupling] = None
    diagnostics: dict = field(default_factory=dict)
    metric: str = "sup"

    def verify_witness(self, tol: float = 1e-8) -> bool:
        """Check feasibility of the witness and that it reproduces the value."""
        if self.coupling is None:
            return True
        self.coupling.check()
        from .coupling import transport_cost
        cost = transport_cost(self.coupling, self.p, self.metric)
        target = self.value - (self.epsilon_time if self.kind in ("AW", "CW", "SCW") else 0.0)
        if abs(cost - target) > tol:
            return False
        eps = EpsShift(self.eps_steps or 0,  self.epsilon_time)
        if self.kind in ("AW", "AW_strict", "AW_eps"):
            return is_eps_bicausal(self.coupling, eps)[0]
        if self.kind == "CW":
            return is_eps_causal(self.coupling, eps, X_TO_Y)[0]
        if self.kind in ("SCW", "SCW_strict"):
            # the direction whose causal distance gave the value
            return is_eps_causal(self.coupling, eps, self.diagnostics["direction"])[0]
        return True

    def to_json_dict(self, include_witness: bool = False) -> dict:
        out = {"kind": self.kind, "p": self.p, "value": self.value,
               "eps_steps": self.eps_steps, "epsilon_time": self.epsilon_time,
               "diagnostics": self.diagnostics}
        if include_witness and self.coupling is not None:
            out["witness"] = self.coupling.weights.tolist()
        return out


def _prepare(x: FilteredTree, y: FilteredTree, p: float):
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p!r}")
    check_valid(x)
    check_valid(y)
    return align(x, y)


def _cell_guard(x: FilteredTree, y: FilteredTree, cap: int):
    cells = x.n_leaves * y.n_leaves
    if cells > cap:
        raise ValueError(f"leaf product {cells} exceeds LP cap {cap}")


# ---------------------------------------------------------------------------
# Plain Wasserstein


def wasserstein(x: FilteredTree, y: FilteredTree, p: float = 1.0,
                metric: str = "sup", witness: bool = True) -> DistanceReport:
    """W_p between the path laws (filtration-blind; invariant under
    hk_minimize because the law is)."""
    t0 = time.perf_counter()
    x, y = _prepare(x, y, p)
    lx, ly = law(x), law(y)
    cost = _path_distances(lx.paths, ly.paths, x.grid, metric)
    res = transport_lp(lx.weights, ly.weights, cost ** p)
    if res.status != "optimal":
        raise LPError(f"transport LP ended with status {res.status}")
    value = max(res.value, 0.0) ** (1.0 / p)
    cpl = None
    if witness:
        plan = res.x.reshape(lx.weights.size, ly.weights.size)
        cpl = _expand_law_plan(x, y, lx, ly, plan)
    return DistanceReport("W", p, value, None, 0.0, cpl,
                          {"lp_iterations": res.iterations,
                           "constraint_count": lx.weights.size + ly.weights.size,
                           "runtime_s": time.perf_counter() - t0},
                          metric=metric)


def _expand_law_plan(x, y, lx, ly, plan) -> Coupling:
    """Lift a coupling of canonicalized laws to a leaf-pair coupling: each
    atom's mass is split over its leaves in proportion to their masses."""
    ix, iy = _path_ids(x.leaf_paths)[1], _path_ids(y.leaf_paths)[1]
    cx, cy = x.leaf_probs / lx.weights[ix], y.leaf_probs / ly.weights[iy]
    return Coupling(x, y, cx[:, None] * plan[ix][:, iy] * cy)


# ---------------------------------------------------------------------------
# Nested (strict bicausal) dynamic program


class _StateCapExceeded(Exception):
    pass


def nested_bicausal(x: FilteredTree, y: FilteredTree, p: float = 1.0,
                    state_cap: int = DEFAULT_STATE_CAP,
                    witness: bool = True, metric: str = "sup") -> DistanceReport:
    """Strict adapted (nested) distance by backward induction on node pairs.

    The sup-metric cost is carried as the running max along the ancestor
    pair, which the tree structure determines exactly; at each pair the
    child distributions are coupled by a small optimal transport whose costs
    are the child values.  Equals the shift-0 bicausal LP.  The l1 metric at
    p=1 is time-separable and accumulates instead.  If the state cap is
    exceeded (or l1 is combined with p>1, whose cost does not factorize)
    the global LP is used instead.
    """
    t0 = time.perf_counter()
    x, y = _prepare(x, y, p)
    if metric == "l1" and p != 1.0:
        rep = eps_bicausal_lp(x, y, EpsShift(0, 0.0), p, witness=witness,
                              metric=metric)
        rep.kind = "AW_strict"
        rep.diagnostics["dp_fallback"] = "l1 with p>1 is not separable"
        return rep
    n_levels = x.n_levels
    dt = np.diff(np.array((0.0,) + x.grid.times))
    memo = {}
    plans = {}
    lp_iters = 0

    xv, yv = x.level_values, y.level_values

    def node_dist(i, vi, wj):
        return float(np.linalg.norm(xv[i][vi] - yv[i][wj]))

    def solve(i, vi, wj, m):
        """m carries the running max (sup); unused for the separable l1."""
        nonlocal lp_iters
        key = (i, vi, wj)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) > state_cap:
            raise _StateCapExceeded
        if i == n_levels - 1:
            # l1 weights the terminal level by the extra point mass at t=1
            val = m ** p if metric == "sup" else node_dist(i, vi, wj)
            memo[key] = val
            return val
        local = dt[i] * node_dist(i, vi, wj) if metric == "l1" else 0.0
        cx = x.children[i][vi]
        cy = y.children[i][wj]
        cost = np.empty((len(cx), len(cy)))
        for a, c in enumerate(cx):
            for bqi, d in enumerate(cy):
                mm = max(m, node_dist(i + 1, c, d)) if metric == "sup" else 0.0
                cost[a, bqi] = solve(i + 1, c, d, mm)
        res = transport_lp(x.probs[i + 1][cx], y.probs[i + 1][cy], cost)
        lp_iters += res.iterations
        memo[key] = res.value + local
        if witness:
            plans[key] = res.x.reshape(len(cx), len(cy))
        return memo[key]

    capped = False
    try:
        rx, ry = x.probs[0], y.probs[0]
        root_cost = np.empty((rx.size, ry.size))
        for vi in range(rx.size):
            for wj in range(ry.size):
                root_cost[vi, wj] = solve(0, vi, wj, node_dist(0, vi, wj))
        root = transport_lp(rx, ry, root_cost)
        lp_iters += root.iterations
        value = max(root.value, 0.0) ** (1.0 / p)
    except _StateCapExceeded:
        capped = True
    finally:
        # solve refers to itself through its closure cell; clearing the cell
        # breaks that cycle, so memo, plans and both trees are freed on
        # return rather than at the next full garbage collection
        solve = None
    if capped:
        memo = plans = None  # not needed by the global LP below
        rep = eps_bicausal_lp(x, y, EpsShift(0, 0.0), p, witness=witness,
                              metric=metric)
        rep.kind = "AW_strict"
        rep.diagnostics["dp_fallback"] = "state cap exceeded"
        return rep

    cpl = None
    if witness:
        w = np.zeros((x.n_leaves, y.n_leaves))
        # leaf index of a terminal node equals its node index
        stack = []
        root_plan = root.x.reshape(rx.size, ry.size)
        for vi in range(rx.size):
            for wj in range(ry.size):
                if root_plan[vi, wj] > 0:
                    stack.append((0, vi, wj, root_plan[vi, wj]))
        while stack:
            i, vi, wj, mass = stack.pop()
            if i == n_levels - 1:
                w[vi, wj] += mass
                continue
            plan = plans[(i, vi, wj)]
            cx = x.children[i][vi]
            cy = y.children[i][wj]
            for a, c in enumerate(cx):
                for bqi, d in enumerate(cy):
                    if plan[a, bqi] > 0:
                        stack.append((i + 1, c, d, mass * plan[a, bqi]))
        cpl = Coupling(x, y, w)
    return DistanceReport("AW_strict", p, value, 0, 0.0, cpl,
                          {"lp_iterations": lp_iters, "dp_states": len(memo),
                           "runtime_s": time.perf_counter() - t0},
                          metric=metric)


# ---------------------------------------------------------------------------
# Global LPs with causality rows


def _causality_blocks(x, y, eps_steps, directions):
    blocks = [causality_constraints(x, y, eps_steps, d) for d in directions]
    nonempty = [bl for bl in blocks if bl.shape[0]]
    return np.vstack(nonempty) if nonempty else None


def _constrained_lp(x, y, eps_steps, p, directions, witness, cell_cap,
                    extra=None, metric="sup"):
    _cell_guard(x, y, cell_cap)
    cost = path_cost_matrix(x, y, metric) ** p
    if extra is None:
        extra = _causality_blocks(x, y, eps_steps, directions)
    rhs = np.zeros(extra.shape[0]) if extra is not None else None
    res = transport_lp(x.leaf_probs, y.leaf_probs, cost, extra, rhs)
    if res.status != "optimal":
        raise LPError(f"causality-constrained LP status {res.status} "
                      f"(infeasibility would contradict the product coupling)")
    value = max(res.value, 0.0) ** (1.0 / p)
    cpl = Coupling(x, y, res.x.reshape(x.n_leaves, y.n_leaves)) if witness else None
    nrows = 0 if extra is None else extra.shape[0]
    return value, cpl, res.iterations, nrows


def eps_bicausal_lp(x: FilteredTree, y: FilteredTree, eps, p: float = 1.0,
                    witness: bool = True, cell_cap: int = DEFAULT_CELL_CAP,
                    metric: str = "sup") -> DistanceReport:
    """Optimal transport over eps-bicausal couplings (no shift penalty added)."""
    t0 = time.perf_counter()
    x, y = _prepare(x, y, p)
    if isinstance(eps, int):
        eps = EpsShift.for_grid(x.grid, eps)
    value, cpl, iters, nrows = _constrained_lp(
        x, y, eps.steps, p, (X_TO_Y, Y_TO_X), witness, cell_cap, metric=metric)
    return DistanceReport("AW_eps", p, value, eps.steps, eps.epsilon_time, cpl,
                          {"lp_iterations": iters, "constraint_count": nrows,
                           "runtime_s": time.perf_counter() - t0},
                          metric=metric)


def _outer_minimize(x, y, p, directions, kind, penalty, use_dp, witness,
                    cell_cap, metric="sup"):
    """min over whole-grid shifts k of (constrained LP value + penalty(shift))."""
    t0 = time.perf_counter()
    if penalty is None:
        penalty = lambda e: e
    n = x.grid.n_steps
    w_rep = wasserstein(x, y, p, metric=metric, witness=witness)
    best = None
    evaluated = []
    total_iters = w_rep.diagnostics["lp_iterations"]
    for k in range(n + 1):
        et = x.grid.shift_time(k)
        pen = penalty(et)
        if best is not None and w_rep.value + pen >= best.value - 1e-12:
            break
        if k == 0 and k < n - 1 and use_dp and directions == (X_TO_Y, Y_TO_X):
            rep0 = nested_bicausal(x, y, p, witness=witness, metric=metric)
            value, cpl = rep0.value, rep0.coupling
            iters, nrows = rep0.diagnostics["lp_iterations"], 0
            vacuous = False
        else:
            extra = None if k >= n - 1 else _causality_blocks(x, y, k, directions)
            if extra is None:
                value, cpl, iters, nrows = w_rep.value, w_rep.coupling, 0, 0
                vacuous = True
            else:
                value, cpl, iters, nrows = _constrained_lp(
                    x, y, k, p, directions, witness, cell_cap, extra=extra,
                    metric=metric)
                vacuous = False
        total_iters += iters
        evaluated.append((k, value, pen))
        cand = DistanceReport(kind, p, value + pen, k, et, cpl,
                              {"constraint_count": nrows}, metric=metric)
        if best is None or cand.value < best.value - 1e-15:
            best = cand
        if vacuous:
            break
    best.diagnostics.update({
        "lp_iterations": total_iters,
        "evaluated_shifts": evaluated,
        "runtime_s": time.perf_counter() - t0,
    })
    return best


def aw(x: FilteredTree, y: FilteredTree, p: float = 1.0,
       penalty: Optional[Callable[[float], float]] = None,
       use_dp: bool = True, witness: bool = True,
       cell_cap: int = DEFAULT_CELL_CAP, metric: str = "sup") -> DistanceReport:
    """Adapted Wasserstein distance: transport over eps-bicausal couplings
    plus the (by default identity) penalty of the information shift,
    minimized over whole-grid shifts.

    Shifts larger than needed cannot help once the unconstrained optimum plus
    penalty exceeds the incumbent, so the scan over shifts prunes early; the
    shift-0 term is computed by the nested dynamic program when allowed.
    """
    x, y = _prepare(x, y, p)
    return _outer_minimize(x, y, p, (X_TO_Y, Y_TO_X), "AW", penalty,
                           use_dp, witness, cell_cap, metric=metric)


def cw(x: FilteredTree, y: FilteredTree, p: float = 1.0,
       penalty: Optional[Callable[[float], float]] = None,
       witness: bool = True, cell_cap: int = DEFAULT_CELL_CAP,
       metric: str = "sup") -> DistanceReport:
    """Causal distance: couplings eps-causal from x to y, penalty added,
    minimized over shifts.  Not symmetric."""
    x, y = _prepare(x, y, p)
    return _outer_minimize(x, y, p, (X_TO_Y,), "CW", penalty,
                           False, witness, cell_cap, metric=metric)


def scw(x: FilteredTree, y: FilteredTree, p: float = 1.0,
        penalty: Optional[Callable[[float], float]] = None,
        witness: bool = True, cell_cap: int = DEFAULT_CELL_CAP,
        metric: str = "sup") -> DistanceReport:
    """Symmetrized causal distance: max of the two directed causal distances.
    A backward witness is transposed, so the coupling runs from x to y."""
    t0 = time.perf_counter()
    fwd = cw(x, y, p, penalty, witness, cell_cap, metric)
    bwd = cw(y, x, p, penalty, witness, cell_cap, metric)
    top = fwd if fwd.value >= bwd.value else bwd
    cpl = top.coupling
    if top is bwd and cpl is not None:
        cpl = Coupling(cpl.right, cpl.left, cpl.weights.T)
    return DistanceReport("SCW", p, top.value, top.eps_steps, top.epsilon_time,
                          cpl,
                          {"forward": fwd.value, "backward": bwd.value,
                           "direction": X_TO_Y if top is fwd else Y_TO_X,
                           "lp_iterations": fwd.diagnostics["lp_iterations"]
                           + bwd.diagnostics["lp_iterations"],
                           "runtime_s": time.perf_counter() - t0},
                          metric=metric)


def strict_scw(x: FilteredTree, y: FilteredTree, p: float = 1.0,
               witness: bool = True, cell_cap: int = DEFAULT_CELL_CAP,
               metric: str = "sup") -> DistanceReport:
    """Symmetrized causal distance with the shift forced to zero."""
    t0 = time.perf_counter()
    x, y = _prepare(x, y, p)
    vals = []
    iters = 0
    cpl = direction = None
    for d in (X_TO_Y, Y_TO_X):
        value, c, it, _ = _constrained_lp(x, y, 0, p, (d,), witness,
                                          cell_cap, metric=metric)
        vals.append(value)
        iters += it
        if value == max(vals):
            cpl, direction = c, d
    return DistanceReport("SCW_strict", p, max(vals), 0, 0.0, cpl,
                          {"forward": vals[0], "backward": vals[1],
                           "direction": direction,
                           "lp_iterations": iters,
                           "runtime_s": time.perf_counter() - t0},
                          metric=metric)


# ---------------------------------------------------------------------------
# Hellwig information metric


def _ot_value(p, q, cost) -> float:
    res = transport_lp(np.asarray(p, float), np.asarray(q, float), cost)
    if res.status != "optimal":
        raise LPError(f"inner transport status {res.status}")
    return max(res.value, 0.0)


def hellwig(x: FilteredTree, y: FilteredTree) -> DistanceReport:
    """Time-integrated weak distance between the laws of the rank-1
    prediction processes, all ground metrics truncated at 1.

    Level term: W1 between the two distributions-over-conditional-laws,
    ground distance W1 between conditional laws with path ground sup^1.
    The integral weights each level by its time gap (the segment starting at
    the root time included); the terminal term is added unweighted.
    """
    t0 = time.perf_counter()
    x, y = _prepare(x, y, 1.0)
    base = np.minimum(path_cost_matrix(x, y), 1.0)
    cx, cy = rank1_conditional_laws(x), rank1_conditional_laws(y)
    times = np.array((0.0,) + x.grid.times)
    n_levels = x.n_levels
    total = 0.0
    level_terms = []
    for i in range(n_levels):
        px = x.node_probs[i]
        py = y.node_probs[i]
        ground = np.empty((px.size, py.size))
        for a in range(px.size):
            wa, la = cx[i][a]
            for b in range(py.size):
                wb, lb = cy[i][b]
                ground[a, b] = _ot_value(wa, wb, base[np.ix_(la, lb)])
        term = _ot_value(px, py, ground)
        level_terms.append(term)
        if i < n_levels - 1:
            total += (times[i + 1] - times[i]) * term
        else:
            total += term
    return DistanceReport("Hellwig", 1.0, total, None, 0.0, None,
                          {"level_terms": level_terms,
                           "runtime_s": time.perf_counter() - t0})
