"""The distance family on scenario trees.

Plain Wasserstein, strict bicausal (nested) via backward dynamic
programming, eps-bicausal and eps-causal via global LPs, the outer
minimization over the information shift, and the Hellwig metric via nested
transport problems.

The bicausal problem at shift 0 factorizes into per-node-pair transport
subproblems, solved backwards one level at a time over arrays of node pairs,
with the transports of equal shape batched; any positive shift misaligns
the conditioning and is solved as one global LP over leaf-pair cells, which
is why leaf products are capped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coupling import (Coupling, EpsShift, X_TO_Y, Y_TO_X, _constraint_levels,
                       _path_distances, causality_constraints, is_eps_bicausal,
                       is_eps_causal, path_cost_matrix, transport_cost)
from .lp import LPError, transport_batch, transport_lp
from .prediction import rank1_conditional_laws
from .trees import FilteredTree, align, check_valid, law, _path_ids

DEFAULT_CELL_CAP = 40_000
DEFAULT_STATE_CAP = 6_000_000


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
        """Check feasibility of the witness and that it reproduces the value
        less the shift penalty recorded in the diagnostics."""
        if self.coupling is None:
            return True
        self.coupling.check()
        cost = transport_cost(self.coupling, self.p, self.metric)
        if abs(cost - (self.value - self.diagnostics.get("penalty", 0.0))) > tol:
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


def _prepare(x: FilteredTree, y: FilteredTree, p: float, metric: str = "sup"):
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p!r}")
    if metric not in ("sup", "l1"):
        raise ValueError(f"unknown metric {metric!r}")
    check_valid(x)
    check_valid(y)
    return align(x, y)


# ---------------------------------------------------------------------------
# Plain Wasserstein


def wasserstein(x: FilteredTree, y: FilteredTree, p: float = 1.0,
                metric: str = "sup", witness: bool = True) -> DistanceReport:
    """W_p between the path laws (filtration-blind; invariant under
    hk_minimize because the law is)."""
    t0 = time.perf_counter()
    x, y = _prepare(x, y, p, metric)
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


def nested_bicausal(x: FilteredTree, y: FilteredTree, p: float = 1.0,
                    state_cap: int = DEFAULT_STATE_CAP,
                    witness: bool = True, metric: str = "sup") -> DistanceReport:
    """Strict adapted (nested) distance by backward induction over arrays of
    node pairs, one per level.  The sup-metric cost, the running max of the
    node distances along the ancestor pairs, is built forward; going back,
    the children of every pair are coupled by an optimal transport at the
    child values.  The l1 metric at p=1 is time-separable and accumulates
    instead.  Equals the shift-0 bicausal LP, which is solved instead when
    the node pairs summed over levels exceed `state_cap` (or for l1 with
    p>1, whose cost does not factorize)."""
    t0 = time.perf_counter()
    x, y = _prepare(x, y, p, metric)
    states = sum(len(a) * len(b) for a, b in zip(x.levels, y.levels))
    fallback = ("l1 with p>1 is not separable" if metric == "l1" and p != 1.0
                else "state cap exceeded" if states > state_cap else None)
    if fallback:
        rep = eps_bicausal_lp(x, y, 0, p, witness, metric=metric)
        rep.kind = "AW_strict"
        rep.diagnostics["dp_fallback"] = fallback
        return rep
    n_levels = x.n_levels

    def dist(i):
        return np.linalg.norm(x.level_values[i][:, None, :]
                              - y.level_values[i][None, :, :], axis=-1)

    def lift(pairs, i):  # a level-(i-1) pair array at the level-i pairs
        return pairs[x.parents[i]][:, y.parents[i]]

    if metric == "sup":
        value = dist(0)
        for i in range(1, n_levels):
            value = np.maximum(lift(value, i), dist(i))
        value = value ** p
    else:
        # l1 weights the terminal level by the extra point mass at t=1
        value = dist(n_levels - 1)
    plans = [None] * n_levels
    lp_iters = 0
    for i in range(n_levels - 1, -1, -1):
        value, plan, iters = _child_transports(x, y, i, value)
        lp_iters += iters
        plans[i] = plan if witness else None
        if metric == "l1" and i:
            value = value + (x.level_time(i) - x.level_time(i - 1)) * dist(i - 1)
    value = max(float(value[0, 0]), 0.0) ** (1.0 / p)

    cpl = None
    if witness:
        # a leaf pair's mass is the product of the conditional plans along
        # its ancestor pairs; leaf index of a terminal node is its node index
        mass = np.ones((1, 1))
        for i in range(n_levels):
            mass = lift(mass, i) * plans[i]
        cpl = Coupling(x, y, mass)
    return DistanceReport("AW_strict", p, value, 0, 0.0, cpl,
                          {"lp_iterations": lp_iters, "dp_states": states,
                           "runtime_s": time.perf_counter() - t0},
                          metric=metric)


def _child_transports(x, y, level, child_value):
    """Couple the children of every parent pair of `level` (level 0 hangs
    from one virtual root pair) at the costs `child_value`, one batch per
    pair of child counts.  Returns the values over the parent pairs, the
    conditional plans over the pairs at `level` and the iterations."""
    bx, by = _sibling_blocks(x, level), _sibling_blocks(y, level)
    values = np.empty((sum(v.size for v, _ in bx), sum(v.size for v, _ in by)))
    plans = np.empty(child_value.shape)
    iters = 0
    for vx, cx in bx:
        for vy, cy in by:
            (nx, a), (ny, b) = cx.shape, cy.shape
            cells = (cx[:, None, :, None], cy[None, :, None, :])
            p = np.broadcast_to(x.probs[level][cx][:, None], (nx, ny, a))
            q = np.broadcast_to(y.probs[level][cy], (nx, ny, b))
            val, plan, it = transport_batch(p.reshape(-1, a), q.reshape(-1, b),
                                            child_value[cells].reshape(-1, a, b))
            values[np.ix_(vx, vy)] = val.reshape(nx, ny)
            plans[cells] = plan.reshape(nx, ny, a, b)
            iters += it
    return values, plans, iters


def _sibling_blocks(tree, level):
    """(parents, children) per child count of the parents of `level`, with
    children[r] the children of parents[r] in index order."""
    up = tree.parents[level]
    count = np.bincount(up)
    first = np.cumsum(count) - count
    order = np.argsort(up, kind="stable")
    return [(nodes, order[first[nodes][:, None] + np.arange(count[nodes[0]])])
            for nodes in (np.flatnonzero(count == k) for k in np.unique(count))]


# ---------------------------------------------------------------------------
# Global LPs with causality rows


def _causality_blocks(x, y, eps_steps, directions):
    blocks = [causality_constraints(x, y, eps_steps, d) for d in directions]
    nonempty = [bl for bl in blocks if bl.shape[0]]
    return np.vstack(nonempty) if nonempty else None


def _shift_time(x, y, steps, directions) -> float:
    """Real time delay of a shift of `steps` levels: the largest t_j - t_i
    over the constraint levels (i, j) of `directions`."""
    t = x.grid.level_time
    return max((t(j) - t(i) for d in directions
                for i, j in _constraint_levels(y if d == X_TO_Y else x, steps)),
               default=0.0)


def _constrained_lp(x, y, eps_steps, p, directions, witness, cell_cap,
                    extra=None, metric="sup"):
    cells = x.n_leaves * y.n_leaves
    if cells > cell_cap:
        raise ValueError(f"leaf product {cells} exceeds LP cap {cell_cap}")
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
    x, y = _prepare(x, y, p, metric)
    if isinstance(eps, int):
        eps = EpsShift(eps, _shift_time(x, y, eps, (X_TO_Y, Y_TO_X)))
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
        et = _shift_time(x, y, k, directions)
        pen = float(penalty(et))
        if best is not None and w_rep.value + pen >= best.value - 1e-12:
            break
        if k == 0 and k < n - 1 and use_dp and directions == (X_TO_Y, Y_TO_X):
            rep0 = nested_bicausal(x, y, p, witness=witness, metric=metric)
            value, cpl = rep0.value, rep0.coupling
            iters, nrows = rep0.diagnostics["lp_iterations"], 0
            vacuous = False
        else:
            extra = _causality_blocks(x, y, k, directions)
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
                              {"constraint_count": nrows, "penalty": pen},
                              metric=metric)
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
    x, y = _prepare(x, y, p, metric)
    return _outer_minimize(x, y, p, (X_TO_Y, Y_TO_X), "AW", penalty,
                           use_dp, witness, cell_cap, metric=metric)


def cw(x: FilteredTree, y: FilteredTree, p: float = 1.0,
       penalty: Optional[Callable[[float], float]] = None,
       witness: bool = True, cell_cap: int = DEFAULT_CELL_CAP,
       metric: str = "sup") -> DistanceReport:
    """Causal distance: couplings eps-causal from x to y, penalty added,
    minimized over shifts.  Not symmetric."""
    x, y = _prepare(x, y, p, metric)
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
                           "penalty": top.diagnostics["penalty"],
                           "lp_iterations": fwd.diagnostics["lp_iterations"]
                           + bwd.diagnostics["lp_iterations"],
                           "runtime_s": time.perf_counter() - t0},
                          metric=metric)


def strict_scw(x: FilteredTree, y: FilteredTree, p: float = 1.0,
               witness: bool = True, cell_cap: int = DEFAULT_CELL_CAP,
               metric: str = "sup") -> DistanceReport:
    """Symmetrized causal distance with the shift forced to zero."""
    t0 = time.perf_counter()
    x, y = _prepare(x, y, p, metric)
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
