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

import functools
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coupling import (Coupling, EpsShift, X_TO_Y, Y_TO_X, _causal_walk,
                       _level_weights, causality_constraints, is_eps_bicausal,
                       is_eps_causal, path_cost_matrix, transport_cost)
from .lp import LPError, transport_batch, transport_lp, transport_values
from .trees import FilteredTree, _path_ids, align, check_valid

DEFAULT_CELL_CAP = 40_000
DEFAULT_STATE_CAP = 6_000_000
# A witness's recomputed cost must match the reported value within this,
# the residual (lp.RESID_TOL) that a returned plan may carry.
WITNESS_TOL = 1e-8
# A shift scan stops once W plus the penalty comes within this of the
# incumbent: no larger shift can then beat it by more than rounding.
PRUNE_MARGIN = 1e-12
# A later shift replaces the incumbent only when lower by more than this,
# so a tie keeps the smaller shift.
INCUMBENT_MARGIN = 1e-15


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

    def verify_witness(self, tol: float = WITNESS_TOL) -> bool:
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
    hk_minimize because the law is).  The atoms of each law are its
    distinct leaf paths: their costs are gathered from the leaf-pair cost
    at each atom's first leaf, their weights summed over their leaves, and
    the plan of an atom pair is split over its leaf pairs in proportion to
    the leaf masses."""
    t0 = time.perf_counter()
    x, y = _prepare(x, y, p, metric)
    (fx, ix), (fy, iy) = _path_ids(x.leaf_paths), _path_ids(y.leaf_paths)
    wx, wy = np.bincount(ix, x.leaf_probs), np.bincount(iy, y.leaf_probs)
    cost = path_cost_matrix(x, y, metric)[np.ix_(fx, fy)]
    res = transport_lp(wx, wy, cost ** p)
    if res.status != "optimal":
        raise LPError(f"transport LP ended with status {res.status}")
    value = max(res.value, 0.0) ** (1.0 / p)
    cpl = None
    if witness:
        plan = res.x.reshape(wx.size, wy.size)
        cx, cy = x.leaf_probs / wx[ix], y.leaf_probs / wy[iy]
        cpl = Coupling(x, y, cx[:, None] * plan[ix][:, iy] * cy)
    return DistanceReport("W", p, value, None, 0.0, cpl,
                          {"lp_iterations": res.iterations,
                           "constraint_count": wx.size + wy.size,
                           "runtime_s": time.perf_counter() - t0},
                          metric=metric)


# ---------------------------------------------------------------------------
# Nested (strict bicausal) dynamic program


def nested_bicausal(x: FilteredTree, y: FilteredTree, p: float = 1.0,
                    state_cap: int = DEFAULT_STATE_CAP,
                    witness: bool = True, metric: str = "sup") -> DistanceReport:
    """Strict adapted (nested) distance by backward induction over arrays of
    node pairs, one per level.  The terminal cost is the leaf-pair cost
    `path_cost_matrix(x, y, metric) ** p`; going back, the children of
    every pair are coupled by an optimal transport at the child values.
    Equals the shift-0 bicausal LP, which is solved instead when the node
    pairs summed over levels exceed `state_cap`, and for l1 with p>1."""
    t0 = time.perf_counter()
    x, y = _prepare(x, y, p, metric)
    states = sum(len(a) * len(b) for a, b in zip(x.levels, y.levels))
    # the DP would serve l1 with p>1 too; only the benchmark's check on
    # AW_strict_p2:ce2 keeps this LP (ROADMAP item 7 removes both)
    fallback = ("l1 with p>1 is not separable" if metric == "l1" and p != 1.0
                else "state cap exceeded" if states > state_cap else None)
    if fallback:
        rep = eps_bicausal_lp(x, y, 0, p, witness, metric=metric)
        rep.kind = "AW_strict"
        rep.diagnostics["dp_fallback"] = fallback
        return rep
    n_levels = x.n_levels
    value = path_cost_matrix(x, y, metric) ** p
    plans = [None] * n_levels
    lp_iters = 0
    for i in range(n_levels - 1, -1, -1):
        value, plan, iters = _child_transports(x, y, i, value)
        lp_iters += iters
        plans[i] = plan if witness else None
    value = max(float(value[0, 0]), 0.0) ** (1.0 / p)

    cpl = None
    if witness:
        # a leaf pair's mass is the product of the conditional plans along
        # its ancestor pairs; leaf index of a terminal node is its node index
        mass = np.ones((1, 1))
        for i in range(n_levels):
            mass = mass[x.parents[i]][:, y.parents[i]] * plans[i]
        cpl = Coupling(x, y, mass)
    return DistanceReport("AW_strict", p, value, 0, 0.0, cpl,
                          {"lp_iterations": lp_iters, "dp_states": states,
                           "runtime_s": time.perf_counter() - t0},
                          metric=metric)


def _child_transports(x, y, level, child_value):
    """Couple the children of every parent pair of `level` (level 0 hangs
    from one virtual root pair) at the costs `child_value`, one group per
    pair of child counts, all in one `transport_batch` call.  Returns the
    values over the parent pairs, the conditional plans over the pairs at
    `level` and the iterations."""
    bx, by = x.child_blocks[level], y.child_blocks[level]
    groups, slots = _pair_groups(bx, by, child_value)
    solved, iters = transport_batch(groups)
    del groups   # frees the gathered costs before the write-back
    values = np.empty((sum(len(v) for v, _, _ in bx), sum(len(v) for v, _, _ in by)))
    plans = np.empty(child_value.shape)
    for (at, to), (val, plan) in zip(slots, solved):
        values.put(np.add(*at), val)
        plans.put(np.add(*to), plan)
    return values, plans, iters


def _pair_groups(bx, by, cost):
    """`transport_batch` groups coupling every x owner with every y owner,
    one per pair of blocks (owners, members, weights) of the trees'
    `child_blocks` or `law_blocks`, members indexing rows (x) or columns
    (y) of `cost`.  Returns the groups, x-major, and per group the x and y
    parts that sum to the flat indices of its owner pairs and its cells."""
    ny = sum(len(v) for v, _, _ in by)
    flat = cost.ravel()
    groups, slots = [], []
    for vx, mx, wx in bx:
        rows = (mx * cost.shape[1])[:, None, :, None]
        for vy, my, wy in by:
            cells = rows, my[:, None, :]   # (x owner, y owner, x member, y member)
            groups.append((wx.repeat(len(vy), axis=0),
                           wy[None].repeat(len(vx), axis=0).reshape(-1, my.shape[1]),
                           flat[np.add(*cells)].reshape(-1, mx.shape[1], my.shape[1])))
            slots.append(((vx[:, None] * ny, vy), cells))
    return groups, slots


# ---------------------------------------------------------------------------
# Global LPs with causality rows


def _causality_blocks(x, y, eps_steps, directions):
    rows = np.vstack([causality_constraints(x, y, eps_steps, d) for d in directions])
    return rows if rows.shape[0] else None


def _shift_time(x, y, steps, directions) -> float:
    """Real time delay of a shift: the largest t_j - t_i along the walks."""
    t = x.grid.level_time
    return max((t(j) - t(i) for d in directions
                for i, j, *_ in _causal_walk(x, y, steps, d)), default=0.0)


def _constrained_lp(x, y, p, eps_steps, directions, witness, metric):
    """Transport under the causality rows, capped before any row is built."""
    cells = x.n_leaves * y.n_leaves
    if cells > DEFAULT_CELL_CAP:
        raise ValueError(f"leaf product {cells} exceeds LP cap {DEFAULT_CELL_CAP}")
    extra = _causality_blocks(x, y, eps_steps, directions)
    cost = path_cost_matrix(x, y, metric) ** p
    res = transport_lp(x.leaf_probs, y.leaf_probs, cost, extra)
    if res.status != "optimal":
        raise LPError(f"causality-constrained LP status {res.status} "
                      f"(infeasibility would contradict the product coupling)")
    value = max(res.value, 0.0) ** (1.0 / p)
    cpl = Coupling(x, y, res.x.reshape(x.n_leaves, y.n_leaves)) if witness else None
    nrows = 0 if extra is None else extra.shape[0]
    return value, cpl, res.iterations, nrows


def eps_bicausal_lp(x: FilteredTree, y: FilteredTree, eps, p: float = 1.0,
                    witness: bool = True, metric: str = "sup") -> DistanceReport:
    """Optimal transport over eps-bicausal couplings (no shift penalty added).
    `eps` is an EpsShift or a whole number of grid steps."""
    t0 = time.perf_counter()
    x, y = _prepare(x, y, p, metric)
    if not isinstance(eps, EpsShift):
        try:
            k = EpsShift(operator.index(eps), 0.0).steps  # rejects k < 0
        except TypeError:
            raise ValueError(f"eps must be an integer or an EpsShift, "
                             f"got {eps!r}") from None
        eps = EpsShift(k, _shift_time(x, y, k, (X_TO_Y, Y_TO_X)))
    value, cpl, iters, nrows = _constrained_lp(x, y, p, eps.steps,
                                               (X_TO_Y, Y_TO_X), witness, metric)
    return DistanceReport("AW_eps", p, value, eps.steps, eps.epsilon_time, cpl,
                          {"lp_iterations": iters, "constraint_count": nrows,
                           "runtime_s": time.perf_counter() - t0},
                          metric=metric)


def _lazy_wasserstein(x, y, p, witness, metric):
    """W for (x, y), solved on the first call only."""
    return functools.cache(
        lambda: wasserstein(x, y, p, metric=metric, witness=witness))


def _scan(x, y, p, directions, kind, penalty, last_shift, witness, metric, w):
    """min over the shifts k = 0..last_shift of (transport under the
    causality rows of `directions` at k) + penalty(time of the shift).

    Once W + penalty reaches the incumbent no larger shift can win, so the
    scan stops; it also stops at the first shift whose rows the marginals
    imply, which takes W's value and witness.  `w` gives W for (x, y) and
    may be shared between scans; its iterations count in the scan that
    solves it.  With both directions and more than one step, shift 0 is the
    nested DP."""
    t0 = time.perf_counter()
    best, evaluated, iters = None, [], 0
    w_solved = w.cache_info().currsize
    for k in range(last_shift + 1):
        et = _shift_time(x, y, k, directions)
        pen = float(et if penalty is None else penalty(et))
        if not 0.0 <= pen < np.inf:
            raise ValueError(f"penalty must be finite and nonnegative, got "
                             f"{pen!r} at shift time {et!r}")
        if best is not None and w().value + pen >= best.value - PRUNE_MARGIN:
            break
        dp = k == 0 and x.grid.n_steps > 1 and directions == (X_TO_Y, Y_TO_X)
        # the marginals imply every row when each source atom is one leaf
        implied = not dp and all(ax.max() + 1 == ax.size for d in directions
                                 for _, _, ax, _, _ in _causal_walk(x, y, k, d))
        if dp:
            rep = nested_bicausal(x, y, p, witness=witness, metric=metric)
            value, cpl, it, nrows = (rep.value, rep.coupling,
                                     rep.diagnostics["lp_iterations"], 0)
        elif implied:
            value, cpl, it, nrows = w().value, w().coupling, 0, 0
        else:
            value, cpl, it, nrows = _constrained_lp(x, y, p, k, directions,
                                                    witness, metric)
        iters += it
        evaluated.append((k, value, pen))
        if best is None or value + pen < best.value - INCUMBENT_MARGIN:
            best = DistanceReport(kind, p, value + pen, k, et, cpl,
                                  {"constraint_count": nrows, "penalty": pen},
                                  metric=metric)
        if implied:
            break
    if w.cache_info().currsize > w_solved:
        iters += w().diagnostics["lp_iterations"]
    best.diagnostics.update({"lp_iterations": iters,
                             "evaluated_shifts": evaluated,
                             "runtime_s": time.perf_counter() - t0})
    return best


def _symmetrized(x, y, p, kind, penalty, last_shift, witness, metric):
    """The larger of the x-to-y and y-to-x scans over one (x, y) pair and
    one W, ties going to x to y; both witnesses run from x to y."""
    t0 = time.perf_counter()
    w = _lazy_wasserstein(x, y, p, witness, metric)
    fwd, bwd = (_scan(x, y, p, (d,), kind, penalty, last_shift, witness,
                      metric, w) for d in (X_TO_Y, Y_TO_X))
    top = fwd if fwd.value >= bwd.value else bwd
    top.diagnostics.update({
        "forward": fwd.value, "backward": bwd.value,
        "direction": X_TO_Y if top is fwd else Y_TO_X,
        "lp_iterations": fwd.diagnostics["lp_iterations"]
        + bwd.diagnostics["lp_iterations"],
        "evaluated_shifts": fwd.diagnostics["evaluated_shifts"]
        + bwd.diagnostics["evaluated_shifts"],
        "runtime_s": time.perf_counter() - t0})
    return top


def aw(x: FilteredTree, y: FilteredTree, p: float = 1.0,
       penalty: Optional[Callable[[float], float]] = None,
       witness: bool = True, metric: str = "sup") -> DistanceReport:
    """Adapted Wasserstein distance: transport over eps-bicausal couplings
    plus the (by default identity) penalty of the information shift,
    minimized over whole-grid shifts.

    Shifts larger than needed cannot help once the unconstrained optimum plus
    penalty exceeds the incumbent, so the scan over shifts prunes early; the
    shift-0 term comes from the nested dynamic program on grids of more
    than one step.
    """
    x, y = _prepare(x, y, p, metric)
    return _scan(x, y, p, (X_TO_Y, Y_TO_X), "AW", penalty, x.grid.n_steps,
                 witness, metric, _lazy_wasserstein(x, y, p, witness, metric))


def cw(x: FilteredTree, y: FilteredTree, p: float = 1.0,
       penalty: Optional[Callable[[float], float]] = None,
       witness: bool = True, metric: str = "sup") -> DistanceReport:
    """Causal distance: couplings eps-causal from x to y, penalty added,
    minimized over shifts.  Not symmetric."""
    x, y = _prepare(x, y, p, metric)
    return _scan(x, y, p, (X_TO_Y,), "CW", penalty, x.grid.n_steps, witness,
                 metric, _lazy_wasserstein(x, y, p, witness, metric))


def scw(x: FilteredTree, y: FilteredTree, p: float = 1.0,
        penalty: Optional[Callable[[float], float]] = None,
        witness: bool = True, metric: str = "sup") -> DistanceReport:
    """Symmetrized causal distance: max of the two directed causal distances,
    the direction that gave it in diagnostics["direction"]."""
    x, y = _prepare(x, y, p, metric)
    return _symmetrized(x, y, p, "SCW", penalty, x.grid.n_steps, witness,
                        metric)


def strict_scw(x: FilteredTree, y: FilteredTree, p: float = 1.0,
               witness: bool = True, metric: str = "sup") -> DistanceReport:
    """Symmetrized causal distance with the shift forced to zero."""
    x, y = _prepare(x, y, p, metric)
    return _symmetrized(x, y, p, "SCW_strict", None, 0, witness, metric)


# ---------------------------------------------------------------------------
# Hellwig information metric


def hellwig(x: FilteredTree, y: FilteredTree) -> DistanceReport:
    """Time-integrated weak distance between the laws of the rank-1
    prediction processes, all ground metrics truncated at 1.

    Level term: W1 between the two distributions-over-conditional-laws,
    ground distance W1 between conditional laws with path ground sup^1.
    The level terms are integrated against dt + delta_1, with the level
    weights of the l1 path metric.

    The levels are independent, so the ground transports of every level,
    grouped by the sizes of the two conditional laws (the trees'
    `law_blocks`), go into one `transport_values` call, and the level
    transports into a second one.
    """
    t0 = time.perf_counter()
    x, y = _prepare(x, y, 1.0)
    base = np.minimum(path_cost_matrix(x, y), 1.0)
    ground = [np.empty((len(a), len(b))) for a, b in zip(x.levels, y.levels)]
    groups, slots = [], []
    for lx, ly, g in zip(x.law_blocks, y.law_blocks, ground):
        level_groups, level_slots = _pair_groups(lx, ly, base)
        groups += level_groups
        slots += [(g, at) for at, _ in level_slots]
    solved, iters = transport_values(groups)
    for (g, at), val in zip(slots, solved):
        g.put(np.add(*at), np.maximum(val, 0.0))
    solved, outer_iters = transport_values([(a[None], b[None], g[None]) for a, b, g
                                            in zip(x.node_probs, y.node_probs, ground)])
    level_terms = [max(float(val[0]), 0.0) for val in solved]
    total = float(sum(w * term for w, term in
                      zip(_level_weights(x.grid), level_terms)))
    return DistanceReport("Hellwig", 1.0, total, None, 0.0, None,
                          {"level_terms": level_terms,
                           "lp_iterations": iters + outer_iters,
                           "runtime_s": time.perf_counter() - t0})
