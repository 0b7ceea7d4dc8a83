"""Optimal stopping on scenario trees: Snell recursion, stopping-time
transfer across eps-causal couplings, modulus of continuity, martingale
defect, and the quantitative stability bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coupling import (Coupling, EpsShift, X_TO_Y, is_eps_bicausal, is_eps_causal,
                       transport_cost)
from .trees import FilteredTree, check_valid


# ---------------------------------------------------------------------------
# Cost functions

@dataclass(frozen=True)
class CostFunction:
    """Non-anticipative cost: the evaluator only ever sees the path prefix
    up to the stopping time, so anticipation is ruled out structurally.

    fn(prefix, t): prefix has shape (k+1, dim) holding the values at levels
    0..k where k is the level whose time interval contains t; t may be any
    real in [0, 1] (times past 1 are clamped by callers).
    """

    fn: Callable[[np.ndarray, float], float]
    name: str = ""
    bounded: bool = True
    lipschitz: Optional[float] = None


def _psi_by_name(spec: str):
    spec = spec.strip()
    if spec == "identity":
        return (lambda v: v), "identity"
    if spec == "abs":
        return (lambda v: abs(v)), "abs"
    if spec.startswith("call(") and spec.endswith(")"):
        k = float(spec[5:-1])
        return (lambda v: max(v - k, 0.0)), spec
    if spec.startswith("put(") and spec.endswith(")"):
        k = float(spec[4:-1])
        return (lambda v: max(k - v, 0.0)), spec
    raise ValueError(f"unknown psi {spec!r}")


def state_cost(psi, name: str = "", lipschitz: Optional[float] = 1.0) -> CostFunction:
    """phi(f, t) = psi(f(t)), evaluated on the first coordinate."""
    return CostFunction(lambda prefix, t: psi(float(prefix[-1, 0])),
                        name or "state", lipschitz=lipschitz)


def running_max_cost(psi, name: str = "", lipschitz: Optional[float] = 1.0) -> CostFunction:
    """phi(f, t) = psi(max_{s<=t} f(s)) on the first coordinate."""
    return CostFunction(lambda prefix, t: psi(float(prefix[:, 0].max())),
                        name or "running-max", lipschitz=lipschitz)


def terminal_cost(psi, name: str = "") -> CostFunction:
    """Stopping before the horizon is forbidden (infinite cost)."""
    def fn(prefix, t):
        if t < 1.0 - 1e-12:
            return np.inf
        return psi(float(prefix[-1, 0]))
    return CostFunction(fn, name or "terminal", bounded=False, lipschitz=None)


def cost_by_name(spec: str) -> CostFunction:
    """Parse e.g. 'state:identity', 'running-max:call(0.5)', 'terminal:abs',
    'example-E1' (the state-identity cost of the jump counterexample)."""
    if spec == "example-E1":
        return state_cost(lambda v: v, "example-E1")
    kind, _, psi_spec = spec.partition(":")
    psi, pname = _psi_by_name(psi_spec or "identity")
    name = f"{kind}:{pname}"
    if kind == "state":
        return state_cost(psi, name)
    if kind == "running-max":
        return running_max_cost(psi, name)
    if kind == "terminal":
        return terminal_cost(psi, name)
    raise ValueError(f"unknown cost kind {spec!r}")


def lipschitz_battery():
    """The 1-Lipschitz costs used by the quantitative stability checks."""
    out = []
    for kind in ("state", "running-max"):
        for psi in ("identity", "abs", "call(0.25)", "put(0.5)"):
            out.append(cost_by_name(f"{kind}:{psi}"))
    return out


# ---------------------------------------------------------------------------
# Stopping rules

@dataclass
class StoppingRule:
    """Per-node stop/continue decisions; stopping is forced at the last level
    and decisions below a stopped node are irrelevant."""

    tree: FilteredTree
    stop: list  # per level, boolean array over nodes

    def __post_init__(self):
        n = self.tree.n_levels
        if len(self.stop) != n:
            raise ValueError("decision levels do not match the tree")
        self.stop = [np.asarray(s, dtype=bool) for s in self.stop]
        if not self.stop[-1].all():
            raise ValueError("stopping must be forced at the terminal level")

    def stop_level(self, leaf: int) -> int:
        anc = self.tree.ancestors
        for i in range(self.tree.n_levels):
            if self.stop[i][anc[i][leaf]]:
                return i
        return self.tree.n_levels - 1

    def stop_levels(self) -> np.ndarray:
        return np.array([self.stop_level(k) for k in range(self.tree.n_leaves)])

    def stop_times(self) -> np.ndarray:
        return np.array([self.tree.level_time(i) for i in self.stop_levels()])


def random_rule(tree: FilteredTree, rng, p_stop: float = 0.35) -> StoppingRule:
    stop = [rng.random(len(lv)) < p_stop for lv in tree.levels]
    stop[-1][:] = True
    return StoppingRule(tree, stop)


def eval_rule(tree: FilteredTree, rule: StoppingRule, phi: CostFunction) -> float:
    levels = rule.stop_levels()
    total = 0.0
    for k in range(tree.n_leaves):
        i = levels[k]
        total += tree.leaf_probs[k] * phi.fn(tree.leaf_paths[k, :i + 1],
                                             tree.level_time(i))
    return float(total)


def eval_phi_at_time(tree: FilteredTree, leaf: int, t: float, phi: CostFunction) -> float:
    """phi along a leaf path at an arbitrary real time (clamped to [0,1])."""
    t = min(max(t, 0.0), 1.0)
    lev = tree.grid.floor_level(t)
    return phi.fn(tree.leaf_paths[leaf, :lev + 1], t)


# ---------------------------------------------------------------------------
# Snell recursion

@dataclass
class OSResult:
    value: float
    rule: StoppingRule
    node_values: list = field(default_factory=list)


def snell_os(tree: FilteredTree, phi: CostFunction, variant: str = "inf") -> OSResult:
    """Optimal stopping value by backward recursion.

    variant "inf" minimizes E[phi(X, tau)]; "sup" maximizes (computed as the
    infimum for the negated cost).  Ties stop early.  A non-finite cost at a
    forced terminal stop is an error; +inf above the terminal level simply
    means "never stop here".
    """
    check_valid(tree)
    sign = 1.0 if variant == "inf" else -1.0
    if variant not in ("inf", "sup"):
        raise ValueError("variant must be 'inf' or 'sup'")
    n = tree.n_levels
    values = [None] * n
    stop = [None] * n
    # representative leaf per node gives the value prefix along its ancestry
    rep = [np.zeros(len(lv), dtype=int) for lv in tree.levels]
    for i in range(n):
        rep[i][tree.ancestors[i]] = np.arange(tree.n_leaves)
    for i in range(n - 1, -1, -1):
        t = tree.level_time(i)
        here = np.array([sign * phi.fn(tree.leaf_paths[r, :i + 1], t) for r in rep[i]])
        if i == n - 1:
            if not np.isfinite(here).all():
                raise ValueError("cost is not finite at a forced stop")
            values[i], stop[i] = here, np.ones(here.size, dtype=bool)
            continue
        cont = tree.children_sum(i, values[i + 1])
        stop[i] = here <= cont
        values[i] = np.where(stop[i], here, cont)
    root = tree.children_sum(-1, values[0])[0]
    return OSResult(sign * float(root), StoppingRule(tree, stop),
                    [sign * v for v in values])


def brute_force_os(tree: FilteredTree, phi: CostFunction, variant: str = "inf") -> float:
    """Enumerate the achievable expected costs of every stopping rule.

    Exponential; intended as the oracle for small trees only.
    """
    check_valid(tree)
    sign = 1.0 if variant == "inf" else -1.0
    n = tree.n_levels
    rep = [np.zeros(len(lv), dtype=int) for lv in tree.levels]
    for i in range(n):
        rep[i][tree.ancestors[i]] = np.arange(tree.n_leaves)

    def options(i, v):
        here = sign * phi.fn(tree.leaf_paths[rep[i][v], :i + 1], tree.level_time(i))
        if i == n - 1:
            return [here]
        kid_opts = [
            [tree.levels[i + 1][c].prob * o for o in options(i + 1, c)]
            for c in tree.children[i][v]
        ]
        sums = [0.0]
        for ko in kid_opts:
            sums = [s + o for s in sums for o in ko]
        if np.isfinite(here):
            sums.append(here)
        return sums

    roots = [[nd.prob * o for o in options(0, j)]
             for j, nd in enumerate(tree.levels[0])]
    sums = [0.0]
    for ro in roots:
        sums = [s + o for s in sums for o in ro]
    return sign * float(min(sums))


# ---------------------------------------------------------------------------
# Stopping-time transfer along eps-causal couplings

@dataclass
class TransferFamily:
    """The family (sigma_u)_u transferred from a rule on Y to the X side.

    Plateaus partition (0,1]; within a plateau every X-leaf has a constant
    stop time (tau-quantile plus the time shift, clamped at the horizon).
    """

    tree: FilteredTree  # the X marginal
    plateaus: list      # list of (u_lo, u_hi, times array over X-leaves)

    def integral(self, phi: CostFunction) -> float:
        """The u-integral of E[phi(X, sigma_u)], a finite sum over plateaus."""
        total = 0.0
        for lo, hi, times in self.plateaus:
            e = sum(self.tree.leaf_probs[k] *
                    eval_phi_at_time(self.tree, k, times[k], phi)
                    for k in range(self.tree.n_leaves))
            total += (hi - lo) * e
        return float(total)

    def best_value(self, phi: CostFunction) -> float:
        vals = [sum(self.tree.leaf_probs[k] *
                    eval_phi_at_time(self.tree, k, times[k], phi)
                    for k in range(self.tree.n_leaves))
                for _, _, times in self.plateaus]
        return float(min(vals))


def transfer_stopping_time(pi: Coupling, eps: EpsShift, tau: StoppingRule,
                           check: bool = True) -> TransferFamily:
    """Pull a stopping rule on Y back to X through an eps-causal coupling,
    as the family sigma_u = inf{t: pi(tau <= t - eps | X-leaf) >= u} ^ 1.

    For each X-leaf, sigma_u is the u-quantile of the conditional law of
    tau + eps, clamped at 1; the family satisfies the exact integral identity
    int_0^1 E[phi(X, sigma_u)] du = E_pi[phi(X, tau + eps)].
    """
    if tau.tree is not pi.right and tau.tree.grid.times != pi.right.grid.times:
        raise ValueError("rule is not defined on the right marginal")
    if check:
        ok, resid = is_eps_causal(pi, eps, X_TO_Y)
        if not ok:
            raise ValueError(
                f"coupling is not {eps.steps}-step causal from X to Y "
                f"(max constraint residual {resid:.3e})")
    x = pi.left
    tau_times = tau.stop_times()
    order = np.argsort(tau_times, kind="stable")
    px = pi.left.leaf_probs
    # conditional CDF grid of tau given each X-leaf
    cum = np.cumsum(pi.weights[:, order], axis=1) / px[:, None]
    cum = np.minimum(cum, 1.0)
    cum[:, -1] = 1.0
    breaks = sorted(set(np.round(cum.ravel(), 15).tolist()) | {1.0})
    breaks = [b for b in breaks if b > 1e-15]
    plateaus = []
    lo = 0.0
    sorted_times = tau_times[order]
    for b in breaks:
        u = (lo + b) / 2.0
        idx = np.argmax(cum >= u - 1e-15, axis=1)
        times = np.minimum(sorted_times[idx] + eps.epsilon_time, 1.0)
        plateaus.append((lo, b, times))
        lo = b
    return TransferFamily(x, plateaus)


def transfer_identity_gap(pi: Coupling, eps: EpsShift, tau: StoppingRule,
                          phi: CostFunction) -> float:
    """|u-integral - E_pi[phi(X, tau+eps)]|; zero up to rounding."""
    fam = transfer_stopping_time(pi, eps, tau, check=False)
    tau_times = tau.stop_times()
    rhs = 0.0
    for a in range(pi.left.n_leaves):
        for b in range(pi.right.n_leaves):
            w = pi.weights[a, b]
            if w > 0.0:
                rhs += w * eval_phi_at_time(pi.left, a,
                                            tau_times[b] + eps.epsilon_time, phi)
    return abs(fam.integral(phi) - rhs)


def os_from_transfer(pi: Coupling, eps: EpsShift, tau: StoppingRule,
                     phi: CostFunction) -> float:
    """Best member of the transferred family; at most E_pi[phi(X, tau+eps)]
    and at least the Snell value of the X marginal."""
    fam = transfer_stopping_time(pi, eps, tau)
    return fam.best_value(phi)


# ---------------------------------------------------------------------------
# Modulus of continuity and martingale defect


def modulus(tree: FilteredTree, eps_steps: int) -> float:
    """delta_X(eps) for a window of whole grid steps: the largest expected
    oscillation of X over the k levels after a stopping time, maximized over
    stopping rules by a Snell recursion on the window reward."""
    check_valid(tree)
    k = int(eps_steps)
    if k < 0:
        raise ValueError("eps_steps must be >= 0")
    n = tree.n_levels
    paths = tree.leaf_paths
    lp = tree.leaf_probs
    # reward g at a node: conditional expected max deviation over the window
    g = []
    for i in range(n):
        hi = min(i + k, n - 1)
        dev = np.linalg.norm(paths[:, i:hi + 1, :] - paths[:, i:i + 1, :],
                             axis=-1).max(axis=1)
        anc = tree.ancestors[i]
        per_node = np.zeros(len(tree.levels[i]))
        mass = np.zeros(len(tree.levels[i]))
        np.add.at(per_node, anc, lp * dev)
        np.add.at(mass, anc, lp)
        g.append(per_node / mass)
    w = g[n - 1]
    for i in range(n - 2, -1, -1):
        w = np.maximum(g[i], tree.children_sum(i, w))
    return float(tree.children_sum(-1, w)[0])


def brute_force_modulus(tree: FilteredTree, eps_steps: int) -> float:
    """Enumeration oracle for the modulus on small trees."""
    n = tree.n_levels
    paths = tree.leaf_paths
    lp = tree.leaf_probs

    def g(i, v):
        hi = min(i + eps_steps, n - 1)
        leaves = tree.leaves_under(i, v)
        dev = np.linalg.norm(paths[leaves, i:hi + 1, :]
                             - paths[leaves, i:i + 1, :], axis=-1).max(axis=1)
        wsum = lp[leaves].sum()
        return float((lp[leaves] * dev).sum() / wsum)

    def options(i, v):
        if i == n - 1:
            return [g(i, v)]
        kid = [[tree.levels[i + 1][c].prob * o for o in options(i + 1, c)]
               for c in tree.children[i][v]]
        sums = [0.0]
        for ko in kid:
            sums = [s + o for s in sums for o in ko]
        sums.append(g(i, v))
        return sums

    roots = [[nd.prob * o for o in options(0, j)]
             for j, nd in enumerate(tree.levels[0])]
    sums = [0.0]
    for ro in roots:
        sums = [s + o for s in sums for o in ro]
    return float(max(sums))


def martingale_defect(tree: FilteredTree) -> float:
    """max over levels below the horizon of E|E[X_1 - X_t | F_t]|, exactly
    zero iff the tree is a martingale; vector values take the worst
    coordinate."""
    check_valid(tree)
    term = tree.terminal_prediction()
    worst = 0.0
    for i in range(tree.n_levels - 1):
        gap = np.abs(term[i] - tree.level_values[i])          # (nodes, dim)
        per_coord = tree.node_probs[i] @ gap                  # (dim,)
        worst = max(worst, float(per_coord.max()))
    return worst


def os_stability_bound(x: FilteredTree, y: FilteredTree, pi: Coupling,
                       eps: EpsShift, lipschitz: float) -> float:
    """Right-hand side L(E_pi ||X-Y||_sup + delta_X(eps) + delta_Y(eps)) of
    the quantitative optimal-stopping bound; pi must be eps-bicausal."""
    ok, resid = is_eps_bicausal(pi, eps)
    if not ok:
        raise ValueError(f"coupling is not eps-bicausal (residual {resid:.3e})")
    cost = transport_cost(pi, 1.0, "sup")
    return float(lipschitz) * (cost + modulus(x, eps.steps) + modulus(y, eps.steps))
