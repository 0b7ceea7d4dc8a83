"""Optimal stopping on scenario trees: Snell recursion, stopping-time
transfer across eps-causal couplings, modulus of continuity, martingale
defect, and the quantitative stability bound.  Costs are evaluated on
batches of stopped paths (see `CostFunction`), one call per Snell level.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coupling import (Coupling, EpsShift, X_TO_Y, is_eps_bicausal, is_eps_causal,
                       transport_cost)
from .trees import FilteredTree, check_valid


# ---------------------------------------------------------------------------
# Cost functions

@dataclass(frozen=True)
class CostFunction:
    """Non-anticipative cost, evaluated on a batch of stopped paths.

    fn(paths, t): paths (..., L, dim) holds per path the values at levels
    0..k, k the level whose time interval contains t, optionally continued
    by repeating the level-k value, so the cost never sees the path after
    the stopping time.  t in [0, 1] has the leading shape (...), and fn
    returns one cost per path, shape (...); a single prefix (L, dim) with a
    scalar t is the case (...) = ().  An infinite cost forbids stopping.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""


def _psi_by_name(spec: str):
    spec = spec.strip()
    if spec == "identity":
        return (lambda v: v), "identity"
    if spec == "abs":
        return np.abs, "abs"
    if spec.startswith("call(") and spec.endswith(")"):
        k = float(spec[5:-1])
        return (lambda v: np.maximum(v - k, 0.0)), spec
    if spec.startswith("put(") and spec.endswith(")"):
        k = float(spec[4:-1])
        return (lambda v: np.maximum(k - v, 0.0)), spec
    raise ValueError(f"unknown psi {spec!r}")


def state_cost(psi, name: str = "") -> CostFunction:
    """phi(f, t) = psi(f(t)), evaluated on the first coordinate; psi maps
    arrays elementwise."""
    return CostFunction(lambda paths, t: psi(paths[..., -1, 0]), name or "state")


def running_max_cost(psi, name: str = "") -> CostFunction:
    """phi(f, t) = psi(max_{s<=t} f(s)) on the first coordinate."""
    return CostFunction(lambda paths, t: psi(paths[..., 0].max(axis=-1)),
                        name or "running-max")


def terminal_cost(psi, name: str = "") -> CostFunction:
    """Stopping before the horizon is forbidden (infinite cost)."""
    return CostFunction(lambda paths, t: np.where(t < 1.0 - 1e-12, np.inf,
                                                  psi(paths[..., -1, 0])),
                        name or "terminal")


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


def _stopped_costs(tree: FilteredTree, leaves, times, phi: CostFunction) -> np.ndarray:
    """phi(X, t) along each leaf's path at the matching time (clamped to
    [0, 1]), in one call of phi.fn on the distinct (leaf, time) pairs, so a
    batch never holds more paths than leaves x distinct times."""
    leaves, times = np.broadcast_arrays(leaves, np.clip(times, 0.0, 1.0))
    ts, t_id = np.unique(times.ravel(), return_inverse=True)
    keys, inv = np.unique(leaves.ravel() * ts.size + t_id, return_inverse=True)
    leaf, col = np.divmod(keys, ts.size)
    level = np.array([tree.grid.floor_level(s) for s in ts])[col, None]
    held = tree.leaf_paths[leaf[:, None], np.minimum(np.arange(tree.n_levels), level)]
    costs = np.asarray(phi.fn(held, ts[col]), dtype=float)
    if costs.shape != keys.shape:
        raise ValueError(f"cost {phi.name!r} returned shape {costs.shape} "
                         f"for stopped paths of shape {held.shape}")
    return costs[inv].reshape(leaves.shape)


def _expectation(weights: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * costs[..., k], added left to right as a loop over k
    would add them, so values match a per-leaf loop bit for bit."""
    return np.cumsum(weights * costs, axis=-1)[..., -1]


# ---------------------------------------------------------------------------
# Stopping rules

@dataclass
class StoppingRule:
    """Per-node stop/continue decisions; stopping is forced at the last level
    and decisions below a stopped node are irrelevant."""

    tree: FilteredTree
    stop: list  # per level, boolean array over nodes

    def __post_init__(self):
        self.stop = [np.asarray(s, dtype=bool) for s in self.stop]
        if len(self.stop) != self.tree.n_levels or any(
                s.shape != (len(lv),) for s, lv in zip(self.stop, self.tree.levels)):
            raise ValueError("decisions need one array per level, one entry per node")
        if not self.stop[-1].all():
            raise ValueError("stopping must be forced at the terminal level")

    def stop_levels(self) -> np.ndarray:
        """Per leaf, the first level at which its ancestor stops."""
        hit = np.stack([s[a] for s, a in zip(self.stop, self.tree.ancestors)])
        return hit.argmax(axis=0)

    def stop_times(self) -> np.ndarray:
        return np.array((0.0,) + self.tree.grid.times)[self.stop_levels()]


def random_rule(tree: FilteredTree, rng, p_stop: float = 0.35) -> StoppingRule:
    stop = [rng.random(len(lv)) < p_stop for lv in tree.levels]
    stop[-1][:] = True
    return StoppingRule(tree, stop)


def eval_rule(tree: FilteredTree, rule: StoppingRule, phi: CostFunction) -> float:
    costs = _stopped_costs(tree, np.arange(tree.n_leaves), rule.stop_times(), phi)
    return float(_expectation(tree.leaf_probs, costs))


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
    infimum for the negated cost).  Ties stop early.  In both variants a
    non-finite cost forbids stopping at a node; at the forced terminal stop
    it is an error.
    """
    check_valid(tree)
    sign = 1.0 if variant == "inf" else -1.0
    if variant not in ("inf", "sup"):
        raise ValueError("variant must be 'inf' or 'sup'")
    n = tree.n_levels
    values = [None] * n
    stop = [None] * n
    for i in range(n - 1, -1, -1):
        rep = np.zeros(len(tree.levels[i]), dtype=int)  # one leaf under each node
        rep[tree.ancestors[i]] = np.arange(tree.n_leaves)
        raw = _stopped_costs(tree, rep, tree.level_time(i), phi)
        if i == n - 1 and not np.isfinite(raw).all():
            raise ValueError("cost is not finite at a forced stop")
        # continuing past the horizon is impossible, so it is worth +inf
        cont = tree.children_sum(i, values[i + 1]) if i + 1 < n else np.inf
        stop[i] = np.isfinite(raw) & (sign * raw <= cont)
        values[i] = np.where(stop[i], sign * raw, cont)
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

    def values(self, phi: CostFunction) -> np.ndarray:
        """E[phi(X, sigma_u)] on each plateau."""
        times = np.array([t for _, _, t in self.plateaus])
        costs = _stopped_costs(self.tree, np.arange(self.tree.n_leaves), times, phi)
        return _expectation(self.tree.leaf_probs, costs)

    def integral(self, phi: CostFunction) -> float:
        """The u-integral of E[phi(X, sigma_u)], a finite sum over plateaus."""
        widths = np.array([hi - lo for lo, hi, _ in self.plateaus])
        return float(_expectation(widths, self.values(phi)))

    def best_value(self, phi: CostFunction) -> float:
        return float(self.values(phi).min())


def transfer_stopping_time(pi: Coupling, eps: EpsShift, tau: StoppingRule,
                           check: bool = True) -> TransferFamily:
    """Pull a stopping rule on Y back to X through an eps-causal coupling,
    as the family sigma_u = inf{t: pi(tau <= t - eps | X-leaf) >= u} ^ 1.

    For each X-leaf, sigma_u is the u-quantile of the conditional law of
    tau + eps, clamped at 1; the family satisfies the exact integral identity
    int_0^1 E[phi(X, sigma_u)] du = E_pi[phi(X, tau + eps)].
    """
    if tau.tree is not pi.right and (tau.tree.grid.times != pi.right.grid.times
                                     or tau.tree.n_leaves != pi.right.n_leaves):
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
    """|u-integral - E_pi[phi(X, tau+eps)]|; zero up to rounding, and zero
    when both sides are the same infinity (a terminal cost that stops early)."""
    fam = transfer_stopping_time(pi, eps, tau, check=False)
    a, b = np.nonzero(pi.weights > 0.0)
    costs = _stopped_costs(pi.left, a, tau.stop_times()[b] + eps.epsilon_time, phi)
    lhs = fam.integral(phi)
    rhs = float(_expectation(pi.weights[a, b], costs))
    return 0.0 if lhs == rhs else abs(lhs - rhs)


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
    try:
        k = operator.index(eps_steps)
    except TypeError:
        raise ValueError(f"eps_steps must be an integer, got {eps_steps!r}") from None
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
        anc, size = tree.ancestors[i], len(tree.levels[i])
        g.append(np.bincount(anc, lp * dev, minlength=size)
                 / np.bincount(anc, lp, minlength=size))
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
