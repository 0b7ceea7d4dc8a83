"""Couplings of two scenario trees and eps-causality.

A coupling is a joint weight matrix over leaf pairs.  It is causal from X to
Y within a shift of k grid levels when, at every constraint time t_i, Y's
time-t_i atoms v are conditionally independent of the X-leaves l given X's
atoms a at level min(i+k, N): joint[l, v] = P(l | a) joint[a, v].
`_causal_walk` walks those times either way; `is_eps_causal` checks the
identity, `causality_constraints` writes it as dense LP rows (atom
indicators as test functions span all bounded measurables).

`path_cost_matrix` is the one leaf-pair cost of every distance: the sup or
l1 path metric, built forward over node pairs from `_node_distances`, the
l1 one weighted by `_level_weights`, which Hellwig's time integral reads too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np

from .trees import FilteredTree, check_valid

MARGINAL_TOL = 1e-10
CAUSAL_TOL = 1e-9

X_TO_Y = "x_to_y"
Y_TO_X = "y_to_x"


@dataclass(frozen=True)
class EpsShift:
    """Information-delay relaxation measured in whole grid steps, together
    with the real time shift it represents on the declared grid."""

    steps: int
    epsilon_time: float

    def __post_init__(self):
        if self.steps < 0 or self.epsilon_time < 0:
            raise ValueError("eps shift must be nonnegative")


ZERO_SHIFT = EpsShift(0, 0.0)


@dataclass
class Coupling:
    left: FilteredTree
    right: FilteredTree
    weights: np.ndarray  # (n_leaves_left, n_leaves_right)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.left.n_leaves, self.right.n_leaves):
            raise ValueError("coupling shape does not match leaf counts")

    def marginal_error(self) -> float:
        r = np.abs(self.weights.sum(axis=1) - self.left.leaf_probs).max()
        c = np.abs(self.weights.sum(axis=0) - self.right.leaf_probs).max()
        return float(max(r, c))

    def check(self, tol: float = MARGINAL_TOL) -> None:
        if not np.isfinite(self.weights).all() or (self.weights < -tol).any():
            raise ValueError("negative or non-finite coupling weight")
        err = self.marginal_error()
        if err > tol:
            raise ValueError(f"coupling marginals off by {err:.3e}")


def product_coupling(x: FilteredTree, y: FilteredTree) -> Coupling:
    """Independent coupling; eps-bicausal at every shift."""
    check_valid(x)
    check_valid(y)
    return Coupling(x, y, np.outer(x.leaf_probs, y.leaf_probs))


def identity_coupling(x: FilteredTree) -> Coupling:
    return Coupling(x, x, np.diag(x.leaf_probs.copy()))


def _require_same_grid(x: FilteredTree, y: FilteredTree):
    if x.grid.times != y.grid.times:
        raise ValueError("trees must share a grid (align them first)")


def _constraint_levels(target: FilteredTree, eps_steps: int):
    """Per constraint time t_i toward `target`, (i, min(i + eps_steps, N)):
    the grid times before the horizon, and the root time when its root holds
    several atoms (with one, its rows would repeat the marginals)."""
    n = target.grid.n_steps
    for i in range(0 if len(target.levels[0]) > 1 else 1, n):
        yield i, min(i + eps_steps, n)


def _leaf_law(tree: FilteredTree, level: int) -> np.ndarray:
    """P(leaf | its atom at `level`) for every leaf of `tree`."""
    out = np.empty(tree.n_leaves)
    for _, leaves, law in tree.law_blocks[level]:
        out[leaves] = law
    return out


def _causal_walk(x: FilteredTree, y: FilteredTree, eps_steps: int, direction: str):
    """Per constraint time of eps-causality in `direction` (the source is x,
    or y from Y to X): i, j, the source leaves' atoms at level j, the target
    leaves' atoms at level i, and a function giving P(source leaf | its
    atom), computed only when called: the shift price never needs it."""
    _require_same_grid(x, y)
    if direction not in (X_TO_Y, Y_TO_X):
        raise ValueError("direction must be 'x_to_y' or 'y_to_x'")
    src, tgt = (x, y) if direction == X_TO_Y else (y, x)
    for i, j in _constraint_levels(tgt, eps_steps):
        yield (i, j, src.ancestors[j], tgt.ancestors[i],
               functools.partial(_leaf_law, src, j))


def _atom_sums(a: np.ndarray, atom: np.ndarray) -> np.ndarray:
    """Sums of the rows of `a` over the leaves of each atom, in O(a.size).
    Every atom id up to atom.max() must hold a leaf, as in a valid tree."""
    counts = np.bincount(atom)
    return np.add.reduceat(a[np.argsort(atom, kind="stable")],
                           np.cumsum(counts) - counts)


def causality_constraints(x: FilteredTree, y: FilteredTree, eps_steps: int,
                          direction: str = X_TO_Y) -> np.ndarray:
    """Dense equality rows for the LP over the flattened coupling (x-leaf
    major) expressing eps-causality in `direction`: per constraint time,
    (1_l - P(l | a) 1_a) outer 1_v for source leaf l in atom a and target
    atom v, but for the last leaf of each atom and the last target atom of a
    time with several, whose rows the marginals imply."""
    cells = x.n_leaves * y.n_leaves
    blocks = [np.zeros((0, cells))]
    for _, _, ax, ay, law in _causal_walk(x, y, eps_steps, direction):
        # every source leaf but the last of its atom, atom by atom
        order = np.argsort(ax, kind="stable")
        src = order[:-1][ax[order[1:]] == ax[order[:-1]]]
        coef = np.where(ax == ax[src, None], -law()[src, None], 0.0)
        coef[np.arange(src.size), src] += 1.0
        ind = (ay == np.arange(max(ay.max(), 1))[:, None]).astype(float)
        # (row, target atom, x leaf, y leaf)
        block = (coef[:, None, :, None] * ind[None, :, None, :] if direction == X_TO_Y
                 else coef[:, None, None, :] * ind[None, :, :, None])
        blocks.append(block.reshape(-1, cells))
    return np.concatenate(blocks)


def is_eps_causal(pi: Coupling, eps: EpsShift, direction: str = X_TO_Y,
                  tol: float = CAUSAL_TOL):
    """(holds, max violation) of eps-causality in one direction: the largest
    |joint[l, v] - P(l | a) joint[a, v]| over the constraint times, source
    leaves l in atoms a and target atoms v; O(cells) per time, no rows."""
    w = pi.weights.T if direction == Y_TO_X else pi.weights  # source-leaf major
    worst = 0.0
    for _, _, ax, ay, law in _causal_walk(pi.left, pi.right, eps.steps, direction):
        joint = _atom_sums(w.T, ay).T  # joint[l, v]: mass of leaf l and atom v
        resid = joint - law()[:, None] * _atom_sums(joint, ax)[ax]
        worst = np.maximum(worst, np.abs(resid).max())  # keeps a NaN
    return bool(worst <= tol), float(worst)


def is_eps_bicausal(pi: Coupling, eps: EpsShift, tol: float = CAUSAL_TOL):
    ok1, v1 = is_eps_causal(pi, eps, X_TO_Y, tol)
    ok2, v2 = is_eps_causal(pi, eps, Y_TO_X, tol)
    return ok1 and ok2, float(np.maximum(v1, v2))


def glue(pi: Coupling, rho: Coupling) -> Coupling:
    """Conditionally independent gluing over the shared middle marginal.

    If pi is eps1-causal from X to Y and rho is eps2-causal from Y to Z, the
    result is (eps1+eps2)-causal from X to Z.
    """
    if pi.right is not rho.left and pi.right.grid.times != rho.left.grid.times:
        raise ValueError("middle trees do not match")
    py = pi.right.leaf_probs
    if pi.right.n_leaves != rho.left.n_leaves:
        raise ValueError("middle leaf counts differ")
    w = pi.weights @ (rho.weights / py[:, None])
    return Coupling(pi.left, rho.right, w)


def _node_distances(x: FilteredTree, y: FilteredTree, level: int) -> np.ndarray:
    """Euclidean distances between the values of every node pair at `level`."""
    return np.linalg.norm(x.level_values[level][:, None, :]
                          - y.level_values[level][None, :, :], axis=-1)


def _level_weights(grid) -> np.ndarray:
    """dt + delta_1 per level: t_{i+1} - t_i (t_0 = 0), and 1 at the last."""
    return np.append(np.diff((0.0,) + grid.times), 1.0)


def path_cost_matrix(x: FilteredTree, y: FilteredTree, metric: str = "sup") -> np.ndarray:
    """Pairwise path distances between leaves.

    "sup": max over levels of the Euclidean distance of values (exact sup
    distance of the piecewise-constant embeddings).  "l1": integral of the
    Euclidean distance against dt + delta_1, i.e. the time integral over
    [0,1) plus the terminal gap.  The l1 weighting compares paths the way
    convergence in measure does and forgives short time shifts that the sup
    metric prices at full jump height.

    Built forward over node pairs: each level lifts the pair array of the
    level before through the parents (the level-0 nodes hang from one
    virtual root pair) and takes the running max with, or adds, that
    level's node distances.  Each node pair is visited once, and memory
    stays O(cells).
    """
    _require_same_grid(x, y)
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if metric not in ("sup", "l1"):
        raise ValueError(f"unknown metric {metric!r}")
    dt = _level_weights(x.grid)
    out = np.zeros((1, 1))
    for i in range(x.n_levels):
        dist = _node_distances(x, y, i)
        lifted = out[x.parents[i]][:, y.parents[i]]
        out = np.maximum(lifted, dist) if metric == "sup" else lifted + dt[i] * dist
    return out


def transport_cost(pi: Coupling, p: float = 1.0, metric: str = "sup") -> float:
    """E_pi[d(X,Y)^p]^(1/p) for the chosen path metric."""
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p!r}")
    c = path_cost_matrix(pi.left, pi.right, metric)
    val = float((pi.weights * c ** p).sum())
    return val ** (1.0 / p)
