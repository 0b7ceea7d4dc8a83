"""Couplings of two scenario trees and eps-causality.

A coupling is a joint weight matrix over leaf pairs.  It is causal from X to
Y within a shift of k grid levels when, at every constraint time t_i
(`_constraint_levels`), Y's time-t_i atoms are conditionally independent of
the X-leaves given X's atoms at level min(i+k, N).  `is_eps_causal` checks
that from masses summed per atom; `causality_constraints` writes it as dense
LP rows (atom indicators as test functions span all bounded measurables).

`path_cost_matrix` is the one leaf-pair cost of every distance: the sup or
l1 path metric, built forward over node pairs from `_node_distances`.
"""

from __future__ import annotations

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
    """Per constraint time t_i of causality toward `target`, the levels
    (i, min(i + eps_steps, N)) of the target's and the source's atoms.  The
    constraint times are the grid times before the horizon, and the root time
    when the target's root holds several atoms (with one atom its rows would
    repeat the marginals)."""
    n = target.grid.n_steps
    for i in range(0 if len(target.levels[0]) > 1 else 1, n):
        yield i, min(i + eps_steps, n)


def _atom_sums(a: np.ndarray, atom: np.ndarray) -> np.ndarray:
    """Sums of the rows of `a` over the leaves of each atom, in O(a.size).
    Every atom id up to atom.max() must hold a leaf, as in a valid tree."""
    counts = np.bincount(atom)
    return np.add.reduceat(a[np.argsort(atom, kind="stable")],
                           np.cumsum(counts) - counts)


def causality_constraints(x: FilteredTree, y: FilteredTree, eps_steps: int,
                          direction: str = X_TO_Y) -> np.ndarray:
    """Dense equality rows for the LP (over the flattened coupling, row-major
    x-leaf major) expressing eps-causality in the given direction: per
    constraint time, (1_l - P(l | a) 1_a) outer 1_v for x-leaf l in atom a
    and y-atom v.  The last leaf of each atom, and the last y-atom of a time
    with several, are left out, as the marginals imply their rows;
    single-leaf atoms give none."""
    _require_same_grid(x, y)
    nx, ny = x.n_leaves, y.n_leaves
    if direction == Y_TO_X:
        # generated over (y-leaf, x-leaf) cells; transpose the cell layout
        rows = causality_constraints(y, x, eps_steps)
        return rows.reshape(-1, ny, nx).transpose(0, 2, 1).reshape(-1, nx * ny)
    if direction != X_TO_Y:
        raise ValueError("direction must be 'x_to_y' or 'y_to_x'")
    px = x.leaf_probs
    blocks = [np.zeros((0, nx * ny))]
    for i, j in _constraint_levels(y, eps_steps):
        ax, ay = x.ancestors[j], y.ancestors[i]
        atoms = np.split(np.argsort(ax, kind="stable"),
                         np.cumsum(np.bincount(ax))[:-1])
        mass = np.array([px[leaves].sum() for leaves in atoms])
        src = np.concatenate([leaves[:-1] for leaves in atoms])
        # x side of each row: 1_l - P(l | a) 1_a for leaf l of atom a
        coef = np.where(ax == ax[src, None],
                        -px[src, None] / mass[ax[src], None], 0.0)
        coef[np.arange(src.size), src] += 1.0
        ind = (ay == np.arange(max(ay.max(), 1))[:, None]).astype(float)
        blocks.append((coef[:, None, :, None] * ind[None, :, None, :])
                      .reshape(-1, nx * ny))
    return np.concatenate(blocks)


def is_eps_causal(pi: Coupling, eps: EpsShift, direction: str = X_TO_Y,
                  tol: float = CAUSAL_TOL):
    """(holds, max violation) of eps-causality in one direction: the largest
    |joint[l, v] - P(l | a) joint[a, v]| over the constraint times, source
    leaves l in atoms a and target atoms v; O(cells) per time, no rows."""
    _require_same_grid(pi.left, pi.right)
    w, x, y = pi.weights, pi.left, pi.right
    if direction == Y_TO_X:
        w, x, y = w.T, y, x
    elif direction != X_TO_Y:
        raise ValueError("direction must be 'x_to_y' or 'y_to_x'")
    px = x.leaf_probs
    worst = 0.0
    for i, j in _constraint_levels(y, eps.steps):
        ax, ay = x.ancestors[j], y.ancestors[i]
        joint = _atom_sums(w.T, ay).T  # joint[l, v]: mass of leaf l and atom v
        cond = px / _atom_sums(px, ax)[ax]
        resid = joint - cond[:, None] * _atom_sums(joint, ax)[ax]
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
    # l1 weighs level i by t_{i+1} - t_i and the terminal level by 1
    dt = np.append(np.diff((0.0,) + x.grid.times), 1.0)
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
