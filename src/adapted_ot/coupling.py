"""Couplings of two scenario trees and eps-causality constraint generation.

A coupling is a joint weight matrix over leaf pairs.  Causality from X to Y
within a shift of k grid levels means: for every grid time t_i before the
horizon, the root time t_0 included, the time-t_i atoms of Y are
conditionally independent of the X-leaves given X's atoms at level
min(i+k, N).  On finite trees this is a finite family of
linear equality rows over the coupling entries (test functions are atom
indicators; that spans all bounded measurables).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .trees import FilteredTree, TimeGrid, check_valid

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

    @staticmethod
    def for_grid(grid: TimeGrid, steps: int) -> "EpsShift":
        return EpsShift(steps, grid.shift_time(steps))


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
        if (self.weights < -tol).any():
            raise ValueError("negative coupling weight")
        err = self.marginal_error()
        if err > tol:
            raise ValueError(f"coupling marginals off by {err:.3e}")

    def to_json_dict(self, left_ref: str = "left",
                     right_ref: str = "right") -> dict:
        return {"left": left_ref, "right": right_ref,
                "weights": self.weights.tolist()}


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


def causality_constraints(x: FilteredTree, y: FilteredTree, eps_steps: int,
                          direction: str = X_TO_Y,
                          drop_redundant: bool = True) -> np.ndarray:
    """Equality rows (over the flattened coupling, row-major x-leaf major)
    expressing eps-causality in the given direction.

    With drop_redundant, one leaf per conditioning atom and one target atom
    per time are omitted; those rows are implied by the marginal equations.
    Rows with identically zero coefficients (single-leaf atoms, saturated
    shifts) never appear, so a deterministic source yields no rows and
    eps_steps >= N yields no rows.  Level 0 has rows only when Y's root holds
    several atoms; with one root atom they would repeat the marginals.
    """
    _require_same_grid(x, y)
    if direction == Y_TO_X:
        rows = causality_constraints(y, x, eps_steps, X_TO_Y, drop_redundant)
        if rows.shape[0] == 0:
            return np.zeros((0, x.n_leaves * y.n_leaves))
        # generated over (y-leaf, x-leaf) cells; transpose the cell layout
        nx, ny = x.n_leaves, y.n_leaves
        return rows.reshape(-1, ny, nx).transpose(0, 2, 1).reshape(-1, nx * ny)
    if direction != X_TO_Y:
        raise ValueError("direction must be 'x_to_y' or 'y_to_x'")

    nx, ny = x.n_leaves, y.n_leaves
    n_grid = x.grid.n_steps
    rows = []
    px = x.leaf_probs
    for i in range(0 if len(y.levels[0]) > 1 else 1, n_grid):
        shift_level = min(i + eps_steps, n_grid)
        anc_x = x.ancestors[shift_level]
        anc_y = y.ancestors[i]
        n_atoms_y = len(y.levels[i])
        y_limit = n_atoms_y - 1 if (drop_redundant and n_atoms_y > 1) else n_atoms_y
        for a in np.flatnonzero(np.bincount(anc_x) >= 2):
            leaves = np.nonzero(anc_x == a)[0]
            mass = px[leaves].sum()
            limit = leaves.size - 1 if drop_redundant else leaves.size
            for li in range(limit):
                # coefficient of 1_l - P(l | atom) 1_atom on the x side
                xvec = np.zeros(nx)
                xvec[leaves] = -px[leaves[li]] / mass
                xvec[leaves[li]] += 1.0
                for v in range(y_limit):
                    yvec = (anc_y == v).astype(float)
                    rows.append(np.outer(xvec, yvec).ravel())
    if not rows:
        return np.zeros((0, nx * ny))
    return np.array(rows)


def is_eps_causal(pi: Coupling, eps: EpsShift, direction: str = X_TO_Y,
                  tol: float = CAUSAL_TOL):
    """(holds, max violation) of all eps-causality rows in one direction."""
    rows = causality_constraints(pi.left, pi.right, eps.steps, direction,
                                 drop_redundant=False)
    if rows.shape[0] == 0:
        return True, 0.0
    v = float(np.abs(rows @ pi.weights.ravel()).max())
    return v <= tol, v


def is_eps_bicausal(pi: Coupling, eps: EpsShift, tol: float = CAUSAL_TOL):
    ok1, v1 = is_eps_causal(pi, eps, X_TO_Y, tol)
    ok2, v2 = is_eps_causal(pi, eps, Y_TO_X, tol)
    return ok1 and ok2, max(v1, v2)


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


def _path_distances(a: np.ndarray, b: np.ndarray, grid: TimeGrid,
                    metric: str) -> np.ndarray:
    """Pairwise distances between the value paths a (m, levels, dim) and
    b (n, levels, dim) on `grid`; see path_cost_matrix for the metrics."""
    dist = np.linalg.norm(a[:, None, :, :] - b[None, :, :, :], axis=-1)
    if metric == "sup":
        return dist.max(axis=-1)
    if metric == "l1":
        dt = np.diff(np.array((0.0,) + grid.times))
        return dist[:, :, :-1] @ dt + dist[:, :, -1]
    raise ValueError(f"unknown metric {metric!r}")


def path_cost_matrix(x: FilteredTree, y: FilteredTree, metric: str = "sup") -> np.ndarray:
    """Pairwise path distances between leaves.

    "sup": max over levels of the Euclidean distance of values (exact sup
    distance of the piecewise-constant embeddings).  "l1": integral of the
    Euclidean distance against dt + delta_1, i.e. the time integral over
    [0,1) plus the terminal gap.  The l1 weighting compares paths the way
    convergence in measure does and forgives short time shifts that the sup
    metric prices at full jump height.
    """
    _require_same_grid(x, y)
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    return _path_distances(x.leaf_paths, y.leaf_paths, x.grid, metric)


def transport_cost(pi: Coupling, p: float = 1.0, metric: str = "sup") -> float:
    """E_pi[d(X,Y)^p]^(1/p) for the chosen path metric."""
    if p < 1:
        raise ValueError("order must be >= 1")
    c = path_cost_matrix(pi.left, pi.right, metric)
    val = float((pi.weights * c ** p).sum())
    return val ** (1.0 / p)
