"""Finite filtered processes as scenario trees.

A filtered process is stored as a tree whose level-i nodes are the atoms of
the time-t_i information; node values make the process adapted by
construction.  Level 0 is the root time t0 = 0 (not a grid point) and may
carry several atoms, i.e. a nontrivial initial sigma-algebra.

The stored form is a tuple of `Node` tuples per level: it is what the JSON
interchange writes and what tree equality compares.  The level arrays are
derived from it once and cached: `parents` (int, with level 0 hanging from
one virtual root) and `probs` (transition probabilities), and from those
`node_probs`, `ancestors`, `level_values`, `leaf_probs` and `leaf_paths`.
Every backward expectation E[. | F_t] goes through `children_sum`, which
adds prob * x over the children in child-index order, the same order as a
loop over `children`, so its sums are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

PROB_TOL = 1e-12
TIME_TOL = 1e-12
EQUAL_DECIMALS = 12


def _rounded(x, decimals: int = EQUAL_DECIMALS) -> np.ndarray:
    """The rule by which two computed reals count as equal: round to
    `decimals` places and fold -0.0 into +0.0."""
    return np.round(np.asarray(x, dtype=float), decimals) + 0.0


def _round_key(x, decimals: int = EQUAL_DECIMALS):
    """Hashable key for floats/arrays, rounded so that 1e-12-close reals collide."""
    r = _rounded(x, decimals)
    if r.ndim == 0:
        return float(r)
    return r.tobytes()


@dataclass(frozen=True)
class TimeGrid:
    """Finite grid 0 < t_1 < ... < t_N = 1.  Zero is the root time, not a member."""

    times: tuple

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        ts = self.times
        if len(ts) == 0:
            raise ValueError("empty grid")
        if abs(ts[-1] - 1.0) > TIME_TOL:
            raise ValueError("last grid point must be 1")
        prev = 0.0
        for t in ts:
            if t <= prev + TIME_TOL / 10:
                raise ValueError("grid times must be strictly increasing in (0,1]")
            prev = t

    @property
    def n_steps(self) -> int:
        return len(self.times)

    def mesh(self) -> float:
        """Largest gap, counting the initial gap t_1 - 0."""
        full = (0.0,) + self.times
        return max(full[i + 1] - full[i] for i in range(len(self.times)))

    def level_time(self, i: int) -> float:
        """Time of level i, with level 0 the root time 0."""
        return 0.0 if i == 0 else self.times[i - 1]

    def ceil(self, t: float) -> float:
        """Round t up to the next strictly larger grid point; 1 maps to 1."""
        if t >= 1.0 - TIME_TOL:
            return 1.0
        for s in self.times:
            if s > t + TIME_TOL:
                return s
        return 1.0

    def floor_level(self, t: float) -> int:
        """Level whose time interval [t_i, t_{i+1}) contains t; clamps to [0, N]."""
        if t >= 1.0 - TIME_TOL:
            return self.n_steps
        lev = 0
        for i, s in enumerate(self.times):
            if s <= t + TIME_TOL:
                lev = i + 1
        return lev

    def index_of(self, t: float) -> int:
        for i, s in enumerate(self.times):
            if abs(s - t) <= TIME_TOL:
                return i
        raise ValueError(f"time {t} not on grid")

    def shift_time(self, steps: int) -> float:
        """Real time penalty of delaying information by `steps` grid levels.

        Smallest eps such that level min(i+steps, N) is reached from every
        interior constraint time t_i within t_i + eps.  Zero for steps=0 and
        for grids with no interior times.
        """
        if steps <= 0 or self.n_steps <= 1:
            return 0.0
        n = self.n_steps
        full = (0.0,) + self.times
        return max(full[min(i + steps, n)] - full[i] for i in range(1, n))


@dataclass(frozen=True)
class Node:
    """One information atom: parent index at the previous level, transition
    probability from the parent (absolute probability for level-0 nodes),
    and the adapted value at this level."""

    parent: Optional[int]
    prob: float
    value: tuple

    def __post_init__(self):
        v = self.value
        if np.ndim(v) == 0:
            v = (float(v),)
        object.__setattr__(self, "value", tuple(float(x) for x in v))


@dataclass(frozen=True)
class FilteredTree:
    """A finite filtered process (Omega, F, P, (F_t), X) on a scenario tree."""

    grid: TimeGrid
    levels: tuple  # tuple over levels 0..N of tuples of Node
    dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(tuple(lv) for lv in self.levels))

    # -- structural views -------------------------------------------------

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_leaves(self) -> int:
        return len(self.levels[-1])

    @cached_property
    def children(self):
        """Per level, list of child-index lists (empty at the last level)."""
        out = []
        for i in range(self.n_levels):
            if i + 1 < self.n_levels:
                ch = [[] for _ in self.levels[i]]
                for j, nd in enumerate(self.levels[i + 1]):
                    ch[nd.parent].append(j)
                out.append(ch)
            else:
                out.append([[] for _ in self.levels[i]])
        return out

    @cached_property
    def parents(self):
        """Per level, int array of parent indices; the level-0 nodes hang
        from one virtual root with index 0."""
        out = [np.zeros(len(self.levels[0]), dtype=np.intp)]
        out += [np.array([nd.parent for nd in lv], dtype=np.intp)
                for lv in self.levels[1:]]
        return out

    @cached_property
    def probs(self):
        """Per level, float array of transition probabilities from the parent
        (absolute probabilities at level 0)."""
        return [np.array([nd.prob for nd in lv], dtype=float) for lv in self.levels]

    @cached_property
    def node_probs(self):
        """Absolute probability of each node, per level."""
        out = [self.probs[0]]
        for i in range(1, self.n_levels):
            out.append(out[-1][self.parents[i]] * self.probs[i])
        return out

    @cached_property
    def level_values(self):
        """Per level, array of node values with shape (n_nodes, dim)."""
        return [np.array([nd.value for nd in lv], dtype=float).reshape(len(lv), self.dim)
                for lv in self.levels]

    @cached_property
    def ancestors(self):
        """ancestors[i][k] = index at level i of the ancestor of leaf k."""
        n = self.n_levels
        anc = np.empty((n, self.n_leaves), dtype=int)
        anc[n - 1] = np.arange(self.n_leaves)
        for i in range(n - 2, -1, -1):
            anc[i] = self.parents[i + 1][anc[i + 1]]
        return anc

    @cached_property
    def leaf_probs(self):
        return self.node_probs[-1]

    @cached_property
    def leaf_paths(self):
        """Array (n_leaves, n_levels, dim) of root-to-leaf value paths."""
        out = np.empty((self.n_leaves, self.n_levels, self.dim), dtype=float)
        for i in range(self.n_levels):
            out[:, i, :] = self.level_values[i][self.ancestors[i]]
        return out

    def leaves_under(self, level: int, node: int) -> np.ndarray:
        return np.nonzero(self.ancestors[level] == node)[0]

    def children_sum(self, level: int, x: np.ndarray) -> np.ndarray:
        """The backward step E[x | F_level]: for each node at `level`, the
        sum over its children c of prob[c] * x[c], added in child-index order
        (the order of a loop over `children`, so results match it bit for
        bit).  `x` holds one value, or one row of values, per node at
        level + 1.  level = -1 sums level 0 into the virtual root and returns
        one entry."""
        idx, w = self.parents[level + 1], self.probs[level + 1]
        size = 1 if level < 0 else len(self.levels[level])
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.bincount(idx, w * x, minlength=size)
        return np.stack([np.bincount(idx, w * col, minlength=size) for col in x.T],
                        axis=1)

    def terminal_prediction(self) -> list:
        """Per level, E[X_1 | F_t] at each node, shape (n_nodes, dim)."""
        n = self.n_levels
        out = [None] * n
        out[n - 1] = self.level_values[n - 1]
        for i in range(n - 2, -1, -1):
            out[i] = self.children_sum(i, out[i + 1])
        return out

    # -- convenience -----------------------------------------------------

    def level_time(self, i: int) -> float:
        return self.grid.level_time(i)

    def terminal_values(self) -> np.ndarray:
        return self.level_values[-1]

    def max_oscillation(self) -> float:
        """Largest along-path value range, sup over leaves of max_l |X_l - X_m|."""
        p = self.leaf_paths
        d = np.linalg.norm(p[:, :, None, :] - p[:, None, :, :], axis=-1)
        return float(d.max()) if d.size else 0.0


def validate(tree: FilteredTree) -> list:
    """Return the list of invariant violations (empty iff the tree is valid)."""
    out = []
    n = tree.n_levels
    if n != tree.grid.n_steps + 1:
        out.append(f"levels count {n} != grid size + 1 ({tree.grid.n_steps + 1})")
        return out
    for i, lv in enumerate(tree.levels):
        if len(lv) == 0:
            out.append(f"empty level {i}")
            return out
        for j, nd in enumerate(lv):
            if len(nd.value) != tree.dim:
                out.append(f"value dimension mismatch at level {i} node {j}")
            if i == 0:
                if nd.parent is not None:
                    out.append(f"level-0 node {j} must not have a parent")
            else:
                if nd.parent is None:
                    out.append(f"orphan node at level {i} node {j}")
                elif not (0 <= nd.parent < len(tree.levels[i - 1])):
                    out.append(f"orphan node at level {i} node {j} (parent out of range)")
            if not (nd.prob > 0.0):
                out.append(f"non-positive probability at level {i} node {j}")
            elif nd.prob > 1.0 + PROB_TOL:
                out.append(f"probability > 1 at level {i} node {j}")
    if out:
        return out
    for i, vals in enumerate(tree.level_values):
        bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
        if bad.size:
            out.append(f"non-finite value at level {i} node {bad[0]}")
    s0 = sum(nd.prob for nd in tree.levels[0])
    if abs(s0 - 1.0) > PROB_TOL:
        out.append(f"root-level probabilities sum to {s0:.12g}")
    for i in range(n - 1):
        sums = {}
        for nd in tree.levels[i + 1]:
            sums[nd.parent] = sums.get(nd.parent, 0.0) + nd.prob
        for j in range(len(tree.levels[i])):
            s = sums.get(j)
            if s is None:
                out.append(f"node without children at level {i} node {j}")
            elif abs(s - 1.0) > PROB_TOL:
                out.append(f"node probabilities sum to {s:.12g} at level {i} node {j}")
    if not out:
        s = float(tree.leaf_probs.sum())
        if abs(s - 1.0) > PROB_TOL:
            out.append(f"leaf probabilities sum to {s:.12g}")
    return out


def check_valid(tree: FilteredTree) -> None:
    bad = validate(tree)
    if bad:
        raise ValueError("invalid tree: " + "; ".join(bad))


# ---------------------------------------------------------------------------
# Path laws


@dataclass(frozen=True)
class PathLaw:
    """Law of the value path: weighted piecewise-constant paths on the grid."""

    grid: TimeGrid
    weights: np.ndarray   # (m,)
    paths: np.ndarray     # (m, N+1, dim)

    def canonicalize(self) -> "PathLaw":
        """Merge duplicate paths (weights added) and sort deterministically."""
        buckets = {}
        for w, p in zip(self.weights, self.paths):
            k = _round_key(p)
            if k in buckets:
                buckets[k][0] += float(w)
            else:
                buckets[k] = [float(w), p]
        items = sorted(buckets.items(), key=lambda kv: kv[0])
        ws = np.array([v[0] for _, v in items])
        ps = np.array([v[1] for _, v in items])
        return PathLaw(self.grid, ws, ps)


def law(tree: FilteredTree) -> PathLaw:
    """Push the tree forward to its path law (one path per leaf, merged)."""
    check_valid(tree)
    return PathLaw(tree.grid, tree.leaf_probs.copy(), tree.leaf_paths.copy()).canonicalize()


def standard_tree(path_law: PathLaw) -> FilteredTree:
    """Standard naturally filtered process of a path law: atoms are the
    distinct value histories."""
    m, n_levels, dim = path_law.paths.shape
    # group paths by prefix keys, level by level
    prefix_nodes = []  # per level: list of (key, parent_index, value, weight)
    parent_of_path = np.zeros(m, dtype=int)
    levels = []
    for i in range(n_levels):
        groups = {}
        order = []
        for pi in range(m):
            k = (int(parent_of_path[pi]), _round_key(path_law.paths[pi, i]))
            if k not in groups:
                groups[k] = [len(order), 0.0, path_law.paths[pi, i]]
                order.append(k)
            groups[k][1] += float(path_law.weights[pi])
        nodes = []
        for k in order:
            idx, w, val = groups[k]
            parent = None if i == 0 else k[0]
            nodes.append((parent, w, val))
        new_parent = np.array([groups[(int(parent_of_path[pi]),
                                       _round_key(path_law.paths[pi, i]))][0]
                               for pi in range(m)])
        # convert absolute weights to transition probabilities
        lv = []
        for parent, w, val in nodes:
            if i == 0:
                lv.append(Node(None, w, tuple(val)))
            else:
                lv.append(Node(parent, w / levels_abs[parent], tuple(val)))
        levels.append(tuple(lv))
        levels_abs = np.array([w for _, w, _ in nodes])
        parent_of_path = new_parent
    return FilteredTree(path_law.grid, tuple(levels), dim)


# ---------------------------------------------------------------------------
# Time discretization


def discretize_path(values: np.ndarray, source: TimeGrid, target: TimeGrid) -> np.ndarray:
    """Restrict a piecewise-constant path to a coarser grid.

    `values` holds the levels (t0, source times); the result holds
    (t0, target times), i.e. the composition of evaluation at target times
    with the cadlag embedding back.  Every target time must be a source time.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != source.n_steps + 1:
        raise ValueError("values length does not match source grid")
    out = [values[0]]
    for t in target.times:
        out.append(values[source.index_of(t) + 1])
    return np.array(out)


def coarsen_filtration(tree: FilteredTree, target: TimeGrid) -> FilteredTree:
    """Replace the filtration by its piecewise-constant coarsening on `target`.

    Values are unchanged at every grid time; the information atom at time t
    becomes the atom at the next target time >= t (kept times keep their own
    atoms, so target = tree.grid returns the tree unchanged).  The adapted
    distance to the original is at most mesh(target).
    """
    check_valid(tree)
    for t in target.times:
        tree.grid.index_of(t)  # raises if target is not a subset
    n = tree.n_levels
    # src_level[i] = level of the original tree providing the atoms at level i
    src_level = [0]
    for i in range(1, n):
        t = tree.grid.level_time(i)
        up = min(s for s in target.times if s >= t - TIME_TOL)
        src_level.append(tree.grid.index_of(up) + 1)

    levels = [tree.levels[0]]
    # maps from original node index at src_level[i] to new node index at level i
    prev_map = {j: j for j in range(len(tree.levels[0]))}
    for i in range(1, n):
        lo, hi = src_level[i - 1], src_level[i]
        nodes = []
        cur_map = {}
        for j, _nd in enumerate(tree.levels[hi]):
            # walk up from level hi to level lo to find the ancestor
            k, lev = j, hi
            trans = 1.0
            while lev > lo:
                nd = tree.levels[lev][k]
                trans *= nd.prob
                k, lev = nd.parent, lev - 1
            # value at time t_i is the value of the level-i ancestor
            kk, ll = j, hi
            while ll > i:
                kk, ll = tree.levels[ll][kk].parent, ll - 1
            cur_map[j] = len(nodes)
            nodes.append(Node(prev_map[k], trans, tree.levels[i][kk].value))
        levels.append(tuple(nodes))
        prev_map = cur_map
    return FilteredTree(tree.grid, tuple(levels), tree.dim)


def regrid(tree: FilteredTree, new_grid: TimeGrid) -> FilteredTree:
    """Faithful re-indexing of the same filtered process on a finer grid.

    Values and information are extended cadlag (constant between original
    grid times); requires tree.grid to be a subset of new_grid.
    """
    check_valid(tree)
    for t in tree.grid.times:
        new_grid.index_of(t)
    src_of = [0] + [tree.grid.floor_level(t) for t in new_grid.times]
    levels = [tree.levels[0]]
    for i in range(1, len(src_of)):
        s_prev, s_cur = src_of[i - 1], src_of[i]
        if s_cur == s_prev:
            nodes = tuple(Node(j, 1.0, nd.value)
                          for j, nd in enumerate(tree.levels[s_cur]))
        else:
            nodes = tuple(Node(nd.parent, nd.prob, nd.value)
                          for nd in tree.levels[s_cur])
        levels.append(nodes)
    return FilteredTree(new_grid, tuple(levels), tree.dim)


def common_grid(a: TimeGrid, b: TimeGrid) -> TimeGrid:
    ts = sorted(set(a.times) | set(b.times))
    merged = []
    for t in ts:
        if merged and abs(t - merged[-1]) <= TIME_TOL:
            continue
        merged.append(t)
    return TimeGrid(tuple(merged))


def align(x: FilteredTree, y: FilteredTree):
    """Re-grid both trees onto the common refinement of their grids."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if x.grid.times == y.grid.times:
        return x, y
    g = common_grid(x.grid, y.grid)
    return regrid(x, g), regrid(y, g)


# ---------------------------------------------------------------------------
# Isomorphism (equality of trees up to sibling reordering)


def _canonical_subtree(tree: FilteredTree, level: int, node: int):
    nd = tree.levels[level][node]
    kids = tree.children[level][node]
    sub = tuple(sorted(
        (round(tree.levels[level + 1][c].prob, 10), _canonical_subtree(tree, level + 1, c))
        for c in kids))
    return (_round_key(np.asarray(nd.value), 10), sub)


def tree_isomorphic(a: FilteredTree, b: FilteredTree) -> bool:
    """True iff the trees coincide up to reordering of siblings (same grid,
    values and probabilities compared after rounding to 1e-10)."""
    if a.dim != b.dim or a.grid.times != b.grid.times:
        return False
    ca = tuple(sorted((round(nd.prob, 10), _canonical_subtree(a, 0, j))
                      for j, nd in enumerate(a.levels[0])))
    cb = tuple(sorted((round(nd.prob, 10), _canonical_subtree(b, 0, j))
                      for j, nd in enumerate(b.levels[0])))
    return ca == cb


# ---------------------------------------------------------------------------
# JSON interchange


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def tree_to_json(tree: FilteredTree) -> str:
    """Serialize with 17-significant-digit floats for exact round-tripping."""
    parts = ['{"dim": %d, "grid": [%s], "levels": [' %
             (tree.dim, ", ".join(_fmt(t) for t in tree.grid.times))]
    lv_texts = []
    for lv in tree.levels:
        nodes = []
        for nd in lv:
            parent = "null" if nd.parent is None else str(nd.parent)
            val = ", ".join(_fmt(v) for v in nd.value)
            nodes.append('{"parent": %s, "prob": %s, "value": [%s]}'
                         % (parent, _fmt(nd.prob), val))
        lv_texts.append("[" + ", ".join(nodes) + "]")
    parts.append(", ".join(lv_texts))
    parts.append("]}")
    return "".join(parts)


def tree_from_json(text: str) -> FilteredTree:
    obj = json.loads(text)
    grid = TimeGrid(tuple(obj["grid"]))
    levels = []
    for lv in obj["levels"]:
        levels.append(tuple(Node(nd["parent"], float(nd["prob"]), tuple(nd["value"]))
                            for nd in lv))
    return FilteredTree(grid, tuple(levels), int(obj["dim"]))
