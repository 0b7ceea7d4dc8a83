"""Finite filtered processes as scenario trees.

A filtered process is stored as a tree whose level-i nodes are the atoms of
the time-t_i information; node values make the process adapted by
construction.  Level 0 is the root time t0 = 0 (not a grid point) and may
carry several atoms, i.e. a nontrivial initial sigma-algebra.

The stored form is a tuple of `Node` tuples per level: it is what the JSON
interchange writes and what tree equality compares.  Every tree the
package computes is made by one builder, `_tree_from_arrays`, from
per-level arrays of parents, transition probabilities and values; only
`tree_from_json` and figure 1's literal pair write `Node`s themselves.
The level arrays are derived from the stored form once and cached:
`parents` (int, with level 0 hanging from one virtual root) and `probs`
(transition probabilities), and from those `node_probs`, `ancestors`,
`level_values`, `leaf_probs` and `leaf_paths`.  Every backward expectation
E[. | F_t] goes through `children_sum`, which adds prob * x over the
children in child-index order, the same order as a loop over `children`,
so its sums are reproducible bit for bit.

`validate` first checks what the arrays cannot hold (each parent's presence,
type and range, each value's length) and, on `probs`, the probability
bounds.  Only a tree without such faults gets the array checks, on the
levels laid end to end: finite values, and sums by `np.bincount`, which adds
left to right, as a loop over nodes would.

Every grouping (law atoms, value histories, subtree classes) goes through
`_unique_rows` over values rounded by `_rounded`: to `EQUAL_DECIMALS`
places, and to `ISO_DECIMALS` in `tree_isomorphic` alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

PROB_TOL = 1e-12
TIME_TOL = 1e-12
EQUAL_DECIMALS = 12
ISO_DECIMALS = 10


def _rounded(x, decimals: int = EQUAL_DECIMALS) -> np.ndarray:
    """The rule by which two computed reals count as equal: round to
    `decimals` places and fold -0.0 into +0.0."""
    return np.round(np.asarray(x, dtype=float), decimals) + 0.0


def _unique_rows(rows: np.ndarray):
    """(first, ids): the index of the first occurrence of each distinct row
    of `rows` (leading axis), distinct rows in lexicographic order, and for
    every row the position of its distinct row in that order."""
    rows = rows.reshape(len(rows), -1)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    return order[new], ids


def _path_ids(paths: np.ndarray):
    """`_unique_rows` of the rounded paths read as bytes: the distinct paths
    come in the byte order of their rounded values, which is the atom order
    of a canonical path law."""
    return _unique_rows(_rounded(paths).reshape(len(paths), -1).view(np.uint8))


def _history_ids(paths: np.ndarray):
    """Per level, `_unique_rows` of the rounded value histories of `paths`
    (m, levels, dim) up to that level: built from (history id at the level
    before, value id)."""
    history = np.zeros(len(paths), dtype=np.intp)
    for i in range(paths.shape[1]):
        values = _unique_rows(_rounded(paths[:, i]))[1]
        first, history = _unique_rows(np.stack([history, values], axis=1))
        yield first, history


class GridError(ValueError):
    """Grid times that are empty, not finite, not strictly increasing in
    (0, 1] or do not end at 1."""


@dataclass(frozen=True)
class TimeGrid:
    """Finite grid 0 < t_1 < ... < t_N = 1.  Zero is the root time, not a member."""

    times: tuple

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        ts = self.times
        if len(ts) == 0:
            raise GridError("empty grid")
        # a NaN fails every comparison below
        if not all(math.isfinite(t) for t in ts):
            raise GridError("grid times must be finite")
        if abs(ts[-1] - 1.0) > TIME_TOL:
            raise GridError("last grid point must be 1")
        prev = 0.0
        for t in ts:
            if t <= prev + TIME_TOL / 10:
                raise GridError("grid times must be strictly increasing in (0,1]")
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


@dataclass(frozen=True)
class Node:
    """One information atom: parent index at the previous level, transition
    probability from the parent (absolute probability for level-0 nodes),
    and the adapted value at this level."""

    parent: Optional[int]
    prob: float
    value: tuple

    def __post_init__(self):
        try:
            v = tuple(map(float, self.value))
        except TypeError:  # not iterable: a scalar or a 0-d array
            v = (float(self.value),)
        object.__setattr__(self, "value", v)


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
        return [np.array([x for nd in lv for x in nd.value], dtype=float)
                .reshape(len(lv), self.dim) for lv in self.levels]

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


def _tree_from_arrays(grid: TimeGrid, parents, probs, values) -> FilteredTree:
    """The tree with, per level, the int parent array `parents[i]` (not read
    at level 0, whose nodes have none), the transition probabilities
    `probs[i]` and the (n, dim) values `values[i]`."""
    levels = []
    for i, (up, p, v) in enumerate(zip(parents, probs, values)):
        p = np.asarray(p, dtype=float).tolist()
        up = [None] * len(p) if i == 0 else np.asarray(up).tolist()
        v = map(tuple, np.asarray(v, dtype=float).tolist())
        levels.append(tuple(map(Node, up, p, v)))
    return FilteredTree(grid, tuple(levels), np.shape(values[0])[1])


def validate(tree: FilteredTree) -> list:
    """Return the list of invariant violations (empty iff the tree is valid)."""
    n = tree.n_levels
    if n != tree.grid.n_steps + 1:
        return [f"levels count {n} != grid size + 1 ({tree.grid.n_steps + 1})"]
    # the levels laid end to end: node k is node k - start[i] of level i
    start = np.cumsum([0] + [len(lv) for lv in tree.levels])

    def located(ks):
        """(k, level, node) for each index k into the levels laid end to end."""
        if not ks.size:
            return ()
        at = np.searchsorted(start, ks, side="right") - 1
        return zip(ks.tolist(), at.tolist(), (ks - start[at]).tolist())

    p = np.concatenate(tree.probs)
    prob_faults = [[] for _ in tree.levels]
    for _, i, j in located(np.flatnonzero(~((p > 0.0) & (p <= 1.0 + PROB_TOL)))):
        prob_faults[i].append(j)
    out = []
    # the structural pass: a level whose parents are all None (level 0) or
    # all Python ints in range, and whose values all have length dim, is
    # visited node by node only where a probability fails
    for i, lv in enumerate(tree.levels):
        if len(lv) == 0:
            out.append(f"empty level {i}")
            return out
        up = [nd.parent for nd in lv]
        n_up = len(tree.levels[i - 1]) if i else 0
        sound = {len(nd.value) for nd in lv} == {tree.dim} and (
            up.count(None) == len(up) if i == 0
            else set(map(type, up)) == {int} and 0 <= min(up) and max(up) < n_up)
        for j in (prob_faults[i] if sound else range(len(lv))):
            if len(lv[j].value) != tree.dim:
                out.append(f"value dimension mismatch at level {i} node {j}")
            if i == 0:
                if up[j] is not None:
                    out.append(f"level-0 node {j} must not have a parent")
            elif up[j] is None:
                out.append(f"orphan node at level {i} node {j}")
            elif isinstance(up[j], bool) or not isinstance(up[j], (int, np.integer)):
                out.append(f"non-integer parent at level {i} node {j}")
            elif not 0 <= up[j] < n_up:
                out.append(f"orphan node at level {i} node {j} (parent out of range)")
            if not p[start[i] + j] > 0.0:
                out.append(f"non-positive probability at level {i} node {j}")
            elif p[start[i] + j] > 1.0 + PROB_TOL:
                out.append(f"probability > 1 at level {i} node {j}")
    if out:
        return out
    # the array checks; the sums add left to right, as a loop over nodes would
    last = -1
    values = np.concatenate(tree.level_values)
    for _, i, j in located(np.flatnonzero(~np.isfinite(values).all(axis=1))):
        if i != last:
            out.append(f"non-finite value at level {i} node {j}")
            last = i
    s0 = np.bincount(tree.parents[0], tree.probs[0])[0]
    if abs(s0 - 1.0) > PROB_TOL:
        out.append(f"root-level probabilities sum to {s0:.12g}")
    # every node below level 0 counts for its parent, also laid end to end
    up = np.concatenate(tree.parents[1:]) + np.repeat(start[:n - 1], np.diff(start)[1:])
    sums = np.bincount(up, p[start[1]:], minlength=start[n - 1])
    # the probabilities are positive, so a sum is 0 only without children
    for k, i, j in located(np.flatnonzero(np.abs(sums - 1.0) > PROB_TOL)):
        out.append(f"node without children at level {i} node {j}" if sums[k] == 0.0
                   else f"node probabilities sum to {sums[k]:.12g} at level {i} node {j}")
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
        """Merge duplicate paths (weights added in path order, the first
        path kept) and sort them by the bytes of their rounded values."""
        first, ids = _path_ids(self.paths)
        return PathLaw(self.grid, np.bincount(ids, self.weights), self.paths[first])


def law(tree: FilteredTree) -> PathLaw:
    """Push the tree forward to its path law (one path per leaf, merged)."""
    check_valid(tree)
    return PathLaw(tree.grid, tree.leaf_probs.copy(), tree.leaf_paths.copy()).canonicalize()


def standard_tree(path_law: PathLaw) -> FilteredTree:
    """Standard naturally filtered process of a path law: atoms are the
    distinct value histories, numbered in the order the paths first reach
    them."""
    paths, weights = path_law.paths, path_law.weights
    parents, probs, values = [], [], []
    node = np.zeros(len(paths), dtype=np.intp)  # the virtual root
    parent_mass = np.ones(1)
    for i, (first, history) in enumerate(_history_ids(paths)):
        seen = np.argsort(first)
        number = np.empty(len(first), dtype=np.intp)
        number[seen] = np.arange(len(first))
        up, node = node, number[history]
        mass = np.bincount(node, weights)
        reps = first[seen]
        parents.append(up[reps])
        probs.append(mass / parent_mass[up[reps]])
        values.append(paths[reps, i])
        parent_mass = mass
    return _tree_from_arrays(path_law.grid, parents, probs, values)


# ---------------------------------------------------------------------------
# Time discretization


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

    parents, probs, values = [None], [tree.probs[0]], [tree.level_values[0]]
    for i in range(1, n):
        lo, hi = src_level[i - 1], src_level[i]
        # the level-hi atoms, hung from their level-lo ancestors with the
        # transition probabilities multiplied from level hi down
        nodes = np.arange(len(tree.levels[hi]))
        parent, trans = nodes, np.ones(len(nodes))
        for lev in range(hi, lo, -1):
            trans = trans * tree.probs[lev][parent]
            parent = tree.parents[lev][parent]
        # the value at time t_i is the value of the level-i ancestor
        at_i = nodes
        for lev in range(hi, i, -1):
            at_i = tree.parents[lev][at_i]
        parents.append(parent)
        probs.append(trans)
        values.append(tree.level_values[i][at_i])
    return _tree_from_arrays(tree.grid, parents, probs, values)


def regrid(tree: FilteredTree, new_grid: TimeGrid) -> FilteredTree:
    """Faithful re-indexing of the same filtered process on a finer grid.

    Values and information are extended cadlag (constant between original
    grid times); requires tree.grid to be a subset of new_grid.
    """
    check_valid(tree)
    for t in tree.grid.times:
        new_grid.index_of(t)
    src_of = [0] + [tree.grid.floor_level(t) for t in new_grid.times]
    parents, probs, values = [None], [tree.probs[0]], [tree.level_values[0]]
    for s_prev, s_cur in zip(src_of, src_of[1:]):
        n = len(tree.levels[s_cur])
        # a level that repeats the one before hangs each node from its copy
        parents.append(np.arange(n) if s_cur == s_prev else tree.parents[s_cur])
        probs.append(np.ones(n) if s_cur == s_prev else tree.probs[s_cur])
        values.append(tree.level_values[s_cur])
    return _tree_from_arrays(new_grid, parents, probs, values)


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


def tree_isomorphic(a: FilteredTree, b: FilteredTree) -> bool:
    """True iff the trees coincide up to reordering of siblings (same grid,
    values and probabilities compared after rounding to `ISO_DECIMALS`).

    Subtrees get integer ids bottom-up, numbered over the nodes of both trees
    at once: a node's id is that of its rounded value together with the
    sorted (rounded probability, id) pairs of its children."""
    if a.dim != b.dim or a.grid.times != b.grid.times:
        return False
    # the nodes one level below, a's first: parent, rounded probability and
    # subtree id (none below the leaves)
    up = prob = ids = np.zeros(0, dtype=np.intp)
    for i in range(a.n_levels - 1, -2, -1):  # level -1 is the virtual root
        values = np.zeros((2, 0)) if i < 0 else _rounded(
            np.concatenate([a.level_values[i], b.level_values[i]]), ISO_DECIMALS)
        order = np.lexsort((ids, prob, up))
        count = np.bincount(up, minlength=len(values))
        start = np.cumsum(count) - count
        # nodes with c children get rows of one width and their own id range
        new_ids = np.empty(len(values), dtype=np.intp)
        offset = 0
        for c in np.unique(count):
            at = np.flatnonzero(count == c)
            kids = order[start[at, None] + np.arange(c)]
            first, local = _unique_rows(np.concatenate(
                [values[at], prob[kids], ids[kids]], axis=1))
            new_ids[at] = offset + local
            offset += len(first)
        ids = new_ids
        if i >= 0:
            shift = len(a.levels[i - 1]) if i else 1
            up = np.concatenate([a.parents[i], b.parents[i] + shift])
            prob = _rounded(np.concatenate([a.probs[i], b.probs[i]]), ISO_DECIMALS)
    return bool(ids[0] == ids[1])


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


def _json_number(v, what: str, types=(int, float)):
    """`v` if it is a JSON number of `types`, never a bool or a string."""
    if isinstance(v, bool) or not isinstance(v, types):
        raise ValueError(f"{what} must be a JSON {'integer' if types is int else 'number'}"
                         f", got {v!r}")
    return v


def tree_from_json(text: str) -> FilteredTree:
    obj = json.loads(text)
    dim = _json_number(obj["dim"], "dim", int)
    grid = TimeGrid(tuple(obj["grid"]))
    levels = [[Node(nd["parent"], float(_json_number(nd["prob"], "prob")),
                    [_json_number(c, "value") for c in nd["value"]]) for nd in lv]
              for lv in obj["levels"]]
    return FilteredTree(grid, levels, dim)
