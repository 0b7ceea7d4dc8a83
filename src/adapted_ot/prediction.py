"""Prediction processes, Hoover-Keisler minimization, natural filtrations.

All three rest on one operation, `_law_labels`: given one integer id per
leaf, label every node by the conditional law of that id given the node's
atom.  The rank-1 prediction process takes as leaf id the value path; rank
k+1 takes the path of rank-k labels along the leaf's ancestry.  The law at a
node fixes the node's own lower-rank label, so each rank refines the
partition of the rank below and the labels stabilize after at most depth+1
steps; the stable partition drives a bisimulation-style quotient.

Two conditional laws count as equal when they give the same ids the same
weights after both are rounded by `trees._rounded` (12 decimals, -0.0
folded into 0.0); values are compared under the same rule.
"""

from __future__ import annotations

import itertools

import numpy as np

from .trees import (FilteredTree, check_valid, law, standard_tree,
                    _history_ids, _rounded, _tree_from_arrays, _unique_rows)


def _law_labels(tree: FilteredTree, leaf_ids: np.ndarray):
    """Per level, per node: an integer label of the conditional law of
    `leaf_ids` given that atom.  One numbering, in first-seen order over
    levels and nodes, serves all levels."""
    lp = tree.leaf_probs
    table = {}
    labels = []
    for i in range(tree.n_levels):
        anc = tree.ancestors[i]
        # leaves grouped by (atom, id), sorted by atom and then by id
        first, of_leaf = _unique_rows(np.stack([anc, leaf_ids], axis=1))
        node = anc[first]
        # both sums add in leaf order, so a Dirac law gets weight exactly 1
        weights = _rounded(np.bincount(of_leaf, lp) / np.bincount(anc, lp)[node])
        keys = np.stack([leaf_ids[first], weights.view(np.int64)], axis=1).tobytes()
        ends = [0] + (16 * np.cumsum(np.bincount(node))).tolist()
        labels.append([table.setdefault(keys[s:e], len(table))
                       for s, e in zip(ends, ends[1:])])
    return labels


def _ranked_labels(tree: FilteredTree):
    """Prediction labels of rank 1, 2, ...: rank 1 labels the conditional
    law of the value path, rank k+1 that of the rank-k label path."""
    ids = _unique_rows(_rounded(tree.leaf_paths))[1]
    while True:
        labels = _law_labels(tree, ids)
        yield labels
        ids = _unique_rows(np.stack([np.asarray(lv)[tree.ancestors[i]]
                                     for i, lv in enumerate(labels)], axis=1))[1]


def prediction_process(tree: FilteredTree, rank: int = 1):
    """Prediction labels of the given rank: list over levels of per-node
    integer labels (equal labels = identical conditional laws)."""
    check_valid(tree)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return next(itertools.islice(_ranked_labels(tree), rank - 1, None))


def stable_labels(tree: FilteredTree):
    """Iterate prediction labels until the node partition stabilizes.

    Returns (labels, rank).  Stabilization happens after at most depth+1
    iterations because each step refines the partition or fixes it.
    """
    check_valid(tree)
    ranks = _ranked_labels(tree)
    labels = next(ranks)
    for rank in range(1, tree.n_levels + 2):
        nxt = next(ranks)
        # rank+1 refines rank on every level, so equal class counts per
        # level mean equal partitions
        if [len(set(lv)) for lv in nxt] == [len(set(lv)) for lv in labels]:
            return labels, rank
        labels = nxt
    raise RuntimeError("prediction labels failed to stabilize")


def hk_minimize(tree: FilteredTree) -> FilteredTree:
    """Quotient the tree by Hoover-Keisler equivalence of its atoms.

    Sibling nodes with equal stable prediction labels are merged (their
    probabilities added); merges higher up make the equal-label descendants
    siblings, so the stable partition of the result is discrete per level.
    The path law is untouched and the adapted distance to the input is 0.
    """
    labels, _ = stable_labels(tree)
    parents, probs, values = [], [], []
    new_of = np.zeros(1, dtype=np.intp)  # the virtual root
    parent_mass = np.ones(1)
    for i in range(tree.n_levels):
        up = new_of[tree.parents[i]]
        first, group = _unique_rows(np.stack([up, labels[i]], axis=1))
        # number the (new parent, label) groups as first seen when the nodes
        # are visited by new parent, and by index within one new parent
        seen = np.lexsort((first, up[first]))
        number = np.empty(len(first), dtype=np.intp)
        number[seen] = np.arange(len(first))
        new_of = number[group]
        mass = np.bincount(new_of, tree.node_probs[i])
        reps = first[seen]
        parents.append(up[reps])
        probs.append(mass / parent_mass[up[reps]])
        values.append(tree.level_values[i][reps])
        parent_mass = mass
    return _tree_from_arrays(tree.grid, parents, probs, values)


def is_naturally_filtered(tree: FilteredTree) -> bool:
    """True iff the filtration reveals nothing beyond the path history:
    nodes with identical realized value histories share their rank-1 label."""
    labels = prediction_process(tree, 1)
    for i, (_, history) in enumerate(_history_ids(tree.leaf_paths)):
        # natural iff there are no more (history, label) pairs than histories
        pairs = np.stack([history, np.asarray(labels[i])[tree.ancestors[i]]], axis=1)
        if _unique_rows(pairs)[1].max() != history.max():
            return False
    return True


def natural_tree(tree: FilteredTree) -> FilteredTree:
    """Standard naturally filtered process carrying law(tree)."""
    return standard_tree(law(tree))
