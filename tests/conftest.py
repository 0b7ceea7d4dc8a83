import numpy as np
import pytest
from hypothesis import settings

from adapted_ot import (EpsShift, FilteredTree, Node, TimeGrid, figure1_pair,
                        random_tree)

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None,
                          max_examples=200, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def fig1():
    return figure1_pair(0.1)


@pytest.fixture
def lp_calls(monkeypatch):
    """The (c, A, b) of every `lp_solve` call made inside the test.  The
    name is patched in `adapted_ot.lp`, where `transport_lp` and
    `transport_batch` look it up, so every HiGHS call is seen; the
    keywords (presolve) are passed on."""
    import adapted_ot.lp as lp

    calls = []
    solve = lp.lp_solve

    def counted(c, A, b, **kwargs):
        calls.append((c, A, b))
        return solve(c, A, b, **kwargs)
    monkeypatch.setattr(lp, "lp_solve", counted)
    return calls


def interior_shift(grid, steps):
    """EpsShift of `steps` levels priced over the interior times only: the
    largest t_{min(i+steps, N)} - t_i for 0 < i < N.  That is the distances'
    price when each root holds one atom; they also count the root time when
    a root holds several."""
    n, t = grid.n_steps, grid.level_time
    price = max((t(min(i + steps, n)) - t(i) for i in range(1, n)), default=0.0)
    return EpsShift(steps, price if steps > 0 else 0.0)


def all_levels_distances(a, b, grid, metric):
    """Oracle: the path distances between the value paths a (m, levels, dim)
    and b (n, levels, dim) from one (m, n, levels) array of distances.  The
    l1 terms are added level by level in time order."""
    dist = np.linalg.norm(a[:, None, :, :] - b[None, :, :, :], axis=-1)
    if metric == "sup":
        return dist.max(axis=-1)
    dt = np.append(np.diff(np.array((0.0,) + grid.times)), 1.0)
    out = np.zeros(dist.shape[:2])
    for i in range(dist.shape[-1]):
        out = out + dt[i] * dist[:, :, i]
    return out


def rank1_conditional_laws(tree):
    """Oracle: per level, per node, (weights, leaf_indices) of the
    conditional path law given that atom.  Path data itself lives in
    tree.leaf_paths."""
    out = []
    lp = tree.leaf_probs
    for i in range(tree.n_levels):
        anc = tree.ancestors[i]
        bounds = np.cumsum(np.bincount(anc, minlength=len(tree.levels[i])))[:-1]
        per_node = []
        for leaves in np.split(np.argsort(anc, kind="stable"), bounds):
            w = lp[leaves]
            per_node.append((w / w.sum(), leaves))
        out.append(per_node)
    return out


def two_coin_tree():
    """Fair coin at t=1/2 then fair coin at t=1, values are partial sums."""
    g = TimeGrid((0.5, 1.0))
    return FilteredTree(g, (
        (Node(None, 1.0, (0.0,)),),
        (Node(0, 0.5, (1.0,)), Node(0, 0.5, (-1.0,))),
        (Node(0, 0.5, (2.0,)), Node(0, 0.5, (0.0,)),
         Node(1, 0.5, (0.0,)), Node(1, 0.5, (-2.0,))),
    ))


def deterministic_tree(values=(0.0, 0.3, 1.0)):
    n = len(values) - 1
    g = TimeGrid(tuple((i + 1) / n for i in range(n)))
    levels = [(Node(None, 1.0, (values[0],)),)]
    for v in values[1:]:
        levels.append((Node(0, 1.0, (v,)),))
    return FilteredTree(g, tuple(levels), 1)


def coarse_tree(rng, **kwargs):
    """`random_tree` with every value rounded to -1, 0 or 1, so that sibling
    atoms with equal conditional laws and filtrations richer than the path
    history are common."""
    t = random_tree(rng, **kwargs)
    return FilteredTree(t.grid, tuple(
        tuple(Node(nd.parent, nd.prob, tuple(np.rint(nd.value) + 0.0)) for nd in lv)
        for lv in t.levels), t.dim)


def shuffled(tree, rng):
    """The same tree with its node order permuted within every level."""
    perms = [rng.permutation(len(lv)) for lv in tree.levels]
    new_index = [np.argsort(p) for p in perms]
    levels = []
    for i, (lv, perm) in enumerate(zip(tree.levels, perms)):
        levels.append(tuple(
            Node(None if i == 0 else int(new_index[i - 1][lv[j].parent]),
                 lv[j].prob, lv[j].value)
            for j in perm))
    return FilteredTree(tree.grid, tuple(levels), tree.dim)
