import numpy as np
import pytest

from adapted_ot import (FilteredTree, Node, TimeGrid, coarsen_filtration,
                        counterexample_pair, discretize_path, law,
                        random_tree, regrid,
                        standard_tree, tree_from_json, tree_isomorphic,
                        tree_to_json, validate)
from adapted_ot.solvers import aw

from conftest import deterministic_tree, two_coin_tree


def test_grid_invariants():
    g = TimeGrid((0.25, 0.5, 1.0))
    assert g.mesh() == 0.5
    assert g.ceil(0.3) == 0.5
    assert g.ceil(0.25) == 0.5  # strictly larger
    assert g.ceil(1.0) == 1.0
    assert g.floor_level(0.3) == 1
    assert g.floor_level(0.25) == 1
    assert g.floor_level(0.1) == 0
    with pytest.raises(ValueError):
        TimeGrid((0.5, 0.9))  # last != 1
    with pytest.raises(ValueError):
        TimeGrid((0.5, 0.5, 1.0))


def test_validate_well_formed(fig1):
    p, pe = fig1
    assert validate(p) == []
    assert validate(pe) == []
    assert validate(two_coin_tree()) == []


def test_validate_bad_probability_sum():
    g = TimeGrid((0.5, 1.0))
    bad = FilteredTree(g, (
        (Node(None, 1.0, (1.0,)),),
        (Node(0, 1.0, (1.0,)),),
        (Node(0, 0.5, (2.0,)), Node(0, 0.4, (0.0,))),
    ))
    out = validate(bad)
    assert any("probabilities sum to 0.9" in msg for msg in out)


def test_validate_orphan():
    g = TimeGrid((1.0,))
    bad = FilteredTree(g, (
        (Node(None, 1.0, (0.0,)),),
        (Node(None, 1.0, (1.0,)),),
    ))
    assert any("orphan" in msg for msg in validate(bad))


def test_law_fig1(fig1):
    p, _ = fig1
    lw = law(p)
    assert np.allclose(np.sort(lw.weights), [0.5, 0.5])
    paths = sorted(tuple(q) for q in lw.paths[:, :, 0])
    assert paths == [(1.0, 1.0, 0.0), (1.0, 1.0, 2.0)]


def test_law_deterministic():
    lw = law(deterministic_tree())
    assert lw.weights.shape == (1,)
    assert lw.weights[0] == 1.0


def test_law_merges_duplicate_paths():
    # two leaves carrying identical paths, weights 1/4 and 3/4
    g = TimeGrid((1.0,))
    t = FilteredTree(g, (
        (Node(None, 1.0, (0.0,)),),
        (Node(0, 0.25, (1.0,)), Node(0, 0.75, (1.0,))),
    ))
    lw = law(t)
    # oracle: sort leaf paths and sum weights of equal ones
    probs = {}
    for w, path in zip(t.leaf_probs, t.leaf_paths[:, :, 0]):
        probs[tuple(np.round(path, 12))] = probs.get(tuple(np.round(path, 12)), 0) + w
    assert len(lw.weights) == len(probs) == 1
    assert lw.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_json_roundtrip(rng):
    for _ in range(10):
        t = random_tree(rng)
        text = tree_to_json(t)
        back = tree_from_json(text)
        assert tree_to_json(back) == text
        assert validate(back) == []
        assert back.grid.times == t.grid.times
        assert np.array_equal(back.leaf_paths, t.leaf_paths)


def test_discretize_constant():
    src = TimeGrid((0.25, 0.5, 0.75, 1.0))
    tgt = TimeGrid((0.5, 1.0))
    vals = np.full((5, 1), 3.25)
    out = discretize_path(vals, src, tgt)
    assert np.array_equal(out, np.full((3, 1), 3.25))


def test_discretize_indexing(rng):
    # 8-step path onto the 4-step half-grid: direct index oracle
    src = TimeGrid(tuple((i + 1) / 8 for i in range(8)))
    tgt = TimeGrid(tuple((i + 1) / 4 for i in range(4)))
    vals = rng.standard_normal((9, 1))
    out = discretize_path(vals, src, tgt)
    assert np.array_equal(out, vals[[0, 2, 4, 6, 8]])


def test_discretize_ramp_left_limit_convention():
    # linear ramp on a fine grid, restricted to {1/2, 1}
    src = TimeGrid(tuple((i + 1) / 10 for i in range(10)))
    vals = np.linspace(0.0, 1.0, 11)[:, None]
    out = discretize_path(vals, src, TimeGrid((0.5, 1.0)))
    assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])


def test_discretize_idempotent(rng):
    src = TimeGrid(tuple((i + 1) / 6 for i in range(6)))
    tgt = TimeGrid((1 / 3, 2 / 3, 1.0))
    vals = rng.standard_normal((7, 1))
    once = discretize_path(vals, src, tgt)
    again = discretize_path(once, tgt, tgt)
    assert np.array_equal(once, again)


def test_discretize_rejects_missing_times():
    src = TimeGrid((0.5, 1.0))
    with pytest.raises(ValueError):
        discretize_path(np.zeros((3, 1)), src, TimeGrid((0.25, 1.0)))


def test_coarsen_identity(fig1):
    p, pe = fig1
    for t in (p, pe, two_coin_tree()):
        assert tree_isomorphic(coarsen_filtration(t, t.grid), t)


def test_coarsen_terminal_only_rw():
    from adapted_ot import random_walk_tree
    t = random_walk_tree(3)
    c = coarsen_filtration(t, TimeGrid((1.0,)))
    assert validate(c) == []
    # all information arrives with the first grid time: every later level
    # carries the full leaf partition
    assert [len(lv) for lv in c.levels] == [1, 8, 8, 8]
    assert law(c).weights.shape == law(t).weights.shape
    rep = aw(t, c, 1.0)
    assert rep.value <= 1.0 + 1e-9  # mesh({1}) = 1


def test_coarsen_preserves_law(rng):
    for _ in range(25):
        t = random_tree(rng)
        times = list(t.grid.times[:-1])
        keep = [s for s in times if rng.random() < 0.5] + [1.0]
        c = coarsen_filtration(t, TimeGrid(tuple(sorted(keep))))
        assert validate(c) == []
        la, lb = law(t), law(c)
        assert np.allclose(la.weights, lb.weights, atol=1e-12)
        assert np.allclose(la.paths, lb.paths, atol=1e-12)


def test_coarsen_fig1_to_terminal(fig1):
    _, pe = fig1
    c = coarsen_filtration(pe, TimeGrid((1.0,)))
    # the branch is already revealed at 1/2, so nothing changes
    assert tree_isomorphic(c, pe)
    la, lb = law(pe), law(c)
    assert np.allclose(la.paths, lb.paths)


def test_regrid_faithful(fig1):
    p, _ = fig1
    fine = TimeGrid((0.25, 0.5, 0.75, 1.0))
    r = regrid(p, fine)
    assert validate(r) == []
    assert r.n_levels == 5
    # same law after restriction back
    lw = law(r)
    assert np.allclose(np.sort(lw.weights), [0.5, 0.5])
    assert aw(r, p, 1.0).value <= 1e-10


def test_standard_tree_carries_law(rng):
    for _ in range(10):
        t = random_tree(rng)
        s = standard_tree(law(t))
        assert validate(s) == []
        la, lb = law(t), law(s)
        assert np.allclose(la.weights, lb.weights, atol=1e-12)
        assert np.allclose(la.paths, lb.paths, atol=1e-12)


def test_isomorphism_permutation_invariance():
    g = TimeGrid((1.0,))
    a = FilteredTree(g, (
        (Node(None, 1.0, (0.0,)),),
        (Node(0, 0.25, (1.0,)), Node(0, 0.75, (-1.0,))),
    ))
    b = FilteredTree(g, (
        (Node(None, 1.0, (0.0,)),),
        (Node(0, 0.75, (-1.0,)), Node(0, 0.25, (1.0,))),
    ))
    assert tree_isomorphic(a, b)
    c = FilteredTree(g, (
        (Node(None, 1.0, (0.0,)),),
        (Node(0, 0.5, (1.0,)), Node(0, 0.5, (-1.0,))),
    ))
    assert not tree_isomorphic(a, c)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_non_finite_value(fig1, value):
    p, pe = fig1
    last = list(p.levels[-1])
    last[0] = Node(last[0].parent, last[0].prob, (value,))
    bad = FilteredTree(p.grid, p.levels[:-1] + (tuple(last),), p.dim)
    assert validate(bad) == ["non-finite value at level 2 node 0"]
    with pytest.raises(ValueError, match="non-finite value"):
        aw(bad, pe)


def _trees_for_children_sum(rng):
    trees = [random_tree(rng, max_steps=4, dim=2, root_atoms=3) for _ in range(8)]
    return trees + list(counterexample_pair(2, 4))  # single-child levels


def test_children_sum_matches_children_loop(rng):
    for tree in _trees_for_children_sum(rng):
        for i in range(tree.n_levels - 1):
            kids = tree.levels[i + 1]
            for shape in ((len(kids),), (len(kids), tree.dim)):
                x = rng.normal(size=shape)
                want = np.zeros((len(tree.levels[i]),) + shape[1:])
                for v, cs in enumerate(tree.children[i]):
                    for c in cs:
                        want[v] += kids[c].prob * x[c]
                assert np.array_equal(tree.children_sum(i, x), want)
        x = rng.normal(size=len(tree.levels[0]))
        root = sum(nd.prob * x[j] for j, nd in enumerate(tree.levels[0]))
        assert tree.children_sum(-1, x).tolist() == [root]


def test_node_probs_and_ancestors_match_node_loops(rng):
    for tree in _trees_for_children_sum(rng):
        probs = [np.array([nd.prob for nd in tree.levels[0]])]
        for lv in tree.levels[1:]:
            probs.append(np.array([probs[-1][nd.parent] * nd.prob for nd in lv]))
        for got, want in zip(tree.node_probs, probs):
            assert np.array_equal(got, want)
        for k in range(tree.n_leaves):
            j = k
            for i in range(tree.n_levels - 1, -1, -1):
                assert tree.ancestors[i][k] == j
                j = tree.levels[i][j].parent
