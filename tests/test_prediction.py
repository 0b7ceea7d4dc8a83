import numpy as np
import pytest

from adapted_ot import (FilteredTree, Node, TimeGrid, hk_minimize,
                        is_naturally_filtered, law, natural_tree,
                        prediction_process, random_tree, stable_labels,
                        tree_isomorphic, validate)

from conftest import coarse_tree, deterministic_tree, rank1_conditional_laws


def split_middle_tree():
    """Law of the fig-1 left process, but the middle node is split so the
    filtration reveals the terminal branch while values stay equal."""
    g = TimeGrid((0.5, 1.0))
    return FilteredTree(g, (
        (Node(None, 1.0, (1.0,)),),
        (Node(0, 0.5, (1.0,)), Node(0, 0.5, (1.0,))),
        (Node(0, 1.0, (2.0,)), Node(1, 1.0, (0.0,))),
    ))


def early_reveal_tree():
    """Level-1 siblings A and B with the same conditional path law; A splits
    into the two terminal branches one level before B does."""
    g = TimeGrid((1 / 3, 2 / 3, 1.0))
    return FilteredTree(g, (
        (Node(None, 1.0, (0.0,)),),
        (Node(0, 0.5, (1.0,)), Node(0, 0.5, (1.0,))),
        (Node(0, 0.5, (1.0,)), Node(0, 0.5, (1.0,)), Node(1, 1.0, (1.0,))),
        (Node(0, 1.0, (2.0,)), Node(1, 1.0, (0.0,)),
         Node(2, 0.5, (2.0,)), Node(2, 0.5, (0.0,))),
    ))


def coin_layer_tree():
    """An F0-measurable fair coin that never affects the values."""
    g = TimeGrid((0.5, 1.0))
    return FilteredTree(g, (
        (Node(None, 0.5, (0.0,)), Node(None, 0.5, (0.0,))),
        (Node(0, 1.0, (0.0,)), Node(1, 1.0, (0.0,))),
        (Node(0, 0.5, (1.0,)), Node(0, 0.5, (-1.0,)),
         Node(1, 0.5, (1.0,)), Node(1, 0.5, (-1.0,))),
    ))


def test_rank1_label_fig1_middle(fig1):
    p, pe = fig1
    # P's middle node: conditional law {1/2 each path}; both leaves share it
    labels = prediction_process(p, 1)
    cl = rank1_conditional_laws(p)[1][0]
    assert np.allclose(np.sort(cl[0]), [0.5, 0.5])
    # Pe's upper middle node: a Dirac at its single continuation
    labels_pe = prediction_process(pe, 1)
    cls = rank1_conditional_laws(pe)[1]
    assert len(cls[0][0]) == 1 and cls[0][0][0] == pytest.approx(1.0)
    assert labels_pe[1][0] != labels_pe[1][1]


def law_keys(tree, leaf_items):
    """Oracle: per node of every level, the conditional law of the per-leaf
    items given that atom, built by a loop over the atom's leaves."""
    keys = []
    for i in range(tree.n_levels):
        for v in range(len(tree.levels[i])):
            law_v = {}
            for k in tree.leaves_under(i, v):
                law_v[leaf_items[k]] = law_v.get(leaf_items[k], 0.0) + tree.leaf_probs[k]
            mass = sum(law_v.values())
            keys.append(tuple(sorted((it, round(w / mass, 12)) for it, w in law_v.items())))
    return keys


def test_labels_match_conditional_law_oracle(rng):
    # equal labels, on one level or across levels, iff equal conditional laws
    trees = [random_tree(rng, root_atoms=2) for _ in range(10)]
    trees += [coarse_tree(rng, root_atoms=2) for _ in range(20)]
    for t in trees:
        items = [tuple(np.round(p, 12).ravel()) for p in t.leaf_paths]
        for rank in (1, 2, 3):
            labels = prediction_process(t, rank)
            flat = [lab for lv in labels for lab in lv]
            keys = law_keys(t, items)
            assert len(set(flat)) == len(set(keys)) == len(set(zip(flat, keys)))
            items = [tuple(labels[i][t.ancestors[i][k]] for i in range(t.n_levels))
                     for k in range(t.n_leaves)]


def test_deterministic_tree_all_dirac():
    t = deterministic_tree()
    for rank in (1, 2, 3):
        labels = prediction_process(t, rank)
        for lv in labels:
            assert len(set(lv)) == 1


def test_labels_stabilize_quickly(rng):
    for _ in range(100):
        t = random_tree(rng)
        _, rank = stable_labels(t)
        assert rank <= t.n_levels + 1


def test_hk_minimize_merges_equal_siblings():
    g = TimeGrid((1.0,))
    t = FilteredTree(g, (
        (Node(None, 1.0, (0.0,)),),
        (Node(0, 0.25, (1.0,)), Node(0, 0.75, (1.0,))),
    ))
    m = hk_minimize(t)
    assert [len(lv) for lv in m.levels] == [1, 1]
    assert m.levels[1][0].prob == pytest.approx(1.0, abs=1e-15)


def test_hk_minimize_fig1_right_already_minimal(fig1):
    _, pe = fig1
    m = hk_minimize(pe)
    assert tree_isomorphic(m, pe)
    # oracle: no two same-level nodes share stable labels
    labels, _ = stable_labels(pe)
    for lv in labels:
        assert len(set(lv)) == len(lv)


def test_hk_minimize_collapses_coin_layer():
    t = coin_layer_tree()
    m = hk_minimize(t)
    assert [len(lv) for lv in m.levels] == [1, 1, 2]
    # oracle: stabilized labels coincide across the coin branches
    labels, _ = stable_labels(t)
    assert labels[0][0] == labels[0][1]
    assert labels[1][0] == labels[1][1]
    la, lb = law(t), law(m)
    assert np.allclose(la.weights, lb.weights, atol=1e-12)
    assert np.allclose(la.paths, lb.paths, atol=1e-12)


def test_rank2_separates_early_revelation():
    t = early_reveal_tree()
    rank1, rank2 = prediction_process(t, 1), prediction_process(t, 2)
    assert rank1[1][0] == rank1[1][1]
    assert rank2[1][0] != rank2[1][1]
    assert [len(lv) for lv in hk_minimize(t).levels] == [1, 2, 3, 4]
    assert not is_naturally_filtered(t)


def test_hk_minimize_preserves_law(rng):
    trees = [random_tree(rng, root_atoms=int(rng.integers(1, 3))) for _ in range(50)]
    trees += [coarse_tree(rng, root_atoms=int(rng.integers(1, 3))) for _ in range(50)]
    for t in trees:
        m = hk_minimize(t)
        assert validate(m) == []
        la, lb = law(t), law(m)
        assert np.allclose(la.weights, lb.weights, atol=1e-12)
        assert np.allclose(la.paths, lb.paths, atol=1e-12)
        # minimality: within every parent, children carry distinct labels
        labels, _ = stable_labels(m)
        for i in range(m.n_levels - 1):
            for ch in m.children[i]:
                labs = [labels[i + 1][c] for c in ch]
                assert len(set(labs)) == len(labs)


def test_is_naturally_filtered_cases(fig1):
    p, pe = fig1
    assert is_naturally_filtered(p)
    assert is_naturally_filtered(pe)  # the values at 1/2 separate the atoms
    assert is_naturally_filtered(deterministic_tree())
    assert not is_naturally_filtered(split_middle_tree())
    # the no-op coin adds no information about the path, so the process is
    # still equivalent to its naturally filtered representative
    assert is_naturally_filtered(coin_layer_tree())


def test_natural_tree_of_random_laws(rng):
    for _ in range(30):
        t = random_tree(rng)
        s = natural_tree(t)
        assert is_naturally_filtered(hk_minimize(s))
        assert is_naturally_filtered(s)


def test_split_middle_has_plain_natural_tree():
    s = natural_tree(split_middle_tree())
    # the standard naturally filtered process of that law is the fig-1 left tree
    from adapted_ot import figure1_pair
    assert tree_isomorphic(s, figure1_pair(0.1)[0])
