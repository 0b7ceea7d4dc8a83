import numpy as np
import pytest

from adapted_ot import (FilteredTree, GridError, Node, PathLaw, TimeGrid,
                        coarsen_filtration, counterexample_pair, law,
                        natural_tree, random_tree, regrid, standard_tree,
                        tree_from_json, tree_isomorphic, tree_to_json,
                        validate)
from adapted_ot.solvers import aw
from adapted_ot.trees import TIME_TOL

from conftest import (coarse_tree, deterministic_tree, rank1_conditional_laws,
                      shuffled, two_coin_tree)


def test_grid_invariants():
    g = TimeGrid((0.25, 0.5, 1.0))
    assert g.mesh() == 0.5
    assert g.floor_level(0.3) == 1
    assert g.floor_level(0.25) == 1
    assert g.floor_level(0.1) == 0
    with pytest.raises(ValueError):
        TimeGrid((0.5, 0.9))  # last != 1
    with pytest.raises(ValueError):
        TimeGrid((0.5, 0.5, 1.0))


@pytest.mark.parametrize("times", [(float("nan"),), (0.5, float("nan")),
                                   (float("nan"), 1.0), (float("-inf"), 1.0)])
def test_grid_rejects_non_finite_times(times):
    # a NaN fails every comparison, so it must be caught by name
    with pytest.raises(GridError, match="grid times must be finite"):
        TimeGrid(times)


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


def _nodes(*levels, times=(0.5, 1.0), dim=1):
    """A tree from (parent, prob, value) triples per level."""
    return FilteredTree(TimeGrid(times), tuple(
        tuple(Node(*nd) for nd in lv) for lv in levels), dim)


_ROOT = [(None, 1.0, (0.0,))]
_COIN = [(0, 0.5, (1.0,)), (0, 0.5, (-1.0,))]
_NEAR = 1.0 - 0.9e-12   # off 1 by less than PROB_TOL

# One malformed tree per message of `validate`, then trees with several
# faults, each with the exact list of messages.
VALIDATE_CASES = {
    "level count": (_nodes(_ROOT, _COIN),
                    ["levels count 2 != grid size + 1 (3)"]),
    "empty level": (_nodes(_ROOT, [], times=(1.0,)), ["empty level 1"]),
    "dimension": (_nodes(_ROOT, [(0, 0.5, (1.0,)), (0, 0.5, (1.0, 2.0))],
                         times=(1.0,)),
                  ["value dimension mismatch at level 1 node 1"]),
    "level-0 parent": (_nodes([(0, 1.0, (0.0,))], _COIN, times=(1.0,)),
                       ["level-0 node 0 must not have a parent"]),
    "orphan": (_nodes(_ROOT, [(0, 0.5, (1.0,)), (None, 0.5, (1.0,))],
                      times=(1.0,)),
               ["orphan node at level 1 node 1"]),
    "parent out of range": (
        _nodes(_ROOT, [(-1, 0.5, (1.0,)), (1, 0.5, (1.0,))], times=(1.0,)),
        ["orphan node at level 1 node 0 (parent out of range)",
         "orphan node at level 1 node 1 (parent out of range)"]),
    "non-positive probability": (
        _nodes(_ROOT, [(0, 0.0, (1.0,)), (0, np.nan, (1.0,)), (0, 1.0, (2.0,))],
               times=(1.0,)),
        ["non-positive probability at level 1 node 0",
         "non-positive probability at level 1 node 1"]),
    "probability > 1": (_nodes(_ROOT, [(0, 1.5, (1.0,))], times=(1.0,)),
                        ["probability > 1 at level 1 node 0"]),
    "root sum": (_nodes([(None, 0.5, (0.0,)), (None, 0.4, (1.0,))],
                        [(0, 1.0, (0.0,)), (1, 1.0, (1.0,))], times=(1.0,)),
                 ["root-level probabilities sum to 0.9"]),
    "childless node": (_nodes(_ROOT, _COIN, [(0, 1.0, (1.0,))]),
                       ["node without children at level 1 node 1"]),
    "children sum": (_nodes(_ROOT, _COIN, [(0, 0.6, (1.0,)), (1, 1.0, (-1.0,)),
                                           (0, 0.3, (2.0,))]),
                     ["node probabilities sum to 0.9 at level 1 node 0"]),
    "non-finite value": (_nodes(_ROOT, [(0, 0.5, (1.0,)), (0, 0.25, (np.inf,)),
                                        (0, 0.25, (np.nan,))], times=(1.0,)),
                         ["non-finite value at level 1 node 1"]),
    "leaf sum": (_nodes([(None, _NEAR, (0.0,))], [(0, _NEAR, (0.0,))],
                        [(0, _NEAR, (0.0,))]),
                 ["leaf probabilities sum to 0.999999999997"]),
    "probability and parent faults in one level": (
        _nodes(_ROOT, [(0, 0.0, (1.0,)), (None, 0.5, (1.0, 2.0)), (0, 2.0, (1.0,))],
               times=(1.0,)),
        ["non-positive probability at level 1 node 0",
         "value dimension mismatch at level 1 node 1",
         "orphan node at level 1 node 1",
         "probability > 1 at level 1 node 2"]),
    "structural faults on two levels": (
        _nodes([(None, 2.0, (0.0,))], [(3, 0.5, (1.0,)), (0, 0.5, (1.0,))],
               [(0, 1.0, (1.0, 1.0)), (1, 1.0, (1.0,))]),
        ["probability > 1 at level 0 node 0",
         "orphan node at level 1 node 0 (parent out of range)",
         "value dimension mismatch at level 2 node 0"]),
    "sum faults on two levels": (
        _nodes([(None, 0.5, (np.nan,)), (None, 0.6, (0.0,))],
               [(0, 0.5, (1.0,)), (0, 0.4, (1.0,)), (1, 1.0, (np.nan,))],
               [(0, 1.0, (1.0,)), (2, 1.0, (1.0,))]),
        ["non-finite value at level 0 node 0",
         "non-finite value at level 1 node 2",
         "root-level probabilities sum to 1.1",
         "node probabilities sum to 0.9 at level 0 node 0",
         "node without children at level 1 node 1"]),
}


@pytest.mark.parametrize("case", list(VALIDATE_CASES))
def test_validate_messages(case):
    tree, messages = VALIDATE_CASES[case]
    assert validate(tree) == messages


@pytest.mark.parametrize("parent", ["0", 0.5, 0.0, True, np.float64(0.0), [0]])
def test_validate_non_integer_parent(parent):
    bad = _nodes(_ROOT, [(0, 0.5, (1.0,)), (parent, 0.5, (-1.0,))], times=(1.0,))
    assert validate(bad) == ["non-integer parent at level 1 node 1"]
    good = _nodes(_ROOT, [(0, 0.5, (1.0,)), (np.int64(0), 0.5, (-1.0,))],
                  times=(1.0,))
    assert validate(good) == []


def _validate_oracle(tree):
    """`validate` as a loop over nodes: the messages in the same order."""
    out = []
    n = tree.n_levels
    if n != tree.grid.n_steps + 1:
        return [f"levels count {n} != grid size + 1 ({tree.grid.n_steps + 1})"]
    for i, lv in enumerate(tree.levels):
        if len(lv) == 0:
            return out + [f"empty level {i}"]
        for j, nd in enumerate(lv):
            if len(nd.value) != tree.dim:
                out.append(f"value dimension mismatch at level {i} node {j}")
            if i == 0:
                if nd.parent is not None:
                    out.append(f"level-0 node {j} must not have a parent")
            elif nd.parent is None:
                out.append(f"orphan node at level {i} node {j}")
            elif (isinstance(nd.parent, bool)
                  or not isinstance(nd.parent, (int, np.integer))):
                out.append(f"non-integer parent at level {i} node {j}")
            elif not (0 <= nd.parent < len(tree.levels[i - 1])):
                out.append(f"orphan node at level {i} node {j} (parent out of range)")
            if not (nd.prob > 0.0):
                out.append(f"non-positive probability at level {i} node {j}")
            elif nd.prob > 1.0 + 1e-12:
                out.append(f"probability > 1 at level {i} node {j}")
    if out:
        return out
    for i, lv in enumerate(tree.levels):
        bad = [j for j, nd in enumerate(lv) if not np.isfinite(nd.value).all()]
        if bad:
            out.append(f"non-finite value at level {i} node {bad[0]}")
    s0 = sum(nd.prob for nd in tree.levels[0])
    if abs(s0 - 1.0) > 1e-12:
        out.append(f"root-level probabilities sum to {s0:.12g}")
    for i in range(n - 1):
        sums = {}
        for nd in tree.levels[i + 1]:
            sums[nd.parent] = sums.get(nd.parent, 0.0) + nd.prob
        for j in range(len(tree.levels[i])):
            s = sums.get(j)
            if s is None:
                out.append(f"node without children at level {i} node {j}")
            elif abs(s - 1.0) > 1e-12:
                out.append(f"node probabilities sum to {s:.12g} at level {i} node {j}")
    if not out:
        s = float(tree.leaf_probs.sum())
        if abs(s - 1.0) > 1e-12:
            out.append(f"leaf probabilities sum to {s:.12g}")
    return out


def _malformed(tree, rng):
    """A copy of `tree` with up to three faults: a bad parent, probability
    or value, or a node dropped (its children then point elsewhere)."""
    levels = [list(lv) for lv in tree.levels]
    for _ in range(int(rng.integers(4))):
        i = int(rng.integers(len(levels)))
        if not levels[i]:
            continue
        j = int(rng.integers(len(levels[i])))
        nd = levels[i][j]
        n_up = len(levels[i - 1]) if i else 1
        parent, prob, value = nd.parent, nd.prob, nd.value
        kind = int(rng.integers(5))
        if kind == 0:
            options = [None, -1, 0, n_up, n_up + 2, 0.5, 0.0, "0", True, np.int64(0)]
            parent = options[int(rng.integers(len(options)))]
        elif kind == 1:
            options = [0.0, -0.25, np.nan, np.inf, 1.5, prob * 0.9, prob + 1e-13]
            prob = options[int(rng.integers(len(options)))]
        elif kind == 2:
            value = value + (1.0,) if rng.random() < 0.5 else value[1:]
        elif kind == 3:
            value = (np.nan if rng.random() < 0.5 else -np.inf,) + value[1:]
        else:
            del levels[i][j]
            continue
        levels[i][j] = Node(parent, prob, value)
    return FilteredTree(tree.grid, tuple(map(tuple, levels)), tree.dim)


def test_validate_matches_node_loop_oracle(rng):
    trees = [random_tree(rng, max_steps=4, root_atoms=int(rng.integers(1, 3)),
                         dim=int(rng.integers(1, 3)), branching=(1, 2, 3))
             for _ in range(150)]
    for t in trees + [_malformed(t, rng) for t in trees for _ in range(4)]:
        assert validate(t) == _validate_oracle(t)


def test_only_trees_module_makes_nodes():
    """Every tree the package builds goes through the level-array builder of
    `adapted_ot.trees`; `figure1_pair` alone writes its trees as literals."""
    import ast
    import pathlib

    import adapted_ot
    makers = set()
    for path in pathlib.Path(adapted_ot.__file__).parent.glob("*.py"):
        if path.name == "trees.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and "Node" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    makers.add((path.name, getattr(stmt, "name", None)))
    assert makers == {("generators.py", "figure1_pair")}


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


# Oracles: the dict-keyed loops that grouped paths and walked ancestors
# node by node before the array versions; kept here as independent checks.

def _key(x):
    return (np.round(x, 12) + 0.0).tobytes()


def oracle_law(tree):
    """(weights, paths): equal rounded paths merged, weights added in leaf
    order, the first path kept, atoms sorted by the bytes of their key."""
    buckets = {}
    for w, p in zip(tree.leaf_probs, tree.leaf_paths):
        k = _key(p)
        if k in buckets:
            buckets[k][0] += float(w)
        else:
            buckets[k] = [float(w), p]
    items = sorted(buckets.items(), key=lambda kv: kv[0])
    return (np.array([v[0] for _, v in items]),
            np.array([v[1] for _, v in items]))


def oracle_standard_tree(grid, weights, paths):
    """Nodes are (parent node, rounded value) groups of the paths, numbered
    in the order the paths first reach them."""
    m, n_levels, dim = paths.shape
    node_of_path = [None] * m
    levels = []
    for i in range(n_levels):
        index, nodes, new = {}, [], []
        for k in range(m):
            key = (node_of_path[k], _key(paths[k, i]))
            if key not in index:
                index[key] = len(nodes)
                nodes.append([key[0], 0.0, paths[k, i]])
            nodes[index[key]][1] += float(weights[k])
            new.append(index[key])
        levels.append(tuple(
            Node(up, w if i == 0 else w / levels_mass[up], tuple(v))
            for up, w, v in nodes))
        levels_mass = [w for _, w, _ in nodes]
        node_of_path = new
    return FilteredTree(grid, tuple(levels), dim)


def oracle_coarsen(tree, target):
    src_level = [0] + [
        tree.grid.index_of(min(s for s in target.times
                               if s >= tree.grid.level_time(i) - TIME_TOL)) + 1
        for i in range(1, tree.n_levels)]
    levels = [tree.levels[0]]
    for i in range(1, tree.n_levels):
        lo, hi = src_level[i - 1], src_level[i]
        nodes = []
        for j in range(len(tree.levels[hi])):
            k, lev, trans = j, hi, 1.0
            while lev > lo:
                nd = tree.levels[lev][k]
                trans *= nd.prob
                k, lev = nd.parent, lev - 1
            a, lev = j, hi
            while lev > i:
                a, lev = tree.levels[lev][a].parent, lev - 1
            nodes.append(Node(k, trans, tree.levels[i][a].value))
        levels.append(tuple(nodes))
    return FilteredTree(tree.grid, tuple(levels), tree.dim)


def _redrawn_probs(tree, rng):
    """The tree with every sibling group's probabilities redrawn from a
    flat Dirichlet law."""
    levels = []
    for lv, up in zip(tree.levels, tree.parents):
        probs = np.empty(len(lv))
        for p in range(up.max() + 1):
            kids = np.flatnonzero(up == p)
            probs[kids] = rng.dirichlet(np.ones(len(kids)))
        levels.append(tuple(Node(nd.parent, float(q), nd.value)
                            for nd, q in zip(lv, probs)))
    return FilteredTree(tree.grid, tuple(levels), tree.dim)


def _grouping_corpus(rng):
    trees = [random_tree(rng, max_steps=4, root_atoms=int(rng.integers(1, 4)),
                         dim=int(rng.integers(1, 3))) for _ in range(15)]
    trees += [coarse_tree(rng, max_steps=4, root_atoms=int(rng.integers(1, 3)),
                          dim=int(rng.integers(1, 3))) for _ in range(25)]
    # Dirichlet probabilities are not dyadic, so products and sums of them
    # depend on their order
    trees += [_redrawn_probs(coarse_tree(rng, max_steps=4, root_atoms=2), rng)
              for _ in range(5)]
    return trees + [shuffled(t, rng) for t in trees] + list(counterexample_pair(2, 4))


def test_law_and_standard_tree_match_oracles(rng):
    for t in _grouping_corpus(rng):
        weights, paths = oracle_law(t)
        lw = law(t)
        assert lw.weights.tolist() == weights.tolist()
        assert np.array_equal(lw.paths, paths)
        want = oracle_standard_tree(t.grid, weights, paths)
        assert standard_tree(lw) == want
        assert natural_tree(t) == want
        # a law that is not canonical: one path per leaf, duplicates kept
        raw = PathLaw(t.grid, t.leaf_probs, t.leaf_paths)
        assert standard_tree(raw) == oracle_standard_tree(t.grid, t.leaf_probs,
                                                          t.leaf_paths)


def test_coarsen_filtration_matches_oracle(rng):
    for t in _grouping_corpus(rng):
        times = t.grid.times
        keep = [s for s in times[:-1] if rng.random() < 0.5] + [1.0]
        for target in (t.grid, TimeGrid((1.0,)), TimeGrid(tuple(keep))):
            assert coarsen_filtration(t, target) == oracle_coarsen(t, target)


def _perturbed(tree, rng, what):
    """A copy with one node value moved by 1e-3, or 1e-3 of probability
    moved between two siblings."""
    levels = [list(lv) for lv in tree.levels]
    if what == "value":
        i = int(rng.integers(tree.n_levels))
        j = int(rng.integers(len(levels[i])))
        nd = levels[i][j]
        levels[i][j] = Node(nd.parent, nd.prob, tuple(np.add(nd.value, 1e-3)))
    else:
        sibs = [(i + 1, kids) for i, ch in enumerate(tree.children)
                for kids in ch if len(kids) >= 2]
        i, kids = sibs[int(rng.integers(len(sibs)))]
        for j, d in zip(kids, (1e-3, -1e-3)):
            nd = levels[i][j]
            levels[i][j] = Node(nd.parent, nd.prob + d, nd.value)
    return FilteredTree(tree.grid, tuple(map(tuple, levels)), tree.dim)


def test_isomorphism_permutation_invariance(rng):
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
    for t in _grouping_corpus(rng):
        assert tree_isomorphic(t, shuffled(t, rng))
        for what in ("value", "prob"):
            other = _perturbed(t, rng, what)
            assert validate(other) == []
            assert not tree_isomorphic(t, shuffled(other, rng))


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


def test_block_views_match_loops(rng):
    """The block views against `rank1_conditional_laws` and a loop over
    `children`: every owner once, in blocks of one member count each, counts
    ascending, owners and members in index order; and no cached array can
    be written."""
    for k in range(30):
        make = coarse_tree if k % 2 else random_tree
        tree = make(rng, max_steps=4, root_atoms=int(rng.integers(1, 4)),
                    branching=(1, 2, 3, 4))
        if k % 3 == 0:
            tree = shuffled(tree, rng)
        laws = rank1_conditional_laws(tree)
        for i in range(tree.n_levels):
            # level 0 hangs from the virtual root 0
            kids = tree.children[i - 1] if i else [list(range(len(tree.levels[0])))]
            for view, want in ((tree.child_blocks[i],
                                [(np.array(c), tree.probs[i][c]) for c in kids]),
                               (tree.law_blocks[i], [(l, w) for w, l in laws[i]])):
                assert [m.shape[1] for _, m, _ in view] == sorted({len(m) for m, _ in want})
                owners = np.concatenate([v for v, _, _ in view])
                assert sorted(owners.tolist()) == list(range(len(want)))
                for nodes, members, weights in view:
                    assert (np.diff(nodes) > 0).all()
                    for v, m, w in zip(nodes, members, weights):
                        assert np.array_equal(m, want[v][0])
                        assert np.array_equal(w, want[v][1])
                    for a in (nodes, members, weights):
                        with pytest.raises(ValueError, match="read-only"):
                            a[...] = 0
