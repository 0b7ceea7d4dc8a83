import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from adapted_ot import (FilteredTree, Node, aw, counterexample_pair, cw,
                        eps_bicausal_lp, figure1_pair, hellwig, hk_minimize,
                        natural_tree, nested_bicausal, offset_rw_pair,
                        quantized_bm_tree, random_tree, random_walk_tree, scw,
                        strict_scw, tree_isomorphic, wasserstein,
                        coarsen_filtration, TimeGrid)
from adapted_ot.coupling import (X_TO_Y, Y_TO_X, ZERO_SHIFT, is_eps_causal,
                                  path_cost_matrix)
from adapted_ot.cli import load_tree
from adapted_ot.lp import transport_lp
from adapted_ot.solvers import DistanceReport
from adapted_ot.trees import _rounded, align, law, regrid

from conftest import (all_levels_distances, coarse_tree, deterministic_tree,
                      interior_shift, rank1_conditional_laws, shuffled)


def test_w_fig1_is_the_gap():
    for e in (0.05, 0.1, 0.3):
        p, pe = figure1_pair(e)
        assert wasserstein(p, pe).value == pytest.approx(e, abs=1e-12)


def test_w_self_zero(rng):
    for _ in range(10):
        t = random_tree(rng)
        assert wasserstein(t, t).value == pytest.approx(0.0, abs=1e-12)


def test_w_between_diracs():
    a = deterministic_tree((0.0, 0.0))
    b = deterministic_tree((0.0, 0.7))
    assert wasserstein(a, b).value == pytest.approx(0.7, abs=1e-12)


def test_w_invariant_under_hk_minimize(rng):
    for _ in range(15):
        x = random_tree(rng)
        y = random_tree(rng)
        base = wasserstein(x, y, witness=False).value
        mini = wasserstein(hk_minimize(x), hk_minimize(y), witness=False).value
        assert mini == pytest.approx(base, abs=1e-10)


def _law_wasserstein(x, y, p, metric):
    """Oracle: W between the canonical path laws of the aligned trees, its
    plan lifted to the leaf pairs by splitting each atom's mass over its
    leaves in proportion to theirs.  Returns (value, witness weights,
    iterations, atoms per side)."""
    lx, ly = law(x), law(y)
    cost = all_levels_distances(lx.paths, ly.paths, x.grid, metric)
    res = transport_lp(lx.weights, ly.weights, cost ** p)
    plan = res.x.reshape(lx.weights.size, ly.weights.size)

    def atoms(tree, lw):  # each leaf's atom: the law path equal to its path
        paths = _rounded(lw.paths)
        return [next(j for j, path in enumerate(paths) if np.array_equal(path, leaf))
                for leaf in _rounded(tree.leaf_paths)]
    ix, iy = atoms(x, lx), atoms(y, ly)
    cx, cy = x.leaf_probs / lx.weights[ix], y.leaf_probs / ly.weights[iy]
    weights = cx[:, None] * plan[ix][:, iy] * cy
    return (max(res.value, 0.0) ** (1.0 / p), weights, res.iterations,
            (lx.weights.size, ly.weights.size))


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("metric", ["sup", "l1"])
def test_w_matches_law_oracle(rng, metric, p):
    # coarse values merge leaves into one law atom; shuffled node order,
    # multi-atom roots, dim 2 and grids that align onto a finer one
    merged = solved = 0
    for k in range(24):
        kw = {"dim": 1 + k % 2, "root_atoms": 1 + k % 3}
        make = coarse_tree if k % 4 else random_tree
        x, y = make(rng, **kw), make(rng, **kw)
        if k % 2:
            x, y = shuffled(x, rng), shuffled(y, rng)
        x, y = align(x, y)
        rep = wasserstein(x, y, p, metric=metric)
        value, weights, iters, atoms = _law_wasserstein(x, y, p, metric)
        assert rep.value == value
        assert np.array_equal(rep.coupling.weights, weights)
        assert rep.diagnostics["lp_iterations"] == iters
        assert rep.diagnostics["constraint_count"] == sum(atoms)
        merged += atoms[0] < x.n_leaves or atoms[1] < y.n_leaves
        solved += iters > 0
    assert merged >= 10 and solved >= 5


def test_w_validates_each_tree_once(monkeypatch):
    import adapted_ot.trees as trees

    seen = []
    validate = trees.validate
    monkeypatch.setattr(trees, "validate", lambda t: seen.append(t) or validate(t))
    x, y = random_walk_tree(3), quantized_bm_tree(3, 2)
    wasserstein(x, y)
    assert len(seen) == 2 and seen[0] is x and seen[1] is y


def test_nested_fig1():
    for e in (0.1, 0.2):
        p, pe = figure1_pair(e)
        rep = nested_bicausal(p, pe)
        assert rep.value == pytest.approx(1 + e / 2, abs=1e-10)
        assert rep.verify_witness()


def test_nested_self_zero(rng):
    for _ in range(10):
        t = random_tree(rng)
        assert nested_bicausal(t, t).value == pytest.approx(0.0, abs=1e-12)


def test_nested_identical_transition_laws():
    # two independently built random walks share every transition law
    a = random_walk_tree(3)
    b = random_walk_tree(3)
    assert nested_bicausal(a, b).value == pytest.approx(0.0, abs=1e-12)


def test_eps_lp_matches_nested_at_zero(rng):
    for _ in range(40):
        x, y = align(random_tree(rng), random_tree(rng))
        lp0 = eps_bicausal_lp(x, y, 0, witness=False).value
        dp = nested_bicausal(x, y, witness=False).value
        assert lp0 == pytest.approx(dp, abs=1e-8, rel=1e-8)
    # multi-atom roots, uneven branching, shuffled node order, dim 2
    for _ in range(15):
        kw = dict(max_steps=2, root_atoms=int(rng.integers(2, 4)),
                  branching=(1, 2, 3, 4), dim=2)
        x, y = align(shuffled(random_tree(rng, **kw), rng),
                     shuffled(random_tree(rng, **kw), rng))
        for p, metric in ((1.0, "sup"), (2.0, "sup"), (1.0, "l1")):
            lp0 = eps_bicausal_lp(x, y, 0, p, witness=False, metric=metric).value
            rep = nested_bicausal(x, y, p, metric=metric)
            assert lp0 == pytest.approx(rep.value, abs=1e-8, rel=1e-8)
            assert rep.verify_witness()


def test_eps_lp_matches_w_at_large_shift(rng):
    for _ in range(20):
        x, y = align(random_tree(rng), random_tree(rng))
        n = x.grid.n_steps
        lp = eps_bicausal_lp(x, y, n, witness=False).value
        w = wasserstein(x, y, witness=False).value
        assert lp == pytest.approx(w, abs=1e-9)


def test_aw_fig1():
    for e in (0.05, 0.1, 0.2):
        p, pe = figure1_pair(e)
        rep = aw(p, pe)
        assert rep.value == pytest.approx(0.5 + e, abs=1e-10)
        assert rep.eps_steps == 1
        assert rep.epsilon_time == pytest.approx(0.5)
        assert rep.verify_witness()


def test_aw_self_zero(rng):
    for _ in range(10):
        t = random_tree(rng)
        rep = aw(t, t)
        assert rep.value == pytest.approx(0.0, abs=1e-12)
        assert rep.eps_steps == 0


def test_aw_symmetry(rng):
    for _ in range(15):
        x, y = random_tree(rng), random_tree(rng)
        assert aw(x, y, witness=False).value == pytest.approx(
            aw(y, x, witness=False).value, abs=1e-9)


def test_aw_penalty_hook(rng):
    # a sqrt-eps penalty must dominate the identity penalty value
    p, pe = figure1_pair(0.1)
    base = aw(p, pe).value
    heavy = aw(p, pe, penalty=lambda e: np.sqrt(e)).value
    assert heavy == pytest.approx(min(1.05, 0.1 + np.sqrt(0.5)), abs=1e-10)
    assert heavy >= base - 1e-12
    # the witness check subtracts the penalty that was added, not the shift
    for fn in (aw, cw, scw):
        for a, b in ((p, pe), (pe, p)):
            rep = fn(a, b, penalty=np.sqrt)
            assert rep.diagnostics["penalty"] == np.sqrt(rep.epsilon_time)
            assert rep.verify_witness(), (fn.__name__, rep.value)


def test_mesh_bound(rng):
    # adapted distance to the filtration coarsening is at most the mesh
    for _ in range(20):
        t = random_tree(rng)
        times = [s for s in t.grid.times[:-1] if rng.random() < 0.5] + [1.0]
        target = TimeGrid(tuple(sorted(times)))
        c = coarsen_filtration(t, target)
        assert aw(t, c, witness=False).value <= target.mesh() + 1e-9


def test_ordering_chain(rng):
    for _ in range(20):
        x, y = random_tree(rng), random_tree(rng)
        w = wasserstein(x, y, witness=False).value
        c_fwd = cw(x, y, witness=False).value
        s = scw(x, y, witness=False).value
        a = aw(x, y, witness=False).value
        nb = nested_bicausal(x, y, witness=False).value
        assert w <= c_fwd + 1e-9
        assert c_fwd <= s + 1e-9
        assert s <= a + 1e-9
        assert a <= nb + 1e-9


def test_triangle_inequality(rng):
    for _ in range(15):
        x, y, z = (random_tree(rng, max_steps=2) for _ in range(3))
        axy = aw(x, y, witness=False).value
        ayz = aw(y, z, witness=False).value
        axz = aw(x, z, witness=False).value
        assert axz <= axy + ayz + 1e-8


def test_aw_zero_iff_hk_equivalent(rng, fig1):
    p, pe = fig1
    from test_prediction import coin_layer_tree, split_middle_tree
    coin = coin_layer_tree()
    plain = natural_tree(coin)
    assert aw(coin, plain, witness=False).value == pytest.approx(0.0, abs=1e-10)
    assert tree_isomorphic(hk_minimize(coin), hk_minimize(plain))
    split = split_middle_tree()
    assert aw(split, p, witness=False).value > 1e-3
    assert not tree_isomorphic(hk_minimize(split), hk_minimize(p))


def test_scw_zero_iff_aw_zero(rng):
    zeros = others = 0
    for _ in range(20):
        x, y = random_tree(rng), random_tree(rng)
        s = scw(x, y, witness=False).value
        a = aw(x, y, witness=False).value
        if s <= 1e-10:
            assert a <= 1e-9
            zeros += 1
        if a <= 1e-10:
            assert s <= 1e-9
        if s > 1e-6:
            others += 1
    # also an engineered zero case
    t = random_tree(rng)
    assert scw(t, t, witness=False).value == pytest.approx(0.0, abs=1e-12)
    assert others > 0


def test_cw_to_natural_tree_is_zero(rng):
    for _ in range(15):
        y = random_tree(rng, root_atoms=int(rng.integers(1, 3)))
        s = natural_tree(y)
        assert cw(y, s, witness=False).value == pytest.approx(0.0, abs=1e-10)


def test_cw_asymmetry_fig1(fig1):
    p, pe = fig1
    fwd = cw(p, pe).value
    bwd = cw(pe, p).value
    assert fwd == pytest.approx(0.6, abs=1e-10)
    assert bwd == pytest.approx(0.1, abs=1e-10)
    assert scw(p, pe).value == pytest.approx(0.6, abs=1e-10)


def test_scw_keeps_backward_witness(fig1):
    # on (pe, p) the backward direction is the larger one; its witness,
    # causal from p to pe, couples pe to p like the forward one
    p, pe = fig1
    rep = scw(pe, p)
    assert rep.diagnostics["backward"] > rep.diagnostics["forward"]
    assert rep.coupling is not None
    assert rep.coupling.left.levels == pe.levels
    assert rep.diagnostics["direction"] == Y_TO_X
    assert rep.verify_witness()
    assert rep.value == scw(p, pe).value
    assert "runtime_s" in rep.diagnostics


@pytest.mark.parametrize("kind", ["AW", "AW_strict", "AW_eps", "CW", "SCW",
                                  "SCW_strict"])
def test_verify_witness_checks_causality_of_every_kind(fig1, kind):
    # the W plan of figure 1 pairs the paths without looking at the
    # filtrations; it breaks shift-0 causality from P to Pe by 0.25
    p, pe = fig1
    w = wasserstein(p, pe)
    assert not is_eps_causal(w.coupling, ZERO_SHIFT, X_TO_Y)[0]
    rep = DistanceReport(kind, w.p, w.value, 0, 0.0, w.coupling,
                         {"direction": X_TO_Y})
    assert not rep.verify_witness()
    if kind.startswith("SCW"):
        # the same plan is causal in the other direction
        rep.diagnostics["direction"] = Y_TO_X
        assert rep.verify_witness()


def test_strict_scw(rng, fig1):
    p, pe = fig1
    assert strict_scw(p, p).value == pytest.approx(0.0, abs=1e-12)
    # feasible-set inclusion: strict scw never exceeds the nested value
    for _ in range(15):
        x, y = random_tree(rng), random_tree(rng)
        assert strict_scw(x, y, witness=False).value <= \
            nested_bicausal(x, y, witness=False).value + 1e-9
    # on the introductory pair both strict distances coincide (the only
    # 0-causal coupling toward the revealing side is already the product)
    assert strict_scw(p, pe).value == pytest.approx(1.05, abs=1e-9)
    # on the offset pair the strict causal distance sits strictly below the
    # strict bicausal one: one-directional delays are allowed, while the
    # only bicausal coupling is the product
    ox, oy = offset_rw_pair(2)
    s = strict_scw(ox, oy, witness=False).value
    nb = nested_bicausal(ox, oy, witness=False).value
    assert s < nb - 0.1


def test_symmetrized_tie_goes_to_x_to_y(rng):
    for _ in range(5):
        t = random_tree(rng, root_atoms=int(rng.integers(1, 3)))
        for fn in (scw, strict_scw):
            rep = fn(t, t)
            assert rep.diagnostics["forward"] == rep.diagnostics["backward"]
            assert rep.diagnostics["direction"] == X_TO_Y
            assert rep.verify_witness()


def test_scw_and_strict_scw_share_diagnostics_keys(fig1):
    loose, strict = scw(*fig1), strict_scw(*fig1)
    assert set(loose.diagnostics) == set(strict.diagnostics)
    assert strict.diagnostics["penalty"] == 0.0
    assert [k for k, _, _ in strict.diagnostics["evaluated_shifts"]] == [0, 0]


def test_scw_solves_w_once(fig1, monkeypatch):
    import adapted_ot.solvers as solvers
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return wasserstein(*args, **kwargs)
    monkeypatch.setattr(solvers, "wasserstein", counted)
    rep = scw(*fig1)
    assert len(calls) == 1
    assert rep.value == pytest.approx(0.6, abs=1e-10)
    # strict_scw needs W only at a shift 0 whose rows the marginals imply,
    # which on figure 1 is the case from P to Pe
    assert strict_scw(*fig1).value == pytest.approx(1.05, abs=1e-9)
    assert len(calls) == 2


@pytest.mark.parametrize("penalty", [lambda e: float("nan"), lambda e: -1.0,
                                     lambda e: float("inf")])
def test_penalty_must_be_finite_and_nonnegative(fig1, penalty):
    for fn in (aw, cw, scw):
        with pytest.raises(ValueError, match="penalty must be"):
            fn(*fig1, penalty=penalty)


def test_eps_bicausal_lp_takes_any_integer_shift(fig1):
    want = eps_bicausal_lp(*fig1, 1)
    for eps in (np.int64(1), np.uint8(1)):
        rep = eps_bicausal_lp(*fig1, eps)
        assert (rep.value, rep.eps_steps, rep.epsilon_time) == \
            (want.value, 1, want.epsilon_time)
    for eps in (1.0, "1", None, -1):
        with pytest.raises(ValueError, match="eps"):
            eps_bicausal_lp(*fig1, eps)


def test_witnesses_feasible(rng):
    pairs = [align(random_tree(rng), random_tree(rng)) for _ in range(10)]
    # coarse values merge leaves into one law atom, so the W witness is a
    # lift of the law plan
    pairs += [align(coarse_tree(rng, root_atoms=2), coarse_tree(rng))
              for _ in range(10)]
    for x, y in pairs:
        for rep in (wasserstein(x, y), aw(x, y), cw(x, y), scw(x, y),
                    strict_scw(x, y), nested_bicausal(x, y),
                    eps_bicausal_lp(x, y, 1)):
            assert rep.verify_witness(), rep.kind


def test_hellwig_cases(rng, fig1):
    p, pe = fig1
    assert hellwig(p, p).value == pytest.approx(0.0, abs=1e-12)
    h = hellwig(p, pe)
    # the interior term alone: conditional laws (1/2)(d0+d2) versus Diracs
    assert h.value >= 0.5 * h.diagnostics["level_terms"][1] - 1e-12
    assert h.diagnostics["level_terms"][1] == pytest.approx(0.55, abs=1e-10)
    for _ in range(10):
        t = random_tree(rng)
        assert hellwig(t, hk_minimize(t)).value == pytest.approx(0.0, abs=1e-10)


def test_regrid_mismatched_grids(rng):
    # solvers silently align different grids
    a = random_tree(rng, max_steps=2)
    b = random_tree(rng, max_steps=3)
    rep = aw(a, b, witness=False)
    assert rep.value >= 0.0


def test_eps_lp_counterexample_l1_shift1():
    # the former dense simplex stopped on a singular basis on this LP
    # (seen with single-threaded BLAS)
    from adapted_ot import counterexample_pair
    rep = eps_bicausal_lp(*counterexample_pair(4, 16), 1, metric="l1")
    assert rep.verify_witness()
    assert rep.value == pytest.approx(0.0441176470588, abs=1e-9)


def test_nested_frees_its_memo_on_return():
    import gc
    import weakref
    from adapted_ot import quantized_bm_tree
    from adapted_ot.solvers import DEFAULT_STATE_CAP
    gc.disable()
    try:
        # the default cap, then one that forces the global-LP fallback
        for cap in (DEFAULT_STATE_CAP, 2):
            x, y = random_walk_tree(3), quantized_bm_tree(3, 2)
            ref = weakref.ref(x)
            rep = nested_bicausal(x, y, state_cap=cap, witness=False)
            assert ("dp_fallback" in rep.diagnostics) == (cap == 2)
            del x
            assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0, float("nan"), float("inf")])
def test_p_below_one_rejected(fig1, p):
    x, y = fig1
    calls = [wasserstein, nested_bicausal, aw, cw, scw, strict_scw,
             lambda a, b, p: eps_bicausal_lp(a, b, 1, p)]
    for fn in calls:
        with pytest.raises(ValueError, match="p must be"):
            fn(x, y, p)


@pytest.mark.parametrize("fn", [
    wasserstein, nested_bicausal, aw, cw, scw, strict_scw,
    lambda a, b, p, metric: eps_bicausal_lp(a, b, 1, p, metric=metric)])
def test_unknown_metric_rejected(fig1, fn):
    with pytest.raises(ValueError, match="unknown metric"):
        fn(*fig1, 1.0, metric="bogus")


def _recursive_nested(x, y, p, metric):
    """Oracle: the nested DP as a recursion over node pairs, with a memo
    keyed by (level, x-node, y-node) and an explicit stack for the witness.
    The path cost is carried down to the leaves: the running max of the
    node distances (sup), or their sum weighted by t_{i+1} - t_i and by 1 at
    the terminal level, added in time order (l1).
    Returns (value, witness weights, states, simplex iterations)."""
    n_levels = x.n_levels
    dt = np.append(np.diff(np.array((0.0,) + x.grid.times)), 1.0)
    memo, plans = {}, {}
    lp_iters = 0
    xv, yv = x.level_values, y.level_values

    def node_dist(i, vi, wj):
        return float(np.linalg.norm(xv[i][vi] - yv[i][wj]))

    def solve(i, vi, wj, m):
        nonlocal lp_iters
        key = (i, vi, wj)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if i == n_levels - 1:
            memo[key] = m ** p
            return memo[key]
        cx, cy = x.children[i][vi], y.children[i][wj]
        cost = np.empty((len(cx), len(cy)))
        for a, c in enumerate(cx):
            for b, d in enumerate(cy):
                cost[a, b] = solve(i + 1, c, d, step(m, i + 1, c, d))
        res = transport_lp(x.probs[i + 1][cx], y.probs[i + 1][cy], cost)
        lp_iters += res.iterations
        memo[key] = res.value
        plans[key] = res.x.reshape(len(cx), len(cy))
        return memo[key]

    def step(m, i, vi, wj):
        d = node_dist(i, vi, wj)
        return max(m, d) if metric == "sup" else m + dt[i] * d

    rx, ry = x.probs[0], y.probs[0]
    root_cost = np.empty((rx.size, ry.size))
    for vi in range(rx.size):
        for wj in range(ry.size):
            root_cost[vi, wj] = solve(0, vi, wj, step(0.0, 0, vi, wj))
    root = transport_lp(rx, ry, root_cost)
    lp_iters += root.iterations
    value = max(root.value, 0.0) ** (1.0 / p)

    w = np.zeros((x.n_leaves, y.n_leaves))
    root_plan = root.x.reshape(rx.size, ry.size)
    stack = [(0, vi, wj, root_plan[vi, wj]) for vi in range(rx.size)
             for wj in range(ry.size) if root_plan[vi, wj] > 0]
    while stack:
        i, vi, wj, mass = stack.pop()
        if i == n_levels - 1:
            w[vi, wj] += mass
            continue
        plan = plans[(i, vi, wj)]
        for a, c in enumerate(x.children[i][vi]):
            for b, d in enumerate(y.children[i][wj]):
                if plan[a, b] > 0:
                    stack.append((i + 1, c, d, mass * plan[a, b]))
    return value, w, len(memo), lp_iters


def _separable_l1_nested(x, y):
    """Second oracle for l1 at p = 1, whose cost is time-separable: a node
    pair adds its own node distance, weighted by t_{i+1} - t_i, to the
    transport of its children's values, and a leaf pair is worth its
    unweighted distance.  Returns the value."""
    n_levels = x.n_levels
    dt = np.diff(np.array((0.0,) + x.grid.times))
    xv, yv = x.level_values, y.level_values
    memo = {}

    def solve(i, vi, wj):
        if (i, vi, wj) not in memo:
            d = float(np.linalg.norm(xv[i][vi] - yv[i][wj]))
            if i == n_levels - 1:
                memo[i, vi, wj] = d
            else:
                cx, cy = x.children[i][vi], y.children[i][wj]
                cost = np.array([[solve(i + 1, c, e) for e in cy] for c in cx])
                res = transport_lp(x.probs[i + 1][cx], y.probs[i + 1][cy], cost)
                memo[i, vi, wj] = res.value + dt[i] * d
        return memo[i, vi, wj]

    rx, ry = x.probs[0], y.probs[0]
    cost = np.array([[solve(0, vi, wj) for wj in range(ry.size)]
                     for vi in range(rx.size)])
    return max(transport_lp(rx, ry, cost).value, 0.0)


@pytest.mark.parametrize("p, metric", [(1.0, "sup"), (2.0, "sup"), (1.0, "l1")])
def test_nested_equals_recursive_oracle(p, metric):
    pairs = [figure1_pair(0.1), counterexample_pair(2, 8),
             counterexample_pair(3, 12)]
    pairs += [(random_walk_tree(n), quantized_bm_tree(n, 2)) for n in range(3, 7)]
    for x, y in pairs:
        x, y = align(x, y)
        rep = nested_bicausal(x, y, p, metric=metric)
        value, w, states, iters = _recursive_nested(x, y, p, metric)
        assert rep.value == value
        assert np.array_equal(rep.coupling.weights, w)
        assert rep.diagnostics["dp_states"] == states
        assert rep.diagnostics["lp_iterations"] == iters


def test_nested_matches_recursive_oracle_on_random_pairs(rng):
    # child blocks larger than 3 x 3 go to HiGHS; shuffled trees have
    # siblings that are not contiguous in their level
    for k in range(24):
        kw = dict(root_atoms=int(rng.integers(1, 4)), branching=(1, 2, 3, 4),
                  dim=int(rng.integers(1, 3)))
        make = coarse_tree if k % 3 else random_tree
        x, y = make(rng, **kw), make(rng, **kw)
        if k % 3 == 2:
            x, y = shuffled(x, rng), shuffled(y, rng)
        x, y = align(x, y)
        for p, metric in ((1.0, "sup"), (1.5, "sup"), (2.0, "sup"), (1.0, "l1")):
            rep = nested_bicausal(x, y, p, metric=metric)
            assert abs(rep.value - _recursive_nested(x, y, p, metric)[0]) <= 1e-12
            assert rep.verify_witness()
        assert abs(rep.value - _separable_l1_nested(x, y)) <= 1e-12


def test_solvers_module_holds_no_path_metric():
    """The path metrics are defined in `adapted_ot.coupling` alone:
    `solvers.py` names no node distances and reads no grid times."""
    import ast
    import pathlib

    import adapted_ot.solvers
    found = set()
    for node in ast.walk(ast.parse(pathlib.Path(adapted_ot.solvers.__file__).read_text())):
        name = (getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "name", None))
        if name == "_node_distances":
            found.add(name)
        if (isinstance(node, ast.Attribute) and node.attr == "times"
                and getattr(node.value, "attr", None) == "grid"):
            found.add("grid.times")
    assert not found


def test_causality_is_walked_in_coupling_alone():
    """eps-causality has one walk over the constraint times, in
    `adapted_ot.coupling`, and the conditional laws are tree helpers:
    `solvers.py` names no constraint levels and defines no law blocks, and
    one function of `coupling.py` calls `_constraint_levels`."""
    import ast
    import pathlib

    import adapted_ot.coupling
    import adapted_ot.solvers

    def parse(module):
        return ast.parse(pathlib.Path(module.__file__).read_text())

    def calls(node):
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", None)
                   == "_constraint_levels" for n in ast.walk(node))

    found = set()
    for node in ast.walk(parse(adapted_ot.solvers)):
        if getattr(node, "id", None) == "_constraint_levels":
            found.add("_constraint_levels")
        if isinstance(node, ast.FunctionDef) and node.name in ("_count_blocks",
                                                               "_law_blocks"):
            found.add(node.name)
    assert not found
    callers = [node.name for node in parse(adapted_ot.coupling).body
               if isinstance(node, ast.FunctionDef) and calls(node)]
    assert len(callers) == 1


def test_levels_are_grouped_by_the_tree_block_views():
    """The nested DP, Hellwig and the conditional laws of eps-causality
    group nodes through the block views that `FilteredTree` builds once per
    tree: `solvers.py` and `coupling.py` call neither `_count_blocks` nor
    `_law_blocks`, `solvers.py` reads `child_blocks` and `law_blocks`, and
    `coupling.py` reads `law_blocks`."""
    import ast
    import pathlib

    import adapted_ot.coupling
    import adapted_ot.solvers

    def names(module):
        nodes = list(ast.walk(ast.parse(pathlib.Path(module.__file__).read_text())))
        called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                  for n in nodes if isinstance(n, ast.Call)}
        return called, {n.attr for n in nodes if isinstance(n, ast.Attribute)}

    for module, views in ((adapted_ot.solvers, {"child_blocks", "law_blocks"}),
                          (adapted_ot.coupling, {"law_blocks"})):
        called, read = names(module)
        assert not called & {"_count_blocks", "_law_blocks"}
        assert views <= read


def test_state_cap_is_decided_from_the_tree_shapes():
    # 1 + 2*2 + 4*4 + 8*8 node pairs over the four levels
    x, y = random_walk_tree(3), quantized_bm_tree(3, 2)
    states = 85
    rep = nested_bicausal(x, y, state_cap=states)
    assert "dp_fallback" not in rep.diagnostics
    assert rep.diagnostics["dp_states"] == states
    capped = nested_bicausal(x, y, state_cap=states - 1)
    assert capped.diagnostics["dp_fallback"] == "state cap exceeded"
    assert capped.value == pytest.approx(rep.value, abs=1e-12)
    assert capped.verify_witness()


def test_default_state_cap_admits_rw11_bm11():
    # 5,592,405 node pairs
    rep = nested_bicausal(random_walk_tree(11), quantized_bm_tree(11, 2),
                          witness=False)
    assert "dp_fallback" not in rep.diagnostics
    assert rep.diagnostics["dp_states"] == 5_592_405


def test_shift_price_counts_the_root_time_of_a_multi_atom_root():
    # X's two root atoms fix the next value; Y tosses a fair coin after its root
    g = TimeGrid((1.0,))
    x = FilteredTree(g, ((Node(None, 0.5, (0.0,)), Node(None, 0.5, (0.0,))),
                         (Node(0, 1.0, (1.0,)), Node(1, 1.0, (-1.0,)))))
    y = FilteredTree(g, ((Node(None, 1.0, (0.0,)),),
                         (Node(0, 0.5, (1.0,)), Node(0, 0.5, (-1.0,)))))
    assert nested_bicausal(x, y).value == pytest.approx(1.0, abs=1e-12)
    # shift 1 lifts every row but delays X's root information by t_1 = 1
    for rep in (aw(x, y), aw(y, x), cw(y, x), scw(x, y), scw(y, x)):
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.verify_witness()
    # toward Y, whose root holds one atom, there is no constraint time
    assert cw(x, y).value == pytest.approx(0.0, abs=1e-12)
    assert eps_bicausal_lp(x, y, 1).epsilon_time == 1.0
    # on a non-uniform grid the root delay t_k exceeds every interior delay
    g3 = TimeGrid((0.8, 0.9, 1.0))
    assert interior_shift(g3, 1).epsilon_time == pytest.approx(0.1)
    x3, y3 = regrid(x, g3), regrid(y, g3)
    assert eps_bicausal_lp(x3, y3, 1).epsilon_time == pytest.approx(0.8)
    assert eps_bicausal_lp(x3, y3, 2).epsilon_time == pytest.approx(0.9)


def _hellwig_oracle(x, y):
    """Hellwig's value and level terms by one `transport_lp` call per pair of
    conditional laws and one per level."""
    x, y = align(x, y)
    base = np.minimum(path_cost_matrix(x, y), 1.0)
    cx, cy = rank1_conditional_laws(x), rank1_conditional_laws(y)
    times = np.array((0.0,) + x.grid.times)

    def ot(p, q, cost):
        res = transport_lp(p, q, cost)
        assert res.status == "optimal"
        return max(res.value, 0.0)
    terms = []
    for i in range(x.n_levels):
        ground = np.array([[ot(wa, wb, base[np.ix_(la, lb)]) for wb, lb in cy[i]]
                           for wa, la in cx[i]])
        terms.append(ot(x.node_probs[i], y.node_probs[i], ground))
    total = sum((times[i + 1] - times[i]) * t for i, t in enumerate(terms[:-1]))
    return total + terms[-1], terms


def _scaled(tree, factor):
    return FilteredTree(tree.grid, tuple(
        tuple(Node(nd.parent, nd.prob, tuple(factor * v for v in nd.value))
              for nd in lv) for lv in tree.levels), tree.dim)


def test_hellwig_matches_per_pair_oracle(rng, fig1):
    rw, bm = random_walk_tree(5), quantized_bm_tree(5, 2)
    pairs = [fig1, counterexample_pair(2, 8), counterexample_pair(3, 12), (rw, bm),
             # most ground costs at the cap 1, and none of them
             (_scaled(rw, 10.0), _scaled(bm, 10.0)),
             (_scaled(rw, 0.01), _scaled(bm, 0.01))]
    for k in range(30):
        make = coarse_tree if k % 2 else random_tree
        kw = dict(root_atoms=int(rng.integers(1, 3)), branching=(1, 2, 3, 4))
        pairs.append((make(rng, **kw), make(rng, **kw)))
    for x, y in pairs:
        rep = hellwig(x, y)
        value, terms = _hellwig_oracle(x, y)
        assert abs(rep.value - value) <= 1e-12
        assert len(rep.diagnostics["level_terms"]) == len(terms)
        for got, want in zip(rep.diagnostics["level_terms"], terms):
            assert abs(got - want) <= 1e-12


def test_hellwig_report_keys(fig1):
    rep = hellwig(*fig1)
    assert set(rep.diagnostics) == {"level_terms", "lp_iterations", "runtime_s"}
    assert rep.diagnostics["lp_iterations"] == 0  # closed forms only
    big = hellwig(random_walk_tree(5), quantized_bm_tree(5, 2))
    assert big.diagnostics["lp_iterations"] > 0


def test_hellwig_solves_few_lps(lp_calls):
    # solved pair by pair, as `_hellwig_oracle` does, this takes 89 calls;
    # over every cell, in block LPs, 6
    hellwig(random_walk_tree(5), quantized_bm_tree(5, 2))
    assert len(lp_calls) == 4


def test_hellwig_lps_hold_only_cells_below_the_cap(lp_calls):
    # over every cell, the two stages on ce3 take 9 LPs of 6,038 columns;
    # 718 of those cells cost less than their member's max.  Each LP column
    # is such a cell, at cost c - max < 0, or a slack of cost 0 on a row.
    hellwig(*counterexample_pair(3, 12))
    assert len(lp_calls) == 2
    assert sum((c < 0).sum() for c, _, _ in lp_calls) == 718
    for c, A, _ in lp_calls:
        assert (c <= 0).all() and (c == 0).sum() == A.shape[0]
    assert sum(c.size for c, _, _ in lp_calls) == 1402


def test_nested_makes_no_lp_for_3x3_levels(lp_calls):
    x, y = align(*counterexample_pair(3, 12))
    # levels at which some parent pair has three children on both sides
    wide = sum(np.bincount(x.parents[i]).max() >= 3
               and np.bincount(y.parents[i]).max() >= 3
               for i in range(x.n_levels))
    assert wide == 11
    rep = nested_bicausal(x, y)
    # every child block is 1 x k, 2 x k or 3 x 3: no HiGHS call
    assert len(lp_calls) == 0
    assert rep.diagnostics["lp_iterations"] == 0


def test_nested_three_way_tcbm_pair(lp_calls):
    # every child block is 3 x 3; the value is the one HiGHS gives
    x = load_tree("tcbm:n=6,m=3,side=x")
    y = load_tree("tcbm:n=6,m=3,side=y")
    rep = nested_bicausal(x, y)
    assert abs(rep.value - 0.22908568140679478) <= 1e-12
    assert lp_calls == [] and rep.diagnostics["lp_iterations"] == 0
    assert rep.verify_witness()


# Values captured before the block views, the index-built pair groups and
# the presolve-free block LPs: the nested DP's value (float.hex),
# lp_iterations, dp_states and the SHA-256 of its witness bytes, and
# Hellwig's level terms (tcbm6's with BLAS on one thread, as the benchmark
# runs).  The tenth ce3 term is pinned where the block LPs without presolve
# put it, 2^-53 above its earlier value.
_NESTED_PINS = {
    ("fig1", 1.0, "sup"): ("0x1.0cccccccccccdp+0", 0, 7,
        "5073e61eafb5e090b20e50cfa38e1505dbb9a00d659ef6cd6659298674226ad7"),
    ("rwbm5", 1.0, "sup"): ("0x1.b7a6a72ba1849p-3", 0, 1365,
        "e49c2d902f9c16c4df611a1e6bfc41e191b61730d70319c444ea6b2e3034064e"),
    ("rwbm5", 2.0, "sup"): ("0x1.e560f81dbf0bcp-3", 0, 1365,
        "e49c2d902f9c16c4df611a1e6bfc41e191b61730d70319c444ea6b2e3034064e"),
    ("rwbm5", 1.0, "l1"): ("0x1.0a1ac37f75f8bp-2", 0, 1365,
        "e49c2d902f9c16c4df611a1e6bfc41e191b61730d70319c444ea6b2e3034064e"),
    ("ce2", 1.0, "sup"): ("0x1.0000000000000p-1", 0, 1192,
        "378efebf8f4590d8b0694f781fda5a0f44f4f24cd4d21ceba974ed122a16dd57"),
    ("ce3", 1.0, "sup"): ("0x1.5555555555556p-1", 0, 3452,
        "7f5c86b0d86d9f666544430006c5f87281779cde3f4069f88d6a5ae0f8ef3a8f"),
    ("ce4", 1.0, "sup"): ("0x1.8000000000000p-1", 0, 7504,
        "bfb7bdaebd5fa97abc86af30fbabfb28c8533059ef31e0b2ca9573bcf7884905"),
    ("tcbm6", 1.0, "sup"): ("0x1.d52adfacfe129p-3", 0, 597871,
        "13aaf8e332766a8c3c1a48512d069189d7972b8d1bf45247a2b05217b9d801d8"),
}
_HELLWIG_PINS = {
    "fig1": [
        "0x1.999999999999cp-4", "0x1.199999999999ap-1", "0x1.999999999999cp-4",
    ],
    "rwbm5": [
        "0x1.b7a6a72ba1848p-3", "0x1.b7a6a72ba1848p-3", "0x1.b7a6a72ba1848p-3",
        "0x1.b7a6a72ba1848p-3", "0x1.b7a6a72ba1848p-3", "0x1.b7a6a72ba1848p-3",
    ],
    "ce2": [
        "0x1.0000000000000p-1", "0x1.ffffffffffffcp-2", "0x1.0000000000000p-1",
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
        "0x1.0000000000000p-1",
    ],
    "ce3": [
        "0x1.8e38e38e38e38p-2", "0x1.aaaaaaaaaaaa8p-2", "0x1.c71c71c71c71cp-2",
        "0x1.c71c71c71c71cp-2", "0x1.c71c71c71c71cp-2", "0x1.c71c71c71c71ap-2",
        "0x1.c71c71c71c71cp-2", "0x1.c71c71c71c71ap-2", "0x1.c71c71c71c71cp-2",
        "0x1.c71c71c71c71ap-2", "0x1.c71c71c71c718p-2", "0x1.aaaaaaaaaaaa8p-2",
        "0x1.8e38e38e38e38p-2", "0x1.8e38e38e38e38p-2",
    ],
    "ce4": [
        "0x1.3000000000000p-2", "0x1.5000000000001p-2", "0x1.5fffffffffffep-2",
        "0x1.6000000000000p-2", "0x1.6000000000000p-2", "0x1.5fffffffffffep-2",
        "0x1.6000000000002p-2", "0x1.6000000000000p-2", "0x1.6000000000000p-2",
        "0x1.5fffffffffffep-2", "0x1.6000000000000p-2", "0x1.6000000000000p-2",
        "0x1.6000000000000p-2", "0x1.6000000000000p-2", "0x1.6000000000000p-2",
        "0x1.4800000000000p-2", "0x1.3000000000000p-2", "0x1.3000000000000p-2",
    ],
    "tcbm6": [   # with BLAS on one thread, see below
        "0x1.ad823f048a420p-3", "0x1.d52adfacfe13fp-3", "0x1.d52adfacfe124p-3",
        "0x1.ad823f048a40cp-3", "0x1.ad823f048a418p-3", "0x1.ad823f048a414p-3",
        "0x1.ad823f048a420p-3",
    ],
}


def _pinned_pair(name):
    return {"fig1": lambda: figure1_pair(0.1),
            "rwbm5": lambda: (random_walk_tree(5), quantized_bm_tree(5, 2)),
            "ce2": lambda: counterexample_pair(2, 8),
            "ce3": lambda: counterexample_pair(3, 12),
            "ce4": lambda: counterexample_pair(4, 16),
            "tcbm6": lambda: (load_tree("tcbm:n=6,m=3,side=x"),
                              load_tree("tcbm:n=6,m=3,side=y"))}[name]()


@pytest.mark.parametrize("name, p, metric", list(_NESTED_PINS))
def test_nested_is_pinned_bit_for_bit(name, p, metric):
    rep = nested_bicausal(*_pinned_pair(name), p, metric=metric)
    witness = hashlib.sha256(rep.coupling.weights.tobytes()).hexdigest()
    assert (rep.value.hex(), rep.diagnostics["lp_iterations"],
            rep.diagnostics["dp_states"], witness) == _NESTED_PINS[name, p, metric]


@pytest.mark.parametrize("name", list(_HELLWIG_PINS))
def test_hellwig_is_pinned_bit_for_bit(name):
    if name != "tcbm6":
        rep = hellwig(*_pinned_pair(name))
        terms = [t.hex() for t in rep.diagnostics["level_terms"]]
    else:
        # the values of its 729 x 729 and 243 x 243 transports are BLAS dot
        # products, whose summation order follows the BLAS thread count
        code = ("import json; from adapted_ot import hellwig; "
                "from adapted_ot.cli import load_tree; "
                "rep = hellwig(*(load_tree(f'tcbm:n=6,m=3,side={s}') for s in 'xy')); "
                "print(json.dumps([t.hex() for t in rep.diagnostics['level_terms']]))")
        one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS"), "1")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300,
                              env={**os.environ, **one_thread,
                                   "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        terms = json.loads(done.stdout)
    assert terms == _HELLWIG_PINS[name]
