import json

import numpy as np
import pytest

from adapted_ot import (Coupling, EpsShift, ZERO_SHIFT, X_TO_Y, Y_TO_X,
                        causality_constraints, counterexample_pair, glue,
                        identity_coupling, is_eps_bicausal, is_eps_causal,
                        natural_tree, is_naturally_filtered, nested_bicausal,
                        product_coupling, quantized_bm_tree, random_tree,
                        random_walk_tree, transport_cost, eps_bicausal_lp,
                        wasserstein)
from adapted_ot.coupling import path_cost_matrix
from adapted_ot.trees import align
from conftest import (all_levels_distances, coarse_tree, deterministic_tree,
                      shuffled)


def comonotone_fig1(fig1):
    p, pe = fig1
    w = np.zeros((2, 2))
    w[0, 0] = 0.5  # up with up
    w[1, 1] = 0.5
    return Coupling(p, pe, w)


def test_eps_shift_rejects_negative():
    with pytest.raises(ValueError):
        EpsShift(-1, 0.0)


def test_product_coupling_marginals_and_bicausality(rng, fig1):
    p, pe = fig1
    pi = product_coupling(p, pe)
    assert pi.weights.shape == (2, 2)
    assert np.allclose(pi.weights, 0.25)
    assert is_eps_bicausal(pi, ZERO_SHIFT)[0]
    from adapted_ot.trees import align
    for _ in range(20):
        x, y = align(random_tree(rng), random_tree(rng))
        pi = product_coupling(x, y)
        pi.check()
        assert is_eps_bicausal(pi, ZERO_SHIFT)[0]


def test_two_fair_coins_product():
    g = deterministic_tree((0.0, 0.0)).grid
    from adapted_ot import FilteredTree, Node
    coin = FilteredTree(g, (
        (Node(None, 1.0, (0.0,)),),
        (Node(0, 0.5, (1.0,)), Node(0, 0.5, (-1.0,))),
    ))
    pi = product_coupling(coin, coin)
    assert np.allclose(pi.weights, 0.25)


def test_constraints_deterministic_source_empty(rng, fig1):
    d = deterministic_tree()
    y = random_tree(rng, max_steps=2)
    from adapted_ot.trees import align
    d2, y2 = align(d, y)
    rows = causality_constraints(d2, y2, 0, X_TO_Y)
    assert rows.shape[0] == 0


def test_constraints_vacuous_at_large_shift(rng):
    x = random_tree(rng, max_steps=3)
    y = random_tree(rng, max_steps=3)
    from adapted_ot.trees import align
    x, y = align(x, y)
    n = x.grid.n_steps
    for d in (X_TO_Y, Y_TO_X):
        assert causality_constraints(x, y, n, d).shape[0] == 0


def test_identity_self_coupling_bicausal(rng):
    for _ in range(10):
        t = random_tree(rng)
        pi = identity_coupling(t)
        ok, v = is_eps_bicausal(pi, ZERO_SHIFT)
        assert ok, v
        assert transport_cost(pi, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_comonotone_fig1_causality(fig1):
    pi = comonotone_fig1(fig1)
    assert transport_cost(pi, 1.0) == pytest.approx(0.1, abs=1e-12)
    # fine from the information-rich side toward the poor one...
    ok_rich, _ = is_eps_causal(pi, ZERO_SHIFT, Y_TO_X)
    assert ok_rich
    # ...but pairing the terminal branches anticipates the revealing side
    ok_poor, viol = is_eps_causal(pi, ZERO_SHIFT, X_TO_Y)
    assert not ok_poor
    assert viol == pytest.approx(0.25, abs=1e-12)
    ok_bi, viol_bi = is_eps_bicausal(pi, ZERO_SHIFT)
    assert not ok_bi and viol_bi == pytest.approx(0.25, abs=1e-12)


def test_monotone_in_eps(rng):
    # the constraint sets shrink with the shift, so LP values cannot rise
    for _ in range(15):
        x = random_tree(rng, max_steps=3)
        y = random_tree(rng, max_steps=3)
        from adapted_ot.trees import align
        x, y = align(x, y)
        vals = [eps_bicausal_lp(x, y, k, witness=False).value
                for k in range(x.grid.n_steps + 1)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9


def _random_bicausal(rng, x, y):
    """A random vertex of the shift-0 bicausal polytope."""
    from adapted_ot.lp import transport_lp
    from adapted_ot.solvers import _causality_blocks
    extra = _causality_blocks(x, y, 0, (X_TO_Y, Y_TO_X))
    rhs = np.zeros(extra.shape[0]) if extra is not None else None
    cost = rng.random((x.n_leaves, y.n_leaves))
    res = transport_lp(x.leaf_probs, y.leaf_probs, cost, extra, rhs)
    assert res.status == "optimal"
    return Coupling(x, y, res.x.reshape(x.n_leaves, y.n_leaves))


def test_glue_identity_and_product(rng, fig1):
    p, pe = fig1
    rho = product_coupling(p, pe)
    glued = glue(identity_coupling(p), rho)
    assert np.allclose(glued.weights, rho.weights, atol=1e-14)
    x = random_tree(rng)
    prod1 = product_coupling(x, p)
    prod2 = product_coupling(p, pe)
    assert np.allclose(glue(prod1, prod2).weights,
                       product_coupling(x, pe).weights, atol=1e-14)


def test_glue_preserves_bicausality(rng):
    hits = 0
    for _ in range(100):
        x = random_tree(rng, max_steps=2)
        y = random_tree(rng, max_steps=2)
        z = random_tree(rng, max_steps=2)
        from adapted_ot.trees import align, common_grid, regrid
        g = common_grid(common_grid(x.grid, y.grid), z.grid)
        x, y, z = regrid(x, g), regrid(y, g), regrid(z, g)
        pi = _random_bicausal(rng, x, y)
        rho = _random_bicausal(rng, y, z)
        glued = glue(pi, rho)
        glued.check()
        ok, viol = is_eps_bicausal(glued, ZERO_SHIFT)
        assert ok, viol
        hits += 1
    assert hits == 100


def test_glue_marginal_projections(rng):
    x = random_tree(rng, max_steps=2)
    from adapted_ot.trees import align
    y = random_tree(rng, max_steps=2)
    x, y = align(x, y)
    pi = product_coupling(x, y)
    rho = identity_coupling(y)
    glued = glue(pi, rho)
    assert np.allclose(glued.weights, pi.weights, atol=1e-14)


def test_threefold_gluing_projects_to_inputs(rng):
    # the conditional-independent trivariate extension reproduces both inputs
    from adapted_ot.trees import align, common_grid, regrid
    x = random_tree(rng, max_steps=2)
    y = random_tree(rng, max_steps=2)
    z = random_tree(rng, max_steps=2)
    g = common_grid(common_grid(x.grid, y.grid), z.grid)
    x, y, z = regrid(x, g), regrid(y, g), regrid(z, g)
    pi = _random_bicausal(rng, x, y)
    rho = _random_bicausal(rng, y, z)
    big = pi.weights[:, :, None] * rho.weights[None, :, :] \
        / y.leaf_probs[None, :, None]
    assert np.allclose(big.sum(axis=2), pi.weights, atol=1e-12)
    assert np.allclose(big.sum(axis=0), rho.weights, atol=1e-12)
    assert np.allclose(big.sum(axis=1), glue(pi, rho).weights, atol=1e-12)


def test_constraints_empty_for_deterministic_pair():
    a = deterministic_tree((0.0, 1.0, 2.0))
    b = deterministic_tree((1.0, 1.0, 0.0))
    for d in (X_TO_Y, Y_TO_X):
        assert causality_constraints(a, b, 0, d).shape[0] == 0


def test_coupling_json(fig1):
    # a witness coupling is written out through its report
    p, pe = fig1
    rep = wasserstein(p, pe)
    rep.coupling = product_coupling(p, pe)
    d = json.loads(json.dumps(rep.to_json_dict(include_witness=True)))
    assert np.allclose(np.array(d["witness"]), 0.25)
    assert "witness" not in rep.to_json_dict()


def test_transport_cost_examples(fig1):
    p, pe = fig1
    # product of two Dirac paths at distance 1
    a = deterministic_tree((0.0, 0.0, 0.0))
    b = deterministic_tree((0.0, 1.0, 1.0))
    pi = product_coupling(a, b)
    assert transport_cost(pi, 1.0) == pytest.approx(1.0)
    assert transport_cost(pi, 1.0, "l1") == pytest.approx(
        0.5 * 1.0 + 1.0)  # dt-integral plus terminal gap


def test_identity_on_paths_coupling_with_natural_tree(rng):
    # the identity-on-paths coupling with the standard naturally filtered
    # tree is causal toward it; the reverse holds iff already natural
    def key(path):
        return (np.round(path, 12) + 0.0).tobytes()

    trees = [random_tree(rng, root_atoms=int(rng.integers(1, 3))) for _ in range(30)]
    trees += [coarse_tree(rng, root_atoms=int(rng.integers(1, 3))) for _ in range(30)]
    for y in trees:
        s = natural_tree(y)
        # couple each y-leaf with the s-leaf carrying the same path
        key_to_s = {key(s.leaf_paths[j]): j for j in range(s.n_leaves)}
        w = np.zeros((y.n_leaves, s.n_leaves))
        for k in range(y.n_leaves):
            w[k, key_to_s[key(y.leaf_paths[k])]] = y.leaf_probs[k]
        pi = Coupling(y, s, w)
        pi.check()
        ok_fwd, viol = is_eps_causal(pi, ZERO_SHIFT, X_TO_Y)
        assert ok_fwd, viol
        ok_rev, _ = is_eps_causal(pi, ZERO_SHIFT, Y_TO_X)
        assert ok_rev == is_naturally_filtered(y)


def _loop_rows(x, y, eps_steps, direction=X_TO_Y, drop_redundant=True):
    """Oracle: the former row builder, one dense row per (leaf, atom) pair
    built in Python loops.  Without drop_redundant it keeps every leaf of
    each conditioning atom and every target atom."""
    if direction == Y_TO_X:
        rows = _loop_rows(y, x, eps_steps, X_TO_Y, drop_redundant)
        nx, ny = x.n_leaves, y.n_leaves
        return rows.reshape(-1, ny, nx).transpose(0, 2, 1).reshape(-1, nx * ny)
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
                xvec = np.zeros(nx)
                xvec[leaves] = -px[leaves[li]] / mass
                xvec[leaves[li]] += 1.0
                for v in range(y_limit):
                    yvec = (anc_y == v).astype(float)
                    rows.append(np.outer(xvec, yvec).ravel())
    if not rows:
        return np.zeros((0, nx * ny))
    return np.array(rows)


def _oracle_pairs(rng, count):
    """Random, coarse and shuffled coarse pairs with 1-3 root atoms."""
    for k in range(count):
        kw = dict(root_atoms=int(rng.integers(1, 4)), max_steps=3)
        make = coarse_tree if k % 3 else random_tree
        x, y = make(rng, **kw), make(rng, **kw)
        if k % 3 == 2:
            x, y = shuffled(x, rng), shuffled(y, rng)
        yield align(x, y)


def test_rows_match_loop_oracle(rng):
    # the counterexample pair has atoms of 8 or more leaves, whose masses a
    # pairwise sum and a running sum can round differently
    cases = 0
    for x, y in [align(*counterexample_pair(3, 12)), *_oracle_pairs(rng, 45)]:
        for k in range(x.grid.n_steps + 1):
            for d in (X_TO_Y, Y_TO_X):
                rows, want = causality_constraints(x, y, k, d), _loop_rows(x, y, k, d)
                assert rows.shape == want.shape
                assert rows.tobytes() == want.tobytes()
                cases += want.shape[0] > 0
    assert cases > 50


def test_check_matches_loop_oracle(rng):
    # as in test_rows_match_loop_oracle, the counterexample pair's atoms of 8
    # or more leaves are the only ones whose masses a pairwise sum can round
    for x, y in [align(*counterexample_pair(3, 12)), *_oracle_pairs(rng, 45)]:
        for k in range(x.grid.n_steps + 1):
            witness = eps_bicausal_lp(x, y, k).coupling.weights
            plans = [witness, product_coupling(x, y).weights]
            # move mass around a 2 x 2 cycle of the product: marginals stay
            w = plans[1].copy()
            (a, b), (c, e) = rng.choice(x.n_leaves, 2), rng.choice(y.n_leaves, 2)
            if a != b and c != e:
                delta = 0.5 * min(w[a, e], w[b, c])
                w[a, c] += delta
                w[b, e] += delta
                w[a, e] -= delta
                w[b, c] -= delta
                plans.append(w)
            for d in (X_TO_Y, Y_TO_X):
                full = _loop_rows(x, y, k, d, drop_redundant=False)
                for w in plans:
                    want = float(np.abs(full @ w.ravel()).max()) if full.size else 0.0
                    ok, got = is_eps_causal(Coupling(x, y, w), EpsShift(k, 0.0), d)
                    assert abs(got - want) <= 1e-14
                    assert ok == (want <= 1e-9)


def test_direction_only_swaps_the_roles(rng):
    # Y to X is X to Y with the trees swapped, bit for bit: the rows with
    # their cells transposed, and the check on the transposed coupling
    for x, y in [align(*counterexample_pair(3, 12)), *_oracle_pairs(rng, 45)]:
        nx, ny = x.n_leaves, y.n_leaves
        plans = [product_coupling(x, y).weights, rng.random((nx, ny))]
        for k in range(x.grid.n_steps + 1):
            rows = causality_constraints(x, y, k, Y_TO_X)
            swapped = causality_constraints(y, x, k, X_TO_Y)
            want = swapped.reshape(-1, ny, nx).transpose(0, 2, 1).reshape(-1, nx * ny)
            assert rows.tobytes() == want.tobytes()
            for w in plans:
                assert (is_eps_causal(Coupling(x, y, w), EpsShift(k, 0.0), Y_TO_X)
                        == is_eps_causal(Coupling(y, x, w.T), EpsShift(k, 0.0), X_TO_Y))


def test_check_rejects_one_cycle_on_a_256_leaf_witness():
    # the dense rows of this check would need tens of GB
    rep = nested_bicausal(random_walk_tree(8), quantized_bm_tree(8, 2))
    assert rep.verify_witness()
    x, y, w = rep.coupling.left, rep.coupling.right, rep.coupling.weights.copy()
    # each x-leaf has one partner, and the partners of sibling x-leaves share
    # every ancestor, so the cycle runs through x-leaves a, b whose partners
    # c, e lie in different level-1 atoms
    assert ((w > 0).sum(axis=1) == 1).all()
    level1 = y.ancestors[1]
    partner = w.argmax(axis=1)
    a, c = 0, partner[0]
    b = int(np.flatnonzero(level1[partner] != level1[c])[0])
    e = partner[b]
    delta = 1e-6
    w[a, c] -= delta
    w[b, e] -= delta
    w[a, e] += delta
    w[b, c] += delta
    bad = Coupling(x, y, w)
    bad.check()
    assert is_eps_causal(bad, ZERO_SHIFT, X_TO_Y)[1] >= 0.5 * delta
    # the value matches, so only the causality check can refuse the witness
    rep.coupling, rep.value = bad, transport_cost(bad, rep.p, rep.metric)
    assert not rep.verify_witness()


def test_check_rejects_non_finite_weights(fig1):
    rep = wasserstein(*fig1)
    rep.coupling.weights[0, 0] = np.nan
    assert not is_eps_bicausal(rep.coupling, ZERO_SHIFT)[0]
    with pytest.raises(ValueError, match="non-finite"):
        rep.coupling.check()
    with pytest.raises(ValueError, match="non-finite"):
        rep.verify_witness()


@pytest.mark.parametrize("p", [np.nan, np.inf, 0.5])
def test_transport_cost_rejects_bad_order(fig1, p):
    with pytest.raises(ValueError, match="p must be"):
        transport_cost(product_coupling(*fig1), p)


@pytest.mark.parametrize("metric", ["sup", "l1"])
def test_path_distances_match_all_levels_oracle(rng, metric):
    pairs = [(random_walk_tree(n), quantized_bm_tree(n, 2)) for n in (2, 5)]
    pairs += [counterexample_pair(3, 12)]
    pairs += [(random_tree(rng, dim=2, root_atoms=2), random_tree(rng, dim=2))
              for _ in range(10)]
    # node order permuted within each level, so the parents are not sorted
    pairs += [(shuffled(random_tree(rng, dim=2, root_atoms=3), rng),
               shuffled(coarse_tree(rng, dim=2), rng)) for _ in range(10)]
    # grids of 2 and 3 steps align onto (1/3, 1/2, 2/3, 1)
    pairs += [(random_walk_tree(2), shuffled(quantized_bm_tree(3, 2), rng))]
    pairs += [(random_tree(rng, max_steps=2, root_atoms=2),
               random_tree(rng, max_steps=3)) for _ in range(10)]
    uneven = 0
    for x, y in pairs:
        x, y = align(x, y)
        uneven += len(set(np.round(np.diff((0.0,) + x.grid.times), 12))) > 1
        got = path_cost_matrix(x, y, metric)
        want = all_levels_distances(x.leaf_paths, y.leaf_paths, x.grid, metric)
        if metric == "sup":
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    assert uneven >= 2


def test_transport_cost_memory_is_quadratic_in_leaves():
    # 512 x 512 leaves and 10 levels: the all-levels difference array alone
    # would take 20 MB, one cost matrix takes 2 MB
    import tracemalloc
    pi = product_coupling(random_walk_tree(9), quantized_bm_tree(9, 2))
    pi.left.leaf_paths, pi.right.leaf_paths  # cached views, built untraced
    for metric in ("sup", "l1"):
        tracemalloc.start()
        try:
            transport_cost(pi, 1.0, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, (metric, peak)
