import numpy as np
import pytest

from adapted_ot import (Coupling, EpsShift, ZERO_SHIFT, X_TO_Y, Y_TO_X,
                        causality_constraints, glue, identity_coupling,
                        is_eps_bicausal, is_eps_causal, natural_tree,
                        is_naturally_filtered, product_coupling, random_tree,
                        transport_cost, eps_bicausal_lp)
from conftest import coarse_tree, deterministic_tree


def comonotone_fig1(fig1):
    p, pe = fig1
    w = np.zeros((2, 2))
    w[0, 0] = 0.5  # up with up
    w[1, 1] = 0.5
    return Coupling(p, pe, w)


def test_eps_shift_for_grid(fig1):
    p, _ = fig1
    assert EpsShift.for_grid(p.grid, 0).epsilon_time == 0.0
    assert EpsShift.for_grid(p.grid, 1).epsilon_time == pytest.approx(0.5)
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
    p, pe = fig1
    pi = product_coupling(p, pe)
    d = pi.to_json_dict("P.json", "Pe.json")
    assert d["left"] == "P.json" and d["right"] == "Pe.json"
    assert np.allclose(np.array(d["weights"]), 0.25)


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
