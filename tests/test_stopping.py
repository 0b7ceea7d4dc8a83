import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adapted_ot import (Coupling, CostFunction, EpsShift, ZERO_SHIFT, aw,
                        brute_force_os, cost_by_name, counterexample_pair,
                        eval_rule, hk_minimize, identity_coupling,
                        lipschitz_battery, martingale_defect, modulus,
                        os_from_transfer, os_stability_bound, product_coupling,
                        quantized_bm_tree, random_martingale_tree, random_tree,
                        random_walk_tree, snell_os, state_cost,
                        transfer_stopping_time)
from adapted_ot.stopping import (StoppingRule, brute_force_modulus,
                                 random_rule, transfer_identity_gap)
from adapted_ot.trees import FilteredTree, Node, TimeGrid, align

from conftest import deterministic_tree, interior_shift

TERMINAL_SPECS = ("terminal:identity", "terminal:abs", "terminal:call(0.25)",
                  "terminal:put(0.5)")
ALL_SPECS = tuple(c.name for c in lipschitz_battery()) + ("example-E1",) + TERMINAL_SPECS


def test_snell_on_fig1_martingale(fig1):
    p, _ = fig1
    neg = state_cost(lambda v: -v, "neg")
    assert snell_os(p, neg).value == pytest.approx(-1.0, abs=1e-14)
    # centered version: value 0
    g = p.grid
    centered = FilteredTree(g, (
        (Node(None, 1.0, (0.0,)),),
        (Node(0, 1.0, (0.0,)),),
        (Node(0, 0.5, (1.0,)), Node(0, 0.5, (-1.0,))),
    ))
    assert snell_os(centered, neg).value == pytest.approx(0.0, abs=1e-14)
    # brute force over the four stopping rules agrees
    assert brute_force_os(p, neg) == pytest.approx(-1.0, abs=1e-14)


def test_snell_deterministic_path_min():
    t = deterministic_tree((0.4, -0.2, 0.9, 0.1))
    phi = cost_by_name("state:identity")
    assert snell_os(t, phi).value == pytest.approx(-0.2, abs=1e-14)


def test_snell_constant_tree_monotone_psi():
    t = deterministic_tree((0.3, 0.3, 0.3))
    for spec in ("state:identity", "state:call(0.1)", "state:put(0.5)"):
        phi = cost_by_name(spec)
        assert snell_os(t, phi).value == pytest.approx(
            phi.fn(np.array([[0.3]]), 0.0), abs=1e-14)


def test_snell_matches_brute_force(rng):
    battery = lipschitz_battery()
    for _ in range(60):
        t = random_tree(rng)
        phi = battery[int(rng.integers(len(battery)))]
        assert snell_os(t, phi).value == pytest.approx(
            brute_force_os(t, phi), abs=1e-12)
        assert snell_os(t, phi, "sup").value == pytest.approx(
            brute_force_os(t, phi, "sup"), abs=1e-12)


def test_snell_terminal_cost(rng):
    # terminal cost forbids early stopping, in both variants
    t = deterministic_tree((0.5, -1.0, 0.25))
    phi = cost_by_name("terminal:identity")
    assert snell_os(t, phi).value == pytest.approx(0.25, abs=1e-14)
    res = snell_os(t, phi, "sup")
    assert res.value == brute_force_os(t, phi, "sup") == 0.25
    assert not any(s.any() for s in res.rule.stop[:-1])
    for _ in range(30):
        t = random_tree(rng, root_atoms=int(rng.integers(1, 3)))
        for spec in TERMINAL_SPECS:
            phi = cost_by_name(spec)
            assert snell_os(t, phi, "sup").value == pytest.approx(
                brute_force_os(t, phi, "sup"), abs=1e-12)


def test_snell_rule_consistency(rng):
    phi = cost_by_name("state:identity")
    for _ in range(20):
        t = random_tree(rng)
        res = snell_os(t, phi)
        assert eval_rule(t, res.rule, phi) == pytest.approx(res.value, abs=1e-12)


def test_e1_inf_and_sup_values():
    for n in (2, 4, 8):
        xn, x = counterexample_pair(n, 8)
        phi = cost_by_name("example-E1")
        assert snell_os(xn, phi, "inf").value == pytest.approx(
            0.5 * (1 / n - 1), abs=1e-12)
        assert snell_os(xn, phi, "sup").value == pytest.approx(
            0.5 * (1 - 1 / n), abs=1e-12)
        assert snell_os(x, phi, "inf").value == pytest.approx(0.0, abs=1e-12)
        assert snell_os(x, phi, "sup").value == pytest.approx(0.0, abs=1e-12)


def test_transfer_identity_self_coupling(rng):
    phi = cost_by_name("state:identity")
    for _ in range(10):
        t = random_tree(rng)
        pi = identity_coupling(t)
        tau = random_rule(t, rng)
        fam = transfer_stopping_time(pi, ZERO_SHIFT, tau)
        times = tau.stop_times()
        for lo, hi, sig in fam.plateaus:
            assert np.allclose(sig, times, atol=1e-12)
        assert fam.integral(phi) == pytest.approx(eval_rule(t, tau, phi),
                                                  abs=1e-12)


def test_transfer_product_coupling_unconditional_quantiles(rng):
    x, y = align(random_tree(rng), random_tree(rng))
    pi = product_coupling(x, y)
    tau = random_rule(y, rng)
    fam = transfer_stopping_time(pi, ZERO_SHIFT, tau)
    for lo, hi, sig in fam.plateaus:
        assert np.allclose(sig, sig[0], atol=1e-12)  # deterministic per u


def test_transfer_identity_equation(rng):
    # the u-integral equals E[phi(X, tau+eps)] exactly
    battery = lipschitz_battery()
    worst = 0.0
    for _ in range(60):
        x, y = align(random_tree(rng), random_tree(rng))
        k = int(rng.integers(0, x.grid.n_steps + 1))
        eps = interior_shift(x.grid, k)
        pi = _random_causal(rng, x, y, k)
        tau = random_rule(y, rng)
        phi = battery[int(rng.integers(len(battery)))]
        worst = max(worst, transfer_identity_gap(pi, eps, tau, phi))
    assert worst <= 1e-12


def _random_causal(rng, x, y, k):
    from adapted_ot.lp import transport_lp
    from adapted_ot.solvers import _causality_blocks
    from adapted_ot.coupling import X_TO_Y
    extra = _causality_blocks(x, y, k, (X_TO_Y,))
    rhs = np.zeros(extra.shape[0]) if extra is not None else None
    cost = rng.random((x.n_leaves, y.n_leaves))
    res = transport_lp(x.leaf_probs, y.leaf_probs, cost, extra, rhs)
    assert res.status == "optimal"
    return Coupling(x, y, res.x.reshape(x.n_leaves, y.n_leaves))


def test_transfer_rejects_non_causal(fig1):
    p, pe = fig1
    w = np.zeros((2, 2))
    w[0, 0] = w[1, 1] = 0.5
    como = Coupling(p, pe, w)  # anticipates the revealing side
    tau = StoppingRule(pe, [np.array([False]), np.array([False, False]),
                            np.array([True, True])])
    with pytest.raises(ValueError, match="causal"):
        transfer_stopping_time(como, ZERO_SHIFT, tau)


def test_os_from_transfer_chain(rng):
    phi = cost_by_name("state:identity")
    for _ in range(30):
        x, y = align(random_tree(rng), random_tree(rng))
        k = int(rng.integers(0, 2))
        eps = interior_shift(x.grid, k)
        pi = _random_causal(rng, x, y, k)
        tau = random_rule(y, rng)
        got = os_from_transfer(pi, eps, tau, phi)
        snell = snell_os(x, phi).value
        fam = transfer_stopping_time(pi, eps, tau)
        upper = fam.integral(phi)
        assert snell <= got + 1e-10
        assert got <= upper + 1e-12


def test_modulus_examples():
    t = deterministic_tree((0.5, 0.5, 0.5, 0.5))
    for k in range(4):
        assert modulus(t, k) == pytest.approx(0.0, abs=1e-14)
    # single jump of height h at level 2
    jump = deterministic_tree((0.0, 0.0, 0.8))
    assert modulus(jump, 1) == pytest.approx(0.8, abs=1e-14)
    assert brute_force_modulus(jump, 1) == pytest.approx(0.8, abs=1e-14)


def test_modulus_matches_brute_force(rng):
    for _ in range(30):
        t = random_tree(rng)
        k = int(rng.integers(0, t.grid.n_steps + 1))
        assert modulus(t, k) == pytest.approx(brute_force_modulus(t, k),
                                              abs=1e-12)


def test_modulus_monotone_and_bounded(rng):
    for _ in range(15):
        t = random_tree(rng)
        n = t.grid.n_steps
        vals = [modulus(t, k) for k in range(n + 1)]
        for a, b in zip(vals, vals[1:]):
            assert a <= b + 1e-12
        paths = t.leaf_paths
        oscillation = np.linalg.norm(paths[:, :, None] - paths[:, None, :],
                                     axis=-1).max()
        assert vals[-1] <= oscillation + 1e-12


def test_modulus_rw_bound():
    # scaled random walk: delta(eps) <= 4 sqrt(1/n v eps) at all grid shifts
    for n in (2, 5, 9):
        t = random_walk_tree(n)
        for k in range(n + 1):
            eps = k / n
            assert modulus(t, k) <= 4 * np.sqrt(max(1 / n, eps)) + 1e-12


def test_martingale_defect_examples(fig1):
    p, _ = fig1
    assert martingale_defect(p) == 0.0
    assert martingale_defect(random_walk_tree(4)) == 0.0
    assert martingale_defect(random_walk_tree(7)) <= 1e-13
    ramp = deterministic_tree((0.0, 0.5, 1.0))
    assert martingale_defect(ramp) == pytest.approx(1.0, abs=1e-14)


def test_os_stability_bound_identity(rng):
    t = random_tree(rng)
    pi = identity_coupling(t)
    bound = os_stability_bound(t, t, pi, ZERO_SHIFT, 1.0)
    assert bound == pytest.approx(0.0, abs=1e-12)


def test_os_stability_bound_dominates(rng):
    battery = lipschitz_battery()
    for _ in range(40):
        x = random_martingale_tree(rng)
        y = random_martingale_tree(rng)
        x, y = align(x, y)
        rep = aw(x, y)
        eps = EpsShift(rep.eps_steps, rep.epsilon_time)
        bound = os_stability_bound(x, y, rep.coupling, eps, 1.0)
        for phi in battery:
            gap = abs(snell_os(x, phi).value - snell_os(y, phi).value)
            assert gap <= bound + 1e-9


def test_qualitative_os_stability(rng):
    # along a martingale sequence converging in the adapted distance to a
    # refining-values limit, the stability bound at the witness coupling
    # shrinks to zero and dominates every stopping-value gap
    from adapted_ot import os_stability_bound, random_walk_tree
    from adapted_ot.trees import FilteredTree, Node
    limit = random_walk_tree(3)

    def perturbed(d):
        levels = [limit.levels[0]]
        vals = [0.0]
        for i in range(1, 4):
            lv, nv = [], []
            for j, nd in enumerate(limit.levels[i]):
                step = (1 + d) / np.sqrt(3) * (1 if j % 2 == 0 else -1)
                v = vals[nd.parent] + step
                lv.append(Node(nd.parent, 0.5, (v,)))
                nv.append(v)
            levels.append(tuple(lv))
            vals = nv
        return FilteredTree(limit.grid, tuple(levels), 1)

    battery = lipschitz_battery()
    bounds = []
    for d in (0.5, 0.25, 0.125, 0.0625):
        xn = perturbed(d)
        rep = aw(xn, limit)
        eps = EpsShift(rep.eps_steps, rep.epsilon_time)
        bound = os_stability_bound(xn, limit, rep.coupling, eps, 1.0)
        for phi in battery:
            gap = abs(snell_os(xn, phi).value - snell_os(limit, phi).value)
            assert gap <= bound + 1e-9
        bounds.append(bound)
    assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] <= 0.25


def test_os_invariant_under_hk_minimize(rng):
    battery = lipschitz_battery()
    for _ in range(30):
        t = random_tree(rng, root_atoms=int(rng.integers(1, 3)))
        m = hk_minimize(t)
        for phi in battery[:3]:
            assert snell_os(t, phi).value == pytest.approx(
                snell_os(m, phi).value, abs=1e-12)


# ---------------------------------------------------------------------------
# Batched cost evaluation against per-node and per-leaf loops that call the
# cost once per path prefix.


def _snell_per_node(tree, phi, variant):
    """Snell recursion with one cost call per node; a non-finite cost
    forbids stopping."""
    sign = 1.0 if variant == "inf" else -1.0
    n = tree.n_levels
    values, stop = [None] * n, [None] * n
    rep = [np.zeros(len(lv), dtype=int) for lv in tree.levels]
    for i in range(n):
        rep[i][tree.ancestors[i]] = np.arange(tree.n_leaves)
    for i in range(n - 1, -1, -1):
        t = tree.level_time(i)
        raw = np.array([phi.fn(tree.leaf_paths[r, :i + 1], t) for r in rep[i]])
        here = sign * raw
        if i == n - 1:
            values[i], stop[i] = here, np.ones(here.size, dtype=bool)
            continue
        cont = tree.children_sum(i, values[i + 1])
        stop[i] = np.isfinite(raw) & (here <= cont)
        values[i] = np.where(stop[i], here, cont)
    return sign * float(tree.children_sum(-1, values[0])[0]), stop


def _stop_level(rule, leaf):
    for i in range(rule.tree.n_levels):
        if rule.stop[i][rule.tree.ancestors[i][leaf]]:
            return i


def _phi_at(tree, leaf, t, phi):
    t = min(max(t, 0.0), 1.0)
    return phi.fn(tree.leaf_paths[leaf, :tree.grid.floor_level(t) + 1], t)


def _eval_rule_per_leaf(tree, rule, phi):
    total = 0.0
    for k in range(tree.n_leaves):
        i = _stop_level(rule, k)
        total += tree.leaf_probs[k] * phi.fn(tree.leaf_paths[k, :i + 1],
                                             tree.level_time(i))
    return float(total)


def _family_values_per_leaf(fam, phi):
    return [sum(fam.tree.leaf_probs[k] * _phi_at(fam.tree, k, times[k], phi)
                for k in range(fam.tree.n_leaves))
            for _, _, times in fam.plateaus]


def _transfer_rhs_per_pair(pi, eps, tau, phi):
    times = [tau.tree.level_time(_stop_level(tau, b)) for b in range(pi.right.n_leaves)]
    rhs = 0.0
    for a in range(pi.left.n_leaves):
        for b in range(pi.right.n_leaves):
            if pi.weights[a, b] > 0.0:
                rhs += pi.weights[a, b] * _phi_at(pi.left, a, times[b] + eps.epsilon_time,
                                                  phi)
    return rhs


def test_batched_snell_and_rules_match_per_node_loops(rng):
    costs = [cost_by_name(s) for s in ALL_SPECS]
    for _ in range(300):
        t = random_tree(rng, dim=2, root_atoms=int(rng.integers(1, 4)))
        rule = random_rule(t, rng)
        assert np.array_equal(rule.stop_levels(),
                              [_stop_level(rule, k) for k in range(t.n_leaves)])
        for phi in costs:
            for variant in ("inf", "sup"):
                res = snell_os(t, phi, variant)
                value, stop = _snell_per_node(t, phi, variant)
                assert res.value == value
                assert all(np.array_equal(a, b) for a, b in zip(res.rule.stop, stop))
            assert eval_rule(t, rule, phi) == _eval_rule_per_leaf(t, rule, phi)


def test_batched_transfer_matches_per_leaf_loops(rng):
    costs = [cost_by_name(s) for s in ALL_SPECS]
    for _ in range(60):
        roots = int(rng.integers(1, 3))
        x, y = align(random_tree(rng, dim=2, root_atoms=roots),
                     random_tree(rng, dim=2, root_atoms=roots))
        k = int(rng.integers(0, x.grid.n_steps + 1))
        eps = interior_shift(x.grid, k)
        pi = _random_causal(rng, x, y, k)
        tau = random_rule(y, rng)
        fam = transfer_stopping_time(pi, eps, tau)
        widths = [hi - lo for lo, hi, _ in fam.plateaus]
        for phi in costs:
            want = _family_values_per_leaf(fam, phi)
            integral = 0.0
            for w, e in zip(widths, want):
                integral += w * e
            assert list(fam.values(phi)) == want
            assert fam.integral(phi) == integral
            assert fam.best_value(phi) == min(want)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gap = transfer_identity_gap(pi, eps, tau, phi)
            # terminal costs can make both sides +inf: the gap is then 0.0
            rhs = float(_transfer_rhs_per_pair(pi, eps, tau, phi))
            want = 0.0 if rhs == integral else abs(integral - rhs)
            assert math.isfinite(gap) and gap == want


@st.composite
def small_trees(draw):
    """Trees of 1-3 steps with 1-2 root atoms and 1-2 children per node;
    values on a coarse lattice so that ties between stopping and continuing
    are common."""
    n = draw(st.integers(1, 3))
    value = st.sampled_from((-1.0, -0.5, 0.0, 0.25, 0.5, 1.0))

    def probs(k):
        w = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        return [c / sum(w) for c in w]

    levels = [tuple(Node(None, p, (draw(value),)) for p in probs(draw(st.integers(1, 2))))]
    for _ in range(n):
        levels.append(tuple(Node(parent, p, (draw(value),))
                            for parent in range(len(levels[-1]))
                            for p in probs(draw(st.integers(1, 2)))))
    return FilteredTree(TimeGrid(tuple((i + 1) / n for i in range(n))), tuple(levels))


@given(small_trees(), st.sampled_from(ALL_SPECS), st.sampled_from(("inf", "sup")))
def test_snell_equals_brute_force_property(tree, spec, variant):
    phi = cost_by_name(spec)
    assert snell_os(tree, phi, variant).value == pytest.approx(
        brute_force_os(tree, phi, variant), abs=1e-12)


def test_custom_batched_cost_matches_brute_force(rng):
    # running minimum: reads the whole stopped path, and a repeated last
    # value does not change it
    running_min = CostFunction(lambda paths, t: paths[..., 0].min(axis=-1), "running-min")
    for _ in range(20):
        t = random_tree(rng, root_atoms=int(rng.integers(1, 3)))
        for variant in ("inf", "sup"):
            assert snell_os(t, running_min, variant).value == pytest.approx(
                brute_force_os(t, running_min, variant), abs=1e-12)


def test_cost_must_return_one_value_per_path(rng):
    t = random_tree(rng)
    scalar = CostFunction(lambda paths, t: 0.0, "scalar")
    with pytest.raises(ValueError, match="returned shape"):
        snell_os(t, scalar)
    with pytest.raises(ValueError, match="returned shape"):
        eval_rule(t, random_rule(t, rng), scalar)


def test_transfer_requires_rule_with_right_marginal_leaves():
    y = random_walk_tree(3)                      # 8 leaves
    pi = identity_coupling(y)
    phi = cost_by_name("state:identity")
    for other in (deterministic_tree((0.0, 0.0, 0.0, 0.0)),   # 1 leaf
                  quantized_bm_tree(3, 3)):                   # 27 leaves
        assert other.grid.times == y.grid.times
        tau = random_rule(other, np.random.default_rng(0))
        with pytest.raises(ValueError, match="right marginal"):
            transfer_stopping_time(pi, ZERO_SHIFT, tau)
        with pytest.raises(ValueError, match="right marginal"):
            transfer_identity_gap(pi, ZERO_SHIFT, tau, phi)


def test_stopping_rule_rejects_misshaped_decisions(fig1):
    _, pe = fig1                                 # 1, 2 and 2 nodes per level
    for bad in ([[False], [False], [True, True]],
                [[False], [False, False, True], [True, True]],
                [[False], [[False, False]], [True, True]]):
        with pytest.raises(ValueError, match="one entry per node"):
            StoppingRule(pe, bad)


def test_modulus_takes_integer_steps_only():
    t = random_walk_tree(4)
    assert modulus(t, np.int64(2)) == modulus(t, 2)
    for bad in (1.7, 1.0, "1"):
        with pytest.raises(ValueError, match="integer"):
            modulus(t, bad)
