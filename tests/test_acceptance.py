"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them inline).
Expected constants are recomputed in-test by independent oracles before
being asserted against the solver outputs.
"""

import math
import time

import numpy as np
import pytest

from adapted_ot import (Coupling, EpsShift, ZERO_SHIFT, aldous_functional, aw,
                        brute_force_os, coarsen_filtration, cost_by_name,
                        counterexample_pair, cw, eps_bicausal_lp,
                        figure1_pair, hk_minimize, is_eps_bicausal,
                        lipschitz_battery, martingale_defect, modulus,
                        natural_tree, nested_bicausal, offset_rw_pair,
                        product_coupling, random_martingale_tree, random_tree,
                        random_walk_tree, rw_bm_block_coupling_cost, scw,
                        snell_os, transport_cost, tree_isomorphic, validate,
                        wasserstein, euler_pair_cost, parse_coefficient,
                        bursty_time_change, shifted_time_change,
                        time_changed_bm_pair, TimeGrid, FilteredTree, Node)
from adapted_ot.coupling import path_cost_matrix
from adapted_ot.stopping import random_rule, transfer_identity_gap
from adapted_ot.trees import align

from conftest import interior_shift


def _report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_dp_equals_lp():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        x, y = align(random_tree(rng), random_tree(rng))
        dp = nested_bicausal(x, y, witness=False).value
        lp = eps_bicausal_lp(x, y, 0, witness=False).value
        gap = abs(dp - lp) / max(1.0, abs(dp))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-8 and elapsed < 60.0,
            f"max rel gap {worst:.2e} over 200 pairs in {elapsed:.1f}s")


# -- 2 ----------------------------------------------------------------------

def _curated_pairs():
    rng = np.random.default_rng(202)
    p, pe = figure1_pair(0.1)

    def sibling_split(t):
        # split one terminal node into two equal-valued copies (1/4, 3/4)
        lv = list(t.levels[-1])
        nd = lv[0]
        lv[0] = Node(nd.parent, nd.prob * 0.25, nd.value)
        lv.insert(1, Node(nd.parent, nd.prob * 0.75, nd.value))
        return FilteredTree(t.grid, t.levels[:-1] + (tuple(lv),), t.dim)

    def permuted(t):
        # reverse the order of the terminal siblings
        order = sorted(range(len(t.levels[-1])),
                       key=lambda j: (t.levels[-1][j].parent, -j))
        lv = tuple(t.levels[-1][j] for j in order)
        return FilteredTree(t.grid, t.levels[:-1] + (lv,), t.dim)

    equivalent = []
    base = [random_tree(rng) for _ in range(4)]
    for t in base[:2]:
        equivalent.append((t, sibling_split(t)))
    for t in base[2:]:
        equivalent.append((t, permuted(t)))
    nf = natural_tree(base[0])
    equivalent.append((nf, hk_minimize(nf)))
    rw = random_walk_tree(2)
    equivalent.append((rw, permuted(rw)))
    for t in (random_tree(rng) for _ in range(3)):
        equivalent.append((t, hk_minimize(t)))
    equivalent.append((p, sibling_split(p)))

    g = p.grid
    split_middle = FilteredTree(g, (
        (Node(None, 1.0, (1.0,)),),
        (Node(0, 0.5, (1.0,)), Node(0, 0.5, (1.0,))),
        (Node(0, 1.0, (2.0,)), Node(1, 1.0, (0.0,))),
    ))
    inequivalent = [(p, pe), (p, split_middle)]
    for _ in range(4):
        inequivalent.append((random_tree(rng), random_tree(rng)))
    rw3 = random_walk_tree(3)
    scaled = FilteredTree(rw3.grid, tuple(
        tuple(Node(nd.parent, nd.prob, tuple(1.5 * v for v in nd.value))
              for nd in lv) for lv in rw3.levels), 1)
    inequivalent.append((rw3, scaled))
    inequivalent.append((counterexample_pair(2, 4)[0], counterexample_pair(4, 4)[0]))
    inequivalent.append((random_walk_tree(2),
                         coarsen_filtration(random_walk_tree(2), TimeGrid((1.0,)))))
    inequivalent.append((figure1_pair(0.3)[1], figure1_pair(0.2)[1]))
    return equivalent, inequivalent


def test_criterion_02_metric_axioms():
    rng = np.random.default_rng(203)
    sym_worst = tri_worst = 0.0
    for _ in range(50):
        x, y, z = (random_tree(rng, max_steps=2) for _ in range(3))
        axy = aw(x, y, witness=False).value
        ayx = aw(y, x, witness=False).value
        ayz = aw(y, z, witness=False).value
        axz = aw(x, z, witness=False).value
        sym_worst = max(sym_worst, abs(axy - ayx))
        tri_worst = max(tri_worst, axz - (axy + ayz))
    equivalent, inequivalent = _curated_pairs()
    assert len(equivalent) == len(inequivalent) == 10
    zero_ok = iso_ok = True
    for a, b in equivalent:
        assert validate(a) == [] and validate(b) == []
        val = aw(a, b, witness=False).value
        zero_ok &= val <= 1e-9
        iso_ok &= tree_isomorphic(hk_minimize(a), hk_minimize(b))
    pos_ok = noniso_ok = True
    for a, b in inequivalent:
        val = aw(a, b, witness=False).value
        pos_ok &= val > 1e-6
        noniso_ok &= not tree_isomorphic(hk_minimize(a), hk_minimize(b))
    ok = (sym_worst <= 1e-9 and tri_worst <= 1e-8
          and zero_ok and iso_ok and pos_ok and noniso_ok)
    _report(2, ok, f"symmetry gap {sym_worst:.2e}, triangle slack {tri_worst:.2e}, "
            f"20 curated pairs classified")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_ordering_chain():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        x, y = random_tree(rng), random_tree(rng)
        w = wasserstein(x, y, witness=False).value
        c = cw(x, y, witness=False).value
        s = scw(x, y, witness=False).value
        a = aw(x, y, witness=False).value
        nb = nested_bicausal(x, y, witness=False).value
        worst = max(worst, w - c, c - s, s - a, a - nb)
    _report(3, worst <= 1e-9, f"max chain violation {worst:.2e} over 50 pairs")


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_mesh_bound():
    rng = np.random.default_rng(404)
    worst = -np.inf
    for _ in range(100):
        t = random_tree(rng)
        keep = [s for s in t.grid.times[:-1] if rng.random() < 0.5] + [1.0]
        target = TimeGrid(tuple(sorted(keep)))
        c = coarsen_filtration(t, target)
        worst = max(worst, aw(t, c, witness=False).value - target.mesh())
    _report(4, worst <= 1e-9, f"max (aw - mesh) = {worst:.2e} over 100 pairs")


# -- 5 ----------------------------------------------------------------------

def _fig1_oracle(e):
    """Closed enumeration over the one-parameter coupling family.

    With uniform marginals every coupling is w = [[a, .5-a], [.5-a, a]];
    constraints and costs are affine in a, so scanning the two endpoints of
    each feasible interval is exhaustive.
    """
    p, pe = figure1_pair(e)
    cost = path_cost_matrix(p, pe)

    def value(a):
        w = np.array([[a, 0.5 - a], [0.5 - a, a]])
        return float((w * cost).sum()), w

    # plain Wasserstein: min over the whole interval
    w_oracle = min(value(0.0)[0], value(0.5)[0])
    # shift-0 bicausal: check the endpoints and the product for feasibility
    feas = []
    for a in (0.0, 0.25, 0.5):
        val, w = value(a)
        ok, _ = is_eps_bicausal(Coupling(p, pe, w), ZERO_SHIFT)
        if ok:
            feas.append(val)
    aws_oracle = min(feas)
    # adapted distance: the one-step shift (time 1/2) voids all constraints
    aw_oracle = min(aws_oracle, w_oracle + 0.5)
    return w_oracle, aws_oracle, aw_oracle


def test_criterion_05_fig1_separation():
    e = 0.1
    w_o, aws_o, aw_o = _fig1_oracle(e)
    assert w_o == pytest.approx(0.1, abs=1e-12)
    assert aws_o == pytest.approx(1.05, abs=1e-12)
    assert aw_o == pytest.approx(0.6, abs=1e-12)
    p, pe = figure1_pair(e)
    w = wasserstein(p, pe).value
    aws = nested_bicausal(p, pe).value
    a = aw(p, pe).value
    ok = (abs(w - 0.1) <= 1e-9 and abs(a - 0.6) <= 1e-8
          and abs(aws - 1.05) <= 1e-8)
    _report(5, ok, f"W={w:.12f} AW={a:.12f} AWs={aws:.12f} "
            "(all match the enumeration oracle)")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_transfer_identity():
    rng = np.random.default_rng(606)
    battery = lipschitz_battery()
    from adapted_ot.lp import transport_lp
    from adapted_ot.solvers import _causality_blocks
    from adapted_ot.coupling import X_TO_Y
    worst = 0.0
    for _ in range(100):
        x, y = align(random_tree(rng), random_tree(rng))
        k = int(rng.integers(0, x.grid.n_steps + 1))
        eps = interior_shift(x.grid, k)
        extra = _causality_blocks(x, y, k, (X_TO_Y,))
        rhs = np.zeros(extra.shape[0]) if extra is not None else None
        res = transport_lp(x.leaf_probs, y.leaf_probs,
                           rng.random((x.n_leaves, y.n_leaves)), extra, rhs)
        pi = Coupling(x, y, res.x.reshape(x.n_leaves, y.n_leaves))
        tau = random_rule(y, rng)
        phi = battery[int(rng.integers(len(battery)))]
        worst = max(worst, transfer_identity_gap(pi, eps, tau, phi))
    _report(6, worst <= 1e-12, f"max identity gap {worst:.2e} over 100 instances")


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_snell_oracle_and_invariance():
    rng = np.random.default_rng(707)
    battery = lipschitz_battery()
    worst = 0.0
    for _ in range(60):
        t = random_tree(rng, max_steps=4)  # up to 5 levels
        phi = battery[int(rng.integers(len(battery)))]
        worst = max(worst, abs(snell_os(t, phi).value - brute_force_os(t, phi)))
    inv_worst = 0.0
    for _ in range(100):
        t = random_tree(rng, root_atoms=int(rng.integers(1, 3)))
        m = hk_minimize(t)
        for phi in battery:
            inv_worst = max(inv_worst, abs(snell_os(t, phi).value
                                           - snell_os(m, phi).value))
    ok = worst <= 1e-12 and inv_worst <= 1e-12
    _report(7, ok, f"brute-force gap {worst:.2e}, hk-invariance gap {inv_worst:.2e}")


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_quantitative_os_bound():
    rng = np.random.default_rng(808)
    battery = lipschitz_battery()
    from adapted_ot import os_stability_bound
    worst = -np.inf
    for i in range(100):
        x, y = align(random_martingale_tree(rng), random_martingale_tree(rng))
        if i % 2 == 0:
            rep = aw(x, y)
            pi, eps = rep.coupling, EpsShift(rep.eps_steps, rep.epsilon_time)
        else:
            pi, eps = product_coupling(x, y), ZERO_SHIFT
        bound = os_stability_bound(x, y, pi, eps, 1.0)
        for phi in battery:
            gap = abs(snell_os(x, phi).value - snell_os(y, phi).value)
            worst = max(worst, gap - bound)
    _report(8, worst <= 1e-9, f"max (OS gap - bound) = {worst:.2e} over 100x8")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_modulus_bounds():
    worst = -np.inf
    for n in range(2, 13):
        t = random_walk_tree(n)
        for k in range(n + 1):
            eps = k / n
            bound = 4.0 * math.sqrt(max(1.0 / n, eps))
            worst = max(worst, modulus(t, k) - bound)
    _report(9, worst <= 1e-12,
            f"max (delta - 4 sqrt(1/n v eps)) = {worst:.2e} for n in 2..12")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_counterexample_e1():
    m = 16
    details = []
    ok = True
    phi = cost_by_name("example-E1")
    for n in (2, 4, 8):
        xn, x = counterexample_pair(n, m)
        gap = snell_os(xn, phi, "sup").value - snell_os(x, phi, "sup").value
        ideal = 0.5 * (1 - 1 / n)
        ok &= abs(gap - ideal) <= 2.0 / m  # documented discretization bias
        # in-test oracle: the identity-on-(U,V) coupling is 0-bicausal and
        # pays the squeezed window only, giving the certified upper bound
        ident = Coupling(xn, x, np.diag(xn.leaf_probs))
        assert is_eps_bicausal(ident, ZERO_SHIFT)[0]
        oracle = transport_cost(ident, 1.0, "l1")
        a = aw(xn, x, witness=False, metric="l1").value
        ok &= a <= oracle + 1e-9
        ok &= a <= 2.0 / m + 2.0 / n
        fgap = aldous_functional(xn) - aldous_functional(x)
        if n >= 4:
            ok &= fgap >= 0.5
        details.append(f"n={n}: OSgap={gap:.4f}~{ideal:.4f} aw={a:.4f} F={fgap:.3f}")
    _report(10, ok, "; ".join(details))


# -- 11 ---------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_11_donsker_rate():
    t0 = time.perf_counter()
    ns = [2 ** k for k in range(6, 13)]
    epss = [1.0, 0.5, 0.25, 0.125]
    samples, seed = 10_000, 1109
    est = {}
    for n in ns:
        for eps in epss:
            est[(n, eps)] = rw_bm_block_coupling_cost(n, eps, samples, seed).mean
    c_fit = max(est[(n, eps)] * math.sqrt(n * eps) / math.log(n)
                for n in ns for eps in epss)
    shape_ok = all(est[(n, eps)] <= c_fit * math.log(n) / math.sqrt(n * eps)
                   + 1e-12 for n in ns for eps in epss)
    proxy = [min(est[(n, eps)] + eps for eps in epss) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(proxy), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (np.isfinite(c_fit) and c_fit > 0 and shape_ok
          and -0.45 <= slope <= -0.20 and elapsed < 300.0)
    _report(11, ok, f"C={c_fit:.3f}, proxy slope={slope:.3f} "
            f"(target [-0.45,-0.20]), {elapsed:.0f}s")


# -- 12 ---------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_12_euler_rate():
    t0 = time.perf_counter()
    ns = [2 ** k for k in range(4, 11)]
    samples, seed = 10_000, 1210
    slopes = []
    for mu_s, sig_s in (("0", "1"), ("clip(-x, -1, 1)", "max(0.4, 1 - 0.5 * x * x)")):
        mu, sig = parse_coefficient(mu_s), parse_coefficient(sig_s)
        vals = [euler_pair_cost(mu, sig, 0.0, n, samples, seed).mean for n in ns]
        slopes.append(float(np.polyfit(np.log(ns), np.log(vals), 1)[0]))
    elapsed = time.perf_counter() - t0
    ok = all(-0.65 <= s <= -0.35 for s in slopes) and elapsed < 300.0
    _report(12, ok, f"slopes {['%.3f' % s for s in slopes]} "
            f"(target [-0.65,-0.35]), {elapsed:.0f}s")


# -- 13 ---------------------------------------------------------------------

def _with_terminal_coin(t, delta):
    lv = tuple(Node(nd.parent, nd.prob * 0.5, (nd.value[0] + s * delta,))
               for nd in t.levels[-1] for s in (1.0, -1.0))
    return FilteredTree(t.grid, t.levels[:-1] + (lv,), t.dim)


def _scaled_rw(scale_per_level):
    base = random_walk_tree(4)
    levels = [base.levels[0]]
    vals = [0.0]
    for i in range(1, 5):
        s = scale_per_level[i - 1]
        lv = []
        nv = []
        for j, nd in enumerate(base.levels[i]):
            parent_val = vals[nd.parent]
            step = s if j % 2 == 0 else -s
            lv.append(Node(nd.parent, 0.5, (parent_val + step,)))
            nv.append(parent_val + step)
        levels.append(tuple(lv))
        vals = nv
    return FilteredTree(base.grid, tuple(levels), 1)


def _trinomial(delta):
    g = TimeGrid((0.5, 1.0))
    probs = (0.25 + delta, 0.5 - 2 * delta, 0.25 + delta)
    steps = (0.5, 0.0, -0.5)
    levels = [(Node(None, 1.0, (0.0,)),)]
    vals = [0.0]
    for _ in range(2):
        lv = []
        nv = []
        for parent, v in enumerate(vals):
            for pr, st in zip(probs, steps):
                lv.append(Node(parent, pr, (v + st,)))
                nv.append(v + st)
        levels.append(tuple(lv))
        vals = nv
    return FilteredTree(g, tuple(levels), 1)


def _three_term_bound(pi, eps_steps):
    """I1 + I2 + I3 of the martingale-closedness argument, per interior time,
    evaluated exactly at the coupling; returns the max over times."""
    xn, x = pi.left, pi.right
    n = x.n_levels - 1
    term_x = x.leaf_paths[:, -1, 0]
    term_xn = xn.leaf_paths[:, -1, 0]
    worst = 0.0
    for i in range(n):
        j = min(i + eps_steps, n)
        atoms = {}
        for u in range(xn.n_leaves):
            for v in range(x.n_leaves):
                w = pi.weights[u, v]
                if w <= 0.0:
                    continue
                key = (xn.ancestors[j][u], x.ancestors[i][v])
                mass, acc = atoms.get(key, (0.0, 0.0))
                atoms[key] = (mass + w, acc + w * (term_x[v] - term_xn[u]))
        i1 = sum(abs(acc) for _, acc in atoms.values())
        i2 = float((pi.weights * np.abs(
            xn.leaf_paths[:, j, 0][:, None] - x.leaf_paths[None, :, j, 0])).sum())
        i3 = float((x.leaf_probs * np.abs(
            x.leaf_paths[:, j, 0] - x.leaf_paths[:, i, 0])).sum())
        worst = max(worst, i1 + i2 + i3)
    return worst


def test_criterion_13_martingale_closedness():
    sequences = {
        "terminal-coin": (random_walk_tree(4),
                          [lambda d: _with_terminal_coin(random_walk_tree(4), d)]),
        "step-profile": (_scaled_rw((0.5, 0.5, 0.5, 0.5)),
                         [lambda d: _scaled_rw((0.5 + d, 0.5 - d, 0.5, 0.5))]),
        "probability": (_trinomial(0.0), [lambda d: _trinomial(d / 4.0)]),
    }
    deltas = [2.0 ** (-k) for k in range(1, 5)]
    ok = True
    details = []
    for name, (limit, (build,)) in sequences.items():
        assert martingale_defect(limit) == 0.0  # exactly, by construction
        aws = []
        for d in deltas:
            xn = build(d)
            assert martingale_defect(xn) <= 1e-13
            rep = aw(xn, limit)
            bound = _three_term_bound(rep.coupling, rep.eps_steps)
            ok &= bound >= martingale_defect(limit) - 1e-12
            ok &= bound >= -1e-12
            aws.append(rep.value)
        ok &= all(b <= a + 1e-12 for a, b in zip(aws, aws[1:]))
        ok &= aws[-1] <= 0.2
        details.append(f"{name}: aw ladder {['%.3f' % v for v in aws]}")
    _report(13, ok, "; ".join(details))


# -- 14 ---------------------------------------------------------------------

def test_criterion_14_offset_and_timechange_phenomena():
    # offset grids: the only strictly bicausal coupling is the product
    x, y = offset_rw_pair(2)
    prod = product_coupling(x, y)
    prod_cost = transport_cost(prod, 1.0)
    rep0 = eps_bicausal_lp(x, y, 0)
    lp_eq = abs(rep0.value - prod_cost) <= 1e-10
    witness_eq = np.allclose(rep0.coupling.weights, prod.weights, atol=1e-9)

    # time-changed BM pair under a 5% uniform shift, dt+delta_1 metric
    shift = 0.05
    n_grid = 60
    phi1 = bursty_time_change(2, 1.0 / n_grid, margin=shift)
    phi2 = shifted_time_change(phi1, shift)
    t1, t2 = time_changed_bm_pair(phi1, phi2, n_grid, 2)
    # oracle upper bound: the branch-matched delay coupling, recomputed here
    delay = np.zeros((t1.n_leaves, t2.n_leaves))
    for k in range(t1.n_leaves):
        delay[k, k] = t1.leaf_probs[k]  # same branch indices after the shift
    pi = Coupling(t1, t2, delay)
    pi.check()
    k_shift = round(shift * n_grid)
    eps = interior_shift(t1.grid, k_shift)
    assert is_eps_bicausal(pi, eps)[0]
    oracle_aw = transport_cost(pi, 1.0, "l1") + eps.epsilon_time
    oracle_nested = transport_cost(product_coupling(t1, t2), 1.0, "l1")
    a = aw(t1, t2, metric="l1", witness=False).value
    nb = nested_bicausal(t1, t2, metric="l1", witness=False).value
    tc_ok = (a <= oracle_aw + 1e-9
             and abs(nb - oracle_nested) <= 1e-9
             and nb >= 3.0 * a)
    ok = lp_eq and witness_eq and tc_ok
    _report(14, ok,
            f"offset LP0={rep0.value:.6f}=product; tcbm aw={a:.4f} "
            f"(recomputed oracle threshold {oracle_aw:.4f}; nominal 0.07), "
            f"nested={nb:.4f} >= 3x aw")
