import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtri

from adapted_ot import (aldous_functional, bursty_time_change,
                        counterexample_pair, euler_pair_cost, figure1_pair,
                        hk_minimize,
                        is_naturally_filtered, law, martingale_defect,
                        offset_rw_pair, parse_coefficient, quantized_bm_tree,
                        random_martingale_tree, random_tree, random_walk_tree,
                        rw_bm_block_coupling_cost, shifted_time_change,
                        time_changed_bm_pair, tree_isomorphic, validate,
                        TimeGrid)
from adapted_ot.experiments import euler_table
from adapted_ot.generators import (_dyadic_split, _split_cdf, _split_counts,
                                   _split_plan)


def test_all_generated_trees_validate(rng):
    trees = [random_walk_tree(4), quantized_bm_tree(3, 3),
             *figure1_pair(0.2), *counterexample_pair(3, 6),
             *offset_rw_pair(2)]
    phi = bursty_time_change(2, 0.05)
    trees += list(time_changed_bm_pair(phi, shifted_time_change(phi, 0.05),
                                       20, 2))
    for _ in range(20):
        trees.append(random_tree(rng))
        trees.append(random_martingale_tree(rng))
    for t in trees:
        assert validate(t) == []


def test_rw_small_cases():
    t1 = random_walk_tree(1)
    assert sorted(v[0] for v in t1.level_values[-1]) == [-1.0, 1.0]
    assert np.allclose(t1.leaf_probs, 0.5)
    t2 = random_walk_tree(2)
    vals = sorted(v[0] for v in t2.level_values[-1])
    s2 = math.sqrt(2)
    assert vals == pytest.approx([-s2, 0.0, 0.0, s2])
    assert np.allclose(t2.leaf_probs, 0.25)
    with pytest.raises(ValueError):
        random_walk_tree(20)


def test_rw_and_bm_martingale_defect():
    for n in range(1, 9):
        assert martingale_defect(random_walk_tree(n)) <= 1e-13
    for n, m in ((1, 2), (2, 3), (3, 4), (4, 2)):
        assert martingale_defect(quantized_bm_tree(n, m)) <= 1e-13


def test_bm_binary_increments():
    t = quantized_bm_tree(3, 2)
    expected = math.sqrt(2 / math.pi) / math.sqrt(3)
    got = sorted(v[0] for v in t.level_values[1])
    assert got == pytest.approx([-expected, expected], abs=1e-14)


def test_bm_quantization_matches_quadrature():
    # oracle: conditional means on quantile intervals by numerical quadrature
    m = 3
    t = quantized_bm_tree(1, m)
    pts = sorted(v[0] for v in t.level_values[1])
    edges = [-np.inf] + [stats.norm.ppf(j / m) for j in range(1, m)] + [np.inf]
    for j in range(m):
        lo, hi = edges[j], edges[j + 1]
        val, _ = integrate.quad(lambda z: z * stats.norm.pdf(z),
                                lo if np.isfinite(lo) else -10.0,
                                hi if np.isfinite(hi) else 10.0)
        assert pts[j] == pytest.approx(val * m, abs=1e-9)


def test_bm_terminal_variance_increases_to_one():
    def term_var(t):
        lw = law(t)
        return float((lw.weights * lw.paths[:, -1, 0] ** 2).sum())

    prev = 0.0
    for m in (2, 3, 5, 8):
        v = term_var(quantized_bm_tree(2, m))
        assert prev < v < 1.0
        prev = v


def test_figure1_pair_properties():
    p, pe = figure1_pair(0.1)
    assert p.grid.times == (0.5, 1.0)
    assert sorted(v[0] for v in pe.level_values[1]) == [0.9, 1.1]
    # both are minimal already
    assert tree_isomorphic(hk_minimize(p), p)
    assert tree_isomorphic(hk_minimize(pe), pe)
    with pytest.raises(ValueError):
        figure1_pair(1.5)


def test_counterexample_structure():
    xn, x = counterexample_pair(4, 8)
    assert xn.grid.n_steps == 9
    assert xn.n_leaves == x.n_leaves == 16
    assert is_naturally_filtered(xn)
    assert is_naturally_filtered(x)
    assert martingale_defect(x) == 0.0
    # jump slots are uniform
    assert np.allclose(np.sort(x.leaf_probs), 1 / 16)


def test_aldous_functional_values():
    for n in (2, 4):
        xn, x = counterexample_pair(n, 8)
        assert aldous_functional(x) == pytest.approx(0.0, abs=1e-14)
        assert aldous_functional(xn) == pytest.approx((1 - 1 / n) ** 2,
                                                      abs=1e-12)


def test_offset_pair_structure():
    x, y = offset_rw_pair(3)
    assert x.grid.n_steps == 6
    assert x.n_leaves == y.n_leaves == 8
    assert martingale_defect(x) <= 1e-13
    # x reveals at odd levels, y at even levels
    assert [len(lv) for lv in x.levels] == [1, 2, 2, 4, 4, 8, 8]
    assert [len(lv) for lv in y.levels] == [1, 1, 2, 2, 4, 4, 8]


def test_time_change_variance_telescopes(rng):
    phi = bursty_time_change(3, 0.05)
    grid = TimeGrid(tuple((i + 1) / 20 for i in range(20)))
    times = np.array((0.0,) + grid.times)
    v = np.diff(phi(times))
    assert v.sum() == pytest.approx(1.0, abs=1e-12)
    a, b = time_changed_bm_pair(phi, phi, 20, 2)
    assert tree_isomorphic(a, b)
    with pytest.raises(ValueError):
        time_changed_bm_pair(lambda t: np.asarray(t) * 0.5, phi, 20, 2)


def test_random_tree_probabilities_dyadic(rng):
    for _ in range(20):
        t = random_tree(rng)
        for lv in t.levels:
            for nd in lv:
                assert nd.prob * 64 == pytest.approx(round(nd.prob * 64),
                                                     abs=1e-12)
                assert nd.prob >= 1 / 64 - 1e-15


def test_random_martingale_tree_is_martingale(rng):
    for _ in range(20):
        assert martingale_defect(random_martingale_tree(rng)) <= 1e-13


def test_block_coupling_reproducible_and_decreasing():
    a = rw_bm_block_coupling_cost(128, 0.5, 400, 11)
    b = rw_bm_block_coupling_cost(128, 0.5, 400, 11)
    assert a == b
    assert a.std_error > 0
    ladder = [rw_bm_block_coupling_cost(n, 0.5, 400, 11).mean
              for n in (32, 128, 512)]
    assert ladder[0] > ladder[1] > ladder[2]
    with pytest.raises(ValueError):
        rw_bm_block_coupling_cost(10, 0.3, 10, 0)


def test_block_coupling_one_step_walk():
    # n = 1: a single +-1 step against one Brownian block still couples
    est = rw_bm_block_coupling_cost(1, 1.0, 200, 2)
    assert 0.0 < est.mean < 3.0


def test_experiment_tables_thread_determinism():
    from adapted_ot.experiments import donsker_table, topology_table
    a = donsker_table([16, 32], [1.0, 0.5], 100, 13, threads=1)
    b = donsker_table([16, 32], [1.0, 0.5], 100, 13, threads=3)
    assert a.outputs["rows"] == b.outputs["rows"]
    ta = topology_table("fig1", [0.2, 0.1], threads=1).outputs["rows"]
    tb = topology_table("fig1", [0.2, 0.1], threads=2).outputs["rows"]
    assert ta == tb


def test_block_coupling_single_block_control():
    multi = rw_bm_block_coupling_cost(512, 0.125, 400, 5).mean
    single = rw_bm_block_coupling_cost(512, 1.0, 400, 5).mean
    # at large n the one-block coupling cannot beat multi-block pasting by
    # much; both estimates live on the same log(n)/sqrt(n) scale
    assert 0.0 < multi < 1.0 and 0.0 < single < 1.0


def test_euler_reproducible_and_sigma_scaling():
    mu = parse_coefficient("0")
    sig1 = parse_coefficient("1")
    sig2 = parse_coefficient("0.5")
    a = euler_pair_cost(mu, sig1, 0.0, 32, 400, 17, fine_factor=16)
    b = euler_pair_cost(mu, sig1, 0.0, 32, 400, 17, fine_factor=16)
    assert a == b
    half = euler_pair_cost(mu, sig2, 0.0, 32, 400, 17, fine_factor=16)
    # constant sigma scales the identity coupling linearly
    assert half.mean == pytest.approx(0.5 * a.mean, rel=1e-12)


def test_euler_decreasing_in_n():
    mu = parse_coefficient("-1 * x")
    sig = parse_coefficient("1")
    vals = [euler_pair_cost(mu, sig, 0.0, n, 300, 23, fine_factor=16).mean
            for n in (8, 32, 128)]
    assert vals[0] > vals[1] > vals[2]


def test_euler_rejects_vanishing_sigma():
    mu = parse_coefficient("0")
    sig = parse_coefficient("x")  # hits zero at the start
    with pytest.raises(ValueError, match="positive"):
        euler_pair_cost(mu, sig, 0.0, 8, 50, 1, fine_factor=4)


def test_coefficient_grammar():
    f = parse_coefficient("clip(-x, -1, 1) + 0.5 * t")
    out = f(0.5, np.array([0.3, -2.0]))
    assert out == pytest.approx([-0.05, 1.25])
    g = parse_coefficient("max(t, x) - min(t, x)")
    assert g(0.25, np.array([0.75])) == pytest.approx([0.5])
    assert parse_coefficient("2e-1")(0.0, np.array([1.0])) == pytest.approx([0.2])
    for bad in ("x +", "foo(x)", "min(x)", "1..2"):
        with pytest.raises(ValueError):
            parse_coefficient(bad)


# -- the recursive-descent parser that `parse_coefficient` replaced, kept as
# the oracle for its verdicts and values --------------------------------------
#
#   expr   := term (("+" | "-") term)*
#   term   := factor ("*" factor)*
#   factor := "-" factor | atom
#   atom   := NUMBER | "t" | "x" | "(" expr ")"
#           | ("min" | "max" | "clip") "(" expr ("," expr)* ")"


def _oracle_coefficient(text):
    tokens = _oracle_tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"bad coefficient expression near token {tok!r}")
        pos[0] += 1
        return tok

    def expr():
        node = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            node = (lambda a, b: (lambda t, x: a(t, x) + b(t, x)))(node, rhs) \
                if op == "+" else \
                (lambda a, b: (lambda t, x: a(t, x) - b(t, x)))(node, rhs)
        return node

    def term():
        node = factor()
        while peek() == "*":
            take()
            rhs = factor()
            node = (lambda a, b: (lambda t, x: a(t, x) * b(t, x)))(node, rhs)
        return node

    def factor():
        if peek() == "-":
            take()
            inner = factor()
            return lambda t, x: -inner(t, x)
        return atom()

    def atom():
        tok = take()
        if tok == "(":
            node = expr()
            take(")")
            return node
        if tok == "t":
            return lambda t, x: t + 0.0 * np.asarray(x, dtype=float)
        if tok == "x":
            return lambda t, x: np.asarray(x, dtype=float)
        if tok in ("min", "max", "clip"):
            take("(")
            args = [expr()]
            while peek() == ",":
                take()
                args.append(expr())
            take(")")
            want = 3 if tok == "clip" else 2
            if len(args) != want:
                raise ValueError(f"{tok} expects {want} arguments")
            if tok == "min":
                a, b = args
                return lambda t, x: np.minimum(a(t, x), b(t, x))
            if tok == "max":
                a, b = args
                return lambda t, x: np.maximum(a(t, x), b(t, x))
            a, lo, hi = args
            return lambda t, x: np.clip(a(t, x), lo(t, x), hi(t, x))
        try:
            val = float(tok)
        except ValueError:
            raise ValueError(f"unexpected token {tok!r}") from None
        return lambda t, x, _v=val: _v + 0.0 * np.asarray(x, dtype=float)

    node = expr()
    if peek() is not None:
        raise ValueError(f"trailing tokens in expression: {tokens[pos[0]:]}")
    return node


def _oracle_tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*(),":
            out.append(ch)
            i += 1
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                     or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {ch!r} in expression")
    return out


COEFFICIENT_CORPUS = (
    # accepted
    "0", "1", "0.5", "-0", "-0.0", "0 * x", "-(0 * x)", "x * 0", "-x * 0",
    "2e-1", "1E+2", "5.", ".25", "1.5e3 - x", "00", "007.5", "x", "-x", "--x",
    "t", "-t", "t * x", "t - t", "0 - t", "x - x", "-(x - x)", "(x)",
    " x\t+\n1 ", "x*-1", "2 * 3 - 6", "0.1 + 0.2 - 0.3",
    "clip(-x, -1, 1)", "max(0.4, 1 - 0.5 * x * x)", "min(x, 0)", "max(x, 0)",
    "max(0, x)", "min(-0, x)", "max(-0.0, x)", "min(0, -x)",
    "clip(x, 0, 1)", "clip(-x, -0, 0)", "clip(x * 0, 0, 0)", "clip(t, x, 1)",
    "clip(-x, -1, 1) + 0.5 * t", "max(t, x) - min(t, x)", "min (x, t)",
    "-(-(-(x)))", "x - -x * -2", "1e308 * 10", "-1e308 * 10 + x",
    "x" + " + x" * 200, "-" * 300 + "x", "(" * 150 + "x" + ")" * 150,
    # rejected by both
    "", "   ", "x +", "* x", "foo(x)", "min(x)", "max(x, t, 1)", "clip(x, 1)",
    "1..2", "1e", "1e5e5", "x y", "x(1)", "2x", "X", "min", "min x",
    "+x", "x / 2", "x ** 2", "x % 2", "0x10", "1_000", "1j", "(x", "x)",
    "min(x, t,)", "min(,x)", "x # comment", "'x'", "x.real",
    "min(x, t)(x)", "x, t", "e5", "x - + 1", "nanx", "tx", "1e5x",
)


def test_coefficient_matches_the_recursive_descent_oracle():
    # finite t and x, both signs of zero included
    xs = np.array([-2.5, -1.0, -0.5, -0.0, 0.0, 0.3, 1.0, 7.0])
    for text in COEFFICIENT_CORPUS:
        try:
            want = _oracle_coefficient(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_coefficient(text)
            continue
        got = parse_coefficient(text)
        for t in (-0.0, 0.0, 0.25, 1.0):
            with np.errstate(over="ignore"):   # 1e308 * 10 is inf on both
                a, b = got(t, xs), want(t, xs)
            assert a.shape == b.shape == xs.shape, text
            np.testing.assert_array_equal(a, b, err_msg=text)
            assert (np.signbit(a) == np.signbit(b)).all(), (text, t)


@pytest.mark.parametrize("text", [
    "1e400", "-1e400", "1" * 400, "1e-400 * 0 + 1e999", "nan", "inf", "-inf",
    "infinity * x",
    "x" + "+x" * 3000, "-" * 5000 + "x", "(" * 3000 + "x" + ")" * 3000,
    "01",
])
def test_coefficient_verdicts_that_differ_from_the_oracle(text):
    # Non-finite constants (the oracle also read nan and inf as numbers),
    # input too deep for Python's parser, and decimal integers with leading
    # zeros, which Python's grammar does not admit.
    try:
        _oracle_coefficient(text)(0.0, np.ones(2))   # accepted, or too deep
    except RecursionError:
        pass
    with pytest.raises(ValueError):
        parse_coefficient(text)


@pytest.mark.parametrize("text", [
    "__import__('os')", "x.real", "min(x, t=1)", "min(*x)", "min(*x, *x)",
    "(lambda: 1)()", "[x][0]", "x if x else t", "True", "None", "...",
    "not x", "x and t", "x or t", "x < t", "x == t", "abs(x)", "t(x, x)",
    "min.__call__(x, t)", "min((x, t))", "min(x for x in t)", "(x := 1)",
    "f'{x}'", "b'x'", "x; t", "x\\\n+ 1", "\uff58", "\u0661", "await x",
    "lambda x: x", "{x: t}", "x[0]", "-x.imag", "clip(x, *t)",
])
def test_coefficient_rejects_hostile_input(text):
    with pytest.raises(ValueError):
        parse_coefficient(text)


@pytest.mark.parametrize("mu_text, sigma_text, want", [
    ("0", "1", {4: ("0x1.b0c0b95b9348bp-1", "0x1.041bbc7377a03p-7"),
                8: ("0x1.6425e5333e797p-1", "0x1.621707713d34dp-8")}),
    ("clip(-x, -1, 1)", "max(0.4, 1 - 0.5 * x * x)",
     {4: ("0x1.77ae79e1d8ce7p-1", "0x1.ac041a33f31b0p-8"),
      8: ("0x1.3c31290e63a71p-1", "0x1.2f67d2eaf1942p-8")}),
])
def test_euler_values_pinned(mu_text, sigma_text, want):
    # taken with the recursive-descent parser, before the ast compiler
    mu, sigma = parse_coefficient(mu_text), parse_coefficient(sigma_text)
    for n, (mean, se) in want.items():
        est = euler_pair_cost(mu, sigma, 0.0, n, 1000, 5, fine_factor=16)
        assert (est.mean.hex(), est.std_error.hex()) == (mean, se)


# -- Monte-Carlo oracles: a per-batch Euler loop and a depth-first split --------


def _oracle_batches(seed, samples, batch=512):
    return [(seed + i * 2 ** 32, min(batch, samples - start))
            for i, start in enumerate(range(0, samples, batch))]


def _euler_per_batch(mu, sigma, x0, n, samples, seed, fine_factor):
    """Euler pair cost stepping each 512-sample batch on its own, one normal
    draw of the batch size per fine step."""
    nf = n * fine_factor
    dtf = 1.0 / nf
    sq = math.sqrt(dtf)
    sups = []
    for bseed, s in _oracle_batches(seed, samples):
        rng = np.random.default_rng(bseed)
        x = np.full(s, float(x0))
        xc = np.full(s, float(x0))
        acc = np.zeros(s)
        sup = np.zeros(s)
        for k in range(nf):
            t = k * dtf
            dw = sq * rng.standard_normal(s)
            sv = np.asarray(sigma(t, x), dtype=float)
            x = x + np.asarray(mu(t, x), dtype=float) * dtf + sv * dw
            acc += dw
            if (k + 1) % fine_factor == 0:
                sup = np.maximum(sup, np.abs(x - xc))
                tc = (k + 1 - fine_factor) * dtf
                xc = xc + np.asarray(mu(tc, xc), dtype=float) / n \
                    + np.asarray(sigma(tc, xc), dtype=float) * acc
                acc = np.zeros(s)
            sup = np.maximum(sup, np.abs(x - xc))
        sups.append(sup)
    allsup = np.concatenate(sups)
    return allsup.mean(), allsup.std(ddof=1) / math.sqrt(samples)


MC_COEFFICIENTS = (("0", "1"), ("clip(-x, -1, 1)", "max(0.4, 1 - 0.5 * x * x)"))


@pytest.mark.parametrize("fine_factor", [4, 16])
@pytest.mark.parametrize("mu_text, sigma_text", MC_COEFFICIENTS)
def test_stacked_euler_matches_per_batch_loop(mu_text, sigma_text, fine_factor):
    mu, sigma = parse_coefficient(mu_text), parse_coefficient(sigma_text)
    # 1300 samples: two full batches and a short one of 276
    for n, samples, x0 in ((8, 1300, 0.0), (3, 512, 0.25), (5, 2, -0.5)):
        est = euler_pair_cost(mu, sigma, x0, n, samples, 41, fine_factor=fine_factor)
        assert (est.mean, est.std_error) == _euler_per_batch(
            mu, sigma, x0, n, samples, 41, fine_factor)
        assert (est.samples, est.seed) == (samples, 41)
    want = [(n, *_euler_per_batch(mu, sigma, 0.0, n, 1300, 7, fine_factor))
            for n in (2, 4, 8)]
    for threads in (1, 3):
        rec = euler_table(mu, sigma, 0.0, [8, 2, 4], 1300, 7,
                          fine_factor=fine_factor, threads=threads)
        assert rec.outputs["rows"] == want


def test_euler_memory_does_not_grow_with_steps():
    mu, sigma = parse_coefficient("0"), parse_coefficient("1")
    peaks = []
    for n in (4, 64):   # 64 and 1024 fine steps
        tracemalloc.start()
        try:
            euler_pair_cost(mu, sigma, 0.0, n, 2000, 3, fine_factor=16)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the normals of all 1024 steps would take 1024 * 2000 * 8 B = 16 MB
    assert peaks[1] < 1.25 * peaks[0] + 100_000
    assert peaks[1] < 16_384_000 / 4


def test_split_counts_match_hypergeom_ppf():
    for L in range(2, 21):
        L1 = L // 2
        cdf = _split_cdf(L)
        for c in range(L + 1):
            dist = stats.hypergeom(L, c, L1)
            lo, hi = max(0, L1 - (L - c)), min(c, L1)
            edges = dist.cdf(np.arange(lo - 1, hi + 1))     # F(lo - 1) = 0 .. F(hi) = 1

            def split(u):
                u = np.asarray(u, dtype=float)
                return _split_counts(cdf, np.full(u.shape, c), u).tolist()

            # the table is scipy's CDF, exactly 0 below the support and 1 from its top
            np.testing.assert_allclose(cdf[lo:hi, c], edges[1:-1], rtol=0, atol=1e-14)
            assert (cdf[:lo, c] == 0.0).all() and (cdf[hi:, c] == 1.0).all()
            # inside the atoms, and at both ends of [0, 1)
            mids = (edges[:-1] + edges[1:]) / 2
            assert split(mids) == dist.ppf(mids).astype(int).tolist()
            assert split([0.0, 1.0 - 2 ** -53]) == [lo, hi]
            assert dist.ppf(1.0 - 2 ** -53) == hi and dist.ppf(0.0) == lo - 1
            # at an atom boundary u = F(j) the split is j + 1, as u lies in
            # [F(j - 1), F(j)); scipy's ppf returns j there
            assert split(cdf[lo:hi, c]) == list(range(lo + 1, hi + 1))
            got = np.array(split(edges[1:-1]))
            ppf = dist.ppf(edges[1:-1]).astype(int)
            assert ((got == ppf) | (got == ppf + 1)).all()


def test_dyadic_split_conserves_block_totals():
    rng = np.random.default_rng(8)
    for K in range(1, 21):
        counts = rng.integers(0, K + 1, (50, 3))
        winc = rng.standard_normal((50, 3))
        plan = _split_plan(K)
        assert len(plan) == (K - 1).bit_length()
        cstep, wstep = _dyadic_split(rng, counts[..., None], winc[..., None],
                                     plan, 1.0 / K)
        assert cstep.shape == wstep.shape == (50, 3, K)
        assert set(np.unique(cstep)) <= {0, 1}
        assert np.array_equal(cstep.sum(axis=-1), counts)
        np.testing.assert_allclose(wstep.sum(axis=-1), winc, rtol=0, atol=1e-12)


def _depth_first_block_cost(n, eps, samples, seed, oversample=4):
    """The block coupling with the split count drawn by rng.hypergeometric
    node by node, depth first, and the bridge quantile drawn uniformly on
    the count's atom."""
    B, K = round(1.0 / eps), round(eps * n)
    dt = 1.0 / n
    bcdf = stats.binom.cdf(np.arange(K + 1), K, 0.5)
    bcdf[-1] = 1.0

    def block(rng, counts, winc, L):
        if L == 1:
            return counts[..., None], winc[..., None]
        L1 = L // 2
        p1 = rng.hypergeometric(counts, L - counts, L1)
        u = rng.random(counts.shape)
        dist = stats.hypergeom(L, counts, L1)
        ut = np.clip(dist.cdf(p1 - 1) + u * dist.pmf(p1), 1e-15, 1.0 - 1e-15)
        w1 = winc * (L1 / L) + math.sqrt(dt * L1 * (L - L1) / L) * ndtri(ut)
        c1, s1 = block(rng, p1, w1, L1)
        c2, s2 = block(rng, counts - p1, winc - w1, L - L1)
        return np.concatenate([c1, c2], axis=-1), np.concatenate([s1, s2], axis=-1)

    sups = []
    for bseed, s in _oracle_batches(seed, samples):
        rng = np.random.default_rng(bseed)
        v = rng.random((s, B))
        counts = np.searchsorted(bcdf, v, side="left")
        winc = math.sqrt(eps) * ndtri(np.clip(v, 1e-15, 1 - 1e-15))
        cstep, wstep = block(rng, counts, winc, K)
        rw = np.cumsum((2 * cstep - 1).reshape(s, n) / math.sqrt(n), axis=1)
        bm = np.cumsum(wstep.reshape(s, n), axis=1)
        rw0 = np.concatenate([np.zeros((s, 1)), rw[:, :-1]], axis=1)
        x = np.concatenate([np.zeros((s, 1)), bm[:, :-1]], axis=1)
        sup = np.maximum(np.abs(bm - rw).max(axis=1), np.abs(bm - rw0).max(axis=1))
        for r in range(1, oversample):
            rem = oversample - r + 1
            var = dt / oversample * (rem - 1) / rem
            x = x + (bm - x) / rem + math.sqrt(var) * rng.standard_normal((s, n))
            sup = np.maximum(sup, np.abs(x - rw0).max(axis=1))
        sups.append(sup)
    allsup = np.concatenate(sups)
    return allsup.mean(), allsup.std(ddof=1) / math.sqrt(samples)


@pytest.mark.parametrize("n, eps", [(32, 0.25), (24, 0.5), (20, 1.0)])
def test_depth_synchronous_split_has_the_depth_first_law(n, eps):
    # K = eps * n steps per block: 8, 12 and 20; the last two split unevenly
    est = rw_bm_block_coupling_cost(n, eps, 4000, 5)
    mean, se = _depth_first_block_cost(n, eps, 4000, 6)
    assert abs(est.mean - mean) <= 4.0 * math.hypot(est.std_error, se)


def test_mc_estimators_need_two_samples():
    mu, sigma = parse_coefficient("0"), parse_coefficient("1")
    with pytest.raises(ValueError, match="samples must be >= 2"):
        rw_bm_block_coupling_cost(16, 0.5, 1, 0)
    with pytest.raises(ValueError, match="samples must be >= 2"):
        euler_pair_cost(mu, sigma, 0.0, 8, 1, 0)
    assert rw_bm_block_coupling_cost(16, 0.5, 2, 0).std_error > 0.0


@pytest.mark.parametrize("kwargs, match", [
    ({"eps": 0.0}, "eps must be finite and positive"),
    ({"eps": math.inf}, "eps must be finite and positive"),
    ({"eps": math.nan}, "eps must be finite and positive"),
    ({"oversample": 0}, "oversample must be >= 1"),
])
def test_block_coupling_rejects_bad_parameters(kwargs, match):
    args = {"n": 16, "eps": 0.5, "samples": 10, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=match):
        rw_bm_block_coupling_cost(**args)


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_euler_rejects_non_finite_start(x0):
    mu, sigma = parse_coefficient("0"), parse_coefficient("1")
    with pytest.raises(ValueError, match="x0 must be finite"):
        euler_pair_cost(mu, sigma, x0, 8, 10, 0)
