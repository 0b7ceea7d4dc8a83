"""Constructors for the example processes and the Monte-Carlo estimators
behind the convergence-rate experiments.

Tree builders return validated FilteredTrees; the estimators are seeded,
batch-sharded (batch i of 512 samples consumes seed + i * 2**32) and
therefore reproduce bit-identically for a fixed seed regardless of
threading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln, ndtri

from .trees import FilteredTree, Node, TimeGrid, _tree_from_arrays

DP_CAP = 14


# ---------------------------------------------------------------------------
# Tree constructors


def _uniform_grid(n: int) -> TimeGrid:
    return TimeGrid(tuple((i + 1) / n for i in range(n)))


def _lattice_tree(grid: TimeGrid, steps, scale: float = 1.0) -> FilteredTree:
    """Full branching from one root at 0: every level-i node gets one child
    per entry of steps[i - 1], each with probability 1 / len(steps[i - 1]).
    A node's value is `scale` times the sum of the steps on its path, summed
    from the root down."""
    parents, probs, sums = [None], [np.ones(1)], [np.zeros(1)]
    for st in steps:
        k, n = len(st), len(sums[-1])
        parents.append(np.repeat(np.arange(n), k))
        probs.append(np.full(n * k, 1.0 / k))
        sums.append((sums[-1][:, None] + st).ravel())
    return _tree_from_arrays(grid, parents, probs, [(x * scale)[:, None] for x in sums])


def random_walk_tree(n: int, cap: int = DP_CAP) -> FilteredTree:
    """Scaled random walk with step size 1/n on the full binary tree (the
    filtration is the coin history)."""
    if not (1 <= n <= cap):
        raise ValueError(f"steps must be in [1, {cap}]")
    # node j at level i encodes the i coin bits of j; value = signed count * s
    return _lattice_tree(_uniform_grid(n), [(1, -1)] * n, 1.0 / math.sqrt(n))


def _symmetric_quantile_points(m: int) -> np.ndarray:
    """Conditional means of Z ~ N(0,1) on its m quantile intervals,
    constructed antisymmetric so they sum to exactly zero."""
    if m < 1:
        raise ValueError("branching must be >= 1")
    if m == 1:
        return np.zeros(1)
    z = ndtri(np.arange(1, m) / m)
    pdf = np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    pdf = np.concatenate([[0.0], pdf, [0.0]])
    pts = (pdf[:-1] - pdf[1:]) * m
    half = pts[: m // 2]
    if m % 2:
        return np.concatenate([half, [0.0], -half[::-1]])
    return np.concatenate([half, -half[::-1]])


def gaussian_lattice_tree(grid: TimeGrid, variances, m: int) -> FilteredTree:
    """Independent Gaussian increments with the given per-step variances,
    each quantized to its m conditional quantile means (zero-variance steps
    do not branch).  Quantile-mean quantization preserves the zero mean, so
    the tree is a martingale."""
    variances = np.asarray(variances, dtype=float)
    if variances.size != grid.n_steps:
        raise ValueError("one variance per grid step required")
    if (variances < -1e-12).any():
        raise ValueError("negative increment variance")
    base = _symmetric_quantile_points(m)
    return _lattice_tree(grid, [(0,) if v <= 1e-15 else math.sqrt(v) * base
                                for v in variances])


def quantized_bm_tree(n: int, m: int, leaf_cap: int = 60_000) -> FilteredTree:
    """Brownian reference at desk scale: n equal steps of variance 1/n,
    m-point quantile quantization each."""
    if m ** n > leaf_cap:
        raise ValueError("tree would exceed the leaf cap")
    return gaussian_lattice_tree(_uniform_grid(n), np.full(n, 1.0 / n), m)


def figure1_pair(e: float):
    """The introductory pair on the grid {1/2, 1}: both carry nearly the same
    law, but the right process reveals the terminal branch at time 1/2."""
    if not (0.0 < e < 1.0):
        raise ValueError("gap must be in (0,1)")
    g = TimeGrid((0.5, 1.0))
    p = FilteredTree(g, (
        (Node(None, 1.0, (1.0,)),),
        (Node(0, 1.0, (1.0,)),),
        (Node(0, 0.5, (2.0,)), Node(0, 0.5, (0.0,))),
    ))
    pe = FilteredTree(g, (
        (Node(None, 1.0, (1.0,)),),
        (Node(0, 0.5, (1.0 + e,)), Node(0, 0.5, (1.0 - e,))),
        (Node(0, 1.0, (2.0,)), Node(1, 1.0, (0.0,))),
    ))
    return p, pe


def _jump_tree(m: int, jump_first, jump_later) -> FilteredTree:
    """Common skeleton of the jump counterexample: a fair +-1 mark V revealed
    at a uniform interior grid slot U.  At each level the nodes that have
    jumped come first, in the order they jumped, and the one node still
    waiting comes last.  jump_first(signs) gives the values at the jump
    slot, jump_later(signs) the values afterwards."""
    parents, probs, values = [None], [np.ones(1)], [np.zeros(1)]
    signs = np.zeros(0)   # the marks of the nodes that have jumped
    for i in range(1, m + 2):
        waiting = len(signs)   # the index of the waiting node
        up, p, v = [np.arange(waiting)], [np.ones(waiting)], [jump_later(signs)]
        if i <= m:   # jumps happen at slots 1..m, each sign with q / 2
            q = 1.0 / (m - i + 1)
            new = np.array([1.0, -1.0])
            up.append([waiting, waiting])
            p.append([q / 2.0, q / 2.0])
            v.append(jump_first(new))
            signs = np.concatenate([signs, new])
        if i < m:   # or the node waits on, with 1 - q
            up.append([waiting])
            p.append([1.0 - q])
            v.append([0.0])
        parents.append(np.concatenate(up))
        probs.append(np.concatenate(p))
        values.append(np.concatenate(v))
    return _tree_from_arrays(_uniform_grid(m + 1), parents, probs,
                             [x[:, None] for x in values])


def counterexample_pair(n: int, m: int):
    """Jump process X (straight to the mark V at slot U) versus its squeezed
    approximation X^n (V/n at U, then V one grid step later).

    Grid: m+1 uniform points; U is uniform over the m interior slots, so the
    second jump always fits before the horizon.  Both trees are naturally
    filtered; X is a martingale.
    """
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    x = _jump_tree(m, lambda s: s, lambda s: s)
    xn = _jump_tree(m, lambda s: s / n, lambda s: s)
    return xn, x


def counterexample_limit(m: int) -> FilteredTree:
    return counterexample_pair(1, m)[1]


def aldous_functional(tree: FilteredTree) -> float:
    """E[ sup_t |X_t - E[X_1 | F_t]|^2 ], the squared distance between the
    path and its terminal prediction, maximized along the path."""
    term = tree.terminal_prediction()
    worst = np.zeros(tree.n_leaves)
    for i in range(tree.n_levels):
        gap = np.linalg.norm(tree.level_values[i] - term[i], axis=1)
        worst = np.maximum(worst, (gap * gap)[tree.ancestors[i]])
    return float(tree.leaf_probs @ worst)


def offset_rw_pair(m: int):
    """Two scaled random walks on a common 2m-level grid whose information
    arrives at interleaved levels: X steps at odd levels, Y at even levels.

    Every strictly bicausal coupling of the pair is the product coupling
    (the offset-grid phenomenon), while a one-level shift couples them at
    cost of a single step.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    grid = _uniform_grid(2 * m)
    s = 1.0 / math.sqrt(m)

    def walk(active_parity):
        return _lattice_tree(grid, [(s, -s) if i % 2 == active_parity else (0,)
                                    for i in range(1, 2 * m + 1)])

    return walk(1), walk(0)


def bursty_time_change(k_bursts: int = 5, width: float = 0.05,
                       margin: float = 0.05):
    """Nondecreasing time change gathering all variance in k short ramps, the
    last ending at 1 - margin so that a shift by up to `margin` keeps 1 -> 1."""
    starts = np.linspace(0.1, 1.0 - margin - width, k_bursts)

    def phi(t):
        t = np.asarray(t, dtype=float)
        v = np.clip((t[..., None] - starts) / width, 0.0, 1.0).sum(axis=-1)
        return v / k_bursts
    return phi


def shifted_time_change(phi, shift: float):
    def psi(t):
        t = np.asarray(t, dtype=float)
        return phi(np.maximum(t - shift, 0.0))
    return psi


def time_changed_bm_pair(phi1, phi2, n: int, m: int):
    """Quantized trees of time-changed Brownian motions: increment variances
    are the phi-increments over a uniform n-step grid."""
    grid = _uniform_grid(n)
    times = np.array((0.0,) + grid.times)

    def build(phi):
        v = np.diff(np.asarray(phi(times), dtype=float))
        if (v < -1e-12).any():
            raise ValueError("time change must be nondecreasing")
        total = float(np.asarray(phi(1.0)))
        if abs(total - 1.0) > 1e-9 or abs(float(np.asarray(phi(0.0)))) > 1e-9:
            raise ValueError("time change must map 0 to 0 and 1 to 1")
        v = np.where(v > 1e-9, v, 0.0)  # drop rounding spill between cells
        return gaussian_lattice_tree(grid, v, m)

    return build(phi1), build(phi2)


# ---------------------------------------------------------------------------
# Random trees for property checks


def _simplex_probs(rng, k: int) -> np.ndarray:
    """Flat simplex sample rounded to multiples of 1/64 (each branch >= 1/64),
    so the marginals are exact dyadic rationals."""
    w = rng.dirichlet(np.ones(k))
    counts = rng.multinomial(64 - k, w) + 1
    return counts / 64.0


def _grown_tree(rng, grid: TimeGrid, root_probs, root_values, branching,
                draw) -> FilteredTree:
    """Grow the levels below the given root level: each node draws its child
    count from `branching`, then the children's probabilities, then their
    values `draw(probs, parent value)`."""
    parents, probs, values = [None], [root_probs], [root_values]
    for _ in range(grid.n_steps):
        ks, p, v = [], [], []
        for val in values[-1]:
            ks.append(int(rng.choice(branching)))
            p.append(_simplex_probs(rng, ks[-1]))
            v.append(draw(p[-1], val))
        parents.append(np.repeat(np.arange(len(ks)), ks))
        probs.append(np.concatenate(p))
        values.append(np.concatenate(v))
    return _tree_from_arrays(grid, parents, probs, values)


def random_tree(rng, max_steps: int = 3, dim: int = 1,
                branching=(2, 3), root_atoms: int = 1,
                value_scale: float = 1.0) -> FilteredTree:
    """Small random tree for the property batteries: at most `max_steps`
    grid steps on a uniform grid, 2-3 children per node, dyadic exact
    probabilities, i.i.d. uniform values in [-scale, scale]."""
    n = int(rng.integers(1, max_steps + 1))

    def draw(probs, _):
        return rng.uniform(-value_scale, value_scale, (len(probs), dim))

    root = np.ones(1) if root_atoms == 1 else _simplex_probs(rng, root_atoms)
    return _grown_tree(rng, _uniform_grid(n), root, draw(root, None), branching, draw)


def random_martingale_tree(rng, max_steps: int = 3, branching=(2, 3),
                           value_scale: float = 1.0) -> FilteredTree:
    """Random martingale: child values are the parent value plus exactly
    centered offsets."""
    n = int(rng.integers(1, max_steps + 1))

    def draw(probs, val):
        offs = rng.uniform(-value_scale, value_scale, len(probs))
        return (val + (offs - float(probs @ offs)))[:, None]

    return _grown_tree(rng, _uniform_grid(n), np.ones(1), np.zeros((1, 1)),
                       branching, draw)


# ---------------------------------------------------------------------------
# Monte-Carlo estimators (Donsker / Euler rates)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int


_MC_BATCH = 512
_EULER_CHUNK = 32   # fine steps of normals per generator call


def _batch_seeds(seed: int, samples: int, batch: int = _MC_BATCH):
    if samples < 2:
        raise ValueError(f"samples must be >= 2 for a standard error, got {samples}")
    return [(seed + i * 2 ** 32, min(batch, samples - start))
            for i, start in enumerate(range(0, samples, batch))]


def _estimate(sup: np.ndarray, seed: int) -> McEstimate:
    return McEstimate(float(sup.mean()),
                      float(sup.std(ddof=1) / math.sqrt(sup.size)),
                      sup.size, seed)


def _logchoose(n, k):
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    bad = (k < 0) | (k > n)
    safe_k = np.where(bad, 0.0, k)
    out = gammaln(n + 1) - gammaln(safe_k + 1) - gammaln(n - safe_k + 1)
    return np.where(bad, -np.inf, out)


def _split_cdf(L: int) -> np.ndarray:
    """CDF table of the plus count in the first half of a segment.

    Given c plus steps among L, the count in the first L1 = L // 2 steps is
    hypergeometric.  Entry [j, c] is its CDF P(count <= j) for j < L1.
    From the top of the support, min(c, L1), on, the CDF is set to exactly
    1.0; the row j = L1, where it is 1.0 for every c, is left out.
    """
    L1 = L // 2
    c = np.arange(L + 1)[None, :]
    j = np.arange(L1)[:, None]
    pmf = np.exp(_logchoose(c, j) + _logchoose(L - c, L1 - j) - _logchoose(L, L1))
    cdf = np.minimum(np.cumsum(pmf, axis=0), 1.0)
    cdf[j >= c] = 1.0   # j < L1, so j >= min(c, L1) means j >= c
    return cdf


def _split_counts(cdf: np.ndarray, counts, u) -> np.ndarray:
    """First-half plus counts F^{-1}(u) for segments holding `counts` plus
    steps: the number of j with cdf[j, counts] <= u, which is the smallest j
    with F(j) > u, so that u lies in [F(j - 1), F(j)).  u must lie in
    [0, 1); one gather per table row."""
    p1 = np.zeros(np.shape(counts), dtype=np.int64)
    for row in cdf:
        p1 += row[counts] <= u
    return p1


def _split_plan(K: int):
    """The split depths of the dyadic refinement of a block of K steps.

    A segment of L >= 2 steps splits into L // 2 and L - L // 2 steps, so
    the lengths at depth d are floor(K / 2**d) or ceil(K / 2**d): at most
    two length groups per depth.  Each depth is (groups, splits, keep):
    one (L, columns, CDF table) per length L >= 2, the number of splits, and
    the child columns to keep (None keeps all; a length-1 segment passes
    through as the right child of an empty left half).
    """
    tables = {}
    plan = []
    lengths = np.array([K])
    while lengths.max() > 1:
        groups = []
        for L in np.unique(lengths[lengths > 1]).tolist():
            if L not in tables:
                tables[L] = _split_cdf(L)
            cols = np.flatnonzero(lengths == L)
            groups.append((L, slice(None) if cols.size == lengths.size else cols,
                           tables[L]))
        halves = lengths // 2
        children = np.stack([halves, lengths - halves], axis=1).ravel()
        keep = children > 0
        plan.append((groups, int((lengths > 1).sum()),
                     None if keep.all() else np.flatnonzero(keep)))
        lengths = children[keep]
    return plan


def _dyadic_split(rng, counts, winc, plan, dt: float):
    """Refine block totals down to single steps, one depth at a time.

    counts: plus-step counts per segment; winc: BM increments per segment;
    segments run in time order along the last axis.  Each depth draws one
    uniform U per split, in one call whose columns run over the length
    groups of the plan in turn.  The first-half count is F^{-1}(U)
    for its hypergeometric CDF F, and the BM midpoint is the Brownian-bridge
    sample with normal quantile U, so the two are quantile-coupled.  Given
    the count, U is uniform on its atom of F, so (count, U) has the law of
    an exact hypergeometric draw followed by a uniform on that atom.
    Returns per-step (counts in {0, 1}, BM step increments), in time order.
    """
    for groups, splits, keep in plan:
        u = rng.random(counts.shape[:-1] + (splits,))
        p1 = np.zeros_like(counts)
        w1 = np.zeros_like(winc)
        start = 0
        for L, cols, cdf in groups:
            L1 = L // 2
            c = counts[..., cols]
            ug = u[..., start:start + c.shape[-1]]
            start += c.shape[-1]
            p1[..., cols] = _split_counts(cdf, c, ug)
            w1[..., cols] = (winc[..., cols] * (L1 / L)
                             + math.sqrt(dt * L1 * (L - L1) / L)
                             * ndtri(np.clip(ug, 1e-15, 1.0 - 1e-15)))
        counts = np.stack([p1, counts - p1], axis=-1).reshape(*counts.shape[:-1], -1)
        winc = np.stack([w1, winc - w1], axis=-1).reshape(*winc.shape[:-1], -1)
        if keep is not None:
            counts, winc = counts[..., keep], winc[..., keep]
    return counts, winc


def _abs_diff(a, b, out):
    return np.abs(np.subtract(a, b, out=out), out=out)


def rw_bm_block_coupling_cost(n: int, eps: float, samples: int, seed: int,
                              oversample: int = 4) -> McEstimate:
    """E sup_t |B_t - B^n_t| under the pasted block coupling.

    Blocks of length eps are coupled independently of each other, which
    makes the pasted coupling eps-bicausal by construction, so the estimate
    is an upper bound for the eps-bicausal transport cost.  Within a block
    the walk's total and the BM increment are quantile-coupled and the BM
    interior is filled by bridge sampling whose dyadic midpoints are
    quantile-coupled to the walk's conditional step counts (the computable
    stand-in for the strong-approximation coupling).

    Each 512-sample batch draws, from its own generator: the block
    uniforms, then one uniform array per split depth (`_dyadic_split`),
    then the normals of the bridge samples between step endpoints.  The
    split count of a segment is read off its hypergeometric CDF table at
    that uniform, which also sets the bridge midpoint.  Splits used to be
    drawn depth first with `rng.hypergeometric`, so fixed-seed values
    changed with this draw order; their law did not.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    B = round(1.0 / eps)
    K = round(eps * n)
    if abs(B * eps - 1.0) > 1e-9 or abs(K - eps * n) > 1e-9 or K < 1:
        raise ValueError("need 1/eps and eps*n integral, eps*n >= 1")
    dt = 1.0 / n
    step = 1.0 / math.sqrt(n)
    plan = _split_plan(K)
    # binomial CDF of the block plus-count, for exact quantile inversion
    jj = np.arange(K + 1)
    bpmf = np.exp(_logchoose(K, jj) - K * math.log(2.0))
    bcdf = np.cumsum(bpmf)
    bcdf[-1] = 1.0

    sups = []
    for bseed, s in _batch_seeds(seed, samples):
        rng = np.random.default_rng(bseed)
        v = rng.random((s, B))
        counts = np.searchsorted(bcdf, v, side="left").astype(np.int64)
        winc = math.sqrt(eps) * ndtri(np.clip(v, 1e-15, 1 - 1e-15))
        cstep, wstep = _dyadic_split(rng, counts[..., None], winc[..., None],
                                     plan, dt)
        # both paths behind a zero column: [:, :-1] holds the left limits
        # and [:, 1:] the values at the step ends
        rw = np.zeros((s, n + 1))
        bm = np.zeros((s, n + 1))
        np.cumsum((2 * cstep - 1).reshape(s, n) * step, axis=1, out=rw[:, 1:])
        np.cumsum(wstep.reshape(s, n), axis=1, out=bm[:, 1:])
        rw0, bm1 = rw[:, :-1], bm[:, 1:]
        # at step ends: after the jump and against the left limit
        gap = np.abs(bm1 - rw[:, 1:])
        sup = gap.max(axis=1)
        np.maximum(sup, _abs_diff(bm1, rw0, gap).max(axis=1), out=sup)
        # bridge samples between step endpoints, sequential conditionals:
        # x <- x + (bm1 - x) / rem + sqrt(var) * z, in place
        x = bm[:, :-1].copy()
        z = np.empty((s, n))
        for r in range(1, oversample):
            rem = oversample - r + 1
            var = dt / oversample * (rem - 1) / rem
            mean = np.subtract(bm1, x, out=gap)
            mean /= rem
            mean += x
            rng.standard_normal(out=z)
            z *= math.sqrt(var)
            np.add(mean, z, out=x)
            np.maximum(sup, _abs_diff(x, rw0, gap).max(axis=1), out=sup)
        sups.append(sup)
    return _estimate(np.concatenate(sups), seed)


def euler_pair_cost(mu, sigma, x0: float, n: int, samples: int, seed: int,
                    fine_factor: int = 64) -> McEstimate:
    """E sup_t |X_t - X^n_t| for the coarse Euler scheme driven by the same
    Brownian increments as the fine reference (the identity coupling, which
    is 1/n-bicausal when sigma is bounded away from zero).

    All batches step together: the fine-step loop runs once over every
    sample, and each batch's generator draws its normals _EULER_CHUNK steps
    at a time.  One (chunk, s) draw equals chunk draws of size s, so the
    estimate is bit-identical to stepping each batch on its own, and
    fixed-seed values are those of the per-batch loop this replaced.
    """
    if n < 1 or fine_factor < 1:
        raise ValueError("n and fine_factor must be >= 1")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    batches = [(np.random.default_rng(bseed), s)
               for bseed, s in _batch_seeds(seed, samples)]
    nf = n * fine_factor
    dtf = 1.0 / nf
    sq = math.sqrt(dtf)
    x = np.full(samples, float(x0))
    xc = x.copy()
    acc = np.zeros(samples)
    sup = np.zeros(samples)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        for k0 in range(0, nf, _EULER_CHUNK):
            chunk = min(_EULER_CHUNK, nf - k0)
            dws = sq * np.concatenate([rng.standard_normal((chunk, s))
                                       for rng, s in batches], axis=1)
            for k, dw in enumerate(dws, start=k0):
                t = k * dtf
                sv = np.asarray(sigma(t, x), dtype=float)
                if not sv.min() > 0.0:   # NaN fails too
                    raise ValueError("sigma must stay strictly positive")
                x = x + np.asarray(mu(t, x), dtype=float) * dtf + sv * dw
                acc += dw
                if (k + 1) % fine_factor == 0:
                    # before the coarse jump
                    np.maximum(sup, np.abs(x - xc), out=sup)
                    tc = (k + 1 - fine_factor) * dtf
                    xc = xc + np.asarray(mu(tc, xc), dtype=float) / n \
                        + np.asarray(sigma(tc, xc), dtype=float) * acc
                    acc = np.zeros(samples)
                np.maximum(sup, np.abs(x - xc), out=sup)
    if not np.isfinite(sup).all():
        raise ValueError(f"the Euler path is not finite at n={n}")
    return _estimate(sup, seed)


# ---------------------------------------------------------------------------
# Coefficient expressions for the SDE experiments

_COEFFICIENT_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789E.+-*(), ")
_COEFFICIENT_ARITY = {"min": 2, "max": 2, "clip": 3}
# All a compiled coefficient can reach: no builtins.  np.clip with scalar
# bounds keeps clip(-0.0, 0, 1) at -0.0; array bounds and this form give +0.0.
_COEFFICIENT_SCOPE = {
    "__builtins__": {}, "min": np.minimum, "max": np.maximum,
    "clip": lambda v, lo, hi: np.minimum(np.maximum(v, lo), hi)}


def parse_coefficient(text: str) -> Callable:
    """Compile an expression over {t, x, numbers, +, -, *, min, max, clip}
    into a numpy-vectorized coefficient function f(t, x).

    Python's expression parser reads the text.  A node outside the grammar
    (see the README), a number that is not finite, or input too deep to
    parse raises ValueError.  Only the checked tree is compiled; numbers are
    floats, and a constant result gives one float per entry of x."""
    import ast   # loaded by dataclasses already; only this function reads it

    text = " ".join(text.split())
    if not set(text) <= _COEFFICIENT_CHARS or ",)" in text.replace(" ", ""):
        raise ValueError(f"bad character or trailing comma in {text!r}")

    def check(node):
        if isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub,
                                                             ast.Mult):
            args = (node.left, node.right)
        elif isinstance(node, ast.UnaryOp) and type(node.op) is ast.USub:
            args = (node.operand,)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and _COEFFICIENT_ARITY.get(node.func.id) == len(node.args)
              and not node.keywords):
            args = node.args
        elif isinstance(node, ast.Name) and node.id in ("t", "x"):
            args = ()
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            src = ast.get_source_segment(text, node)
            node.value = float(src)   # decimal only: '0x10' raises ValueError
            if not math.isfinite(node.value):
                raise ValueError(f"coefficient constant {src} is not finite")
            args = ()
        else:
            raise ValueError(f"not allowed: {ast.get_source_segment(text, node)}")
        for arg in args:
            check(arg)

    try:
        tree = ast.parse(text, mode="eval")
        check(tree.body)
        code = compile(tree, "<coefficient>", "eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ValueError(f"bad coefficient expression: {exc}") from None

    def coefficient(t, x):
        x = np.asarray(x, dtype=float)
        out = eval(code, _COEFFICIENT_SCOPE,
                   {"t": t + 0.0 * x if "t" in code.co_names else t, "x": x})
        return out if isinstance(out, np.ndarray) else np.full(x.shape, out)

    return coefficient
