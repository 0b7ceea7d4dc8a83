import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import adapted_ot.lp as lp_module
from adapted_ot import (align, bursty_time_change, eps_bicausal_lp,
                        figure1_pair, gaussian_lattice_tree, hellwig, lp_solve,
                        nested_bicausal, quantized_bm_tree, random_tree,
                        random_walk_tree, shifted_time_change,
                        time_changed_bm_pair, transport_lp)
from adapted_ot.lp import (BLOCK_COLUMNS, FEAS_TOL, RESID_TOL, ZERO_TOL,
                           LPError, _two_row_plan, transport_batch,
                           transport_values)


def test_single_cell_transport():
    res = transport_lp(np.array([1.0]), np.array([1.0]), np.array([[0.7]]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, abs=1e-12)


def test_2x2_identity_optimal():
    res = transport_lp(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                       np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.x.reshape(2, 2), np.diag([0.5, 0.5]), atol=1e-12)


def _brute_force_transport(p, q, cost):
    """Enumerate basic feasible solutions of the transport polytope."""
    npp, nq = p.size, q.size
    A = np.zeros((npp + nq, npp * nq))
    b = np.concatenate([p, q])
    for i in range(npp):
        A[i, i * nq:(i + 1) * nq] = 1.0
    for j in range(nq):
        A[npp + j, j::nq] = 1.0
    m = npp + nq - 1  # rank of the marginal system
    best = np.inf
    c = cost.ravel()
    for cols in itertools.combinations(range(npp * nq), m):
        sub = A[:m + 1, cols]
        # solve on an independent row subset
        try:
            x, *_ = np.linalg.lstsq(sub, b[:m + 1], rcond=None)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(sub @ x - b[:m + 1])) > 1e-9:
            continue
        if (x < -1e-10).any():
            continue
        full = np.zeros(npp * nq)
        full[list(cols)] = x
        if np.max(np.abs(A @ full - b)) > 1e-9:
            continue
        best = min(best, c @ full)
    return best


def test_3x3_matches_vertex_enumeration(rng):
    # the two-atom shapes take the closed form, 3x3 is solved by its bases
    for shape in ((2, 2), (2, 5), (5, 2), (3, 3)):
        for _ in range(5):
            p = rng.dirichlet(np.ones(shape[0]))
            q = rng.dirichlet(np.ones(shape[1]))
            cost = rng.random(shape)
            res = transport_lp(p, q, cost)
            assert res.status == "optimal"
            oracle = _brute_force_transport(p, q, cost)
            assert res.value == pytest.approx(oracle, abs=1e-9)


def _highs_transport(p, q, cost):
    """Oracle: one `lp_solve` call on the marginal rows of an m x n
    transport."""
    m, n = cost.shape
    return lp_solve(cost.ravel(), lp_module._transport_rows(m, n, None),
                    np.concatenate([p, q]))


def _3x3_batches(rng, count=40):
    def dirichlet(size):
        return rng.dirichlet(np.ones(3), size=size)
    third = np.full((count, 3), 1 / 3)
    zero_weight = dirichlet(count)
    zero_weight[:, 1] = 0.0
    zero_weight /= zero_weight.sum(axis=1, keepdims=True)
    yield "random", dirichlet(count), dirichlet(count), rng.random((count, 3, 3))
    yield "ties", dirichlet(count), dirichlet(count), np.zeros((count, 3, 3))
    yield ("few costs", dirichlet(count), dirichlet(count),
           rng.integers(0, 3, (count, 3, 3)).astype(float))
    yield "equal weights", third, third, rng.integers(0, 2, (count, 3, 3)) + 0.0
    yield "zero weight", zero_weight, dirichlet(count), rng.random((count, 3, 3))
    # the same weights on both sides, one of them 0: degenerate vertices
    yield "repeated", zero_weight, zero_weight.copy(), rng.random((count, 3, 3))


def test_3x3_bases_match_lp_solve(rng, lp_calls):
    for name, p, q, cost in _3x3_batches(rng):
        (values, plans), = transport_batch([(p, q, cost)])[0]
        assert lp_calls == [], name
        for b in range(len(cost)):
            oracle = _highs_transport(p[b], q[b], cost[b])
            assert oracle.status == "optimal"
            assert abs(values[b] - oracle.value) <= 1e-12, name
            plan = plans[b]
            assert (plan >= 0).all()
            assert np.abs(plan.sum(axis=1) - p[b]).max() <= RESID_TOL
            assert np.abs(plan.sum(axis=0) - q[b]).max() <= RESID_TOL
            assert np.count_nonzero(plan) <= 5   # a vertex
            # no feasible basis is cheaper
            assert values[b] <= _brute_force_transport(p[b], q[b], cost[b]) + 1e-12
            single = transport_lp(p[b], q[b], cost[b])
            assert single.iterations == 0
            assert single.value == values[b]
            assert np.array_equal(single.x, plan.ravel())
        lp_calls.clear()


def _first_feasible_basis_plan(p, q):
    """Oracle: the basic plan of the first five cells, in lexicographic
    order, that are independent on the marginal rows and feasible."""
    A = lp_module._transport_rows(3, 3, None).toarray()
    b = np.concatenate([p, q])
    for cols in itertools.combinations(range(9), 5):
        if np.linalg.matrix_rank(A[:, cols]) < 5:
            continue
        x = np.zeros(9)
        x[list(cols)] = np.linalg.lstsq(A[:, cols], b, rcond=None)[0]
        if (x >= -1e-12).all():
            return x.reshape(3, 3)


def test_3x3_ties_go_to_the_first_basis(rng):
    # with every cost zero, every feasible basis costs exactly 0 (equal
    # nonzero costs tie only up to rounding)
    weights = [rng.dirichlet(np.ones(3)) for _ in range(6)]
    weights.append(np.full(3, 1 / 3))
    for p in weights:
        for q in weights:
            res = transport_lp(p, q, np.zeros((3, 3)))
            want = _first_feasible_basis_plan(p, q)
            assert np.abs(res.x.reshape(3, 3) - want).max() <= 1e-12


def test_3x3_bad_weights_go_to_highs(rng, lp_calls):
    # a negative weight, or unbalanced sides, leave no feasible basis
    p, q = rng.dirichlet(np.ones(3), size=2)
    negative = p + [0.5, -0.5, 0.0]
    for a, b in ((negative, q), (p, negative), (p, 1.5 * q)):
        res = transport_lp(a, b, rng.random((3, 3)))
        assert res.status == _highs_transport(a, b, np.zeros((3, 3))).status
        assert res.status == "infeasible"
    # sides 2e-10 apart with q2 = 0: the first basis has a cell at -2e-10,
    # so setting it to 0 would pass the residual check, but it is infeasible
    a, b = np.array([0.5, 0.25, 0.25]), np.array([0.5 + 2e-10, 0.5, 0.0])
    res = transport_lp(a, b, np.ones((3, 3)))
    assert res.status == _highs_transport(a, b, np.ones((3, 3))).status
    assert len(lp_calls) == 4


def test_3x3_bases_on_three_way_trees(monkeypatch):
    # quantized BM trees have three children per node and many equal costs
    grid = random_walk_tree(4).grid
    phi = bursty_time_change(2, 0.1, margin=0.1)
    pairs = [(quantized_bm_tree(4, 3),
              gaussian_lattice_tree(grid, [0.1, 0.4, 0.2, 0.3], 3)),
             time_changed_bm_pair(phi, shifted_time_change(phi, 0.1), 4, 3)]
    reports = [nested_bicausal(x, y) for x, y in pairs]
    # the same DP with every 3 x 3 sent to HiGHS
    monkeypatch.setattr(lp_module, "_has_closed_form", lambda m, n: min(m, n) <= 2)
    for (x, y), rep in zip(pairs, reports):
        oracle = nested_bicausal(x, y)
        assert oracle.diagnostics["lp_iterations"] > 0
        assert rep.diagnostics["lp_iterations"] == 0
        assert abs(rep.value - oracle.value) <= 1e-12
        assert rep.verify_witness() and oracle.verify_witness()


def test_3x3_basis_memory_is_bounded():
    # one level of tcbm(n=6, m=3) couples 59,049 parent pairs at once
    import tracemalloc

    rng = np.random.default_rng(5)
    p, q = rng.dirichlet(np.ones(3), size=(2, 59049))
    cost = rng.random((59049, 3, 3))
    tracemalloc.start()
    try:
        transport_batch([(p, q, cost)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the values and plans returned are 5.2 MB; the chunked tables add a few
    assert peak < 16 * 2 ** 20


def test_two_atom_closed_form_is_a_vertex(rng):
    for shape in ((2, 6), (6, 2)):
        p = rng.dirichlet(np.ones(shape[0]))
        q = rng.dirichlet(np.ones(shape[1]))
        res = transport_lp(p, q, rng.random(shape))
        assert res.status == "optimal"
        assert res.iterations == 0  # no simplex pivots were taken
        plan = res.x.reshape(shape)
        assert (plan >= 0).all()
        # a vertex of the transport polytope has at most m + n - 1 cells
        assert np.count_nonzero(plan) <= sum(shape) - 1
        assert np.abs(plan.sum(axis=1) - p).max() <= 1e-12
        assert np.abs(plan.sum(axis=0) - q).max() <= 1e-12


def test_two_atom_ties_and_transpose():
    # equal cost differences fill row 0 in column order
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.25, 0.5])
    res = transport_lp(p, q, np.zeros((2, 3)))
    assert np.array_equal(res.x.reshape(2, 3),
                          [[0.25, 0.25, 0.0], [0.0, 0.0, 0.5]])
    cost = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])
    row = transport_lp(p, q, cost)
    col = transport_lp(q, p, cost.T)
    assert np.array_equal(col.x.reshape(3, 2), row.x.reshape(2, 3).T)


def test_two_atom_unbalanced_is_infeasible():
    res = transport_lp(np.array([0.5, 0.5]), np.array([0.3, 0.3]),
                       np.zeros((2, 2)))
    assert res.status == "infeasible"


@pytest.mark.parametrize("p, q, extra_rows, extra_rhs", [
    ([1.0], [0.3, 0.3], None, None),                # unbalanced
    ([1.0], [1.5, -0.5], None, None),               # negative forced plan
    ([1.0], [0.5, 0.5], [[1.0, 0.0]], [0.9]),       # extra row violated
])
def test_one_atom_bad_input_is_infeasible(p, q, extra_rows, extra_rhs):
    res = transport_lp(np.array(p), np.array(q), np.zeros((1, 2)),
                       extra_rows, extra_rhs)
    assert res.status == "infeasible"


def test_one_atom_plan_is_the_other_side():
    res = transport_lp(np.array([0.5]), np.array([0.25, 0.25]),
                       np.array([[1.0, 3.0]]))
    assert res.status == "optimal"
    assert res.x.tolist() == [0.25, 0.25]
    assert res.value == 1.0
    col = transport_lp(np.array([0.25, 0.25]), np.array([0.5]),
                       np.array([[1.0], [3.0]]))
    assert col.x.tolist() == [0.25, 0.25]


def test_infeasible_detected():
    # x1 = 1 and x1 = 2 simultaneously
    res = lp_solve(np.array([1.0]), np.array([[1.0], [1.0]]),
                   np.array([1.0, 2.0]))
    assert res.status == "infeasible"


def test_sign_infeasible_detected():
    # x1 + x2 = -1 with x >= 0
    res = lp_solve(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]),
                   np.array([-1.0]))
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = lp_solve(np.array([-1.0, 0.0]), np.array([[0.0, 1.0]]),
                   np.array([1.0]))
    assert res.status == "unbounded"


def test_redundant_rows_tolerated(rng):
    p = np.array([0.25, 0.75])
    q = np.array([0.5, 0.5])
    cost = rng.random((2, 2))
    base = transport_lp(p, q, cost)
    # duplicate a marginal row as an extra equality
    extra = np.zeros((2, 4))
    extra[0, :2] = 1.0
    extra[1, :2] = 2.0
    res = transport_lp(p, q, cost, extra, np.array([p[0], 2 * p[0]]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(base.value, abs=1e-10)


def test_degenerate_instance_terminates():
    # many ties: uniform marginals with zero cost everywhere
    p = np.full(6, 1 / 6)
    res = transport_lp(p, p, np.zeros((6, 6)))
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_determinism(rng):
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(5))
    cost = rng.random((4, 5))
    r1 = transport_lp(p, q, cost)
    r2 = transport_lp(p, q, cost)
    assert r1.value == r2.value
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def test_residual_contract(rng):
    for _ in range(10):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(4))
        cost = rng.random((5, 4))
        res = transport_lp(p, q, cost)
        plan = res.x.reshape(5, 4)
        assert np.abs(plan.sum(axis=1) - p).max() <= 1e-10
        assert np.abs(plan.sum(axis=0) - q).max() <= 1e-10


def _batch_group(rng, m, n, count):
    p = rng.dirichlet(np.ones(m), size=count)
    q = rng.dirichlet(np.ones(n), size=count)
    return p, q, rng.random((count, m, n))


def _packed(sizes):
    """Columns per LP when members of these sizes are packed in order, each
    LP as full as the cap allows."""
    packed = [0]
    for size in sizes:
        if packed[-1] and packed[-1] + size > BLOCK_COLUMNS:
            packed.append(0)
        packed[-1] += size
    return packed


def test_transport_batch_matches_per_problem_lps(rng, lp_calls):
    # members larger than 3 x 3 fill several block-diagonal LPs; the 33 x 32
    # member is larger than one LP and is solved alone; 3 x 3 members are
    # solved by their bases
    shapes = {(1, 5): 7, (2, 4): 9, (6, 2): 8, (3, 3): 60, (4, 5): 40,
              (8, 8): 20, (33, 32): 1, (2, 2): 5}
    groups = [_batch_group(rng, m, n, k) for (m, n), k in shapes.items()]
    solved, iterations = transport_batch(groups)
    assert iterations > 0
    packed = _packed([m * n for (m, n), k in shapes.items()
                      if min(m, n) >= 3 and (m, n) != (3, 3) for _ in range(k)])
    assert [c.size for c, _, _ in lp_calls] == packed
    assert len(packed) >= 4 and 33 * 32 in packed
    for (p, q, cost), (values, plans) in zip(groups, solved):
        m, n = cost.shape[1:]
        assert values.shape == (len(cost),) and plans.shape == cost.shape
        for b in range(len(cost)):
            res = transport_lp(p[b], q[b], cost[b])
            assert abs(values[b] - res.value) <= 1e-12
            if min(m, n) <= 3:
                # the closed forms give the per-problem plan bit for bit
                assert np.array_equal(plans[b].ravel(), res.x)
            plan = plans[b]
            assert (plan >= 0).all()
            assert np.abs(plan.sum(axis=1) - p[b]).max() <= RESID_TOL
            assert np.abs(plan.sum(axis=0) - q[b]).max() <= RESID_TOL
            assert np.count_nonzero(plan) <= m + n - 1  # a vertex
            assert values[b] == cost[b].ravel() @ plan.ravel()


def test_transport_batch_makes_no_lp_for_closed_forms(rng, lp_calls):
    groups = [_batch_group(rng, m, n, 50) for m, n in ((1, 3), (2, 7), (5, 2))]
    solved, iterations = transport_batch(groups)
    assert lp_calls == [] and iterations == 0
    assert [plans.shape for _, plans in solved] == [(50, 1, 3), (50, 2, 7),
                                                   (50, 5, 2)]
    # the values-only path takes the same closed forms
    values, iterations = transport_values(groups + [_batch_group(rng, 3, 3, 50)])
    assert lp_calls == [] and iterations == 0
    for got, (want, _) in zip(values, solved):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(1, 3), (2, 4), (4, 2), (3, 3), (5, 4)])
def test_transport_batch_negative_weight_raises(rng, shape):
    p, q, cost = _batch_group(rng, *shape, 4)
    side = p if shape[0] > 1 else q
    side[2, 0] += 1.0
    side[2, -1] -= 1.0  # still balanced, but one weight is negative
    good = _batch_group(rng, 3, 3, 2)
    for solve in (transport_batch, transport_values):
        with pytest.raises(LPError, match="infeasible"):
            solve([good, (p, q, cost)])
    # the values-only LP has slack columns, so it checks the weights itself,
    # also on a member that needs no LP: every cell at the member's max
    with pytest.raises(LPError, match="infeasible"):
        transport_values([good, (p, q, np.ones(cost.shape))])
    unbalanced = _batch_group(rng, *shape, 4)
    unbalanced[1][1] *= 1 + 1e-6
    for solve in (transport_batch, transport_values):
        with pytest.raises(LPError, match="infeasible"):
            solve([good, unbalanced])


def _capped_group(rng, m, n, count, share):
    """count m x n members in which about `share` of the cells sit at the
    member's max cost; of the others, some are one ulp below it and some
    tie at a quarter, a half or three quarters of it.  One row and one
    column of each member weigh 0."""
    p, q, cost = _batch_group(rng, m, n, count)
    p[:, 1], q[:, -1] = 0.0, 0.0
    p /= p.sum(axis=1, keepdims=True)
    q /= q.sum(axis=1, keepdims=True)
    top = rng.uniform(0.5, 2.0, (count, 1, 1))
    cost = top * np.where(rng.random(cost.shape) < 0.3,
                          rng.integers(0, 4, cost.shape) / 4, cost)
    cost = np.where(rng.random(cost.shape) < 0.05, np.nextafter(top, 0), cost)
    return p, q, np.where(rng.random(cost.shape) < share, top, cost)


def test_transport_values_match_full_lps(rng, lp_calls):
    groups = [_capped_group(rng, m, n, 4, share)
              for m, n in ((4, 4), (5, 7), (9, 6), (12, 12), (33, 32))
              for share in (0.0, 0.5, 0.9, 1.0)]
    values, iterations = transport_values(groups)
    assert iterations > 0
    # a member's columns are its cells below its max, at cost c - max < 0,
    # and one slack of cost 0 on each row and column with such a cell;
    # members with no such cell make no LP
    below = [k for _, _, cost in groups
             for k in cost < cost.max(axis=(1, 2), keepdims=True) if k.any()]
    sizes = [k.sum() + k.any(axis=1).sum() + k.any(axis=0).sum() for k in below]
    assert [c.size for c, _, _ in lp_calls] == _packed(sizes)
    assert len(lp_calls) >= 4 and max(sizes) > BLOCK_COLUMNS
    for c, A, b in lp_calls:
        assert (c <= 0).all()
        assert A.shape == ((c == 0).sum(), c.size)
    assert sum((c < 0).sum() for c, _, _ in lp_calls) == sum(k.sum() for k in below)
    lp_calls.clear()
    for (p, q, cost), vals in zip(groups, values):
        assert vals.shape == (len(cost),)
        for b in range(len(cost)):
            res = transport_lp(p[b], q[b], cost[b])
            assert res.status == "optimal"
            assert abs(vals[b] - res.value) <= 1e-12


def test_closed_form_batches_import_no_scipy():
    # every child block of rw x bm has one or two atoms on a side
    code = ("import sys, adapted_ot as ao\n"
            "ao.nested_bicausal(ao.random_walk_tree(4), ao.quantized_bm_tree(4, 2))\n"
            "print(sorted(m for m in ('scipy.sparse', 'scipy.optimize')"
            " if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ,
                         "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def _argsort_two_row_plan(p, q, cost):
    """`_two_row_plan` by a stable sort of cost[0] - cost[1] for any number
    of columns: the oracle of its two-column comparison."""
    order = np.argsort(cost[..., 0, :] - cost[..., 1, :], axis=-1, kind="stable")
    qs = np.take_along_axis(q, order, axis=-1)
    before = np.cumsum(np.insert(qs[..., :-1], 0, 0.0, axis=-1), axis=-1)
    row0 = np.empty_like(q)
    np.put_along_axis(row0, order, np.clip(p[..., :1] - before, 0.0, qs), axis=-1)
    return np.stack([row0, q - row0], axis=-2)


@pytest.mark.parametrize("costs", ["random", "ties", "infinite"])
def test_two_column_plan_matches_sort(rng, costs):
    count = 4096
    p = rng.dirichlet(np.ones(2), size=count)
    q = rng.dirichlet(np.ones(2), size=count)
    if costs == "random":
        cost = rng.random((count, 2, 2))
    else:   # few distinct values: equal cost differences are common
        cost = rng.integers(0, 3, (count, 2, 2)).astype(float)
    if costs == "infinite":   # inf - inf gives NaN differences
        cost[rng.random(cost.shape) < 0.3] = np.inf
    # both orientations of a 2 x 2: rows of p, then rows of q
    with np.errstate(invalid="ignore"):
        for a, b, c in ((p, q, cost), (q, p, cost.swapaxes(1, 2))):
            assert np.array_equal(_two_row_plan(a, b, c),
                                  _argsort_two_row_plan(a, b, c))
        d = cost[:, 0] - cost[:, 1]
    if costs == "ties":
        assert (d[:, 0] == d[:, 1]).sum() > 100
    if costs == "infinite":
        assert np.isnan(d).any(axis=1).sum() > 100


# ---------------------------------------------------------------------------
# lp_solve calls HiGHS directly; scipy's linprog with method "highs-ds" and the
# same tolerances is the oracle for status, solution and iteration count.


def _linprog_oracle(c, A, b):
    from scipy.optimize import linprog

    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": FEAS_TOL,
                           "dual_feasibility_tolerance": FEAS_TOL})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    x = None if res.x is None else np.where(res.x < ZERO_TOL, 0.0, res.x)
    return status, x, res.nit


def _transport_corpus(rng):
    # a 3 x 3 without extra rows is solved by its bases, not by HiGHS
    for m, n in ((3, 4), (4, 5), (6, 6), (7, 3)):
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(n))
        cost = rng.random((m, n))
        yield p, q, cost, None, None
        # extra rows that the product coupling satisfies
        extra = rng.integers(-1, 2, (3, m * n)).astype(float)
        yield p, q, cost, extra, extra @ np.outer(p, q).ravel()


def _oracle_corpus(rng, lp_calls):
    for p, q, cost, extra, rhs in _transport_corpus(rng):
        transport_lp(p, q, cost, extra, rhs)
    x, y = align(random_tree(rng), random_tree(rng))
    for eps in (0, 1):
        eps_bicausal_lp(x, y, eps)
    transport_batch([_batch_group(rng, 3, 4, 40), _batch_group(rng, 4, 5, 10)])
    assert len(lp_calls) == 11   # 8 transports, 2 shifts, 1 block LP
    yield from lp_calls
    yield from (
        ([1.0], [[1.0], [1.0]], [1.0, 2.0]),          # infeasible
        ([1.0, 1.0], [[1.0, 1.0]], [-1.0]),           # sign-infeasible
        ([-1.0, 0.0], [[0.0, 1.0]], [1.0]),           # unbounded
        ([1.0, 1.0], [[1.0, 1e16]], [1.0]),           # model error
    )
    p, q = np.array([0.25, 0.75]), np.array([0.5, 0.5])
    extra = np.zeros((2, 4))
    extra[0, :2], extra[1, :2] = 1.0, 2.0
    yield (rng.random(4),                             # redundant rows
           np.vstack([lp_module._transport_rows(2, 2, None).toarray(), extra]),
           [*p, *q, p[0], 2 * p[0]])
    yield (np.zeros(36), lp_module._transport_rows(6, 6, None),
           np.full(12, 1 / 6))                        # degenerate


def test_lp_solve_matches_linprog(rng, lp_calls):
    progs = list(_oracle_corpus(rng, lp_calls))
    statuses = set()
    for prog in progs:
        res = lp_solve(*prog)
        status, x, nit = _linprog_oracle(*prog)
        assert res.status == status
        assert res.iterations == nit
        if status == "optimal":
            assert np.array_equal(res.x, x)
        statuses.add(status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_highs_options_match_linprog(monkeypatch):
    # linprog hands its options to scipy's HiGHS wrapper as a dict; every
    # option it sets must have the same value in lp_solve's options, and
    # every other option must keep its HiGHS default
    import scipy.optimize._linprog_highs as linprog_highs

    seen = {}
    wrapper = linprog_highs._highs_wrapper

    def spy(*args):
        seen.update(args[-1])
        return wrapper(*args)
    monkeypatch.setattr(linprog_highs, "_highs_wrapper", spy)
    _linprog_oracle([1.0, 2.0], [[1.0, 1.0]], [1.0])
    highs, options = lp_module._highs()
    passed = {key: ({True: "on", False: "off"}[val] if key == "presolve" else val)
              for key, val in seen.items() if val is not None and key != "sense"}
    assert {key: getattr(options, key) for key in passed} == passed
    default = highs.HighsOptions()
    names = [n for n in dir(default) if not n.startswith("_")
             and not callable(getattr(default, n))]
    assert len(names) > 50
    assert ({n: getattr(options, n) for n in names if n not in passed}
            == {n: getattr(default, n) for n in names if n not in passed})


def test_lp_solve_rejects_non_finite_data():
    for c, b in (([np.inf, 1.0], [1.0]), ([1.0, 1.0], [np.nan])):
        with pytest.raises(ValueError, match="finite"):
            lp_solve(c, [[1.0, 1.0]], b)


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (3, 2), (3, 3), (4, 5)])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_transport_rejects_non_finite_cost(rng, shape, bad):
    # a 2 x 2 with inf on the diagonal used to give value nan
    p, q, cost = _batch_group(rng, *shape, 3)
    cost[1, 0, 0] = cost[1, -1, -1] = bad
    with pytest.raises(ValueError, match="LP data must be finite"):
        transport_lp(p[1], q[1], cost[1])
    for solve in (transport_batch, transport_values):
        with pytest.raises(ValueError, match="LP data must be finite"):
            solve([_batch_group(rng, 2, 2, 2), (p, q, cost)])
    # a non-finite weight too, on either side; the closed forms see it first
    cost[1] = 0.0
    for side in (p, q):
        side[1, 0] = bad
        for solve in (transport_batch, transport_values):
            with pytest.raises(ValueError, match="LP data must be finite"), \
                    np.errstate(invalid="ignore"):
                solve([_batch_group(rng, 2, 2, 2), (p, q, cost)])
        side[1, 0] = 0.0


def test_lp_solve_rejects_inconsistent_dimensions():
    with pytest.raises(ValueError, match="inconsistent LP dimensions"):
        lp_solve([1.0, 1.0], [[1.0, 1.0]], [1.0, 2.0])


def test_lp_solve_does_not_use_linprog(monkeypatch, lp_calls):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("linprog called")
    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    # Hellwig's block LPs and a shifted global LP both reach HiGHS
    hw = hellwig(random_walk_tree(5), quantized_bm_tree(5, 2))
    assert len(lp_calls) >= 1
    shifted = eps_bicausal_lp(*figure1_pair(0.1), eps=1)
    assert len(lp_calls) >= 2
    assert hw.value > 0 and shifted.verify_witness()


@pytest.mark.parametrize("bad", [np.nan, -1e-3])
def test_bad_solution_entry_raises(monkeypatch, bad):
    # the second column is in no row, so clamping it to 0 would leave a
    # solution that passes the residual check
    monkeypatch.setattr(lp_module, "_highs_solve",
                        lambda c, A, b, presolve: ("kOptimal", np.array([1.0, bad]), 1))
    with pytest.raises(LPError, match="NaN entry or violates x >= 0"):
        lp_solve([1.0, 0.0], [[1.0, 0.0]], [1.0])
