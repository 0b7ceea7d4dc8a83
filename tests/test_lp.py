import itertools

import numpy as np
import pytest

from adapted_ot import LinearProgram, lp_solve, transport_lp


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
    # the two-atom shapes take the closed form, 3x3 goes to HiGHS
    for shape in ((2, 2), (2, 5), (5, 2), (3, 3)):
        for _ in range(5):
            p = rng.dirichlet(np.ones(shape[0]))
            q = rng.dirichlet(np.ones(shape[1]))
            cost = rng.random(shape)
            res = transport_lp(p, q, cost)
            assert res.status == "optimal"
            oracle = _brute_force_transport(p, q, cost)
            assert res.value == pytest.approx(oracle, abs=1e-9)


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
    lp = LinearProgram(np.array([1.0]), np.array([[1.0], [1.0]]),
                       np.array([1.0, 2.0]))
    assert lp_solve(lp).status == "infeasible"


def test_sign_infeasible_detected():
    # x1 + x2 = -1 with x >= 0
    lp = LinearProgram(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]),
                       np.array([-1.0]))
    assert lp_solve(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(np.array([-1.0, 0.0]), np.array([[0.0, 1.0]]),
                       np.array([1.0]))
    assert lp_solve(lp).status == "unbounded"


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
