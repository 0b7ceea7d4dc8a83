"""The four benchmark workloads: inputs, operations and result checks.

Each workload is a fixed list of operations (one pass).  A run repeats
whole passes in a closed loop with a single caller and no threads.  An
operation names its input trees, which are rebuilt from their level tuples
before it is timed, and calls one public function of the package.  Library
names are looked up on the package at call time, so that the tracer's
wrappers see every call.

Checks run on the first pass's results after the timed loop; later passes
must reproduce the first pass exactly (see ``digest``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import adapted_ot as ao
import adapted_ot.cli
import adapted_ot.experiments

import inputs as gen

# Tolerances of the acceptance suite (criteria 01, 05 and 13).
DP_LP_TOL = 1e-8
CLOSED_FORM_TOL = 1e-8
MARTINGALE_TOL = 1e-13
ORDER_TOL = 1e-9
WITNESS_COST_TOL = 1e-8
# A martingale stopped at any time keeps its mean, which is zero here.
OPTIONAL_STOPPING_TOL = 1e-12
# Above this many cells verify_witness() would build dense causality rows
# of several GB, so bicausality is checked with aggregated sums instead.
DENSE_VERIFY_CELLS = 4096
JITTER = 1e-3
MC_SAMPLES = 4096


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    key: str
    inputs: tuple
    call: Callable                        # (*fresh trees) -> result
    check: Optional[Callable] = None      # (kept result, inputs) -> None
    keep: Callable = lambda result: result
    group: Optional[str] = None           # pair whose kinds bound each other


@dataclass
class Workload:
    build_inputs: Callable                # seed -> {name: tree parts}
    build_ops: Callable                   # seed -> [Op]
    warmup: Callable                      # inputs -> None
    bypass: tuple = ()                    # per-layer metrics that must be 0


def _rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def _pairs_to_inputs(pairs: dict) -> dict:
    return {f"{p}.{side}": spec for p, pair in pairs.items()
            for side, spec in zip("xy", pair)}


def _trees(inputs, pair):
    return gen.fresh(inputs[f"{pair}.x"]), gen.fresh(inputs[f"{pair}.y"])


def run_cli(*argv) -> tuple:
    """``adapted-ot <argv>`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ao.cli.main(list(argv))
    return code, buf.getvalue()


def digest(result):
    """A cheap exact fingerprint of a result, compared across passes."""
    if isinstance(result, ao.DistanceReport):
        w = None if result.coupling is None else result.coupling.weights.tobytes()
        return ("report", result.kind, result.value, w)
    if isinstance(result, ao.OSResult):
        return ("os", result.value, tuple(s.tobytes() for s in result.rule.stop))
    if isinstance(result, ao.FilteredTree):
        return ("tree", result.grid.times, hash(result.levels))
    if isinstance(result, ao.experiments.ExperimentRecord):
        return ("record", json.dumps(result.outputs, sort_keys=True))
    if isinstance(result, tuple):   # (exit code, stdout) of a CLI call
        code, text = result
        out = json.loads(text) if code == 0 else text
        if isinstance(out, dict):
            out.pop("diagnostics", None)   # holds the run time
        return ("cli", code, json.dumps(out, sort_keys=True))
    return result


# ---------------------------------------------------------------------------
# distance checks


def causal_violation(w: np.ndarray, x, y) -> float:
    """Largest residual of shift-0 causality from x to y: at each interior
    level, y's atom must be independent of x's leaf given x's atom."""
    worst = 0.0
    px = x.leaf_probs
    for i in range(1, x.n_levels - 1):
        ax, ay = x.ancestors[i], y.ancestors[i]
        onehot = np.zeros((y.n_leaves, len(y.levels[i])))
        onehot[np.arange(y.n_leaves), ay] = 1.0
        joint = w @ onehot                              # (x leaves, y atoms)
        atom = np.zeros((len(x.levels[i]), joint.shape[1]))
        np.add.at(atom, ax, joint)
        mass = np.bincount(ax, weights=px)
        pred = px[:, None] * atom[ax] / mass[ax][:, None]
        worst = max(worst, float(np.abs(joint - pred).max()))
    return worst


def check_report(rep, inputs=None):
    """verify_witness() on a report; large shift-0 witnesses have their
    bicausality checked by ``causal_violation`` instead."""
    require(math.isfinite(rep.value) and rep.value >= 0.0,
            f"{rep.kind} value {rep.value!r} is not a finite distance")
    cpl = rep.coupling
    if cpl is None:
        return
    if rep.kind == "AW_strict" and cpl.weights.size > DENSE_VERIFY_CELLS:
        cpl.check()
        cost = ao.transport_cost(cpl, rep.p, rep.metric)
        require(abs(cost - rep.value) <= WITNESS_COST_TOL,
                "witness cost differs from value")
        v = max(causal_violation(cpl.weights, cpl.left, cpl.right),
                causal_violation(cpl.weights.T, cpl.right, cpl.left))
        require(v <= ao.coupling.CAUSAL_TOL, f"witness not bicausal ({v:.2e})")
        return
    require(cpl.weights.size <= DENSE_VERIFY_CELLS or rep.kind not in ("AW", "CW"),
            f"{rep.kind} witness too large to verify")
    require(rep.verify_witness(), f"{rep.kind} witness does not verify")
    if rep.kind == "AW_eps":
        ok, v = ao.is_eps_bicausal(cpl, ao.EpsShift(rep.eps_steps, rep.epsilon_time))
        require(ok, f"AW_eps witness not {rep.eps_steps}-bicausal ({v:.2e})")


def closed_form(expected: float):
    def check(rep, inputs):
        check_report(rep)
        require(abs(rep.value - expected) <= CLOSED_FORM_TOL,
                f"{rep.kind} on fig1 is {rep.value!r}, closed form {expected}")
    return check


def dp_path(rep, inputs):
    check_report(rep)
    require("dp_fallback" not in rep.diagnostics,
            f"nested DP fell back: {rep.diagnostics.get('dp_fallback')}")


def dp_fallback_path(rep, inputs):
    check_report(rep)
    require("dp_fallback" in rep.diagnostics, "expected the dp_fallback path")


def dp_equals_lp(pair, expected=None):
    """The DP value equals the shift-0 bicausal LP on the same pair."""
    def check(rep, inputs):
        dp_path(rep, inputs)
        lp = ao.eps_bicausal_lp(*_trees(inputs, pair), 0, rep.p, witness=False,
                                metric=rep.metric)
        require(abs(rep.value - lp.value) <= DP_LP_TOL,
                f"DP {rep.value!r} != shift-0 LP {lp.value!r}")
        if expected is not None:
            closed_form(expected)(rep, inputs)
    return check


def hellwig_range(rep, inputs):
    # every ground metric is truncated at 1 and the time weights sum to 1
    require(0.0 <= rep.value <= 2.0, f"Hellwig value {rep.value!r} outside [0, 2]")


def cli_equals(library_value: Callable):
    def check(out, inputs):
        code, text = out
        require(code == 0, f"CLI exit code {code}")
        got = json.loads(text)["value"]
        want = library_value()
        require(got == want, f"CLI value {got!r} != library value {want!r}")
    return check


# Kinds that bound each other on one pair (same p and metric).
_ORDER = (("W", "CW"), ("W", "SCW"), ("W", "AW"), ("W", "AW_eps"),
          ("W", "SCW_strict"), ("W", "AW_strict"), ("CW", "SCW"),
          ("SCW", "AW"), ("AW", "AW_strict"), ("SCW_strict", "AW_strict"))


def ordering_problems(ops, kept) -> list:
    """(key, message) for each W <= CW <= SCW <= AW <= AW_strict style
    violation among the kinds one pair runs."""
    groups = {}
    for op in ops:
        rep = kept.get(op.key)
        if op.group is not None and isinstance(rep, ao.DistanceReport):
            groups.setdefault(op.group, {})[rep.kind] = (op.key, rep.value)
    out = []
    for kinds in groups.values():
        for lo, hi in _ORDER:
            if lo in kinds and hi in kinds and kinds[lo][1] > kinds[hi][1] + ORDER_TOL:
                out.append((kinds[hi][0], f"{lo} {kinds[lo][1]!r} > "
                                          f"{hi} {kinds[hi][1]!r}"))
    return out


def dist(key, fn_name, pair, check=check_report, **kw):
    """One distance call on a pair of input trees."""
    return Op(key, (f"{pair}.x", f"{pair}.y"),
              lambda x, y: getattr(ao, fn_name)(x, y, **kw), check,
              group=f"{pair}:p{kw.get('p', 1.0)}:{kw.get('metric', 'sup')}")


# ---------------------------------------------------------------------------
# global_lp: one large LP per operation.  Nearly all time goes to the dense
# simplex and the dense causality rows, so an LP backend over sparse rows
# shows here first.  aw runs only on pairs where AW > W (offset, tcbm), and
# one nested_bicausal with l1 and p = 2 takes the dp_fallback path.  On
# counterexample(4) only W runs: its CW, SCW and strict SCW LPs take 3 to
# 6 s each, and its shift-1 LP raises "singular basis" (it joins the pass
# once the solver handles it); ce3 carries the shift-1 rows of an l1 pair.


def global_inputs(seed):
    return _pairs_to_inputs({
        "fig1": gen.fig1_pair(),
        "off4": gen.offset_pair(4, _rng(seed, 1)),
        "off5": gen.offset_pair(5, _rng(seed, 2)),
        "ce2": gen.jump_pair(2),
        "ce3": gen.jump_pair(3),
        "ce4": gen.jump_pair(4),
        "tc3": gen.tcbm_pair(3),
        "tc5": gen.tcbm_pair(5),
        "rwbm5": (gen.walk(5, _rng(seed, 3)), gen.lattice(5, 2, _rng(seed, 4))),
    })


def global_ops(seed):
    l1 = {"metric": "l1"}
    return [
        dist("W:fig1", "wasserstein", "fig1", closed_form(0.1)),
        dist("AW:fig1", "aw", "fig1", closed_form(0.6)),
        dist("W:off4", "wasserstein", "off4"),
        dist("AW:off4", "aw", "off4"),
        dist("SCW:off4", "scw", "off4"),
        dist("SCW_strict:off4", "strict_scw", "off4"),
        dist("AW_eps1:off4", "eps_bicausal_lp", "off4", eps=1),
        dist("W:off5", "wasserstein", "off5"),
        dist("AW_eps1:off5", "eps_bicausal_lp", "off5", eps=1),
        dist("W:ce2", "wasserstein", "ce2", **l1),
        dist("CW:ce2", "cw", "ce2", **l1),
        dist("SCW_strict:ce2", "strict_scw", "ce2", **l1),
        dist("W_p2:ce2", "wasserstein", "ce2", p=2.0, **l1),
        # the l1 cost with p = 2 does not factorize, so the DP solves the
        # shift-0 problem as one global LP
        dist("AW_strict_p2:ce2", "nested_bicausal", "ce2", dp_fallback_path,
             p=2.0, **l1),
        dist("W:ce3", "wasserstein", "ce3", **l1),
        dist("CW:ce3", "cw", "ce3", **l1),
        dist("AW_eps1:ce3", "eps_bicausal_lp", "ce3", eps=1, **l1),
        dist("W:ce4", "wasserstein", "ce4", **l1),
        dist("W:tc3", "wasserstein", "tc3", **l1),
        dist("AW:tc3", "aw", "tc3", **l1),
        dist("SCW:tc3", "scw", "tc3", **l1),
        dist("W:tc5", "wasserstein", "tc5", **l1),
        dist("W:rwbm5", "wasserstein", "rwbm5"),
    ]


def global_warmup(inputs):
    ao.wasserstein(*_trees(inputs, "fig1"))


# ---------------------------------------------------------------------------
# nested_dp: the lp layer used another way, thousands of transports of at
# most 3 x 3 cells per operation, where per-call overhead decides the cost;
# a backend that wins on global_lp can lose here.  The DP recursion and the
# witness lift in solvers run here too, and so do two CLI calls.


def nested_inputs(seed):
    pairs = {"fig1": gen.fig1_pair(), "ce2": gen.jump_pair(2),
             "ce3": gen.jump_pair(3), "ce4": gen.jump_pair(4)}
    for n in (5, 6, 7):
        pairs[f"rwbm{n}"] = (gen.walk(n, _rng(seed, 10 + n)),
                             gen.lattice(n, 2, _rng(seed, 20 + n)))
    return _pairs_to_inputs(pairs)


def nested_ops(seed):
    nb, hw = "nested_bicausal", "hellwig"
    return [
        dist("AW_strict:rwbm5", nb, "rwbm5", dp_path),
        dist("AW_strict:rwbm6", nb, "rwbm6", dp_path),
        dist("AW_strict:rwbm7", nb, "rwbm7", dp_path),
        dist("AW_strict_p2:rwbm5", nb, "rwbm5", dp_path, p=2.0),
        dist("AW_strict_l1:rwbm5", nb, "rwbm5", dp_path, metric="l1"),
        dist("AW_strict:fig1", nb, "fig1", dp_equals_lp("fig1", 1.05)),
        dist("AW_strict:ce2", nb, "ce2", dp_equals_lp("ce2")),
        dist("AW_strict:ce3", nb, "ce3", dp_equals_lp("ce3")),
        dist("AW_strict:ce4", nb, "ce4", dp_path),
        dist("AW_strict_p2:ce2", nb, "ce2", dp_path, p=2.0),
        dist("AW_strict_p2:ce3", nb, "ce3", dp_path, p=2.0),
        dist("AW_strict_l1:ce3", nb, "ce3", dp_path, metric="l1"),
        dist("Hellwig:rwbm5", hw, "rwbm5", hellwig_range),
        dist("Hellwig:ce2", hw, "ce2", hellwig_range),
        dist("Hellwig:ce3", hw, "ce3", hellwig_range),
        Op("cli:aw_strict:rw5-bm5", (),
           lambda: run_cli("dist", "--left", "rw:n=5", "--right", "bm:n=5,m=2",
                           "--kind", "aw_strict"),
           cli_equals(lambda: ao.nested_bicausal(
               ao.random_walk_tree(5), ao.quantized_bm_tree(5, 2)).value)),
        Op("cli:aw_strict_p2:ce2", (),
           lambda: run_cli("dist", "--left", "counterexample:n=2,m=8",
                           "--right", "counterexample_limit:m=8",
                           "--kind", "aw_strict", "--p", "2"),
           cli_equals(lambda: ao.nested_bicausal(
               *ao.counterexample_pair(2, 8), 2.0).value)),
    ]


def nested_warmup(inputs):
    ao.nested_bicausal(*_trees(inputs, "fig1"))


# ---------------------------------------------------------------------------
# tree_sweeps: no LP at all; trees, stopping and prediction carry the work.
# The recombining walk gives hk_minimize many equal conditional laws to
# label, the jittered copy none.


def sweep_inputs(seed):
    return {
        "rw3": gen.walk(3, _rng(seed, 30)),
        "rw12": gen.walk(12, _rng(seed, 32)),
        "rw13": gen.walk(13, _rng(seed, 33)),
        "rw14": gen.walk(14, _rng(seed, 34)),
        "bm83": gen.lattice(8, 3, _rng(seed, 35)),
        "jit13": gen.walk(13, _rng(seed, 33), jitter=JITTER),
    }


def _value(result):
    return result.value


def snell(tree, spec, check):
    """snell_os with the cost built inside the operation, as a caller would."""
    return Op(f"snell:{spec}:{tree}", (tree,),
              lambda t: ao.snell_os(t, ao.cost_by_name(spec)), check, keep=_value)


def snell_brute(tree, spec):
    def check(value, inputs):
        want = ao.brute_force_os(gen.fresh(inputs[tree]), ao.cost_by_name(spec))
        require(abs(value - want) <= DP_LP_TOL,
                f"snell {value!r} != brute force {want!r}")
    return check


def finite(value, inputs):
    require(math.isfinite(value), f"value {value!r} is not finite")


def optional_stopping(value, inputs):
    require(abs(value) <= OPTIONAL_STOPPING_TOL,
            f"stopped martingale has mean {value!r}, not 0")


def modulus_brute(tree, k):
    def check(value, inputs):
        want = ao.stopping.brute_force_modulus(gen.fresh(inputs[tree]), k)
        require(abs(value - want) <= DP_LP_TOL,
                f"modulus {value!r} != brute force {want!r}")
    return check


def martingale(value, inputs):
    require(0.0 <= value <= MARTINGALE_TOL, f"martingale defect {value!r}")


def hk_unchanged(tree):
    """No two siblings of these trees share a conditional law, so the
    quotient is the tree itself and the Snell value stays the same."""
    def check(minimized, inputs):
        original = gen.fresh(inputs[tree])
        require(ao.tree_isomorphic(minimized, original),
                "hk_minimize changed a tree without equivalent siblings")
        phi = ao.cost_by_name("state:put(0.5)")
        a, b = ao.snell_os(minimized, phi).value, ao.snell_os(original, phi).value
        require(abs(a - b) <= DP_LP_TOL, f"Snell changed under hk_minimize: {a!r} {b!r}")
    return check


def natural(value, inputs):
    require(value is True, "walk reported as not naturally filtered")


def coarse_grid(tree):
    """Every other grid time, always keeping t = 1."""
    times = tree.grid.times
    return ao.TimeGrid(times[1::2] if len(times) % 2 == 0 else times[::2])


def coarsened(tree):
    def check(result, inputs):
        original = gen.fresh(inputs[tree])
        ao.trees.check_valid(result)
        # products of transition probabilities are taken in another order
        gap = np.abs(result.leaf_probs - original.leaf_probs).max()
        require(np.array_equal(result.leaf_paths, original.leaf_paths)
                and gap <= ao.trees.PROB_TOL, "coarsening changed the path law")
    return check


def round_trip(result, inputs):
    require(result.levels == inputs["rw13"][1], "JSON round trip changed the tree")


def sweep_ops(seed):
    battery = [c.name for c in ao.lipschitz_battery()]
    ops = [snell("rw14", spec, optional_stopping if spec == "state:identity"
                 else finite) for spec in battery]
    ops += [
        snell("rw3", "state:put(0.5)", snell_brute("rw3", "state:put(0.5)")),
        Op("modulus2:rw14", ("rw14",), lambda t: ao.modulus(t, 2), finite),
        Op("modulus1:rw3", ("rw3",), lambda t: ao.modulus(t, 1), modulus_brute("rw3", 1)),
        Op("defect:rw14", ("rw14",), lambda t: ao.martingale_defect(t), martingale),
        Op("hk:rw13", ("rw13",), lambda t: ao.hk_minimize(t), hk_unchanged("rw13")),
        Op("hk:jit13", ("jit13",), lambda t: ao.hk_minimize(t), hk_unchanged("jit13")),
        Op("natural:rw12", ("rw12",), lambda t: ao.is_naturally_filtered(t), natural),
        Op("coarsen:bm83", ("bm83",),
           lambda t: ao.coarsen_filtration(t, coarse_grid(t)), coarsened("bm83")),
        Op("json:rw13", ("rw13",),
           lambda t: ao.tree_from_json(ao.tree_to_json(t)), round_trip),
        Op("cli:os:rw12", (),
           lambda: run_cli("os", "--tree", "rw:n=12", "--phi", "state:put(0.5)"),
           cli_equals(lambda: ao.snell_os(
               ao.random_walk_tree(12), ao.cost_by_name("state:put(0.5)")).value)),
        Op("cli:os:bm83", (),
           lambda: run_cli("os", "--tree", "bm:n=8,m=3", "--phi", "running-max:abs",
                           "--variant", "sup"),
           cli_equals(lambda: ao.snell_os(
               ao.quantized_bm_tree(8, 3), ao.cost_by_name("running-max:abs"),
               variant="sup").value)),
    ]
    return ops


def sweep_warmup(inputs):
    ao.snell_os(gen.fresh(inputs["rw3"]), ao.cost_by_name("state:identity"))


# ---------------------------------------------------------------------------
# mc_rates: the Monte-Carlo estimators in generators and the ladders in
# experiments, which no other workload touches; one ladder point per
# operation, 4096 samples, threads=1.


def mc_rows_ok(record, inputs):
    for row in record.outputs["rows"]:
        mean, se = row[-2], row[-1]
        require(math.isfinite(mean) and math.isfinite(se) and se > 0.0,
                f"MC row {row!r} has no finite mean with positive standard error")


DONSKER_POINTS = ((32, 1.0), (32, 0.25), (64, 1.0), (64, 0.5),
                  (64, 0.25), (128, 1.0), (128, 0.25), (256, 1.0), (256, 0.25),
                  (512, 0.5), (1024, 0.5))
EULER_POINTS = (8, 16, 32, 64)
EULER_COEFFICIENTS = (("0", "1"), ("clip(-x, -1, 1)", "max(0.4, 1 - 0.5 * x * x)"))


def mc_inputs(seed):
    return {}


def mc_ops(seed):
    ex = ao.experiments
    ops = [Op(f"donsker:n{n}:eps{eps}", (),
              lambda n=n, eps=eps: ex.donsker_table([n], [eps], MC_SAMPLES, seed,
                                                    threads=1),
              mc_rows_ok)
           for n, eps in DONSKER_POINTS]
    for mu_text, sigma_text in EULER_COEFFICIENTS:
        mu, sigma = ao.parse_coefficient(mu_text), ao.parse_coefficient(sigma_text)
        ops += [Op(f"euler:n{n}:mu={mu_text}", (),
                   lambda n=n, mu=mu, sigma=sigma: ex.euler_table(
                       mu, sigma, 0.0, [n], MC_SAMPLES, seed, fine_factor=16,
                       threads=1),
                   mc_rows_ok)
                for n in EULER_POINTS]
    return ops


def mc_warmup(inputs):
    ao.experiments.donsker_table([16], [1.0], 64, 0, threads=1)


WORKLOADS = {
    "global_lp": Workload(global_inputs, global_ops, global_warmup),
    "nested_dp": Workload(nested_inputs, nested_ops, nested_warmup,
                          bypass=("coupling.rows",)),
    "tree_sweeps": Workload(sweep_inputs, sweep_ops, sweep_warmup,
                            bypass=("lp.calls",)),
    "mc_rates": Workload(mc_inputs, mc_ops, mc_warmup,
                         bypass=("lp.calls",)),
}
