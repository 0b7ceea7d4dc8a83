"""Experiment harnesses behind the command line: rate ladders for the
random-walk/Brownian block coupling and for Euler schemes, and the
topology comparison table."""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .generators import (counterexample_pair, euler_pair_cost,
                         figure1_pair, offset_rw_pair,
                         rw_bm_block_coupling_cost, bursty_time_change,
                         shifted_time_change, time_changed_bm_pair)
from .solvers import (aw, cw, hellwig, nested_bicausal, strict_scw,
                      wasserstein)
from .stopping import cost_by_name, snell_os

CSV_SCHEMA_HEADER = f"# adapted-ot v{__version__} schema 1"


@dataclass
class ExperimentRecord:
    experiment: str
    parameters: dict
    outputs: dict
    seed: int | None
    wall_time_s: float
    version: str = __version__


def _pool_map(fn, items, threads: int):
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads == 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def loglog_slope(xs, ys) -> float:
    if len(xs) < 2:
        return float("nan")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


# ---------------------------------------------------------------------------
# Donsker rate ladder


def donsker_table(n_ladder, eps_ladder, samples: int, seed: int,
                  oversample: int = 4, threads: int = 1) -> ExperimentRecord:
    """Estimates of E sup |B - B^n| under the pasted block coupling, one row
    per (n, eps), plus the fitted bound-shape constant and the log-log slope
    of the shift-penalized proxy min_eps (estimate + eps)."""
    t0 = time.perf_counter()
    points = [(n, eps) for n in n_ladder for eps in eps_ladder]

    def run(point):
        n, eps = point
        est = rw_bm_block_coupling_cost(n, eps, samples, seed,
                                        oversample=oversample)
        return (n, eps, est)

    rows = _pool_map(run, points, threads)
    rows.sort(key=lambda r: (r[0], -r[1]))
    # smallest C with estimate <= C log(n)/sqrt(n eps) over the whole grid
    c_fit = max(est.mean * math.sqrt(n * eps) / math.log(n)
                for n, eps, est in rows)
    proxy = {}
    for n, eps, est in rows:
        proxy[n] = min(proxy.get(n, np.inf), est.mean + eps)
    ns = sorted(proxy)
    slope = loglog_slope(ns, [proxy[n] for n in ns])
    outputs = {"fitted_C": c_fit, "proxy_slope": slope}
    return ExperimentRecord(
        "donsker", {"n_ladder": list(n_ladder), "eps_ladder": list(eps_ladder),
                    "samples": samples, "oversample": oversample},
        {**outputs, "rows": [(n, eps, est.mean, est.std_error)
                             for n, eps, est in rows]},
        seed, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Euler rate ladder


def euler_table(mu, sigma, x0: float, n_ladder, samples: int, seed: int,
                fine_factor: int = 64, threads: int = 1) -> ExperimentRecord:
    t0 = time.perf_counter()

    def run(n):
        est = euler_pair_cost(mu, sigma, x0, n, samples, seed,
                              fine_factor=fine_factor)
        return (n, est)

    rows = _pool_map(run, list(n_ladder), threads)
    rows.sort(key=lambda r: r[0])
    slope = loglog_slope([n for n, _ in rows], [e.mean for _, e in rows])
    return ExperimentRecord(
        "euler", {"n_ladder": list(n_ladder), "samples": samples,
                  "fine_factor": fine_factor, "x0": x0},
        {"slope": slope,
         "rows": [(n, est.mean, est.std_error) for n, est in rows]},
        seed, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Topology comparison table


# Largest leaf product x.n_leaves * y.n_leaves for which a table row has a
# Hellwig column; above it the column is NaN.  Hellwig's ground transports
# cover that many cells at every level, and at the root they are one
# transport of all leaves against all leaves (its LP holds only the cells
# below the cap, but the costs of all of them are built), so larger pairs
# would dominate the time of a row.
HELLWIG_MAX_LEAF_CELLS = 2048

OS_BATTERY = ("state:identity", "state:abs", "running-max:identity",
              "state:call(0.25)")


def _distance_row(x, y, p: float = 1.0, battery=OS_BATTERY,
                  with_hellwig: bool = True, metric: str = "sup") -> dict:
    row = {
        "W": wasserstein(x, y, p, metric=metric, witness=False).value,
        "CW_fwd": cw(x, y, p, metric=metric, witness=False).value,
        "CW_bwd": cw(y, x, p, metric=metric, witness=False).value,
        "AW": aw(x, y, p, metric=metric, witness=False).value,
        "AW_strict": nested_bicausal(x, y, p, metric=metric,
                                     witness=False).value,
    }
    row["SCW"] = max(row["CW_fwd"], row["CW_bwd"])
    row["SCW_strict"] = strict_scw(x, y, p, metric=metric, witness=False).value
    row["Hellwig"] = hellwig(x, y).value if with_hellwig else float("nan")
    for spec in battery:
        phi = cost_by_name(spec)
        gap = abs(snell_os(x, phi).value - snell_os(y, phi).value)
        row[f"OS_gap[{spec}]"] = gap
    return row


# The jump and time-change families hinge on time-deformation slack, which
# the sup path metric prices at full jump height; their rows therefore use
# the dt + delta_1 (l1) metric.  See the README's metric discussion.
_FAMILY_METRIC = {"fig1": "sup", "counterexample": "l1", "offset": "sup",
                  "tcbm": "l1"}


def _pair_for(family: str, param) -> tuple:
    if family == "fig1":
        return figure1_pair(float(param))
    if family == "counterexample":
        # squeezing speed n with slot count 4n, so both bias terms vanish
        return counterexample_pair(int(param), 4 * int(param))
    if family == "offset":
        return offset_rw_pair(int(param))
    if family == "tcbm":
        phi1 = bursty_time_change(2, 1.0 / 60.0, margin=float(param))
        return time_changed_bm_pair(phi1, shifted_time_change(phi1, float(param)),
                                    60, 2)
    raise ValueError(f"unknown pair family {family!r}")


def topology_table(family: str, ladder, p: float = 1.0,
                   threads: int = 1) -> ExperimentRecord:
    """One distance-and-OS-gap row per ladder parameter, demonstrating which
    functionals co-converge and which strict variants stay apart."""
    t0 = time.perf_counter()

    def run(param):
        x, y = _pair_for(family, param)
        with_hellwig = x.n_leaves * y.n_leaves <= HELLWIG_MAX_LEAF_CELLS
        return (param, _distance_row(x, y, p, with_hellwig=with_hellwig,
                                     metric=_FAMILY_METRIC[family]))

    rows = _pool_map(run, list(ladder), threads)
    return ExperimentRecord(
        "topology_table", {"family": family, "ladder": list(ladder), "p": p},
        {"rows": rows}, None, time.perf_counter() - t0)
