"""Seeded benchmark inputs on fixed tree shapes.

The workload seed redraws node values (and, for the random walks, the
dyadic up-probabilities) but never the shape of a tree, so the cost of an
operation does not swing with the seed.  Every generated tree is kept as
its ``(grid, levels, dim)`` parts; ``fresh`` rebuilds a ``FilteredTree``
from them, so each timed operation starts from empty caches, as a
command-line call would.

The paper pairs that carry closed forms or acceptance-suite phenomena
(figure 1, the jump counterexample, the time-changed Brownian pair) are
used exactly as the package builds them.
"""

from __future__ import annotations

import math

import numpy as np

from adapted_ot import (FilteredTree, Node, TimeGrid, bursty_time_change,
                        counterexample_pair, figure1_pair,
                        gaussian_lattice_tree, shifted_time_change,
                        time_changed_bm_pair)

# Redrawn step sizes stay within this factor range of the package's trees.
SCALE_LO, SCALE_HI = 0.75, 1.25


def parts(tree: FilteredTree) -> tuple:
    return (tree.grid, tree.levels, tree.dim)


def fresh(spec: tuple) -> FilteredTree:
    grid, levels, dim = spec
    return FilteredTree(grid, levels, dim)


def _uniform_grid(n: int) -> TimeGrid:
    return TimeGrid(tuple((i + 1) / n for i in range(n)))


def walk(n: int, rng, jitter: float = 0.0) -> tuple:
    """Recombining binomial martingale on the shape of ``rw(n)``.

    Each step has a dyadic up-probability p in [6/16, 10/16] and steps
    +(1-p)c / -pc with c chosen so the step variance is 1/n, as in the
    package's random walk (p = 1/2).  ``jitter`` > 0 adds independent
    uniform noise of that size to every node value, which makes every
    conditional law distinct.
    """
    probs = rng.integers(6, 11, size=n) / 16.0
    levels = [(Node(None, 1.0, (0.0,)),)]
    values = [0.0]
    for i in range(n):
        p = float(probs[i])
        c = 1.0 / math.sqrt(n * p * (1.0 - p))
        up, down = (1.0 - p) * c, p * c
        nodes, new_values = [], []
        for parent, v in enumerate(values):
            new_values += [v + up, v - down]
            nodes += [Node(parent, p, (v + up,)), Node(parent, 1.0 - p, (v - down,))]
        levels.append(tuple(nodes))
        values = new_values
    if jitter > 0.0:
        levels = [tuple(Node(nd.parent, nd.prob,
                             (nd.value[0] + jitter * rng.uniform(-1.0, 1.0),))
                        for nd in lv)
                  for lv in levels]
    return (_uniform_grid(n), tuple(levels), 1)


def lattice(n: int, m: int, rng) -> tuple:
    """``bm(n, m)`` with per-step variances redrawn around 1/n (sum 1)."""
    f = rng.uniform(SCALE_LO, SCALE_HI, size=n)
    return parts(gaussian_lattice_tree(_uniform_grid(n), f / f.sum(), m))


def offset_pair(m: int, rng) -> tuple:
    """The interleaved-information walks of ``offset_rw_pair(m)`` with
    redrawn step sizes per level."""
    n_steps = 2 * m
    grid = _uniform_grid(n_steps)
    steps = rng.uniform(SCALE_LO, SCALE_HI, size=n_steps) / math.sqrt(m)

    def one(active_parity):
        levels = [(Node(None, 1.0, (0.0,)),)]
        values = [0.0]
        for i in range(1, n_steps + 1):
            nodes, new_values = [], []
            s = float(steps[i - 1])
            for parent, v in enumerate(values):
                if i % 2 == active_parity:
                    new_values += [v + s, v - s]
                    nodes += [Node(parent, 0.5, (v + s,)), Node(parent, 0.5, (v - s,))]
                else:
                    new_values.append(v)
                    nodes.append(Node(parent, 1.0, (v,)))
            levels.append(tuple(nodes))
            values = new_values
        return (grid, tuple(levels), 1)

    return one(1), one(0)


def fig1_pair() -> tuple:
    p, pe = figure1_pair(0.1)
    return parts(p), parts(pe)


def jump_pair(n: int) -> tuple:
    """The squeezed-jump pair with 4n jump slots, as in the topology table."""
    xn, x = counterexample_pair(n, 4 * n)
    return parts(xn), parts(x)


def tcbm_pair(bursts: int, shift: float = 0.05, n: int = 20) -> tuple:
    """Time-changed Brownian trees, built as ``tcbm:bursts=<k>`` on the CLI."""
    phi = bursty_time_change(bursts, 0.05)
    x, y = time_changed_bm_pair(phi, shifted_time_change(phi, shift), n, 2)
    return parts(x), parts(y)
