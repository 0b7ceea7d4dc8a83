"""Command-line front end.

Trees are either JSON files or generator specs in a small mini-language:

    rw:n=8                    scaled random walk, 8 steps
    bm:n=6,m=3                quantized Brownian motion, 6 steps, 3 branches
    fig1:P  fig1:Pe(0.1)      the introductory pair
    counterexample:n=4,m=8    squeezed jump process X^n
    counterexample_limit:m=8  its jump limit X
    offset:m=2,side=x|y       interleaved-information random walks
    tcbm:shift=0.05,side=x|y  time-changed Brownian trees (bursty profile)

Exit codes: 0 ok, 1 I/O or parse error, 2 validation error (tree or
parameter), 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .experiments import (CSV_SCHEMA_HEADER, donsker_table, euler_table,
                          topology_table)
from .generators import (bursty_time_change, counterexample_limit,
                         counterexample_pair, figure1_pair, offset_rw_pair,
                         parse_coefficient, quantized_bm_tree,
                         random_walk_tree, shifted_time_change,
                         time_changed_bm_pair)
from .lp import LPError
from .solvers import (aw, cw, eps_bicausal_lp, hellwig, nested_bicausal, scw,
                      strict_scw, wasserstein)
from .stopping import cost_by_name, snell_os
from .trees import GridError, tree_from_json, validate

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code




def _side(text: str) -> int:
    if text not in ("x", "y"):
        raise ValueError(f"must be x or y, got {text!r}")
    return 0 if text == "x" else 1


# the bursty profile's last ramp ends this long before 1, so a shift up to
# it keeps 1 -> 1
_TCBM_MARGIN = 0.05


def _tcbm_shift(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    if not 0.0 <= value <= _TCBM_MARGIN:
        raise ValueError(f"must be in [0, {_TCBM_MARGIN}], got {text!r}")
    return value


def _tcbm(bursts, shift, n, m, side):
    phi1 = bursty_time_change(bursts, 0.05, _TCBM_MARGIN)
    return time_changed_bm_pair(phi1, shifted_time_change(phi1, shift), n, m)[side]


# generator name -> (builder, {key: (type, default)}); a default of None
# marks a key that the spec must give
_GENERATORS = {
    "rw": (random_walk_tree, {"n": (int, None)}),
    "bm": (quantized_bm_tree, {"n": (int, None), "m": (int, None)}),
    "counterexample": (lambda n, m: counterexample_pair(n, m)[0],
                       {"n": (int, None), "m": (int, None)}),
    "counterexample_limit": (counterexample_limit, {"m": (int, None)}),
    "offset": (lambda m, side: offset_rw_pair(m)[side],
               {"m": (int, None), "side": (_side, 0)}),
    "tcbm": (_tcbm, {"bursts": (int, 5), "shift": (_tcbm_shift, 0.05),
                     "n": (int, 20), "m": (int, 2), "side": (_side, 0)}),
}


def _spec_args(text: str, keys: dict) -> dict:
    """The key=value arguments of a generator spec, each read by its type.
    An argument without "=", an unknown, repeated or missing key and a
    value its type rejects raise ValueError."""
    got = {}
    for part in text.split(",") if text else ():
        k, eq, v = (s.strip() for s in part.partition("="))
        if not eq or not k:
            raise ValueError(f"bad argument {part!r}")
        if k not in keys:
            raise ValueError(f"unknown key {k!r}")
        if k in got:
            raise ValueError(f"repeated key {k!r}")
        try:
            got[k] = keys[k][0](v)
        except ValueError as exc:
            raise ValueError(f"{k}: {exc}") from exc
    missing = [k for k, (_, default) in keys.items()
               if default is None and k not in got]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}")
    return {k: got.get(k, default) for k, (_, default) in keys.items()}


def load_tree(spec: str):
    """A path to a tree JSON file, or a generator spec."""
    if spec.endswith(".json"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {spec}: {exc}", EXIT_IO) from exc
        try:
            tree = tree_from_json(text)
        except GridError as exc:
            raise CliError(f"invalid tree: {exc}", EXIT_VALIDATION) from exc
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot parse {spec}: {exc}", EXIT_IO) from exc
        bad = validate(tree)
        if bad:
            raise CliError("invalid tree: " + "; ".join(bad), EXIT_VALIDATION)
        return tree
    name, _, rest = spec.partition(":")
    try:
        if name == "fig1":
            if rest == "P":
                return figure1_pair(0.1)[0]
            if rest.startswith("Pe(") and rest.endswith(")"):
                return figure1_pair(float(rest[3:-1]))[1]
            raise CliError("fig1 spec must be fig1:P or fig1:Pe(<gap>)", EXIT_IO)
        if name in _GENERATORS:
            build, keys = _GENERATORS[name]
            return build(**_spec_args(rest, keys))
    except ValueError as exc:
        raise CliError(f"bad generator spec {spec!r}: {exc}", EXIT_IO) from exc
    raise CliError(f"unknown generator {name!r}", EXIT_IO)


def _hellwig(x, y, p):
    """Hellwig is built on W1, so any other order is a bad parameter."""
    if p != 1.0:  # NaN too
        raise ValueError(f"p must be 1 for hellwig, got {p!r}")
    return hellwig(x, y)


_DIST_FNS = {
    "w": lambda x, y, p: wasserstein(x, y, p),
    "cw": lambda x, y, p: cw(x, y, p),
    "scw": lambda x, y, p: scw(x, y, p),
    "aw": lambda x, y, p: aw(x, y, p),
    "aw_strict": lambda x, y, p: nested_bicausal(x, y, p),
    "scw_strict": lambda x, y, p: strict_scw(x, y, p),
    "hellwig": _hellwig,
}


def cmd_dist(args) -> int:
    x = load_tree(args.left)
    y = load_tree(args.right)
    if args.kind == "aw_eps":
        rep = eps_bicausal_lp(x, y, args.eps_steps, args.p)
    else:
        rep = _DIST_FNS[args.kind](x, y, args.p)
    print(json.dumps(rep.to_json_dict(include_witness=args.emit_witness)))
    return EXIT_OK


def cmd_os(args) -> int:
    tree = load_tree(args.tree)
    try:
        phi = cost_by_name(args.phi)
    except ValueError as exc:
        raise CliError(f"bad --phi: {exc}", EXIT_IO) from exc
    res = snell_os(tree, phi, variant=args.variant)
    out = {
        "value": res.value,
        "variant": args.variant,
        "phi": args.phi,
        "rule": [[bool(b) for b in lv] for lv in res.rule.stop],
    }
    print(json.dumps(out))
    return EXIT_OK


def _emit_csv(header_cols, rows, footer_comments):
    print(CSV_SCHEMA_HEADER)
    print(",".join(header_cols))
    for row in rows:
        print(",".join(_csv_cell(v) for v in row))
    for line in footer_comments:
        print(f"# {line}")


def _csv_cell(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _ladder(text, kind):
    """A non-empty comma-separated list of `kind` values."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise CliError(f"bad ladder {text!r}: {exc}", EXIT_IO) from exc


def cmd_donsker(args) -> int:
    rec = donsker_table(_ladder(args.n_ladder, int), _ladder(args.eps_ladder, float),
                        args.samples, args.seed,
                        oversample=args.oversample, threads=args.threads)
    _emit_csv(("n", "eps", "estimate", "stderr"), rec.outputs["rows"],
              [f"fitted_C = {rec.outputs['fitted_C']:.6g}",
               f"proxy_slope = {rec.outputs['proxy_slope']:.6g}",
               f"wall_time_s = {rec.wall_time_s:.3f}"])
    return EXIT_OK


def cmd_euler(args) -> int:
    try:
        mu = parse_coefficient(args.mu)
        sigma = parse_coefficient(args.sigma)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_IO) from exc
    rec = euler_table(mu, sigma, args.x0, _ladder(args.n_ladder, int),
                      args.samples, args.seed, fine_factor=args.fine_factor,
                      threads=args.threads)
    _emit_csv(("n", "estimate", "stderr"), rec.outputs["rows"],
              [f"slope = {rec.outputs['slope']:.6g}",
               f"wall_time_s = {rec.wall_time_s:.3f}"])
    return EXIT_OK


def cmd_topology_table(args) -> int:
    ladder = _ladder(args.ladder, float if args.family in ("fig1", "tcbm") else int)
    rec = topology_table(args.family, ladder, p=args.p, threads=args.threads)
    rows = rec.outputs["rows"]
    cols = ["param"] + list(rows[0][1].keys())
    flat = [[param] + list(row.values()) for param, row in rows]
    _emit_csv(cols, flat, [f"wall_time_s = {rec.wall_time_s:.3f}"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adapted-ot",
        description="Adapted optimal transport and optimal stopping on scenario trees")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="distance between two trees")
    d.add_argument("--left", required=True)
    d.add_argument("--right", required=True)
    d.add_argument("--kind", choices=sorted(_DIST_FNS) + ["aw_eps"], default="aw")
    d.add_argument("--p", type=float, default=1.0)
    d.add_argument("--eps-steps", type=int, default=0,
                   help="shift for --kind aw_eps")
    d.add_argument("--emit-witness", action="store_true")
    d.set_defaults(fn=cmd_dist)

    o = sub.add_parser("os", help="optimal stopping value")
    o.add_argument("--tree", required=True)
    o.add_argument("--phi", default="state:identity")
    o.add_argument("--variant", choices=("inf", "sup"), default="inf")
    o.set_defaults(fn=cmd_os)

    dk = sub.add_parser("donsker", help="random walk / BM coupling rate ladder")
    dk.add_argument("--n-ladder", default="64,128,256,512,1024,2048,4096")
    dk.add_argument("--eps-ladder", default="1,0.5,0.25,0.125")
    dk.add_argument("--samples", type=int, default=10_000)
    dk.add_argument("--oversample", type=int, default=4)
    dk.add_argument("--seed", type=int, default=20240901)
    dk.add_argument("--threads", type=int, default=1)
    dk.set_defaults(fn=cmd_donsker)

    eu = sub.add_parser("euler", help="Euler scheme rate ladder")
    eu.add_argument("--mu", default="0")
    eu.add_argument("--sigma", default="1")
    eu.add_argument("--x0", type=float, default=0.0)
    eu.add_argument("--n-ladder", default="16,32,64,128,256,512,1024")
    eu.add_argument("--samples", type=int, default=10_000)
    eu.add_argument("--fine-factor", type=int, default=64)
    eu.add_argument("--seed", type=int, default=20240901)
    eu.add_argument("--threads", type=int, default=1)
    eu.set_defaults(fn=cmd_euler)

    tt = sub.add_parser("topology-table",
                        help="distance family across a parameter ladder")
    tt.add_argument("--family",
                    choices=("fig1", "counterexample", "offset", "tcbm"),
                    required=True)
    tt.add_argument("--ladder", required=True)
    tt.add_argument("--p", type=float, default=1.0)
    tt.add_argument("--threads", type=int, default=1)
    tt.set_defaults(fn=cmd_topology_table)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except LPError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:  # the library's error for a bad parameter
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
