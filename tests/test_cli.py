import json
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

from adapted_ot import figure1_pair, tree_to_json, wasserstein, aw
from adapted_ot.cli import main
from adapted_ot.experiments import CSV_SCHEMA_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dist_fig1_aw(capsys):
    code, out, _ = run_cli(capsys, "dist", "--left", "fig1:P",
                           "--right", "fig1:Pe(0.1)", "--kind", "aw", "--p", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == pytest.approx(0.6, abs=1e-9)
    assert rep["eps_steps"] == 1


def test_dist_self_strict_zero(tmp_path, capsys):
    p, _ = figure1_pair(0.1)
    path = tmp_path / "tree.json"
    path.write_text(tree_to_json(p))
    code, out, _ = run_cli(capsys, "dist", "--left", str(path),
                           "--right", str(path), "--kind", "aw_strict",
                           "--p", "2")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-10)


def test_dist_ordering_w_vs_aw(capsys):
    _, w_out, _ = run_cli(capsys, "dist", "--left", "rw:n=2",
                          "--right", "bm:n=2,m=2", "--kind", "w")
    _, aw_out, _ = run_cli(capsys, "dist", "--left", "rw:n=2",
                           "--right", "bm:n=2,m=2", "--kind", "aw")
    assert json.loads(w_out)["value"] <= json.loads(aw_out)["value"] + 1e-9


def test_dist_emit_witness(capsys):
    code, out, _ = run_cli(capsys, "dist", "--left", "fig1:P",
                           "--right", "fig1:Pe(0.2)", "--kind", "aw",
                           "--emit-witness")
    rep = json.loads(out)
    w = np.array(rep["witness"])
    assert w.shape == (2, 2)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)


def test_exit_code_io_error(capsys):
    code, _, err = run_cli(capsys, "dist", "--left", "nope.json",
                           "--right", "fig1:P")
    assert code == 1
    assert "cannot read" in err


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "dist", "--left", str(path),
                           "--right", "fig1:P")
    assert code == 1


def test_exit_code_validation(tmp_path, capsys):
    path = tmp_path / "invalid.json"
    path.write_text('{"dim": 1, "grid": [1.0], "levels": '
                    '[[{"parent": null, "prob": 1.0, "value": [0.0]}], '
                    '[{"parent": 0, "prob": 0.5, "value": [1.0]}]]}')
    code, _, err = run_cli(capsys, "dist", "--left", str(path),
                           "--right", "fig1:P")
    assert code == 2
    assert "invalid tree" in err


@pytest.mark.parametrize("parent", ['"0"', "0.5"])
def test_exit_code_non_integer_parent(tmp_path, capsys, parent):
    path = tmp_path / "parent.json"
    path.write_text('{"dim": 1, "grid": [1.0], "levels": '
                    '[[{"parent": null, "prob": 1.0, "value": [0.0]}], '
                    '[{"parent": %s, "prob": 1.0, "value": [1.0]}]]}' % parent)
    code, _, err = run_cli(capsys, "os", "--tree", str(path))
    assert code == 2
    assert err.splitlines() == ["invalid tree: non-integer parent at level 1 node 0"]


def test_os_counterexample_sup(capsys):
    code, out, _ = run_cli(capsys, "os", "--tree", "counterexample:n=4,m=8",
                           "--phi", "state:identity", "--variant", "sup")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.375, abs=1e-12)


def test_os_rw_matches_library(capsys):
    from adapted_ot import random_walk_tree, snell_os, cost_by_name
    code, out, _ = run_cli(capsys, "os", "--tree", "rw:n=3",
                           "--phi", "state:identity")
    expected = snell_os(random_walk_tree(3), cost_by_name("state:identity")).value
    assert json.loads(out)["value"] == pytest.approx(expected, abs=1e-12)


def test_os_terminal_sup_prints_strict_json(capsys):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    code, out, _ = run_cli(capsys, "os", "--tree", "rw:n=3", "--phi", "terminal:abs",
                           "--variant", "sup")
    assert code == 0
    # E|X_1| for the scaled walk of three steps is sqrt(3) / 2
    assert json.loads(out, parse_constant=reject)["value"] == pytest.approx(
        0.8660254037844388, abs=1e-15)


def test_donsker_csv_and_reproducibility(capsys):
    args = ("donsker", "--n-ladder", "16,32", "--eps-ladder", "1,0.5",
            "--samples", "200", "--seed", "3")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == CSV_SCHEMA_HEADER
    assert lines[1] == "n,eps,estimate,stderr"
    assert len([l for l in lines if not l.startswith("#")]) == 5  # header+4 rows
    assert any(l.startswith("# fitted_C") for l in lines)
    assert any(l.startswith("# proxy_slope") for l in lines)
    code, out2, _ = run_cli(capsys, *args)
    strip = lambda text: [l for l in text.splitlines() if "wall_time" not in l]
    assert strip(out1) == strip(out2)


def test_donsker_cells_match_library(capsys):
    from adapted_ot import rw_bm_block_coupling_cost
    code, out, _ = run_cli(capsys, "donsker", "--n-ladder", "16",
                           "--eps-ladder", "0.5", "--samples", "100",
                           "--seed", "9")
    row = [l for l in out.splitlines() if l[0].isdigit()][0]
    n, eps, est, se = row.split(",")
    ref = rw_bm_block_coupling_cost(16, 0.5, 100, 9)
    assert float(est) == pytest.approx(ref.mean, rel=1e-10)
    assert float(se) == pytest.approx(ref.std_error, rel=1e-10)


def test_euler_csv(capsys):
    code, out, _ = run_cli(capsys, "euler", "--mu", "0", "--sigma", "1",
                           "--n-ladder", "8,16", "--samples", "100",
                           "--seed", "5", "--fine-factor", "8")
    assert code == 0
    assert any(l.startswith("# slope") for l in out.splitlines())


def test_euler_bad_expression(capsys):
    code, _, err = run_cli(capsys, "euler", "--mu", "foo(x)", "--sigma", "1",
                           "--n-ladder", "8", "--samples", "10")
    assert code == 1


def test_topology_table_fig1(capsys):
    code, out, _ = run_cli(capsys, "topology-table", "--family", "fig1",
                           "--ladder", "0.2,0.1,0.05")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    ws = [float(r["W"]) for r in rows]
    aws = [float(r["AW"]) for r in rows]
    # W vanishes along the ladder while AW stays bounded away from zero
    assert ws[0] > ws[1] > ws[2]
    assert min(aws) > 0.5
    # exactly computable cells agree with the library
    for r in rows:
        p, pe = figure1_pair(float(r["param"]))
        assert float(r["W"]) == pytest.approx(
            wasserstein(p, pe, witness=False).value, abs=1e-9)
        assert float(r["AW"]) == pytest.approx(
            aw(p, pe, witness=False).value, abs=1e-9)


def test_topology_table_self_pair_zeros(capsys):
    code, out, _ = run_cli(capsys, "topology-table", "--family", "tcbm",
                           "--ladder", "0.0")
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    for col in ("W", "AW", "AW_strict", "SCW", "Hellwig"):
        assert float(row[col]) == pytest.approx(0.0, abs=1e-9)


def test_exit_code_non_finite_tree(tmp_path, capsys):
    doc = json.loads(tree_to_json(figure1_pair(0.1)[0]))
    doc["levels"][-1][0]["value"] = [float("nan")]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "dist", "--left", str(path),
                             "--right", "fig1:P")
    assert code == 2
    assert out == ""
    assert "non-finite value" in err


def test_exit_code_non_finite_grid(tmp_path, capsys):
    doc = json.loads(tree_to_json(figure1_pair(0.1)[0]))
    doc["grid"] = [0.5, float("nan")]
    path = tmp_path / "nan_grid.json"
    path.write_text(json.dumps(doc))
    for argv in (("os", "--tree", str(path)),
                 ("dist", "--left", str(path), "--right", "fig1:P")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip() == "invalid tree: grid times must be finite"


@pytest.mark.parametrize("spec, message", [
    ("rw:n=3,zz=1", "unknown key 'zz'"),
    ("rw:n=3,n=4", "repeated key 'n'"),
    ("bm:n=3", "missing key 'm'"),
    ("counterexample:m=8", "missing key 'n'"),
    ("tcbm:shift=nan,side=x", "shift: must be finite"),
    # the bursty profile's margin bounds the shift
    ("tcbm:n=3,m=2,bursts=2,shift=0.1,side=y", "shift: must be in [0, 0.05]"),
    ("tcbm:n=3,m=2,bursts=2,shift=-0.01,side=y", "shift: must be in [0, 0.05]"),
])
def test_generator_spec_errors_name_the_key(capsys, spec, message):
    code, out, err = run_cli(capsys, "os", "--tree", spec)
    assert code == 1
    assert out == ""
    assert err.strip().startswith(f"bad generator spec {spec!r}")
    assert message in err


def test_generator_specs_take_their_keys(capsys):
    # every key once, in any order, with spaces around it
    for spec in ("rw:n=3", "bm: m=3 , n=2", "counterexample:n=2,m=8",
                 "counterexample_limit:m=8", "offset:side=y,m=2",
                 "tcbm:n=3,m=2,bursts=2,shift=0.04,side=y",
                 "tcbm:n=3,m=2,bursts=2,shift=0,side=y",
                 "tcbm:n=3,m=2,bursts=2,shift=0.05,side=y"):
        code, out, _ = run_cli(capsys, "os", "--tree", spec)
        assert code == 0, spec
        assert "value" in json.loads(out)


def _edited_fig1(path, edit):
    doc = json.loads(tree_to_json(figure1_pair(0.1)[0]))
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _set_node(key, value):
    return lambda doc: doc["levels"][-1][0].update({key: value})


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(dim=1.5), "dim must be a JSON integer, got 1.5"),
    (lambda doc: doc.update(dim=True), "dim must be a JSON integer, got True"),
    (_set_node("prob", "0.5"), "prob must be a JSON number, got '0.5'"),
    (_set_node("prob", True), "prob must be a JSON number, got True"),
    (_set_node("value", ["1"]), "value must be a JSON number, got '1'"),
    # an integer literal too large for a float, 1 followed by 400 zeros
    (_set_node("value", [10 ** 400]), "value must be a JSON number in the float "
     "range, got an integer of 401 digits"),
    (_set_node("prob", -10 ** 400), "prob must be a JSON number in the float "
     "range, got an integer of 401 digits"),
    (lambda doc: doc.update(grid=["0.5", True]),
     "grid time must be a JSON number, got '0.5'"),
    (lambda doc: doc.update(grid=[0.5, True]), "grid time must be a JSON number, got True"),
    (lambda doc: doc.update(grid=[0.5, 10 ** 400]), "grid time must be a JSON number "
     "in the float range, got an integer of 401 digits"),
], ids=["dim-float", "dim-bool", "prob-string", "prob-bool", "value-string",
        "value-huge", "prob-huge", "grid-string", "grid-bool", "grid-huge"])
def test_tree_json_takes_only_json_numbers(tmp_path, capsys, edit, message):
    path = _edited_fig1(tmp_path / "tree.json", edit)
    for argv in (("os", "--tree", path),
                 ("dist", "--kind", "w", "--left", path, "--right", "fig1:P")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"cannot parse {path}: {message}"]


def test_tree_json_number_edge_cases(tmp_path, capsys):
    # "dim": 0 is an integer, rejected by validation; an integer prob is a number
    path = _edited_fig1(tmp_path / "dim0.json", lambda doc: doc.update(dim=0))
    code, out, err = run_cli(capsys, "os", "--tree", path)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("invalid tree: value dimension mismatch")
    path = _edited_fig1(tmp_path / "prob1.json", lambda doc: doc["levels"][0][0]
                        .update(prob=1))
    code, out, _ = run_cli(capsys, "os", "--tree", path)
    assert code == 0
    assert "value" in json.loads(out)


def test_exit_code_p_below_one(capsys):
    code, out, err = run_cli(capsys, "dist", "--left", "fig1:P",
                             "--right", "fig1:Pe(0.1)", "--p", "0")
    assert code == 2
    assert out == ""
    assert "p must be" in err
    code, _, err = run_cli(capsys, "topology-table", "--family", "fig1",
                           "--ladder", "0.1", "--p", "0.5")
    assert code == 2
    assert "p must be" in err


@pytest.mark.parametrize("p", ["nan", "0.5", "3", "inf"])
def test_exit_code_hellwig_p_other_than_one(capsys, p):
    # Hellwig is built on W1
    code, out, err = run_cli(capsys, "dist", "--left", "fig1:P",
                             "--right", "fig1:Pe(0.1)", "--kind", "hellwig",
                             "--p", p)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "p must be 1" in err


@pytest.mark.parametrize("argv", [
    # the DP is over its state cap and falls back to the shift-0 LP, whose
    # dense rows would take 512 GiB
    ("--left", "rw:n=12", "--right", "bm:n=12,m=2", "--kind", "aw_strict"),
    # 65,536 cells; the rows of one constraint time alone would take 1.64 GiB
    ("--left", "rw:n=8", "--right", "bm:n=8,m=2", "--kind", "aw_eps",
     "--eps-steps", "1"),
], ids=["aw_strict-fallback", "aw_eps"])
def test_lp_cell_cap_is_decided_before_any_row(argv):
    limit = 2 * 2**30  # address space of the child alone

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-m", "adapted_ot", "dist", *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
             "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert len(done.stderr.strip().splitlines()) == 1
    assert "exceeds LP cap 40000" in done.stderr


@pytest.mark.parametrize("argv", [
    # 0.01 ** 200 underflows to 0, and W read 0.0 as the optimum
    ("--left", "fig1:P", "--right", "fig1:Pe(0.01)", "--kind", "w", "--p", "200"),
    # costs above 1 overflow to inf
    *(("--left", "rw:n=3", "--right", "bm:n=3,m=2", "--kind", kind, "--p", "2000")
      for kind in ("w", "aw", "aw_strict", "scw", "aw_eps")),
], ids=["w-underflow", "w", "aw", "aw_strict", "scw", "aw_eps"])
def test_large_p_exits_2_with_one_line(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dist", *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert f"p = {argv[-1]} " in err


def test_large_p_answers_when_underflow_is_below_one_ulp(capsys):
    # some costs ** 200 underflow, but the optimum is near 1e60
    code, out, _ = run_cli(capsys, "dist", "--left", "fig1:P",
                           "--right", "fig1:Pe(0.01)", "--kind", "aw_strict",
                           "--p", "200")
    assert code == 0
    assert json.loads(out)["value"] == 1.9930805256557358


@pytest.mark.parametrize("p", [(), ("--p", "1")], ids=["default", "one"])
def test_dist_hellwig_at_p_one(capsys, p):
    code, out, _ = run_cli(capsys, "dist", "--left", "fig1:P",
                           "--right", "fig1:Pe(0.1)", "--kind", "hellwig", *p)
    assert code == 0
    rep = json.loads(out)
    assert rep["p"] == 1.0
    assert rep["value"] == pytest.approx(0.425, abs=1e-12)


def test_dist_rejects_tolerance(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "--left", "fig1:P", "--right", "fig1:P",
              "--tolerance", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (("os", "--tree", "rw:n=2", "--phi", "bogus"), 1),
    (("donsker", "--n-ladder", "a"), 1),
    (("donsker", "--n-ladder", "16", "--eps-ladder", "1", "--samples", "0"), 2),
    (("euler", "--n-ladder", "8", "--samples", "-5"), 2),
    (("topology-table", "--family", "offset", "--ladder", "x"), 1),
    # coefficients too deep to parse, and non-finite constants
    (("euler", "--mu=" + "-" * 5000 + "x", "--n-ladder", "8"), 1),
    (("euler", "--mu", "(" * 3000 + "x" + ")" * 3000, "--n-ladder", "8"), 1),
    (("euler", "--mu", "x" + "+x" * 3000, "--n-ladder", "8"), 1),
    (("euler", "--mu", "1e400", "--n-ladder", "8"), 1),
    (("euler", "--sigma", "1" * 400, "--n-ladder", "8"), 1),
    # generator specs: unknown, repeated and missing keys, non-finite floats
    (("os", "--tree", "rw:n=3,zz=1"), 1),
    (("os", "--tree", "rw:n=3,n=4"), 1),
    (("os", "--tree", "tcbm:shift=nan,side=x"), 1),
    (("os", "--tree", "tcbm:n=3,shift=inf"), 1),
    (("os", "--tree", "bm:n=3"), 1),
    (("os", "--tree", "offset:m=2,side=z"), 1),
    (("donsker", "--n-ladder", "16", "--eps-ladder", "1", "--samples", "4",
      "--threads", "0"), 2),
    (("euler", "--n-ladder", "8", "--samples", "4", "--threads", "-1"), 2),
    (("topology-table", "--family", "fig1", "--ladder", "0.1",
      "--threads", "0"), 2),
])
def test_bad_input_exits_with_one_line(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("donsker", "--n-ladder", "16", "--eps-ladder", "0"),
    ("donsker", "--n-ladder", "16", "--eps-ladder", "inf"),
    ("donsker", "--n-ladder", "16", "--eps-ladder", "0.5", "--oversample", "0"),
    ("donsker", "--n-ladder", "16", "--eps-ladder", "0.5", "--samples", "1"),
    ("euler", "--n-ladder", "8", "--x0", "nan"),
    ("euler", "--n-ladder", "8", "--x0", "inf"),
    ("euler", "--n-ladder", "8", "--samples", "1"),
    ("euler", "--mu", "x*x*x*x*x*x*x*x*x*x", "--sigma", "1", "--x0", "3",
     "--n-ladder", "8", "--samples", "10"),
], ids=["eps-zero", "eps-inf", "oversample-zero", "donsker-one-sample",
        "x0-nan", "x0-inf", "euler-one-sample", "euler-path-not-finite"])
def test_mc_bad_parameters_exit_2(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(capsys, *argv)
    assert got == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
