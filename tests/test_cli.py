import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrws import HypothesisError, Space, space_from_json, space_to_json
from mrws import builders, cli, core, curvature, geometry, transport
from mrws.builders import (cycle, grid_kernel_neumann, k3 as make_k3, lazy_cycle, p3 as make_p3,
                           random_reversible_space, two_block)
from mrws.cli import main

import _oracles


def write_space(tmp_path, space, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(space_to_json(space)))
    return str(path)


def write_field(tmp_path, values, name="field.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"values": list(values)}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_build_graph_and_validate(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("a,b,1\nb,c,1\n")
    code, obj = run(capsys, ["build", "graph", str(edges)])
    assert code == 0
    assert obj["version"] == 1 and len(obj["labels"]) == 3

    sp = tmp_path / "p3.json"
    sp.write_text(json.dumps(obj))
    code, rep = run(capsys, ["validate", str(sp)])
    assert code == 0 and rep["ok"]


def test_build_grid_and_cloud(tmp_path, capsys):
    code, obj = run(capsys, ["build", "grid", "--interval", "-1", "0",
                             "--interval", "2", "3", "--h", "0.1", "--radius", "1"])
    assert code == 0 and len(obj["labels"]) == 22

    pts = tmp_path / "pts.csv"
    pts.write_text("0,1\n1,1\n2,1\n")
    code, obj = run(capsys, ["build", "cloud", str(pts), "--eps", "1.5"])
    assert code == 0
    assert obj["kernel"][1] == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_validate_corrupt_kernel_exits_2(tmp_path, capsys):
    obj = space_to_json(make_p3())
    obj["measure"] = [1.0, 1.0, 1.0]  # not invariant
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, rep = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert not rep["ok"]
    assert any(c["axiom"] == "invariance" and not c["ok"] for c in rep["checks"])


def test_connect_output(tmp_path, capsys):
    path = write_space(tmp_path, two_block(0.1))
    code, obj = run(capsys, ["connect", path, "--set", "0,1"])
    assert code == 0
    assert obj["m_connected"] is False
    assert obj["ergodic"] is False
    assert len(obj["blocks"]) == 2
    assert len(obj["n_set"]) == 11


def test_heat_grid_output(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())
    field = write_field(tmp_path, [1.0, 0.0, 0.0])
    code, obj = run(capsys, ["heat", path, "--init", field, "--grid", "0.5,1.0"])
    assert code == 0
    assert obj["times"] == [0.0, 0.5, 1.0]
    expect = 0.25 + 0.5 * np.exp(-1) + 0.25 * np.exp(-2)
    assert obj["states"][2][0] == pytest.approx(expect, abs=1e-9)


def test_spectral_output(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())
    code, obj = run(capsys, ["spectral", path])
    assert code == 0
    assert obj["gap"] == pytest.approx(1.0, abs=1e-12)
    assert obj["spectrum"] == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)
    assert obj["gap_ibe"] == pytest.approx(1.0, abs=1e-12)


def test_cheeger_output(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())
    code, obj = run(capsys, ["cheeger", path, "--exact"])
    assert code == 0
    assert obj["exact"] and obj["lower"] == obj["upper"] == 1.0


def test_cheeger_exact_on_cycle_reports_the_lowest_tied_set(tmp_path, capsys):
    # four half arcs tie at 0.25; the subset ids order them, lowest first
    path = write_space(tmp_path, cycle(8))
    code, obj = run(capsys, ["cheeger", path, "--exact"])
    assert code == 0
    assert obj["upper"] == 0.25
    assert obj["witness"] == [0, 1, 2, 3]


def test_cheeger_exact_prints_the_scan_ratio(tmp_path, capsys):
    path = write_space(tmp_path, cycle(12))
    assert main(["cheeger", path, "--exact"]) == 0
    # 1/6 to the bit; the former chunk formula printed 0.16666666666666674
    assert '"upper":0.16666666666666666' in capsys.readouterr().out


def test_cheeger_keeps_the_mass_of_a_light_side(tmp_path, capsys):
    # point a, last, weighs 5e-21 of the total, so the walk lists {b, c}, whose
    # 1 - mass rounds to 0; an fsum over the six bipartitions gives h at {a}.
    # RuntimeWarnings are errors here, so no division by zero may happen
    edges = tmp_path / "edges.csv"
    edges.write_text("b,c,1\nb,a,1e-30\na,a,1e-20\n")
    code, obj = run(capsys, ["build", "graph", str(edges)])
    path = tmp_path / "light.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, ["validate", str(path)])[1]["ok"]
    h = 9.999999999000001e-11
    for flag in ("--exact", "--sweep"):
        code, obj = run(capsys, ["cheeger", str(path), flag])
        assert code == 0 and abs(obj["upper"] - h) <= 1e-12 * h and obj["witness"] == [2]
    code, obj = run(capsys, ["analyze", str(path), "--trials", "5"])  # its h^2/2 <= gap check holds
    assert code == 0 and abs(obj["cheeger"]["upper"] - h) <= 1e-12 * h
    # a light point with no link, first or last: its side's ratio is 0
    for measure, flag in (([1.0, 1e-20], "--exact"), ([1e-20, 1.0], "--sweep")):
        path = write_space(tmp_path, Space((0, 1), 1.0 - np.eye(2), np.eye(2), np.array(measure)))
        code, obj = run(capsys, ["cheeger", path, flag])
        assert code == 0 and obj["upper"] == 0.0


def test_geometry_output(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())
    code, obj = run(capsys, ["geometry", path, "--set", "0"])
    assert code == 0
    assert obj["perimeter"] == pytest.approx(0.25)
    assert obj["interaction_complement"] == pytest.approx(0.25)
    assert obj["mean_curvature"] == pytest.approx([1.0, 0.0, 1.0])


def test_set_takes_labels_before_positions(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("1,2,1\n2,3,1\n3,4,1\n")  # labels "1".."4" at positions 0..3
    code, obj = run(capsys, ["build", "graph", str(edges)])
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(obj))
    code, obj = run(capsys, ["geometry", str(path), "--set", "4"])
    assert code == 0
    assert obj["perimeter"] == pytest.approx(1 / 6)  # the end point labelled "4"
    assert obj["mean_curvature"] == pytest.approx([1.0, 1.0, 0.0, 1.0])
    # "1" is the label of position 0 and also position 1, the point labelled "2"
    assert main(["geometry", str(path), "--set", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "ambiguous" in err and "'1'" in err and "'2'" in err


def test_set_with_string_labels(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())  # labels "a", "b", "c"
    code, obj = run(capsys, ["geometry", path, "--set", "b"])
    assert code == 0
    assert obj["perimeter"] == pytest.approx(0.5)
    code, by_position = run(capsys, ["geometry", path, "--set", "1"])
    assert (code, by_position) == (0, obj)
    assert run(capsys, ["geometry", path, "--set", "d"])[0] == 1
    assert run(capsys, ["geometry", path, "--set", "3"])[0] == 1


def test_set_on_permuted_integer_labels(tmp_path, capsys):
    c5 = cycle(5)
    sp = Space((5, 0, 7, 9, 6), c5.metric, c5.kernel, c5.measure)
    path = write_space(tmp_path, sp)
    # "5" resolves to position 0, which is also the label of position 1: the
    # CLI passes the position on as a mask, never as an integer to read again
    for text, mask in (("5", [1, 0, 0, 0, 0]), ("5,9", [1, 0, 0, 1, 0]), ("7,6,9", [0, 0, 1, 1, 1])):
        mask = np.array(mask, dtype=bool)
        code, obj = run(capsys, ["geometry", path, "--set", text])
        assert code == 0
        assert obj["perimeter"] == obj["interaction_complement"] == geometry.perimeter(sp, mask)
        assert obj["mean_curvature"] == geometry.mean_curvature(sp, mask).values.tolist()
    code, obj = run(capsys, ["connect", path, "--set", "9,6"])
    assert code == 0 and obj["first_hit"] == [1, 2, 1, 1, 1]
    assert main(["geometry", path, "--set", "0"]) == 1  # label of position 1, and position 0
    assert "ambiguous" in capsys.readouterr().err


def test_set_on_a_grid_is_still_a_position(tmp_path, capsys):
    grid = grid_kernel_neumann([(0, 1)], h=0.25, radius=0.3)  # labels 0.0, 0.25, ...
    path = write_space(tmp_path, grid)
    code, obj = run(capsys, ["geometry", path, "--set", "0"])
    assert code == 0
    assert run(capsys, ["geometry", path, "--set", "0.0"]) == (0, obj)
    assert obj["mean_curvature"] == pytest.approx(geometry.mean_curvature(grid, [0]).values.tolist())


def test_curvature_output(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())
    code, obj = run(capsys, ["curvature", path, "--be", "2,inf"])
    assert code == 0
    assert obj["be"]["2"] == pytest.approx(0.0, abs=1e-9)
    assert obj["be"]["inf"] == pytest.approx(1.0, abs=1e-9)
    assert obj["kappa_global"] == pytest.approx(0.0, abs=1e-12)
    assert [0, 2, 1.0] in [[p[0], p[1], round(p[2], 9)] for p in obj["kappa_pairs"]]


def test_curvature_all_pairs_prints_the_analyze_kappa(tmp_path, capsys):
    # geodesic grid where a non-edge LP lands an ulp below the edge minimum
    path = write_space(tmp_path, grid_kernel_neumann([(0, 1)], h=1 / 8, radius=1.5 / 8))
    code, curv = run(capsys, ["curvature", path, "--ollivier", "all"])
    assert code == 0
    code, obj = run(capsys, ["analyze", path, "--trials", "2"])
    assert code == 0
    assert curv["kappa_global"] == obj["curvature"]["kappa_global"]


def test_curvature_negative_kernel_exits_1(tmp_path, capsys):
    obj = space_to_json(make_p3())
    obj["kernel"][0] = [1.5, -0.5, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["curvature", str(bad), "--be", "2"]) == 1
    assert "Bakry-Emery" in capsys.readouterr().err  # rejected before any transport LP


@pytest.mark.parametrize("row", [[0.0, np.nan, 0.0], [np.inf, -np.inf, 1.0]], ids=["nan", "+-inf"])
@pytest.mark.parametrize("command", [["curvature", "--be", "2"], ["cheeger"],
                                     ["verify", "--inequality", "te"], ["validate"]],
                         ids=lambda c: c[0])
def test_non_finite_kernel_row_is_structural(tmp_path, capsys, row, command):
    obj = space_to_json(make_p3())
    obj["kernel"][0] = row
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = _outcome(capsys, [command[0], str(bad), *command[1:]])
    assert (code, out) == (1, "")
    assert err == "mrws: structural error: kernel rows must sum to 1 within 1e-9\n"


def test_transport_output(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())
    mu = write_field(tmp_path, [1.0, 0.0, 0.0], "mu.json")
    code, obj = run(capsys, ["transport", path, "--mu", mu])
    assert code == 0
    assert obj["cost"] == pytest.approx(1.0, abs=1e-10)
    assert obj["dual_gap"] <= 1e-9 * (1 + obj["cost"])


def test_verify_ok_and_hypothesis_failure(tmp_path, capsys):
    p3path = write_space(tmp_path, make_p3())
    code, obj = run(capsys, ["verify", p3path, "--inequality", "ti_be", "--trials", "25"])
    assert code == 0
    assert obj["holds"] and obj["max_ratio"] <= 1 + 1e-9

    code, _ = run(capsys, ["verify", p3path, "--inequality", "ti_ollivier", "--trials", "5"])
    assert code == 3  # zero curvature on the path graph


def test_verifiers_reject_a_trial_count_below_one(tmp_path, capsys):
    path = write_space(tmp_path, make_k3())
    assert run(capsys, ["verify", path, "--inequality", "ti_ollivier", "--trials", "-3"]) == (1, None)
    assert run(capsys, ["verify", path, "--inequality", "te", "--trials", "0"]) == (1, None)
    assert main(["analyze", path, "--trials", "-2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "trials" in err


def test_analyze_rejects_a_trial_count_below_one_before_any_work(tmp_path, capsys, monkeypatch):
    def fail(space):
        raise AssertionError("validate_space ran")

    monkeypatch.setattr(cli, "validate_space", fail)
    path = write_space(tmp_path, make_k3())
    for trials in ("0", "-2"):
        assert main(["analyze", path, "--trials", trials]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "trials" in err


def test_weakly_joined_triangles_are_one_block(tmp_path, capsys):
    # the joining edge puts an eigenvalue 3.3e-12 above 0: ergodic, with that gap
    edges = tmp_path / "edges.csv"
    edges.write_text("a,b,1\nb,c,1\na,c,1\nd,e,1\ne,f,1\nd,f,1\nc,d,1e-11\n")
    code, obj = run(capsys, ["build", "graph", str(edges)])
    assert code == 0
    path = tmp_path / "triangles.json"
    path.write_text(json.dumps(obj))
    code, conn = run(capsys, ["connect", str(path)])
    assert code == 0
    assert conn["blocks"] == [[0, 1, 2, 3, 4, 5]] and conn["m_connected"]
    assert conn["ergodic"] is True
    code, spec = run(capsys, ["spectral", str(path)])
    assert code == 0
    assert spec["kernel_dim"] == 1
    assert spec["gap"] == spec["spectrum"][1] == pytest.approx(3.33e-12, rel=1e-3)


def test_analyze_p3(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())
    code, obj = run(capsys, ["analyze", path])
    assert code == 0
    assert obj["spectral"]["gap"] == pytest.approx(1.0, abs=1e-12)
    assert obj["cheeger"]["upper"] == 1.0
    assert obj["curvature"]["kappa_global"] == pytest.approx(0.0, abs=1e-12)
    assert obj["curvature"]["be"]["inf"] == pytest.approx(1.0, abs=1e-9)
    assert obj["connectivity"]["m_connected"] is True
    assert obj["provenance"]["timings_s"] is None


def test_analyze_timings_include_skipped_verifiers(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())
    code, obj = run(capsys, ["analyze", path, "--trials", "5", "--timings"])
    assert code == 0
    assert "skipped" in obj["transport"]["max_ratios"]["ti_ollivier"]  # kappa = 0 on P3
    assert {"verify_ti_be", "verify_ti_ollivier", "verify_te"} <= set(obj["provenance"]["timings_s"])


def test_analyze_above_all_pairs_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(curvature, "ALL_PAIRS_LIMIT", 2)
    p3 = make_p3()
    d = p3.metric.copy()
    d[0, 2] = d[2, 0] = 1.5  # shorter than the path a-b-c: not geodesic
    path = write_space(tmp_path, Space(p3.labels, d, p3.kernel, p3.measure))
    code, obj = run(capsys, ["analyze", path, "--trials", "5"])
    assert code == 0
    assert obj["curvature"]["kappa_global"] is None
    assert obj["curvature"]["kappa_upper_bound"] == pytest.approx(0.0, abs=1e-12)
    assert "all pairs" in obj["transport"]["max_ratios"]["ti_ollivier"]["skipped"]
    assert obj["transport"]["max_ratios"]["te"] <= 1.0 + 1e-9  # from K(inf) alone


def test_analyze_above_all_pairs_limit_on_geodesic_metric(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(curvature, "ALL_PAIRS_LIMIT", 4)  # 5 points; a budget of 6 pair LPs
    path = write_space(tmp_path, lazy_cycle(5, 0.5))  # the 5 edges give the exact kappa
    code, obj = run(capsys, ["analyze", path, "--trials", "5"])
    assert code == 0
    assert obj["curvature"]["kappa_global"] == pytest.approx(0.25, abs=1e-12)
    assert "kappa_upper_bound" not in obj["curvature"]
    assert obj["transport"]["max_ratios"]["ti_ollivier"] <= 1.0 + 1e-9


def test_analyze_two_block(tmp_path, capsys):
    path = write_space(tmp_path, two_block(0.1))
    code, obj = run(capsys, ["analyze", path, "--trials", "5"])
    assert code == 0
    assert obj["connectivity"]["m_connected"] is False
    assert obj["connectivity"]["blocks"] == 2
    assert obj["spectral"]["gap"] == 0.0
    # the verifiers surface the transport-information failure
    assert obj["transport"]["max_ratios"]["ti_be"] is None  # inf serialized as null
    assert isinstance(obj["transport"]["max_ratios"]["ti_ollivier"], dict)


def test_analyze_two_block_solves_no_lp(tmp_path, capsys, monkeypatch):
    # the explicit metric is a line, a tree metric, so every W1 of the
    # curvature and the verifiers has the tree closed form
    lps = []
    monkeypatch.setattr(transport, "linprog", lambda *a, real=transport.linprog: lps.append(1) or real(*a))
    code, _ = run(capsys, ["analyze", write_space(tmp_path, two_block(0.1))])
    assert code == 0
    assert not lps


def test_duplicate_labels_exit_1(tmp_path, capsys):
    obj = space_to_json(make_p3())
    obj["labels"] = ["a", "b", "a"]
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(obj))
    for cmd in ("validate", "analyze"):
        code, out = run(capsys, [cmd, str(bad)])
        assert (code, out) == (1, None)


def test_analyze_rejects_invalid_space(tmp_path, capsys):
    obj = space_to_json(make_p3())
    obj["measure"] = [1.0, 1.0, 1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, rep = run(capsys, ["analyze", str(bad)])
    assert code == 2
    assert "violations" in rep


def test_analyze_deterministic_bytes(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())
    main(["analyze", path, "--trials", "10"])
    first = capsys.readouterr().out
    main(["analyze", path, "--trials", "10"])
    second = capsys.readouterr().out
    assert first == second


def _analyze_inputs(tmp_path):
    """Paths of P3, K3, TwoBlock(0.1) and two random spaces, n = 24 sparse and
    n = 40 dense: the analyze spaces of the benchmark before relabelling."""
    spaces = [builders.fixture("P3"), builders.fixture("K3"), builders.fixture("TwoBlock(0.1)"),
              random_reversible_space(24, np.random.default_rng(0), density=0.2),
              random_reversible_space(40, np.random.default_rng(0), density=0.5)]
    return [write_space(tmp_path, sp, f"analyze{k}.json") for k, sp in enumerate(spaces)]


def _guard_runs(tmp_path):
    """analyze on the benchmark's analyze spaces, and on an n = 200 grid
    (594 edges with the tree closed form) validate, spectral, cheeger and the
    edge curvatures, then heat on it by each method (rk4 both stepped and
    powered)."""
    grid = write_space(tmp_path, grid_kernel_neumann([(0.0, 1.0)], h=1 / 199, radius=0.02), "grid.json")
    field = write_field(tmp_path, np.random.default_rng(5).random(200))
    runs = [["analyze", path] for path in _analyze_inputs(tmp_path)]
    runs += [["validate", grid], ["spectral", grid], ["cheeger", grid], ["curvature", grid, "--ollivier", "edges"]]
    runs += [["heat", grid, "--init", field, "--method", method, "--grid", grid_times]
             for method, grid_times in (("series", "0.5,8,760"), ("spectral", "0.5,8,760"), ("rk4", "0.01,4,32"))]
    return runs


def _stdout(capsys, runs):
    out = []
    for argv in runs:
        assert main(argv) == 0, argv
        out.append(capsys.readouterr().out)
    return out


def test_stacked_transport_prints_the_row_by_row_bytes(tmp_path, capsys, monkeypatch):
    # those runs print the same bytes with the stacked closed forms and
    # divergences as with the row-by-row forms
    runs = _guard_runs(tmp_path)
    shipped = _stdout(capsys, runs)
    monkeypatch.setattr(transport, "_routed", _oracles.routed)
    monkeypatch.setattr(transport, "_divergences", _oracles.divergences_rows)
    assert _stdout(capsys, runs) == shipped


def test_struct_reading_and_joined_rendering_print_the_numpy_bytes(tmp_path, capsys, monkeypatch):
    # and the same bytes with the inputs read by numpy's conversion of nested
    # lists and the output rendered one value at a time
    runs = _guard_runs(tmp_path)
    shipped = _stdout(capsys, runs)
    monkeypatch.setattr(core, "_float_array", _oracles.float_array_numpy)
    monkeypatch.setattr(cli, "_float_array", _oracles.float_array_numpy)
    monkeypatch.setattr(cli, "_dumps", _oracles.dumps_chain)
    assert _stdout(capsys, runs) == shipped


_leaves = st.one_of(
    st.floats(), st.integers(-2 ** 200, 2 ** 200), st.booleans(), st.none(), st.text(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, float("nan"), float("inf"), -float("inf")]),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.lists(st.floats(), max_size=6).map(np.array),
    st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3).map(np.array))


@settings(max_examples=300, deadline=None)
@given(doc=st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple), st.lists(st.floats(), max_size=8),
    st.dictionaries(st.text() | st.integers(-5, 5) | st.booleans(), inner, max_size=4)), max_leaves=30))
def test_joined_rendering_is_the_chain_renderers_bytes(doc):
    assert cli._dumps(doc) == _oracles.dumps_chain(doc)


def test_analyze_ratios_are_the_standalone_verifiers(tmp_path, capsys):
    # analyze runs the three kinds on one draw; each ratio is the one a
    # verifier called alone on a fresh space gives
    for path in _analyze_inputs(tmp_path):
        _, obj = run(capsys, ["analyze", path])
        for kind in transport.KINDS:
            try:
                alone = transport.verify_transport_inequality(
                    space_from_json(json.loads(Path(path).read_text())), kind, trials=50, rng=0)
                want = alone if np.isfinite(alone) else None
            except HypothesisError as e:
                want = {"skipped": str(e)}
            assert obj["transport"]["max_ratios"][kind] == want, (path, kind)


def _graph_inputs(tmp_path):
    """An edge list and a random space whose metric is graph_shortest_path."""
    edges = tmp_path / "edges.csv"
    edges.write_text("a,b,1\nb,c,2\nc,d,1\nd,a,0.5\nd,e,1\n")
    doc = space_to_json(random_reversible_space(12, np.random.default_rng(3), density=0.3))
    doc["metric"] = {"type": "graph_shortest_path"}
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(doc))
    return str(edges), str(graph)


def test_start_up_imports_no_scipy(tmp_path):
    # no command imports scipy, each in a fresh process: neither the import
    # alone, nor the commands on a grid with an explicit metric (the
    # curvature, whose W1 all have the tree closed form, and the commands
    # that read the invariant blocks), nor those that compute a graph metric
    path = write_space(tmp_path, grid_kernel_neumann([(0.0, 1.0)], h=0.05, radius=0.12))
    edges, graph = _graph_inputs(tmp_path)
    code = ("import sys, mrws.cli\n"
            "if sys.argv[1:]: assert mrws.cli.main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv in ([], ["curvature", path, "--be", "2,inf", "--ollivier", "edges"], ["spectral", path],
                 ["cheeger", path], ["connect", path], ["analyze", path, "--trials", "5"],
                 ["analyze", graph, "--trials", "5"], ["build", "graph", edges]):
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stderr.strip() == "[]", argv


def test_commands_run_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes every import of scipy raise ImportError
    edges, graph = _graph_inputs(tmp_path)
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import mrws.cli\n"
            "sys.exit(mrws.cli.main(sys.argv[1:]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv in (["build", "graph", edges], ["validate", graph], ["analyze", graph, "--trials", "5"]):
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, (argv, out.stderr)
        assert json.loads(out.stdout), argv


def test_unknown_flag_exits_64(capsys):
    assert main(["spectral", "x.json", "--bogus"]) == 64
    err = capsys.readouterr().err
    assert "usage" in err


def test_missing_file_is_structural(capsys):
    assert main(["spectral", "/nonexistent/space.json"]) == 1


def test_bad_json_is_structural(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text('{"version": 3}')
    assert main(["spectral", str(bad)]) == 1


def test_float_formatting_is_17_digits(tmp_path, capsys):
    path = write_space(tmp_path, make_p3())
    main(["spectral", path])
    out = capsys.readouterr().out
    assert "0.99999999999999978" in out or '"gap":1' in out


# ---------------------------------------------------------------------------
# reading input documents


def _same(a, b):
    """Equal objects whose floats are bit-equal (json's and orjson's floats
    compare equal across a sign of zero, and ints equal to floats)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


label_strategy = st.one_of(
    st.integers(-2 ** 80, 2 ** 80), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.lists(st.integers(-2 ** 80, 2 ** 80) | st.text(max_size=3), max_size=3))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(labels=st.lists(label_strategy, min_size=1, max_size=6), seed=st.integers(0, 2 ** 32 - 1),
       density=st.floats(0.1, 1.0), render=st.sampled_from([cli._dumps, json.dumps]))
def test_read_json_matches_json(tmp_path, labels, seed, density, render):
    sp = random_reversible_space(len(labels), np.random.default_rng(seed), density=density)
    doc = space_to_json(sp)
    doc["labels"] = labels
    path = tmp_path / "space.json"
    path.write_text(render(doc))
    obj, raw = cli._read_json(str(path))
    assert raw == path.read_bytes()
    assert _same(obj, json.loads(raw.decode()))


@pytest.mark.parametrize("labels", [[2 ** 70, 2 ** 70 + 1, 2 ** 70 + 2], [[1, 2 ** 70], [1, 2 ** 70 + 1], "c"]])
def test_labels_wider_than_64_bits_stay_exact(tmp_path, capsys, labels):
    # orjson would read each wide integer as the float 1.1805916207174113e+21,
    # which makes the three labels equal and the space invalid
    obj = space_to_json(make_p3())
    obj["labels"] = labels
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(obj))
    assert cli._read_json(str(path))[0]["labels"] == labels
    code, rep = run(capsys, ["validate", str(path)])
    assert code == 0 and rep["ok"]
    if not isinstance(labels[0], list):  # the label names the point at position 1
        assert run(capsys, ["connect", str(path), "--set", str(2 ** 70 + 1)]) == \
            run(capsys, ["connect", str(path), "--set", "1"])


def _json_only(monkeypatch):
    """Make the CLI read every document with json alone."""
    def refuse(raw):
        raise orjson.JSONDecodeError("refused", "", 0)

    monkeypatch.setattr(cli, "orjson", SimpleNamespace(loads=refuse, JSONDecodeError=orjson.JSONDecodeError))


def _p3_text(**changes):
    obj = space_to_json(make_p3())
    obj["labels"] = ["a", "b", "c"]
    obj.update(changes)
    return json.dumps(obj)


EDGE_SPACES = {
    "nan": _p3_text(measure=[float("nan"), 2.0, 1.0]).encode(),
    "-infinity": _p3_text(measure=[-np.inf, 2.0, 1.0]).encode(),
    "1e400": _p3_text().replace('"measure": [1.0', '"measure": [1e400').encode(),
    "bom": b"\xef\xbb\xbf" + _p3_text().encode(),
    "invalid utf-8": _p3_text().encode().replace(b'"a"', b'"\xff"'),
    "lone surrogate": _p3_text().replace('"a"', '"\\ud800"').encode(),
    "duplicate keys": ('{"measure": [9.0, 9.0, 9.0], ' + _p3_text()[1:]).encode(),
    "trailing garbage": (_p3_text() + " x").encode(),
}

EDGE_FIELDS = {
    "nan": b'{"values": [NaN, 0.0, 0.0]}',
    "1e400": b'{"values": [1e400, 0.0, 0.0]}',
    "bom": b'\xef\xbb\xbf{"values": [1.0, 0.0, 0.0]}',
    "duplicate keys": b'{"values": [9.0], "values": [1.0, 0.0, 0.0]}',
    "trailing garbage": b'{"values": [1.0, 0.0, 0.0]} x',
}


def _outcome(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(EDGE_SPACES))
def test_edge_space_documents_read_as_json_reads_them(tmp_path, capsys, monkeypatch, name):
    path = tmp_path / "space.json"
    path.write_bytes(EDGE_SPACES[name])
    got = _outcome(capsys, ["validate", str(path)])
    _json_only(monkeypatch)
    assert got == _outcome(capsys, ["validate", str(path)])
    # the readable ones parse, and the non-finite measures are flagged by validation
    assert got[0] == {"nan": 2, "-infinity": 2, "1e400": 2, "duplicate keys": 0, "lone surrogate": 0}.get(name, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("inequality", sorted(transport.KINDS))
@pytest.mark.parametrize("value", [float("nan"), np.inf])
def test_verify_refuses_a_non_finite_measure(tmp_path, capsys, inequality, value):
    # the normalized measure is NaN at a point, so no density has a finite
    # ratio; verify refuses it instead of reporting that the inequality fails
    # (te) or holds with ratio 0 (ti_be), and analyze still fails validation.
    # Normalizing an infinite measure warns of nothing: the refusal is all
    path = tmp_path / "space.json"
    path.write_text(_p3_text(measure=[value, 2.0, 1.0]))
    code, out, err = _outcome(capsys, ["verify", str(path), "--inequality", inequality, "--trials", "5"])
    assert (code, out) == (1, "")
    assert err == "mrws: error: the transport inequalities need a finite normalized measure\n"
    assert _outcome(capsys, ["analyze", str(path)])[0] == 2


@pytest.mark.parametrize("name", sorted(EDGE_FIELDS))
def test_edge_field_documents_read_as_json_reads_them(tmp_path, capsys, monkeypatch, name):
    space = write_space(tmp_path, make_p3())
    field = tmp_path / "field.json"
    field.write_bytes(EDGE_FIELDS[name])
    argv = ["heat", space, "--init", str(field), "--t", "0.5"]
    got = _outcome(capsys, argv)
    _json_only(monkeypatch)
    assert got == _outcome(capsys, argv)
    assert got[0] == (0 if name == "duplicate keys" else 1)


MALFORMED = ("null", "numeric string", "nested list", "ragged row", "[]", "10**400")


def _malformed(rows, name):
    """A copy of rows, a list of numbers or of rows of them, with one entry
    malformed as name says: a 1-D list becomes ragged as two rows."""
    if name == "[]":
        return []
    rows = json.loads(json.dumps(rows))
    row = rows[-1] if isinstance(rows[-1], list) else rows
    if name == "ragged row":
        return rows[:-1] + [row[:-1]] if row is not rows else [rows, rows[:-1]]
    row[-1] = {"null": None, "numeric string": "1.0", "nested list": [row[-1]], "10**400": 10 ** 400}[name]
    return rows


def _refusal(field):
    return f"mrws: structural error: {field} must be a non-empty list of numbers, or of equal-length lists of numbers\n"


@pytest.mark.parametrize("name", MALFORMED)
@pytest.mark.parametrize("field", ["kernel", "metric.matrix", "measure"])
def test_malformed_space_entries_are_structural(tmp_path, capsys, field, name):
    # each used to read as NaN, as a number or as an uncaught OverflowError, or
    # to fail later under another message; 10**400 is refused by orjson and read
    # by json as an integer
    obj = space_to_json(make_p3())
    spec = obj["metric"] if field == "metric.matrix" else obj
    key = field.split(".")[-1]
    spec[key] = _malformed(spec[key], name)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(obj))
    field_path = write_field(tmp_path, [1.0, 0.0, 0.0])
    for argv in (["validate", str(path)], ["heat", str(path), "--init", field_path]):
        assert _outcome(capsys, argv) == (1, "", _refusal(field)), argv


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_field_entries_are_structural(tmp_path, capsys, name):
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"values": _malformed([1.0, 0.0, 0.0], name)}))
    argv = ["heat", write_space(tmp_path, make_p3()), "--init", str(field), "--t", "0.5"]
    assert _outcome(capsys, argv) == (1, "", _refusal("values"))
