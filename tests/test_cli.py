import json
import subprocess
import sys

import pytest

from fogfed.cli import (
    CSV_HEADER,
    DEGREE_GRIDS,
    SUITES,
    Scenario,
    main,
    method_deltas,
    read_csv,
    run_seed,
    run_sweep,
    scenario_from_config,
    sweep_tasks,
    write_csv,
)


def tiny_config(**overrides):
    doc = {
        "suite": "fig6_alloc_workflows",
        "repetitions": 2,
        "loads": [4],
        "methods": ["mr", "mect"],
        "window_ms": 300.0,
    }
    doc.update(overrides)
    return doc


# ----------------------------------------------------------------- scenario


def test_all_eight_suites_defined():
    expected = {
        "fig5_partitioning",
        "fig6_alloc_workflows",
        "fig7_alloc_monolithic",
        "fig8_mixed",
        "fig9_makespan_workflows",
        "fig10_makespan_monolithic",
        "fig11_scaling_workflows",
        "fig12_scaling_monolithic",
    }
    assert set(SUITES) == expected


def test_suite_axis_constants():
    fig7 = Scenario(name="fig7", **SUITES["fig7_alloc_monolithic"])
    assert fig7.loads == (400, 600, 800, 1000)
    assert fig7.mix == 1.0
    fig11 = Scenario(name="fig11", **SUITES["fig11_scaling_workflows"])
    assert fig11.degrees == (1, 2, 3, 4)
    fig5 = Scenario(name="fig5", **SUITES["fig5_partitioning"])
    assert fig5.methods == ("none", "mincut", "leastdata", "propart")
    assert fig5.loads == (100, 200, 300, 400)
    fig12 = Scenario(name="fig12", **SUITES["fig12_scaling_monolithic"])
    assert fig12.loads == (1000,)
    assert fig12.methods == ("mr", "mect", "mcc")


def test_degree_grid_shapes_give_declared_degrees():
    from fogfed.federation import build_grid

    for degree, (w, h, origin) in DEGREE_GRIDS.items():
        topo = build_grid(w, h, 1, node_count=1)
        assert topo.degree(origin) == degree


def test_scenario_from_suite_with_overrides():
    s = scenario_from_config(tiny_config())
    assert s.name == "fig6_alloc_workflows"
    assert s.repetitions == 2
    assert s.loads == (4,)
    assert s.methods == ("mr", "mect")
    assert s.window_ms == 300.0
    # untouched preset values survive
    assert s.epsilon_ms == 15.0


def test_scenario_nested_config_keys():
    s = scenario_from_config(
        {
            "name": "custom",
            "grid": {"width": 2, "height": 2},
            "link": {
                "bandwidth_mbps": 500.0,
                "hop_mean_ms": 10.0,
                "hop_std_ms": 2.0,
            },
            "seed": 77,
            "bin_width_ms": 2.0,
            "reference_mips": 1000.0,
        }
    )
    assert (s.width, s.height) == (2, 2)
    assert s.bandwidth_mbps == 500.0
    assert s.hop_mean_ms == 10.0
    assert s.master_seed == 77
    assert s.bin_width_ms == 2.0
    assert s.reference_mips == 1000.0


def test_scenario_rejects_unknown_fields_and_suites():
    with pytest.raises(ValueError, match="unknown config fields"):
        scenario_from_config({"name": "x", "armada": 9})
    with pytest.raises(ValueError, match="unknown suite"):
        scenario_from_config({"suite": "fig99"})
    with pytest.raises(ValueError, match="name"):
        scenario_from_config({"loads": [10]})


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="x", repetitions=0)
    with pytest.raises(ValueError):
        Scenario(name="x", loads=())
    with pytest.raises(ValueError):
        Scenario(name="x", compare="partition", methods=("mr",))
    with pytest.raises(ValueError):
        Scenario(name="x", degrees=(5,))
    with pytest.raises(ValueError):
        Scenario(name="x", mix=1.2)


def test_fig5_cell_arithmetic():
    s = Scenario(name="fig5", **SUITES["fig5_partitioning"])
    assert len(sweep_tasks(s)) == 4 * 4 * 30


def test_run_seeds_injective_over_sweep():
    s = Scenario(name="fig11", **SUITES["fig11_scaling_workflows"])
    seeds = {
        run_seed(s, m, l, d or 0, r)
        for (m, l, d, r) in sweep_tasks(s)
    }
    assert len(seeds) == len(sweep_tasks(s))
    # and master seed shifts them
    s2 = Scenario(
        name="fig11", **{**SUITES["fig11_scaling_workflows"]}
    )
    bumped = Scenario(name="fig11", master_seed=99,
                      **SUITES["fig11_scaling_workflows"])
    assert run_seed(s2, "mr", 100, 1, 0) != run_seed(bumped, "mr", 100, 1, 0)


# -------------------------------------------------------------------- sweep


def test_sweep_order_is_method_load_degree_rep():
    s = scenario_from_config(
        tiny_config(loads=[4, 8], methods=["mr", "mect"], repetitions=2)
    )
    tasks = sweep_tasks(s)
    assert tasks[:4] == [
        ("mr", 4, None, 0),
        ("mr", 4, None, 1),
        ("mr", 8, None, 0),
        ("mr", 8, None, 1),
    ]
    assert tasks[4][0] == "mect"


def test_parallel_sweep_matches_serial():
    s = scenario_from_config(tiny_config())
    serial, _ = run_sweep(s, parallel=1)
    parallel, _ = run_sweep(s, parallel=2)
    assert [r.__dict__ for r in serial] == [r.__dict__ for r in parallel]


# ----------------------------------------------------------------- commands


def test_simulate_writes_expected_rows(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps(tiny_config(methods=["mr"], repetitions=2)))
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 2  # header + repetitions rows


def test_simulate_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config()))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_bad_config_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "fig5_partitioning", "oops": 1}))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_simulate_rejects_non_integer_parallel_env(
    tmp_path, capsys, monkeypatch
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config()))
    out = tmp_path / "out.csv"
    monkeypatch.setenv("FOGFED_PARALLEL", "abc")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: FOGFED_PARALLEL must be an integer, got 'abc'\n"
    assert not out.exists()


def test_simulate_trace_writes_jsonl(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(
        json.dumps(tiny_config(methods=["mr"], repetitions=1, loads=[4]))
    )
    code = main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--trace"]
    )
    assert code == 0
    trace = tmp_path / "out.csv.trace.jsonl"
    assert trace.exists()
    records = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(records) >= 4
    for rec in records:
        assert rec["run_method"] == "mr"
        assert "chosen" in rec and "reason" in rec


def test_report_round_trip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps(tiny_config()))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    agg = tmp_path / "agg.csv"
    code = main(["report", "--in", str(out), "--out", str(agg)])
    assert code == 0
    text = capsys.readouterr().out
    assert "mr-mect" in text  # pairwise delta, anchored on mr
    header = agg.read_text().splitlines()[0]
    assert header.startswith("scenario,method,requests")


def test_report_rejects_single_run_cells(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps(tiny_config(repetitions=1, methods=["mr"])))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["report", "--in", str(out)]) == 2
    assert "need at least 2" in capsys.readouterr().err


def test_read_csv_rejects_bad_header_and_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,really\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(str(bad))
    bad.write_text(
        ",".join(CSV_HEADER) + "\n" + "s,m,ten,0,2,1,0.5,100.0\n"
    )
    with pytest.raises(ValueError, match="row 2"):
        read_csv(str(bad))


def test_csv_write_read_round_trip(tmp_path):
    s = scenario_from_config(tiny_config(methods=["mr"], repetitions=2))
    reports, _ = run_sweep(s, parallel=1)
    path = tmp_path / "rt.csv"
    write_csv(str(path), reports)
    back = read_csv(str(path))
    assert [r.seed for r in back] == [r.seed for r in reports]
    assert [r.meet_rate for r in back] == pytest.approx(
        [round(r.meet_rate, 6) for r in reports]
    )


def test_suites_listing_stable(capsys):
    assert main(["suites"]) == 0
    first = capsys.readouterr().out
    assert main(["suites"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for name in SUITES:
        assert name in first
    assert "degrees=1,2,3,4" in first
    assert "loads=400,600,800,1000" in first


def test_console_entry_point_installed():
    out = subprocess.run(
        [sys.executable, "-m", "fogfed.cli", "suites"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "fig5_partitioning" in out.stdout


# ------------------------------------------------------------------- deltas


def _row(method, meet, **kw):
    base = dict(
        scenario="s",
        requests=10,
        mix=0.0,
        degree=2,
        n=2,
        meet_rate_mean=meet,
        meet_rate_ci=0.0,
        makespan_mean=100.0,
        makespan_ci=0.0,
    )
    base["method"] = method
    base.update(kw)
    return base


def test_method_deltas_anchor_on_mr():
    rows = [_row("mr", 0.9), _row("mect", 0.7), _row("mcc", 0.6)]
    deltas = method_deltas(rows)
    pairs = {d["pair"]: d["meet_rate_delta"] for d in deltas}
    assert pairs == {
        "mr-mect": pytest.approx(0.2),
        "mr-mcc": pytest.approx(0.3),
    }


def test_method_deltas_alphabetical_without_mr():
    rows = [_row("none", 0.5), _row("propart", 0.8)]
    deltas = method_deltas(rows)
    assert [d["pair"] for d in deltas] == ["none-propart"]
    assert deltas[0]["meet_rate_delta"] == pytest.approx(-0.3)
