import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogfed.cli import (
    CSV_HEADER,
    DEGREE_GRIDS,
    SUITES,
    Scenario,
    _build_context,
    _cell_config,
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


def test_scenario_flat_config_keys():
    s = scenario_from_config(
        {
            "name": "custom",
            "width": 2,
            "height": 2,
            "bandwidth_mbps": 500.0,
            "hop_mean_ms": 10.0,
            "hop_std_ms": 2.0,
            "seed": 77,
            "bin_width_ms": 2.0,
            "reference_mips": 1000.0,
        }
    )
    assert (s.width, s.height) == (2, 2)
    assert s.bandwidth_mbps == 500.0
    assert s.hop_mean_ms == 10.0
    assert s.hop_std_ms == 2.0
    assert s.seed == 77
    assert s.bin_width_ms == 2.0
    assert s.reference_mips == 1000.0


def test_scenario_rejects_unknown_fields_and_suites():
    with pytest.raises(ValueError, match="unknown config fields"):
        scenario_from_config({"name": "x", "armada": 9})
    with pytest.raises(ValueError, match="unknown suite"):
        scenario_from_config({"suite": "fig99"})
    with pytest.raises(ValueError, match="name"):
        scenario_from_config({"loads": [10]})


def test_config_keys_are_suite_and_the_scenario_fields():
    default = Scenario(name="x")
    doc = json.loads(json.dumps(default.__dict__))
    assert set(doc) == set(Scenario.__dataclass_fields__)
    assert "compare" not in doc and "seed" in doc
    assert scenario_from_config(doc) == default
    assert scenario_from_config({**doc, "suite": "fig8_mixed"}) == default


@pytest.mark.parametrize(
    "key, value",
    [
        ("compare", "alloc"),
        ("grid", {"width": 3, "height": 3}),
        ("link", {"bandwidth_mbps": 300.0, "hop_mean_ms": 20.0,
                  "hop_std_ms": 5.0}),
        ("master_seed", 2),
    ],
    ids=["compare", "grid", "link", "master_seed"],
)
def test_removed_config_keys_are_one_line_errors(
    tmp_path, capsys, key, value
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config(**{key: value})))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: unknown config fields: ['{key}']\n"
    assert not out.exists()


def test_readme_json_configs_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) >= 2
    for block in blocks:
        assert isinstance(scenario_from_config(json.loads(block)), Scenario)


# suite label -> (PartitionConfig.method, alloc_method): partitioning
# suites allocate with mr, allocation suites run on propart plans
_PARTITION_LABELS = {
    "none": ("no_partition", "mr"),
    "mincut": ("min_cut", "mr"),
    "leastdata": ("least_data", "mr"),
    "propart": ("propart", "mr"),
}
_ALLOC_LABELS = {m: ("propart", m) for m in ("mr", "mect", "mcc", "nofed")}
_SUITE_LABELS = {
    "fig5_partitioning": _PARTITION_LABELS,
    "fig9_makespan_workflows": _PARTITION_LABELS,
    "fig6_alloc_workflows": _ALLOC_LABELS,
    "fig7_alloc_monolithic": _ALLOC_LABELS,
    "fig10_makespan_monolithic": _ALLOC_LABELS,
    "fig8_mixed": _ALLOC_LABELS,
    "fig11_scaling_workflows": {"mr": _ALLOC_LABELS["mr"]},
    "fig12_scaling_monolithic": {
        m: _ALLOC_LABELS[m] for m in ("mr", "mect", "mcc")
    },
}


@pytest.mark.parametrize("suite", sorted(_SUITE_LABELS))
def test_suite_labels_run_their_partitioner_and_allocator(suite):
    s = scenario_from_config({"suite": suite})
    expected = _SUITE_LABELS[suite]
    assert set(s.methods) == set(expected)
    ctx = _build_context(s, s.degrees[0] if s.degrees else None)
    for method in s.methods:
        cfg = _cell_config(s, ctx, method, s.loads[0])
        assert (cfg.partition_cfg.method, cfg.alloc_method) == expected[method]


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="x", repetitions=0)
    with pytest.raises(ValueError):
        Scenario(name="x", loads=())
    with pytest.raises(ValueError):
        Scenario(name="x", methods=("magic",))
    with pytest.raises(ValueError):
        Scenario(name="x", degrees=(5,))
    with pytest.raises(ValueError):
        Scenario(name="x", mix=1.2)


def test_scenario_validation_rejects_bad_types_and_ranges():
    with pytest.raises(ValueError, match="loads must be a list"):
        scenario_from_config(tiny_config(loads="4"))
    with pytest.raises(ValueError, match="ci_level"):
        scenario_from_config(tiny_config(ci_level=1.5))
    with pytest.raises(ValueError, match="repetitions"):
        scenario_from_config(tiny_config(repetitions=True))
    with pytest.raises(ValueError, match="window_ms"):
        scenario_from_config(tiny_config(window_ms=float("inf")))
    with pytest.raises(ValueError, match="origin_mips"):
        scenario_from_config(tiny_config(origin_mips=900.0))
    with pytest.raises(ValueError, match="neighbor_mips"):
        scenario_from_config(tiny_config(neighbor_mips=2000.0))
    with pytest.raises(ValueError, match="neighbor_mips"):
        scenario_from_config(tiny_config(neighbor_mips="2400"))
    with pytest.raises(ValueError, match="width"):
        scenario_from_config({"name": "x", "width": 0})
    with pytest.raises(ValueError, match="seed"):
        scenario_from_config(tiny_config(seed="7"))
    with pytest.raises(ValueError, match="degrees"):
        scenario_from_config(tiny_config(degrees=[[1]]))


@pytest.mark.parametrize(
    "grid,degrees,accepted",
    [
        # one neighbour at most: only the unstaggered pin applies
        ({"width": 2, "height": 1}, None, True),
        # two neighbours at most: 2460 and 1910
        ({"width": 3, "height": 1}, None, True),
        # a slowest fog in the middle gets 2460 + 50
        ({"width": 3, "height": 3}, None, False),
        ({"width": 3, "height": 3}, [1, 2], True),
        ({"width": 3, "height": 3}, [1, 3], False),
    ],
)
def test_neighbor_mips_checks_only_the_pins_that_can_apply(
    grid, degrees, accepted
):
    doc = tiny_config(neighbor_mips=2460.0, **grid)
    if degrees is not None:
        doc["degrees"] = degrees
    if accepted:
        assert scenario_from_config(doc).neighbor_mips == 2460.0
    else:
        with pytest.raises(ValueError, match="neighbor_mips"):
            scenario_from_config(doc)


# the removed spellings stay in the key set: they must fail cleanly
_CONFIG_KEYS = sorted(
    {"suite", "compare", "grid", "link", "master_seed", "junk"}
    | {f for f in Scenario.__dataclass_fields__}
)
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(sorted(SUITES) + ["mr", "propart", "alloc"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["width", "height", "bandwidth_mbps",
                         "hop_mean_ms", "hop_std_ms"]),
        inner,
        max_size=5,
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_CONFIG_KEYS), _json_values))
def test_scenario_from_config_returns_scenario_or_value_error(doc):
    try:
        scenario = scenario_from_config(doc)
    except ValueError:
        return
    assert isinstance(scenario, Scenario)


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
    bumped = Scenario(name="fig11", seed=99,
                      **SUITES["fig11_scaling_workflows"])
    assert run_seed(s2, "mr", 100, 1, 0) != run_seed(bumped, "mr", 100, 1, 0)


def test_integer_mix_gets_the_float_mix_seed(tmp_path):
    as_int = scenario_from_config(
        {"suite": "fig7_alloc_monolithic", "mix": 1}
    )
    as_float = scenario_from_config(
        {"suite": "fig7_alloc_monolithic", "mix": 1.0}
    )
    assert as_int == as_float
    assert run_seed(as_int, "mr", 400, 0, 0) == run_seed(
        as_float, "mr", 400, 0, 0
    )
    outs = []
    for mix in (1, 1.0):
        cfg = tmp_path / f"cfg_{mix!r}.json"
        cfg.write_text(
            json.dumps(
                tiny_config(
                    suite="fig7_alloc_monolithic", mix=mix, methods=["mr"]
                )
            )
        )
        out = tmp_path / f"out_{mix!r}.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize(
    "override", [{"loads": "4"}, {"ci_level": 1.5}], ids=["loads", "ci_level"]
)
def test_simulate_bad_field_is_one_line_config_error(
    tmp_path, capsys, override
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config(**override)))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_rejects_negative_parallel(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config()))
    out = tmp_path / "out.csv"
    args = ["simulate", "--config", str(cfg), "--out", str(out)]
    assert main(args + ["--parallel", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --parallel must be >= 0, got -1\n"
    assert not out.exists()


def test_simulate_parallel_zero_means_core_count(tmp_path, monkeypatch):
    import fogfed.cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config(methods=["mr"], repetitions=1)))
    out = tmp_path / "out.csv"
    seen = []
    original = fogfed.cli.iter_sweep

    def spy(scenario, parallel, trace):
        seen.append(parallel)
        return original(scenario, 1, trace)

    monkeypatch.setattr(fogfed.cli, "iter_sweep", spy)
    monkeypatch.setattr(fogfed.cli.os, "cpu_count", lambda: 3)
    args = ["simulate", "--config", str(cfg), "--out", str(out)]
    assert main(args) == 0
    assert main(args + ["--parallel", "2"]) == 0
    assert seen == [3, 2]


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


@pytest.mark.parametrize("parallel", [1, 2])
def test_simulate_trace_equals_run_sweep_records(tmp_path, parallel):
    doc = tiny_config(methods=["mr", "mect"], repetitions=3, loads=[4, 6])
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps(doc))
    args = ["simulate", "--config", str(cfg), "--out", str(out), "--trace"]
    assert main(args + ["--parallel", str(parallel)]) == 0
    _, records = run_sweep(scenario_from_config(doc), parallel=1, trace=True)
    assert records
    lines = (tmp_path / "out.csv.trace.jsonl").read_text().splitlines()
    assert lines == [json.dumps(rec, sort_keys=True) for rec in records]


# (load, CSV sha256, --trace sha256) of one repetition at seed 1234: fig11
# runs mr at degrees 1-4, fig6 all four allocators on workflows, and fig7
# all four on monolithic requests at a load where mr sends some remote.
# Common random numbers (ROADMAP item 3) will move every one of them.
_PINNED_SHA256 = {
    "fig11_scaling_workflows": (
        8,
        "c6155fcb6939b6bce793fd337e4498955c2f55f17900b3103bc7091045c9f78d",
        "0e26a7c09c25a016c4837954e2736b2703425b6f0f7c6d1b4d173fad635a5e03",
    ),
    "fig6_alloc_workflows": (
        8,
        "31062aedfa9adf22f852bb946ddb0c53d9e40e4c8ec512ecf1bf7e7123ceae11",
        "653c35b631c2ed481afdb86d0ae37655d97e57f3950cc0498b19bcfd36009438",
    ),
    "fig7_alloc_monolithic": (
        40,
        "6bbf51cdf3ae4f000d570c87cda4432badd3999f051dc32491060a7cce5a035e",
        "09cb9c2527494620d7aa8afc6f19d0861dbb41b8cc5f41ce8cbf05aa8aa06fc7",
    ),
}


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("suite", sorted(_PINNED_SHA256))
def test_simulate_trace_bytes_are_pinned(tmp_path, suite, parallel):
    load, csv_sha, trace_sha = _PINNED_SHA256[suite]
    doc = {"suite": suite, "loads": [load], "repetitions": 1, "seed": 1234}
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps(doc))
    args = ["simulate", "--config", str(cfg), "--out", str(out), "--trace"]
    assert main(args + ["--parallel", str(parallel)]) == 0
    trace = (tmp_path / "out.csv.trace.jsonl").read_bytes()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(trace).hexdigest() == trace_sha


def _count_runs(monkeypatch):
    import fogfed.cli

    runs = []
    original = fogfed.cli.run

    def counting(*args, **kwargs):
        runs.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fogfed.cli, "run", counting)
    return runs


@pytest.mark.parametrize("broken", ["out_dir_missing", "trace_is_a_dir"])
def test_simulate_unwritable_output_fails_before_any_run(
    tmp_path, capsys, monkeypatch, broken
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_config()))
    if broken == "out_dir_missing":
        out = tmp_path / "missing" / "out.csv"
    else:
        out = tmp_path / "out.csv"
        (tmp_path / "out.csv.trace.jsonl").mkdir()
    runs = _count_runs(monkeypatch)
    args = ["simulate", "--config", str(cfg), "--out", str(out), "--trace"]
    assert main(args + ["--parallel", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert runs == []


def test_report_unwritable_out_fails_before_printing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps(tiny_config()))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    agg = tmp_path / "missing" / "agg.csv"
    assert main(["report", "--in", str(out), "--out", str(agg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_shared_binning_memo_gives_fresh_contexts(monkeypatch):
    import fogfed.federation

    binned_specs = []
    original = fogfed.federation.pmfs_from_normal

    def counting(specs, bin_width):
        binned_specs.extend(specs)
        return original(specs, bin_width)

    s = scenario_from_config({"suite": "fig11_scaling_workflows"})
    fresh = [_build_context(s, d) for d in s.degrees]
    monkeypatch.setattr(fogfed.federation, "pmfs_from_normal", counting)
    memo: dict = {}
    shared = [_build_context(s, d, memo) for d in s.degrees]
    distinct = {
        (spec, s.bin_width_ms)
        for ctx in fresh
        for spec in ctx.etc.specs.values()
    }
    assert set(memo) == distinct
    # each distinct normal binned once, though the contexts repeat many
    assert len(binned_specs) == len(distinct)
    assert len(distinct) < sum(len(ctx.etc.entries) for ctx in fresh)
    for a, b in zip(shared, fresh):
        assert a.etc.specs == b.etc.specs
        assert list(a.etc.entries) == list(b.etc.entries)
        for key, pmf in a.etc.entries.items():
            want = b.etc.entries[key]
            assert (pmf.bin_width, pmf.origin) == (want.bin_width, want.origin)
            assert np.array_equal(pmf.mass, want.mass)


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


@pytest.mark.parametrize(
    "alias, target",
    [
        ("fig9_makespan_workflows", "fig5_partitioning"),
        ("fig10_makespan_monolithic", "fig7_alloc_monolithic"),
    ],
)
def test_alias_suite_writes_its_targets_csv(tmp_path, alias, target):
    csvs = []
    for suite in (alias, target):
        cfg = tmp_path / f"{suite}.json"
        cfg.write_text(json.dumps({
            "suite": suite, "repetitions": 1, "loads": [4],
            "window_ms": 300.0,
        }))
        out = tmp_path / f"{suite}.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--parallel", "1"]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    assert f"\n{target},".encode() in csvs[0]


@pytest.mark.parametrize(
    "doc, builds",
    [
        # two partition configs (none, propart) x four workflow shapes
        ({"suite": "fig5_partitioning", "methods": ["none", "propart"]}, 8),
        # mr and mect share the propart config: four monolithic shapes
        ({"suite": "fig7_alloc_monolithic", "methods": ["mr", "mect"]}, 4),
    ],
    ids=["fig5", "fig7"],
)
def test_plans_are_built_once_per_context(monkeypatch, doc, builds):
    import fogfed.sim

    calls = []
    original = fogfed.sim.build_plan

    def counting(cfg, w, **kw):
        calls.append((cfg, w))
        return original(cfg, w, **kw)

    monkeypatch.setattr(fogfed.sim, "build_plan", counting)
    scenario = scenario_from_config(
        {**doc, "repetitions": 2, "loads": [4], "window_ms": 300.0}
    )
    reports, _ = run_sweep(scenario, parallel=1)
    assert len(reports) == 4
    assert len(calls) == builds
    assert len({(cfg, id(w)) for cfg, w in calls}) == builds


def test_suites_listing_stable(capsys):
    assert main(["suites"]) == 0
    first = capsys.readouterr().out
    assert main(["suites"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for name in SUITES:
        assert name in first
    assert "fig9_makespan_workflows: alias of fig5_partitioning" in first
    assert "fig10_makespan_monolithic: alias of fig7_alloc_monolithic" in first
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


def test_cli_import_needs_only_numpy():
    # one fresh interpreter per module imported first, so an import cycle
    # (partition imports alloc) fails whichever side comes first; the
    # process pool is imported only by a --parallel sweep
    for first in ("dist", "federation", "model", "partition", "alloc",
                  "sim", "cli"):
        code = (
            f"import fogfed.{first}, fogfed.cli, sys; "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'networkx', 'concurrent', 'multiprocessing'}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, (first, out.stderr)
        assert out.stdout == "[]\n", first


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
