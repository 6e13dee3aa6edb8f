import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogfed.alloc import REASONS, AllocationDecision, CandidateRecord
from fogfed.cli import DEGREE_GRIDS
from fogfed.dist import CiInterval, NormalSpec
from fogfed.federation import (
    LinkProfile,
    build_etc,
    build_ett,
    build_grid,
    hop_distance,
    mean_exec_profile,
)
from fogfed.model import (
    DeadlinePolicy,
    MicroServiceSpec,
    Request,
    WorkflowSpec,
    assign_deadlines,
    builtin_app,
    incoming_data_mb,
    service_slacks,
    to_monolithic,
)
from fogfed.partition import (
    PartitionConfig,
    baseline_mincut,
    no_partition,
)
from fogfed.sim import (
    ALLOC_METHODS,
    Context,
    RunConfig,
    SimReport,
    WorkloadSpec,
    _decision_line,
    _trace_stamp,
    aggregate,
    generate_workload,
    partition_deadlines,
    run,
    simulate_requests,
)


def unit_app(mean_mi=200.0, std_mi=0.0, name="unit"):
    v = MicroServiceSpec(
        f"{name}.stage", "stage", name, NormalSpec(mean_mi, std_mi), 0.1
    )
    return WorkflowSpec(name, (v,), (), input_mb=0.5)


def build_context(
    width,
    height,
    templates,
    *,
    node_count=8,
    fixed_mips=None,
    grid_seed=7,
    bandwidth=800.0,
    hop_std=0.0,
):
    topo = build_grid(
        width, height, grid_seed, node_count=node_count, fixed_mips=fixed_mips
    )
    profiles = {}
    data = {}
    for t in templates:
        for shape in (t, to_monolithic(t)):
            for v in shape.vertices:
                profiles[v.id] = v.work
            data.update(incoming_data_mb(shape))
    etc = build_etc(topo, profiles)
    link = LinkProfile(bandwidth, NormalSpec(20.0, hop_std))
    ett = build_ett(topo, link, data)
    return topo, etc, ett


def make_cfg(
    templates,
    *,
    width=1,
    height=1,
    node_count=8,
    fixed_mips=None,
    grid_seed=7,
    hop_std=0.0,
    total=1,
    mix=0.0,
    window=1000.0,
    alloc="mect",
    partition_method="no_partition",
    alpha=0.5,
    origin=0,
    policy=None,
    scenario="test",
    method="m",
):
    topo, etc, ett = build_context(
        width,
        height,
        templates,
        node_count=node_count,
        fixed_mips=fixed_mips,
        grid_seed=grid_seed,
        hop_std=hop_std,
    )
    ctx = Context(
        topo, etc, ett, tuple(templates), policy or DeadlinePolicy(), origin
    )
    return RunConfig(
        scenario=scenario,
        method=method,
        ctx=ctx,
        workload=WorkloadSpec(total, mix, window),
        partition_cfg=PartitionConfig(alpha=alpha, method=partition_method),
        alloc_method=alloc,
    )


# ------------------------------------------------------------- construction


def test_workload_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        WorkloadSpec(0)
    with pytest.raises(ValueError):
        WorkloadSpec(10, mix=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(10, window_ms=0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: WorkloadSpec(10, window_ms=math.nan),
        lambda: WorkloadSpec(10, window_ms=-1.0),
        lambda: WorkloadSpec(10, mix=math.nan),
        lambda: _report(makespan=math.nan),
        lambda: _report(makespan=-1.0),
        lambda: _report(meet=math.nan),
        lambda: _report(makespan=math.inf),
        lambda: _report(requests=0),
        lambda: _report(requests=-5),
        lambda: _report(mix=math.nan),
        lambda: _report(mix=-0.5),
        lambda: _report(mix=1.5),
        lambda: _report(degree=-3),
        lambda: _report(seed=-1),
    ],
    ids=[
        "window-nan",
        "window-negative",
        "mix-nan",
        "makespan-nan",
        "makespan-negative",
        "meet-rate-nan",
        "report-makespan-inf",
        "report-requests-zero",
        "report-requests-negative",
        "report-mix-nan",
        "report-mix-negative",
        "report-mix-above-one",
        "report-degree-negative",
        "report-seed-negative",
    ],
)
def test_nan_or_negative_values_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_run_config_rejects_unknown_allocator():
    with pytest.raises(ValueError):
        make_cfg([unit_app()], alloc="greedy")


@pytest.mark.parametrize("alloc", ALLOC_METHODS)
def test_run_config_rejects_a_ci_level_outside_zero_one(alloc):
    # refused where the config is built: unchecked, 1.5 lets mect run to
    # the end while mr fails at its first decision, mid-run
    cfg = make_cfg([unit_app()], alloc=alloc)
    assert run(cfg, seed=1).requests == 1
    for level in (1.5, 1.0, 0.0, -0.5, math.nan, math.inf):
        with pytest.raises(
            ValueError, match=r"^ci_level must lie in \(0, 1\), got "
        ):
            dataclasses.replace(cfg, ci_level=level)


def _readme_config(mix):
    """README's by-hand run: a fig7 (mix 1) context, with the given mix."""
    from fogfed.cli import _build_context, scenario_from_config

    scenario = scenario_from_config({"suite": "fig7_alloc_monolithic", "seed": 1})
    return RunConfig(
        scenario="demo", method="mr", ctx=_build_context(scenario, None),
        workload=WorkloadSpec(400, mix=mix, window_ms=12_000.0),
        partition_cfg=PartitionConfig(method="propart"), alloc_method="mr",
    )


def test_run_names_a_shape_its_context_cannot_draw():
    # a mix-1 context has no workflow entries: the run used to die in
    # generate_workload with a bare KeyError from the slack derivation
    with pytest.raises(ValueError) as err:
        run(_readme_config(0.5), seed=7)
    assert str(err.value) == (
        "workload mix 0.5 draws workflow shapes, but the context's ETC has "
        "no entry for 'fire.capture'"
    )
    assert run(_readme_config(1.0), seed=7).requests == 400


def test_generate_workload_checks_only_the_shapes_it_draws():
    # the ETC below holds the workflow stages of both templates, and the
    # monolithic type of the second only
    first, second = unit_app(), _two_stage_chain()
    topo = build_grid(1, 1, 7)
    works = {v.id: v.work for spec in (first, second) for v in spec.vertices}
    mono = to_monolithic(second).vertices[0]
    works[mono.id] = mono.work
    etc = build_etc(topo, works)
    ett = build_ett(topo, LinkProfile(800.0, NormalSpec(20.0, 0.0)), {})
    ctx = Context(topo, etc, ett, (first, second), DeadlinePolicy())

    def kinds(total, mix):
        reqs = generate_workload(WorkloadSpec(total, mix, 1000.0), 3, ctx)
        return [(r.id % 2, r.kind) for r in reqs]

    # floor(total * mix) == 0: no request is monolithic
    for total, mix in ((1, 0.0), (9, 0.1), (400, 0.001)):
        assert {k for _, k in kinds(total, mix)} == {"workflow"}
    # at mix 0.5 the monolithic requests fall on odd ids, so every one of
    # them takes the second template, whose type the ETC has
    assert (1, "monolithic") in kinds(40, 0.5)
    assert (0, "monolithic") not in kinds(40, 0.5)
    # the first monolithic request of each of these takes the first
    # template, whose type it lacks
    for total, mix in ((5, 0.2), (1, 1.0)):
        with pytest.raises(
            ValueError, match="draws monolithic shapes.*'unit.mono'"
        ):
            kinds(total, mix)


def test_context_rejects_unknown_origin_and_empty_templates():
    topo, etc, ett = build_context(2, 1, [unit_app()])
    with pytest.raises(KeyError, match="unknown fog 2"):
        Context(topo, etc, ett, (unit_app(),), DeadlinePolicy(), 2)
    with pytest.raises(ValueError, match="template"):
        Context(topo, etc, ett, (), DeadlinePolicy(), 0)


# ----------------------------------------------------------------- workload


def four_apps():
    return tuple(builtin_app(n) for n in ("fire", "har", "oil", "aie"))


@pytest.fixture(scope="module")
def app_context():
    templates = four_apps()
    topo, etc, ett = build_context(2, 1, templates, grid_seed=3)
    return Context(topo, etc, ett, templates, DeadlinePolicy())


def test_workload_four_requests_mix_zero_one_per_app(app_context):
    reqs = generate_workload(
        WorkloadSpec(4, mix=0.0, window_ms=1000.0), seed=5, ctx=app_context
    )
    assert [r.spec.app for r in reqs] == ["fire", "har", "oil", "aie"]
    assert all(r.kind == "workflow" for r in reqs)
    assert [r.id for r in reqs] == [0, 1, 2, 3]


def test_workload_mix_half_splits_evenly(app_context):
    reqs = generate_workload(
        WorkloadSpec(100, mix=0.5, window_ms=10_000.0), seed=5, ctx=app_context
    )
    kinds = [r.kind for r in reqs]
    assert kinds.count("monolithic") == 50
    assert kinds.count("workflow") == 50
    # deterministic interleaving, not a random shuffle
    assert kinds[:4] == ["workflow", "monolithic"] * 2
    for r in reqs:
        if r.kind == "monolithic":
            assert len(r.spec.vertices) == 1
            assert r.spec.vertices[0].id.endswith(".mono")
        # the context's own shapes, so the plan cache keys on their ids
        shapes = app_context.shapes[r.id % 4]
        assert r.spec is shapes[r.kind == "monolithic"]


@pytest.mark.parametrize("mix", [0.0, 0.1, 1 / 3, 0.5, 1.0])
def test_workload_monolithic_pattern_is_the_two_floor_formula(
    app_context, mix
):
    # the carried floor of the previous request equals floor(i * mix)
    reqs = generate_workload(
        WorkloadSpec(60, mix=mix, window_ms=1000.0), seed=4, ctx=app_context
    )
    want = [
        math.floor((i + 1) * mix) > math.floor(i * mix) for i in range(60)
    ]
    assert [r.kind == "monolithic" for r in reqs] == want


def test_workload_mix_one_all_monolithic(app_context):
    reqs = generate_workload(
        WorkloadSpec(8, mix=1.0, window_ms=1000.0), seed=2, ctx=app_context
    )
    assert all(r.kind == "monolithic" for r in reqs)


def test_workload_arrivals_sorted_inside_window(app_context):
    spec = WorkloadSpec(50, mix=0.0, window_ms=2000.0)
    reqs = generate_workload(spec, seed=11, ctx=app_context)
    arrivals = [r.arrival_ms for r in reqs]
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= a <= spec.window_ms for a in arrivals)
    assert len(set(arrivals)) == len(arrivals)


def test_workload_seeded_determinism(app_context):
    spec = WorkloadSpec(20, mix=0.25, window_ms=500.0)
    a = generate_workload(spec, seed=9, ctx=app_context)
    b = generate_workload(spec, seed=9, ctx=app_context)
    c = generate_workload(spec, seed=10, ctx=app_context)
    assert [r.arrival_ms for r in a] == [r.arrival_ms for r in b]
    assert [r.workflow_deadline for r in a] == [r.workflow_deadline for r in b]
    assert [r.arrival_ms for r in a] != [r.arrival_ms for r in c]


def test_workload_requests_equal_hand_stamped_ones(app_context):
    """Each request equals one stamped from its shape's fresh slacks."""
    reqs = generate_workload(
        WorkloadSpec(40, mix=0.5, window_ms=2000.0), seed=6, ctx=app_context
    )
    assert {r.kind for r in reqs} == {"workflow", "monolithic"}
    for r in reqs:
        slacks = service_slacks(
            r.spec, app_context.policy, app_context.mean_exec
        )
        want = assign_deadlines(
            r.spec,
            r.arrival_ms,
            slacks,
            request_id=r.id,
            origin_fog=app_context.origin_fog,
            kind=r.kind,
        )
        for name in ("id", "arrival_ms", "kind", "origin_fog"):
            assert getattr(r, name) == getattr(want, name)
        assert r.spec is want.spec
        # bit-equal floats, not merely close ones
        assert r.workflow_deadline.hex() == want.workflow_deadline.hex()


def test_workload_at_mix_zero_never_reads_the_monolithic_shape():
    # the ETC rates only the workflow's stages, so the monolithic shape's
    # slacks cannot be computed; no request at mix 0 needs them
    app = unit_app()
    topo = build_grid(1, 1, 7, node_count=2, fixed_mips=2000.0)
    etc = build_etc(topo, {v.id: v.work for v in app.vertices})
    ett = build_ett(topo, LinkProfile(800.0, NormalSpec(20.0, 0.0)), {})
    ctx = Context(topo, etc, ett, (app,), DeadlinePolicy())
    with pytest.raises(KeyError):
        ctx.shape_slacks(ctx.shapes[0][1])
    reqs = generate_workload(WorkloadSpec(5, mix=0.0), seed=1, ctx=ctx)
    assert [r.spec for r in reqs] == [app] * 5


def test_workload_shares_one_read_only_slacks_per_shape(app_context):
    # every third request is monolithic, so each app comes in both shapes
    reqs = generate_workload(
        WorkloadSpec(24, mix=1 / 3, window_ms=2000.0), seed=6, ctx=app_context
    )
    by_spec = {}
    for r in reqs:
        slacks = app_context.shape_slacks(r.spec)
        assert by_spec.setdefault(id(r.spec), slacks) is slacks
    assert len(by_spec) == 8  # four apps, each as workflow and monolithic
    with pytest.raises(TypeError):
        app_context.shape_slacks(reqs[0].spec)["fire.capture"] = 0.0


# -------------------------------------------------------- partition budgets


def test_partition_deadlines_cover_whole_budget(app_context):
    fire = app_context.templates[0]
    policy = DeadlinePolicy(epsilon_ms=15.0, mean_comm_ms=20.0)
    slacks = service_slacks(fire, policy, app_context.mean_exec)
    req = assign_deadlines(fire, 100.0, slacks)
    whole = no_partition(fire)
    budgets = partition_deadlines(whole, slacks)
    assert len(budgets) == 1
    assert budgets[0] == pytest.approx(req.workflow_deadline - 100.0)
    split = baseline_mincut(fire)
    parts = partition_deadlines(split, slacks)
    assert len(parts) == len(split.partitions)
    assert sum(parts) == pytest.approx(req.workflow_deadline - 100.0)


def _spy_budgets(monkeypatch):
    """Record (plan, request, budgets handed to the allocator) per arrival."""
    import fogfed.sim as sim

    seen = []
    calls = []
    original_allocate = sim._Engine._allocate
    original_budgets = sim.partition_deadlines

    def allocate(engine, entry, request):
        seen.append([entry.plan, request, None])
        return original_allocate(engine, entry, request)

    def allocate_mr(plan, local, topo, etc, ett, queues, deadlines, *a, **k):
        seen[-1][2] = deadlines
        return original_mr(plan, local, topo, etc, ett, queues, deadlines,
                           *a, **k)

    def budgets(plan, slacks):
        calls.append(slacks)
        return original_budgets(plan, slacks)

    original_mr = sim.allocate_mr
    monkeypatch.setattr(sim._Engine, "_allocate", allocate)
    monkeypatch.setattr(sim, "allocate_mr", allocate_mr)
    monkeypatch.setattr(sim, "partition_deadlines", budgets)
    return seen, calls


@pytest.mark.parametrize("method", ["none", "mincut", "leastdata", "propart"])
def test_engine_budgets_equal_partition_deadlines(monkeypatch, method):
    from fogfed.cli import _build_context, _cell_config, scenario_from_config

    sc = scenario_from_config({"suite": "fig5_partitioning", "mix": 0.5})
    ctx = _build_context(sc, None)
    seen, calls = _spy_budgets(monkeypatch)
    run(_cell_config(sc, ctx, method, 100), seed=17)
    assert len(seen) == 100
    for plan, request, budgets in seen:
        slacks = ctx.shape_slacks(request.spec)
        assert budgets == partition_deadlines(plan, slacks)
    # computed once per (shape, origin) of the run, not once per request
    assert len(calls) <= 2 * len(ctx.shapes)


# ------------------------------------------------------------ plan entries


def _fig5_propart(mix=0.0):
    from fogfed.cli import _build_context, _cell_config, scenario_from_config

    sc = scenario_from_config(
        {"suite": "fig5_partitioning", "seed": 1234, "mix": mix}
    )
    return _cell_config(sc, _build_context(sc, None), "propart", 100)


def test_two_runs_plan_check_and_budget_once_per_shape_gateway(monkeypatch):
    import fogfed.sim as sim

    calls = {"build_plan": [], "validate_plan": [], "partition_deadlines": []}

    def build(cfg, w, **kwargs):
        calls["build_plan"].append((id(w), kwargs["origin"]))
        return original["build_plan"](cfg, w, **kwargs)

    def check(plan, w):
        calls["validate_plan"].append(id(w))
        return original["validate_plan"](plan, w)

    def budgets(plan, slacks):
        calls["partition_deadlines"].append(id(slacks))
        return original["partition_deadlines"](plan, slacks)

    original = {name: getattr(sim, name) for name in calls}
    for name, spy in zip(calls, (build, check, budgets)):
        monkeypatch.setattr(sim, name, spy)
    cfg = _fig5_propart(mix=0.3)
    ctx = cfg.ctx
    shapes = {}
    for seed in (3, 4):
        for r in generate_workload(cfg.workload, seed, ctx):
            shapes[(id(r.spec), r.origin_fog)] = r.spec
        run(cfg, seed)
    # each shape of the mix, workflow and monolithic, at the one gateway
    assert len(shapes) == 2 * len(ctx.templates)
    assert sorted(calls["build_plan"]) == sorted(shapes)
    assert sorted(calls["partition_deadlines"]) == sorted(
        id(ctx.shape_slacks(spec)) for spec in shapes.values()
    )
    assert sorted(calls["validate_plan"]) == sorted(k[0] for k in shapes)


def test_hand_built_requests_of_one_shape_share_one_plan_entry(monkeypatch):
    # a plan belongs to its (shape, gateway): requests stamped from fresh
    # slacks mappings of one shape build one plan, not one each
    import fogfed.sim as sim

    cfg = make_cfg(
        [_two_stage_chain()], width=2, height=1, alloc="mr",
        partition_method="propart",
    )
    ctx = cfg.ctx
    spec = ctx.templates[0]
    built = []
    original = sim.build_plan

    def build(cfg, w, **kwargs):
        built.append(w)
        return original(cfg, w, **kwargs)

    monkeypatch.setattr(sim, "build_plan", build)
    reqs = [
        assign_deadlines(
            spec, t, service_slacks(spec, ctx.policy, ctx.mean_exec),
            request_id=i,
        )
        for i, t in enumerate((0.0, 5.0, 9.0))
    ]
    assert simulate_requests(cfg, reqs, seed=1).requests == 3
    assert built == [spec]
    assert list(ctx.plans[cfg.partition_cfg]) == [(id(spec), ctx.origin_fog)]


def test_plan_violations_count_every_arrival(monkeypatch):
    import fogfed.sim as sim

    monkeypatch.setattr(sim, "validate_plan", lambda plan, w: ["bad"])
    cfg = make_cfg(
        four_apps(), width=2, height=2, total=12, window=2000.0,
        alloc="mr", partition_method="propart",
    )
    # the second run finds every plan, and its issues, in the context
    for seed in (5, 5, 6):
        assert run(cfg, seed).plan_violations == 12


# ------------------------------------------------------------------- engine


def test_single_request_generous_deadline_meets():
    cfg = make_cfg([unit_app()], node_count=1, fixed_mips=2000.0)
    report = run(cfg, seed=1)
    assert report.meet_rate == 1.0
    assert report.met == 1 and report.missed == 0
    # 200 MI on a 2000 MIPS node is exactly 100 ms
    assert report.avg_makespan_ms == 100.0


def test_single_request_impossible_deadline_misses():
    cfg = make_cfg([unit_app()], node_count=1, fixed_mips=2000.0)
    req = Request(
        id=0,
        arrival_ms=10.0,
        kind="workflow",
        spec=unit_app(),
        origin_fog=0,
        workflow_deadline=10.5,
    )
    report = simulate_requests(cfg, [req], seed=1)
    assert report.meet_rate == 0.0
    assert report.missed == 1
    assert report.avg_makespan_ms == 100.0


def test_fifo_single_node_hand_schedule():
    # One fog, one node, point-mass 100 ms executions.
    # arrivals 0 / 10 / 250: the second waits for the first, the third
    # finds the node idle again.
    cfg = make_cfg([unit_app()], node_count=1, fixed_mips=2000.0)
    policy = DeadlinePolicy()  # slack = 100 + 50 + 20 = 170 per request
    slacks = service_slacks(unit_app(), policy, {"unit.stage": 100.0})
    reqs = [
        assign_deadlines(unit_app(), t, slacks, request_id=i)
        for i, t in enumerate((0.0, 10.0, 250.0))
    ]
    report = simulate_requests(cfg, reqs, seed=4)
    # completions 100, 200, 350 -> makespans 100, 190, 100
    assert report.avg_makespan_ms == pytest.approx(130.0)
    # request 1 finishes at 200 > 10 + 170
    assert report.met == 2 and report.missed == 1
    assert report.meet_rate == pytest.approx(2 / 3)


def test_parallel_nodes_absorb_simultaneous_arrivals():
    cfg = make_cfg([unit_app()], node_count=3, fixed_mips=2000.0)
    policy = DeadlinePolicy()
    slacks = service_slacks(unit_app(), policy, {"unit.stage": 100.0})
    reqs = [
        assign_deadlines(unit_app(), 5.0, slacks, request_id=i)
        for i in range(3)
    ]
    report = simulate_requests(cfg, reqs, seed=4)
    # all three run at once on separate nodes
    assert report.avg_makespan_ms == 100.0
    assert report.meet_rate == 1.0


def test_mect_offloads_to_faster_neighbor():
    templates = [unit_app(mean_mi=20_000.0)]
    topo, etc, ett = build_context(2, 1, templates, grid_seed=21)
    mips = [f.node_mips for f in topo.fogs]
    slow = int(np.argmin(mips))
    fast = 1 - slow
    cfg = RunConfig(
        scenario="offload",
        method="mect",
        ctx=Context(
            topo, etc, ett, tuple(templates), DeadlinePolicy(), slow
        ),
        workload=WorkloadSpec(1),
        partition_cfg=PartitionConfig(method="no_partition"),
        alloc_method="mect",
    )
    policy = DeadlinePolicy()
    mean_exec = {"unit.stage": mean_exec_profile(etc, "unit.stage")}
    app = unit_app(mean_mi=20_000.0)
    req = assign_deadlines(
        app, 0.0, service_slacks(app, policy, mean_exec), origin_fog=slow
    )
    report = simulate_requests(cfg, [req], seed=3)
    assert report.remote_assignments == 1
    # point masses: transfer to the neighbor plus execution there
    expected = ett.pmf("unit.stage", 1).mean + etc.pmf("unit.stage", fast).mean
    assert report.avg_makespan_ms == pytest.approx(expected)


def test_no_federation_never_offloads():
    templates = [unit_app(mean_mi=20_000.0)]
    topo, etc, ett = build_context(2, 1, templates, grid_seed=21)
    slow = int(np.argmin([f.node_mips for f in topo.fogs]))
    cfg = RunConfig(
        scenario="nofed",
        method="nofed",
        ctx=Context(
            topo, etc, ett, tuple(templates), DeadlinePolicy(), slow
        ),
        workload=WorkloadSpec(6, mix=0.0, window_ms=200.0),
        partition_cfg=PartitionConfig(method="no_partition"),
        alloc_method="nofed",
    )
    report = run(cfg, seed=8)
    assert report.remote_assignments == 0


def test_same_fog_handoff_has_no_transfer_cost():
    # Two-stage chain split by min-cut but allocated to the same fog:
    # the makespan is exactly the sum of the two executions.
    a = MicroServiceSpec("chain.a", "a", "chain", NormalSpec(200.0, 0.0), 1.0)
    b = MicroServiceSpec("chain.b", "b", "chain", NormalSpec(400.0, 0.0), 0.1)
    chain = WorkflowSpec("chain", (a, b), (("chain.a", "chain.b"),), 1.0)
    cfg = make_cfg(
        [chain],
        node_count=2,
        fixed_mips=2000.0,
        partition_method="min_cut",
        alloc="mect",
    )
    policy = DeadlinePolicy()
    mean_exec = {"chain.a": 100.0, "chain.b": 200.0}
    slacks = service_slacks(chain, policy, mean_exec)
    req = assign_deadlines(chain, 0.0, slacks)
    report = simulate_requests(cfg, [req], seed=2)
    assert report.avg_makespan_ms == 300.0
    assert report.meet_rate == 1.0


def test_run_is_deterministic_per_seed():
    cfg = make_cfg(
        four_apps(),
        width=2,
        height=2,
        total=30,
        window=3000.0,
        alloc="mr",
        partition_method="propart",
    )
    a = run(cfg, seed=42)
    b = run(cfg, seed=42)
    c = run(cfg, seed=43)
    assert a.meet_rate == b.meet_rate
    assert a.avg_makespan_ms == b.avg_makespan_ms
    assert a.met == b.met and a.remote_assignments == b.remote_assignments
    assert (a.meet_rate, a.avg_makespan_ms) != (c.meet_rate, c.avg_makespan_ms)


def test_conservation_and_contract_tallies():
    cfg = make_cfg(
        four_apps(),
        width=2,
        height=2,
        total=40,
        mix=0.5,
        window=4000.0,
        alloc="mr",
        partition_method="propart",
    )
    report = run(cfg, seed=7)
    assert report.met + report.missed == report.requests == 40
    assert report.mr_violations == 0
    assert report.plan_violations == 0
    assert 0.0 <= report.meet_rate <= 1.0
    assert report.avg_makespan_ms > 0.0


def test_every_allocator_runs_end_to_end():
    for alloc in ("mr", "mect", "mcc", "nofed"):
        cfg = make_cfg(
            four_apps(),
            width=2,
            height=2,
            total=12,
            window=2000.0,
            alloc=alloc,
            partition_method="propart" if alloc == "mr" else "no_partition",
        )
        report = run(cfg, seed=5)
        assert report.met + report.missed == 12


def test_trace_sink_records_one_entry_per_decision():
    cfg = make_cfg(
        four_apps(),
        width=2,
        height=1,
        total=8,
        window=1000.0,
        alloc="mr",
        partition_method="propart",
    )
    lines = []
    report = run(cfg, seed=3, trace_sink=lines.append)
    assert all(
        isinstance(line, str) and line.count("\n") == 1 and line[-1] == "\n"
        for line in lines
    )
    records = [json.loads(line) for line in lines]
    assert report.requests == 8
    assert len(records) >= 8
    for rec in records:
        assert rec["method"] == "mr"
        assert rec["reason"] in (
            "forced_local_pinned",
            "remote_ci_disjoint",
            "local_default",
            "local_higher_p",
        )
        assert isinstance(rec["candidates"], list) and rec["candidates"]
        assert rec["time_ms"] >= 0.0
        assert rec["scenario"] == cfg.scenario
        assert rec["run_method"] == cfg.method
        assert rec["seed"] == 3


# ------------------------------------------------------------ trace lines


def reference_record(now, request, d, scenario, method, seed) -> dict:
    """One decision's trace record as a dict: the oracle of the encoder."""
    return {
        "time_ms": round(float(now), 3),
        "request": request.id,
        "app": request.spec.app,
        "kind": request.kind,
        "method": d.method,
        "partition": d.partition_index,
        "local_fog": d.local_fog,
        "chosen": d.chosen,
        "reason": d.reason,
        "candidates": [
            {
                "fog": r.fog,
                "hops": r.hops,
                "mean_ms": round(float(r.mean_ms), 3),
                "p": None if math.isnan(r.p) else round(float(r.p), 6),
                "ci": None if r.ci is None else [r.ci.lo, r.ci.hi],
                "in_f": r.in_f,
                "blocked": r.blocked,
            }
            for r in d.candidates
        ],
        "scenario": scenario,
        "run_method": method,
        "seed": seed,
    }


def _trace_request(app="fire", request_id=0, kind="workflow"):
    return Request(request_id, 0.0, kind, unit_app(name=app), 0, 100.0)


def _assert_line_is_reference(now, request, d, scenario, method, seed):
    line = _decision_line(
        now, request, d, _trace_stamp(scenario, method, seed)
    )
    ref = reference_record(now, request, d, scenario, method, seed)
    assert line == json.dumps(ref, sort_keys=True) + "\n"


_EDGE_FLOATS = (
    0.0, -0.0, 0.1, 1e-7, 5e-324, 2.2250738585072014e-308, 1e16, 1e22,
    1.7976931348623157e308, -1e300, math.inf, -math.inf, math.nan,
    0.0005, 0.0015, 2.675, 123456.0005,
    # both sides of the encoder's guards (see _decision_line)
    1e-4, math.nextafter(1e-4, 0), 9.9999995e-05, 1e9,
    math.nextafter(1e9, 0), 1e12, math.nextafter(1e12, 0),
    -math.nextafter(1e12, 0), 999999999999.9995, 5e-7, 1.0000005,
)
_trace_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_trace_ints = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 2**53 - 1, 2**53, 2**53 + 1, 2**63, 2**64 - 1]),
)
_trace_ci = st.one_of(
    st.none(),
    st.tuples(_trace_floats, _trace_floats).map(
        lambda b: CiInterval(*sorted(b), 0.95)
    ),
)
_trace_candidates = st.builds(
    CandidateRecord,
    fog=_trace_ints,
    hops=_trace_ints,
    mean_ms=_trace_floats,
    p=_trace_floats,
    ci=_trace_ci,
    in_f=st.booleans(),
    blocked=st.booleans(),
)
_trace_decisions = st.builds(
    AllocationDecision,
    method=st.one_of(st.sampled_from(ALLOC_METHODS), st.text()),
    partition_index=_trace_ints,
    local_fog=_trace_ints,
    chosen=_trace_ints,
    reason=st.sampled_from(REASONS),
    candidates=st.lists(_trace_candidates, max_size=4).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(
    now=_trace_floats,
    app=st.text(min_size=1),
    request_id=_trace_ints,
    kind=st.sampled_from(["workflow", "monolithic"]),
    d=_trace_decisions,
    scenario=st.text(),
    method=st.text(),
    seed=_trace_ints,
)
def test_trace_line_equals_sorted_json_of_reference_record(
    now, app, request_id, kind, d, scenario, method, seed
):
    request = _trace_request(app, request_id, kind)
    _assert_line_is_reference(now, request, d, scenario, method, seed)


@pytest.mark.parametrize(
    "candidate",
    [
        # no probability and no CI: p is written as null
        CandidateRecord(0, 0, 12.5),
        CandidateRecord(0, 0, math.nan),
        CandidateRecord(
            3, 2, -0.0, -0.0, CiInterval(-0.0, 0.0, 0.95), True, True
        ),
        CandidateRecord(
            1, 1, 1.7976931348623157e308, 5e-324,
            CiInterval(5e-324, 1e300, 0.5),
        ),
        CandidateRecord(2**53 + 1, 2**64 + 7, 0.0005, 0.0000005),
        CandidateRecord(
            0, 1, math.inf, -math.inf, CiInterval(-math.inf, math.inf, 0.95)
        ),
    ],
)
def test_trace_line_edge_values(candidate):
    d = AllocationDecision("nofed", 0, 0, 0, "local_default", (candidate,))
    request = _trace_request("Ölraffinerie-Ω \"1\"\n", 2**53 + 3)
    _assert_line_is_reference(
        1e-3, request, d, "scénario", "mr", 2**64 - 1
    )
    line = _decision_line(0.0, request, d, _trace_stamp("s", "m", 0))
    assert line.isascii() and line.count("\n") == 1


def test_trace_numbers_of_seeded_values_equal_json_of_round():
    rng = np.random.default_rng(25)
    # finite doubles by bit pattern, over every exponent
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64)
    doubles = bits.view(np.float64)
    doubles = doubles[np.isfinite(doubles)].tolist()
    # decimal ties k/10^n + 5/10^(n+1) for the 3- and 6-decimal roundings,
    # from below 1e-4 to past 1e12
    ties = []
    for n in (3, 6):
        for digits in range(1, 19):
            for k in rng.integers(0, 10**digits, size=70).tolist():
                tie = (10 * k + 5) / 10 ** (n + 1)
                ties += (tie, -tie)
    values = doubles + ties
    values += [np.float64(x) for x in values]
    assert len(values) >= 10**4
    request = _trace_request()
    stamp = _trace_stamp("s", "m", 1)
    for x in values:
        ci = CiInterval(x, x, 0.95)
        d = AllocationDecision(
            "mr", 0, 0, 0, "local_default", (CandidateRecord(0, 0, x, x, ci),)
        )
        ref = reference_record(x, request, d, "s", "m", 1)
        assert _decision_line(x, request, d, stamp) == (
            json.dumps(ref, sort_keys=True) + "\n"
        ), x


def _spy_json_number(monkeypatch):
    """Record each argument that the re-spelling of non-finite floats
    passes to ``_json_number``; the calls stay unchanged."""
    import fogfed.sim as sim

    calls = []
    respell = sim._json_number

    def spy(arg):
        calls.append(arg)
        return respell(arg)

    monkeypatch.setattr(sim, "_json_number", spy)
    return calls


_FINITE_CANDIDATES = (
    CandidateRecord(
        4, 0, 1350.3774, 0.6573664, CiInterval(533.0, 2170.0, 0.95)
    ),
    CandidateRecord(2, 1, 3267.5, 0.0, CiInterval(2593.0, 3944.0, 0.95), True),
    CandidateRecord(5, 2, 12.5, 1.0, CiInterval(0.5, 31.25, 0.95), True, True),
    CandidateRecord(1, 1, 7.0),
)


@pytest.mark.parametrize(
    "app, scenario, method",
    [
        ("inference", "s", "m"),
        ("fire", "banana", "m"),
        ("fire", "s", "mr-infra"),
        ("NaN", "-inf", "nan"),
    ],
)
def test_trace_line_with_inf_or_nan_in_names_falls_back_exactly(
    monkeypatch, app, scenario, method
):
    calls = _spy_json_number(monkeypatch)
    request = _trace_request(app, 3)
    stamp = _trace_stamp(scenario, method, 7)
    d = AllocationDecision(
        "mr", 0, 4, 2, "remote_ci_disjoint", _FINITE_CANDIDATES
    )
    _assert_line_is_reference(1234.5678, request, d, scenario, method, 7)
    # a name is no number: the line is filled once, nothing re-spelled
    assert calls == []

    # a non-finite CI bound or mean: one fill, every argument re-spelled
    for odd in (
        CandidateRecord(3, 1, 9.0, 0.5, CiInterval(-math.inf, 4.0, 0.95)),
        CandidateRecord(3, 1, math.nan),
    ):
        calls.clear()
        candidates = (*_FINITE_CANDIDATES, odd)
        d = AllocationDecision("mr", 0, 4, 2, "remote_ci_disjoint", candidates)
        _assert_line_is_reference(1234.5678, request, d, scenario, method, 7)
        # app, 6 or 8 fields per candidate (with a CI), then 9 tail fields
        fields = 1 + sum(6 if r.ci is None else 8 for r in candidates) + 9
        assert len(calls) == fields
        assert calls[0] == json.dumps(app)
        assert calls[-2:] == [stamp, "1234.568"]


def test_trace_line_of_numpy_floats(monkeypatch):
    calls = _spy_json_number(monkeypatch)
    f = np.float64
    candidates = (
        CandidateRecord(
            4, 0, f(1350.3774), f(0.6573664),
            CiInterval(f(533.0), f(2170.5), 0.95),
        ),
        CandidateRecord(
            2, 1, f(3267.0005), f(0.0), CiInterval(f(2593.0), f(3944.0), 0.95)
        ),
        CandidateRecord(
            5, 2, f(2.675), f(1.0), CiInterval(f(0.1), f(1e16), 0.95), True
        ),
        CandidateRecord(1, 1, f(7.0)),
    )
    d = AllocationDecision("mr", 0, 4, 5, "remote_ci_disjoint", candidates)
    _assert_line_is_reference(f(98.7654321), _trace_request(), d, "s", "m", 1)
    stamp = _trace_stamp("s", "m", 1)
    assert "np." not in _decision_line(f(0.0005), _trace_request(), d, stamp)
    assert calls == []


def test_trace_line_of_huge_numpy_floats():
    # numpy's round(x, 3) overflows to inf above about 1.8e305
    f = np.float64
    candidates = (
        CandidateRecord(4, 0, f(1e306), f(0.5), CiInterval(0.0, 1.0, 0.95)),
        CandidateRecord(2, 1, f(-1e306)),
    )
    d = AllocationDecision("mr", 0, 4, 4, "local_higher_p", candidates)
    _assert_line_is_reference(f(1e306), _trace_request(), d, "s", "m", 1)
    stamp = _trace_stamp("s", "m", 1)
    line = _decision_line(f(1e306), _trace_request(), d, stamp)
    assert '"mean_ms": 1e+306' in line
    assert '"mean_ms": -1e+306' in line
    assert line.endswith('"time_ms": 1e+306}\n')


def test_fig11_trace_never_falls_back_and_covers_every_candidate_shape(
    monkeypatch,
):
    import fogfed.sim as sim
    from fogfed.cli import run_sweep, scenario_from_config

    calls = _spy_json_number(monkeypatch)
    shapes = set()
    methods = set()
    encode = sim._decision_line

    def spy(now, request, d, stamp):
        shapes.add(tuple(r.ci is None for r in d.candidates))
        methods.add(d.method)
        return encode(now, request, d, stamp)

    monkeypatch.setattr(sim, "_decision_line", spy)
    doc = {"suite": "fig11_scaling_workflows", "repetitions": 1, "seed": 1234}
    _, records = run_sweep(scenario_from_config(doc), parallel=1, trace=True)
    assert len(records) == 5000
    assert calls == []
    # fig11 runs mr only, whose every candidate has a CI: one shape per
    # candidate count, the gateway alone up to the gateway and 4 neighbours
    assert shapes == {(False,) * k for k in range(1, 6)}

    # fig7 at load 40 runs all four allocators: the mean-based baselines'
    # candidates have no CI, and no line passes through _json_number
    fig11_shapes = set(shapes)
    methods.clear()
    doc = {
        "suite": "fig7_alloc_monolithic", "loads": [40], "repetitions": 1,
        "seed": 1234,
    }
    _, records = run_sweep(scenario_from_config(doc), parallel=1, trace=True)
    assert records
    assert methods == set(ALLOC_METHODS)
    assert calls == []
    assert shapes - fig11_shapes


def test_trace_line_of_every_engine_decision(monkeypatch):
    import fogfed.sim as sim

    cfg = make_cfg(
        four_apps(), width=3, height=2, total=24, window=1500.0,
        alloc="nofed", partition_method="propart",
    )
    seen = []
    encode = sim._decision_line

    def spy(now, request, d, stamp):
        line = encode(now, request, d, stamp)
        seen.append((reference_record(now, request, d, "test", "m", 9), line))
        return line

    monkeypatch.setattr(sim, "_decision_line", spy)
    for alloc in ALLOC_METHODS:
        run(dataclasses.replace(cfg, alloc_method=alloc), seed=9,
            trace_sink=lambda line: None)
    assert len(seen) >= 4 * 24
    for ref, line in seen:
        assert line == json.dumps(ref, sort_keys=True) + "\n"


# ----------------------------------------------------------- queue snapshot


def reference_waits(engine, gateway) -> dict:
    """Queue waits by the one counter formula for every fog: the oracle.

    ``(pending + max(0, busy_sum - busy nodes * now)) / nodes``, whatever
    the fog's state.
    """
    now = engine._now
    waits = {}
    for fid in (gateway, *engine.ctx.topo.neighbors(gateway)):
        rt = engine.runtimes[fid]
        running = max(0.0, rt.busy_sum - (rt.nodes - rt.free) * now)
        waits[fid] = (rt.pending_mean_ms + running) / rt.nodes
    return waits


def _hex_waits(waits: dict) -> dict:
    return {fid: float.hex(w) for fid, w in waits.items()}


def _runtime(now, remaining, free, pending, rounding=0.0):
    """A fog with ``free`` idle nodes and one busy node per ``remaining``.

    ``rounding`` stands for what a run's adds and subtracts leave in
    ``busy_sum``; an idle fog's sum is exactly 0, as a run resets it.
    """
    import fogfed.sim as sim

    busy_sum = math.fsum(now + r for r in remaining) + rounding
    return sim._FogRuntime(
        len(remaining) + free,
        free,
        pending_mean_ms=pending,
        busy_sum=busy_sum if remaining else 0.0,
    )


remaining = st.floats(min_value=0.0, max_value=5000.0)
pending = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e5))
rounding = st.one_of(st.just(0.0), st.floats(min_value=-1e-9, max_value=1e-9))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.tuples(st.integers(min_value=1, max_value=8), pending),
    st.tuples(st.lists(remaining, min_size=1, max_size=8), pending, rounding),
    st.tuples(
        st.lists(remaining, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=6),
        pending,
        rounding,
    ),
)
@example(1.0, (1, 0.0), ([0.0, 0.0], 5.0, -1e-9), ([0.0], 1, 0.0, -1e-9))
def test_queue_snapshot_equals_reference_formula(now, idle, busy, mixed):
    import fogfed.sim as sim

    # gateway 1 of a 3x1 row watches fog 0 (idle), itself (saturated) and
    # fog 2 (mixed: some nodes free, some busy)
    cfg = make_cfg([unit_app()], width=3, height=1, origin=1)
    engine = sim._Engine(cfg, seed=0)
    engine._now = now
    engine.runtimes[0] = _runtime(now, [], idle[0], idle[1])
    engine.runtimes[1] = _runtime(now, busy[0], 0, busy[1], busy[2])
    engine.runtimes[2] = _runtime(now, mixed[0], *mixed[1:])
    got = engine._queue_snapshot(1).waits
    assert _hex_waits(got) == _hex_waits(reference_waits(engine, 1))
    assert min(got.values()) >= 0.0


@functools.cache
def _centre_cfg():
    # gateway 4 of a 3x3 grid watches itself, then fogs 1, 3, 5 and 7
    return make_cfg([unit_app()], width=3, height=3, origin=4)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.lists(
        st.tuples(
            st.lists(remaining, max_size=8),
            st.integers(min_value=0, max_value=8),
            pending,
            rounding,
        ).filter(lambda s: s[0] or s[1]),
        min_size=5,
        max_size=5,
    ),
)
def test_queue_snapshot_reads_each_fogs_counters(now, states):
    """Each fog's wait is ``(pending + running) / nodes``, ``running`` being
    ``busy_sum`` less ``now`` per busy node and at least 0, bit for bit,
    on any mix of busy and idle nodes."""
    import fogfed.sim as sim

    engine = sim._Engine(_centre_cfg(), seed=0)
    engine._now = now
    watched = (4, 1, 3, 5, 7)
    want = {}
    for fid, (busy, free, pend, error) in zip(watched, states):
        rt = engine.runtimes[fid] = _runtime(now, busy, free, pend, error)
        running = rt.busy_sum - len(busy) * now
        want[fid] = (pend + (running if running > 0.0 else 0.0)) / rt.nodes
    got = engine._queue_snapshot(4).waits
    assert tuple(got) == watched
    assert _hex_waits(got) == _hex_waits(want)


@pytest.mark.parametrize(
    "width,height",
    sorted({(w, h) for w, h, _ in DEGREE_GRIDS.values()} | {(3, 3), (1, 1)}),
)
def test_context_hop_table_is_hop_distance(width, height):
    ctx = make_cfg([unit_app()], width=width, height=height).ctx
    n = width * height
    assert len(ctx.hops) == n
    for a in range(n):
        assert len(ctx.hops[a]) == n
        for b in range(n):
            assert ctx.hops[a][b] == hop_distance(ctx.topo, a, b)


def test_engine_reads_hops_from_the_context_table(monkeypatch):
    """Entry transfers and cross-fog hand-offs take their hop counts from
    ``Context.hops``; a run calls ``hop_distance`` no more."""
    import fogfed.sim as sim

    cfg = make_cfg(
        [_two_stage_chain(), unit_app(mean_mi=400.0, std_mi=60.0)],
        width=3, height=3, origin=4, node_count=1, total=60, window=2000.0,
        alloc="mect", partition_method="min_cut",
    )
    calls = []

    def counting(topo, a, b):
        calls.append((a, b))
        return hop_distance(topo, a, b)

    monkeypatch.setattr(sim, "hop_distance", counting)
    report = run(cfg, seed=3)
    assert report.remote_assignments > 0
    assert calls == []


def test_queue_snapshot_equals_reference_in_a_run(monkeypatch):
    """In a run, each watched fog's ``busy_sum`` is its running instances'
    completion times summed (within 1e-6 ms) and exactly 0 when idle, and
    every snapshot is the oracle's, bit for bit.  The light run's fogs go
    idle after overlapping busy spells, where a missed reset would show."""
    import fogfed.sim as sim

    states = set()
    snapshot = sim._Engine._queue_snapshot

    def spy(engine, gateway):
        want = _hex_waits(reference_waits(engine, gateway))
        for fid in want:
            rt = engine.runtimes[fid]
            # the heap's exec-done events are the fog's running instances
            running = [
                t for t, _, kind, inst in engine._heap
                if kind == sim._EXEC_DONE and inst.rt is rt
            ]
            assert len(running) == rt.nodes - rt.free
            if running:
                assert abs(rt.busy_sum - math.fsum(running)) <= 1e-6
            else:
                assert float.hex(rt.busy_sum) == float.hex(0.0)
            states.add(
                "idle" if rt.free == rt.nodes
                else "saturated" if rt.free == 0
                else "mixed"
            )
        got = snapshot(engine, gateway)
        assert _hex_waits(got.waits) == want
        return got

    monkeypatch.setattr(sim._Engine, "_queue_snapshot", spy)
    for nodes, window in ((2, 3000.0), (3, 12000.0)):
        cfg = make_cfg(
            [unit_app(mean_mi=400.0, std_mi=60.0)], width=3, height=1,
            node_count=nodes, total=300, window=window, alloc="mect",
            origin=1,
        )
        states.clear()
        run(cfg, seed=4)
        assert states == {"idle", "saturated", "mixed"}


def test_every_instance_holds_its_fogs_runtime(monkeypatch):
    import fogfed.sim as sim

    cfg = make_cfg(
        [_two_stage_chain(), *four_apps()], width=3, height=3, origin=4,
        node_count=2, total=80, window=2000.0, partition_method="min_cut",
    )
    checked = []

    def watch(handler):
        def check(engine, inst):
            for i in (inst, *inst.successors):
                assert i.rt is engine.runtimes[i.fog]
            checked.append(inst.fog)
            handler(engine, inst)

        return check

    monkeypatch.setattr(
        sim._Engine, "_on_exec_done", watch(sim._Engine._on_exec_done)
    )
    monkeypatch.setattr(
        sim._Engine, "_on_transfer", watch(sim._Engine._on_transfer)
    )
    for alloc in ALLOC_METHODS:
        run(dataclasses.replace(cfg, alloc_method=alloc), seed=2)
    # every instance ends in an execution, on more than the gateway
    assert len(set(checked)) > 1


def test_run_calls_the_module_attributes(monkeypatch):
    """A replaced ``fogfed.sim`` allocator, sampler or validator is used.

    Wrapping these module attributes is how a caller times or observes
    each layer of a run without changing the program.
    """
    import fogfed.sim as sim

    names = (
        "allocate_mr", "allocate_mect", "allocate_mcc",
        "allocate_no_federation", "sample", "validate_mr_decision",
    )
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(sim, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(sim, name, counting(name))
    cfg = make_cfg(
        four_apps(), width=2, height=2, total=12, window=2000.0,
        partition_method="propart",
    )
    allocator = {
        "mr": "allocate_mr", "mect": "allocate_mect", "mcc": "allocate_mcc",
        "nofed": "allocate_no_federation",
    }
    for alloc in ALLOC_METHODS:
        for name in names:
            calls[name] = 0
        lines = []
        run(dataclasses.replace(cfg, alloc_method=alloc), seed=5,
            trace_sink=lines.append)
        assert calls[allocator[alloc]] > 0
        assert calls["sample"] > 0
        # mr decides a whole request per call, the others one partition
        assert calls[allocator[alloc]] == (12 if alloc == "mr" else len(lines))
        # only mr decisions have a contract to check
        assert calls["validate_mr_decision"] == (
            len(lines) if alloc == "mr" else 0
        )
        others = set(allocator.values()) - {allocator[alloc]}
        assert all(calls[name] == 0 for name in others)


def test_finished_engine_is_freed_without_the_cyclic_collector():
    """An engine holds every instance of its run; nothing may keep it alive
    in a reference cycle once its run is over."""
    import gc
    import weakref

    import fogfed.sim as sim

    cfg = make_cfg(four_apps(), width=2, height=2, total=12, window=2000.0)
    for alloc in ALLOC_METHODS:
        run_cfg = dataclasses.replace(cfg, alloc_method=alloc)
        requests = generate_workload(run_cfg.workload, 5, run_cfg.ctx)
        enabled = gc.isenabled()
        gc.disable()
        try:
            engine = sim._Engine(run_cfg, 5)
            engine.run(requests, 5)
            ref = weakref.ref(engine)
            del engine
            assert ref() is None, alloc
        finally:
            if enabled:
                gc.enable()


def test_no_instance_outlives_its_run_without_the_cyclic_collector(
    monkeypatch,
):
    """Instances link only to their successors, so each request's instances
    are freed by reference counting once its last one has run."""
    import gc

    import fogfed.sim as sim

    cfg = make_cfg(
        [_two_stage_chain(), *four_apps()], width=2, height=2, node_count=2, total=40,
        window=2000.0, partition_method="min_cut",
    )

    # counted against the instances alive before each run: a failed
    # test's traceback, which pytest keeps, may hold another run's
    def live_instances():
        return sum(type(o) is sim._Instance for o in gc.get_objects())

    seen = []
    exec_done = sim._Engine._on_exec_done

    # every execution ends in this event, whether or not a queue is waiting
    def watch(engine, inst):
        if len(engine._completions) == 20 and not seen[-1]:
            seen[-1] = live_instances() - before
        exec_done(engine, inst)

    monkeypatch.setattr(sim._Engine, "_on_exec_done", watch)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for alloc in ALLOC_METHODS:
            run_cfg = dataclasses.replace(cfg, alloc_method=alloc)
            requests = generate_workload(run_cfg.workload, 5, run_cfg.ctx)
            seen.append(0)
            before = live_instances()
            sim._Engine(run_cfg, 5).run(requests, 5)
            assert seen[-1] > 0, alloc  # mid-run, the count sees instances
            assert live_instances() == before, alloc
    finally:
        if enabled:
            gc.enable()


# ------------------------------------------------------------ event order


def reference_run(engine, requests, seed):
    """The heap-only event loop: the oracle of the merged arrival stream.

    Every arrival is pushed before the run starts, so its sequence number
    puts it first among events at its time, and equal arrival times keep
    list order.
    """
    import heapq

    import fogfed.sim as sim

    arrival = -1
    for r in requests:
        heapq.heappush(engine._heap, (r.arrival_ms, engine._seq, arrival, r))
        engine._seq += 1
    last = -math.inf
    while engine._heap:
        time, _, kind, payload = heapq.heappop(engine._heap)
        if time < last:
            raise RuntimeError(f"event at {time} ms popped after {last} ms")
        last = engine._now = time
        if kind == arrival:
            engine._on_arrival(payload)
        elif kind == sim._TRANSFER:
            engine._on_transfer(payload)
        else:
            engine._on_exec_done(payload)
    return engine._report(requests, seed)


def _two_stage_chain():
    a = MicroServiceSpec("chain.a", "a", "chain", NormalSpec(200.0, 20.0), 1.0)
    b = MicroServiceSpec("chain.b", "b", "chain", NormalSpec(400.0, 30.0), 0.1)
    return WorkflowSpec("chain", (a, b), (("chain.a", "chain.b"),), 1.0)


def _hex_run(engine, report, lines):
    fields = [
        float.hex(v) if isinstance(v, float) else v
        for v in dataclasses.astuple(report)
    ]
    completions = [(k, float.hex(v)) for k, v in engine._completions.items()]
    return fields, completions, lines


@pytest.fixture(scope="module")
def tie_cfg():
    # 1 ms bins on integer origins: every execution and transfer lasts a
    # whole number of ms, so integer arrivals tie with completions and
    # transfers, and sampled (not point-mass) durations make the tie order
    # visible through the draw order
    return make_cfg(
        [_two_stage_chain(), unit_app(mean_mi=300.0, std_mi=40.0)],
        width=2, height=1, node_count=1, fixed_mips=2000.0, hop_std=3.0,
        partition_method="min_cut",
    )


@settings(max_examples=150, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(st.integers(0, 200), st.booleans()), min_size=1,
        max_size=20,
    ),
    order=st.randoms(use_true_random=False),
    alloc=st.sampled_from(ALLOC_METHODS),
    seed=st.integers(0, 3),
)
def test_merged_arrivals_equal_the_heap_only_loop(
    tie_cfg, arrivals, order, alloc, seed
):
    import fogfed.sim as sim

    cfg = dataclasses.replace(tie_cfg, alloc_method=alloc)
    ctx = cfg.ctx
    requests = []
    for i, (t, mono) in enumerate(arrivals):
        spec = ctx.shapes[i % 2][mono]
        requests.append(
            assign_deadlines(
                spec, float(t), ctx.shape_slacks(spec), request_id=i,
                kind="monolithic" if mono else "workflow",
            )
        )
    order.shuffle(requests)
    runs = []
    for loop in (sim._Engine.run, reference_run):
        lines = []
        engine = sim._Engine(cfg, seed, lines.append)
        report = loop(engine, list(requests), seed)
        runs.append(_hex_run(engine, report, lines))
    assert runs[0] == runs[1]


def test_arrival_tied_with_a_queued_event_runs_first(tie_cfg, monkeypatch):
    """A list in which an arrival ties with a transfer or completion whose
    order changes the draws: found by running the loop with arrivals after
    heap events at equal times, which gives a different run."""
    import fogfed.sim as sim

    cfg = dataclasses.replace(tie_cfg, alloc_method="mr")
    ctx = cfg.ctx
    requests = []
    for i, t, mono in (
        (0, 90.0, False), (1, 156.0, True), (2, 117.0, True),
        (3, 120.0, True), (4, 5.0, False),
    ):
        spec = ctx.shapes[i % 2][mono]
        requests.append(
            assign_deadlines(
                spec, t, ctx.shape_slacks(spec), request_id=i,
                kind="monolithic" if mono else "workflow",
            )
        )
    ties = []
    on_arrival = sim._Engine._on_arrival

    def spy(engine, request):
        heap = engine._heap
        ties.append(bool(heap) and heap[0][0] == engine._now)
        on_arrival(engine, request)

    monkeypatch.setattr(sim._Engine, "_on_arrival", spy)
    runs = []
    for loop in (sim._Engine.run, reference_run):
        lines = []
        engine = sim._Engine(cfg, 0, lines.append)
        report = loop(engine, list(requests), 0)
        runs.append(_hex_run(engine, report, lines))
    assert runs[0] == runs[1]
    assert any(ties)


# ----------------------------------------------------------- uniform stream


@pytest.mark.parametrize("seed", [0, 1234])
def test_block_uniforms_equal_scalar_draws(seed):
    import fogfed.sim as sim

    n = 2 * sim._BLOCK + 37  # across two refills
    stream = sim._Uniforms(np.random.default_rng([seed, 1]))
    rng = np.random.default_rng([seed, 1])
    got = [stream.random() for _ in range(n)]
    assert [v.hex() for v in got] == [rng.random().hex() for _ in range(n)]


@pytest.mark.parametrize("alloc", ALLOC_METHODS)
def test_block_draws_give_the_run_of_scalar_draws(monkeypatch, alloc):
    """A run drawing more than two blocks equals the run that calls the
    generator's ``random()`` once per draw."""
    import fogfed.sim as sim

    cfg = make_cfg(
        four_apps(), width=2, height=2, node_count=4, total=300,
        window=20_000.0, alloc=alloc, partition_method="propart",
    )
    streams = []
    sample = sim.sample

    def counting(pmf, stream):
        streams.append(type(stream))
        return sample(pmf, stream)

    monkeypatch.setattr(sim, "sample", counting)
    runs = []
    for stream_type in (sim._Uniforms, np.random.Generator):
        if stream_type is np.random.Generator:
            monkeypatch.setattr(sim, "_Uniforms", lambda rng: rng)
        streams.clear()
        lines = []
        engine = sim._Engine(cfg, 3, lines.append)
        report = engine.run(generate_workload(cfg.workload, 3, cfg.ctx), 3)
        runs.append(_hex_run(engine, report, lines))
        assert len(streams) > 2 * sim._BLOCK
        assert set(streams) == {stream_type}
    assert runs[0] == runs[1]


def test_degree_reported_for_origin():
    cfg = make_cfg(
        [unit_app()], width=3, height=3, node_count=1, fixed_mips=2000.0,
        origin=4,
    )
    report = run(cfg, seed=1)
    assert report.degree == 4


def test_completion_exactly_at_the_deadline_is_met():
    import fogfed.sim as sim

    cfg = make_cfg([unit_app()], node_count=1, total=4)
    requests = generate_workload(cfg.workload, 1, cfg.ctx)
    engine = sim._Engine(cfg, 1)
    late = requests[0]
    engine._completions = {
        r.id: math.nextafter(r.workflow_deadline, math.inf)
        if r is late else r.workflow_deadline
        for r in requests
    }
    report = engine._report(requests, 1)
    assert (report.met, report.missed) == (3, 1)


# ---------------------------------------------------------------- aggregate


def _report(scenario="s", method="m", requests=10, mix=0.0, degree=2,
            seed=0, meet=0.5, makespan=100.0):
    return SimReport(
        scenario=scenario,
        method=method,
        requests=requests,
        mix=mix,
        degree=degree,
        seed=seed,
        meet_rate=meet,
        avg_makespan_ms=makespan,
        met=int(requests * meet),
        missed=requests - int(requests * meet),
        remote_assignments=0,
        mr_violations=0,
        plan_violations=0,
    )


def test_aggregate_mean_and_ci():
    rows = aggregate(
        [_report(seed=0, meet=0.4), _report(seed=1, meet=0.6)]
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == 2
    assert row["meet_rate_mean"] == pytest.approx(0.5)
    # s = 0.1414..., hw = 1.96 * s / sqrt(2) = 0.196
    assert row["meet_rate_ci"] == pytest.approx(0.196, abs=1e-9)


def test_aggregate_requires_two_runs_per_cell():
    with pytest.raises(ValueError):
        aggregate([_report(seed=0)])
    with pytest.raises(ValueError):
        aggregate([_report(seed=0), _report(seed=1, requests=20)])


def test_aggregate_rejects_a_repeated_run():
    # the same cell and seed twice is one run counted twice, which would
    # report n 2 with a CI of 0.0
    with pytest.raises(ValueError, match="seed 0 appears twice"):
        aggregate([_report(seed=0), _report(seed=0)])
    with pytest.raises(ValueError, match="appears twice"):
        aggregate(
            [_report(seed=0), _report(seed=1), _report(seed=0, meet=0.9)]
        )
    # one seed in two cells is two runs
    rows = aggregate(
        [
            _report(seed=0),
            _report(seed=1),
            _report(seed=0, degree=3),
            _report(seed=1, degree=3),
        ]
    )
    assert [r["n"] for r in rows] == [2, 2]


def test_aggregate_groups_and_sorts_cells():
    reports = [
        _report(method="b", requests=20, seed=0),
        _report(method="b", requests=20, seed=1),
        _report(method="a", requests=10, seed=0, makespan=50.0),
        _report(method="a", requests=10, seed=1, makespan=70.0),
    ]
    rows = aggregate(reports)
    assert [(r["method"], r["requests"]) for r in rows] == [
        ("a", 10),
        ("b", 20),
    ]
    assert rows[0]["makespan_mean"] == pytest.approx(60.0)
