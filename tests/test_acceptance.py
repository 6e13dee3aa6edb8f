"""End-to-end acceptance checks.

One test per shipped guarantee, each ending in a single printed verdict
line so a verbose run reads as a checklist.  The four experiment grids
are executed once per session (30 repetitions each, seed 1234) and shared
by every check that reads them.
"""

import math
import os
import subprocess
import sys
import time
import json

import numpy as np
import pytest

from fogfed.cli import (
    SUITES,
    _build_context,
    run_sweep,
    scenario_from_config,
)
from fogfed.dist import NormalSpec, convolve, pmf_from_normal, prob_on_time
from fogfed.federation import (
    LinkProfile,
    build_etc,
    build_grid,
    build_ett,
)
from fogfed.model import (
    DeadlinePolicy,
    MicroServiceSpec,
    WorkflowSpec,
    assign_deadlines,
    service_slacks,
)
from fogfed.partition import (
    PartitionConfig,
    build_plan,
    min_cut,
    validate_plan,
)
from fogfed.sim import Context, RunConfig, WorkloadSpec, simulate_requests
from fogfed.sim import _Engine

# pinned thresholds, shared by the checks below
METHOD_GAP = 0.05          # required meet-rate lead, in rate units
DEGREE_GAP = 0.10          # degree-4 lead over degree-1 at the top load
RISE_NOISE = 0.02          # tolerated meet-rate rise as load grows
MAKESPAN_NOISE = 0.05      # tolerated relative makespan dip as load grows
DIST_L1 = 0.02             # PMF-vs-sampling total variation bound (L1)
DIST_TAIL = 0.01           # on-time-probability bound vs sampled tail
DIST_BUDGET_S = 30.0       # wall-clock budget for the distribution oracle
GRID_BUDGET_S = 300.0      # wall-clock budget for the partitioning grid

_PARALLEL = max(1, min(8, os.cpu_count() or 1))


def _verdict(label: str, detail: str) -> None:
    print(f"[acceptance] {label}: PASS ({detail})")


def _sweep(suite: str):
    sc = scenario_from_config(
        {"suite": suite, "repetitions": 30, "seed": 1234}
    )
    t0 = time.monotonic()
    reports, _ = run_sweep(sc, parallel=_PARALLEL)
    return reports, time.monotonic() - t0


@pytest.fixture(scope="session")
def fig5_sweep():
    return _sweep("fig5_partitioning")


@pytest.fixture(scope="session")
def fig7_sweep():
    return _sweep("fig7_alloc_monolithic")


@pytest.fixture(scope="session")
def fig11_sweep():
    return _sweep("fig11_scaling_workflows")


@pytest.fixture(scope="session")
def fig12_sweep():
    return _sweep("fig12_scaling_monolithic")


def _cells(reports):
    """(method, load, degree) -> (mean meet rate, mean makespan)."""
    acc = {}
    for r in reports:
        acc.setdefault((r.method, r.requests, r.degree), []).append(r)
    return {
        k: (
            sum(x.meet_rate for x in v) / len(v),
            sum(x.avg_makespan_ms for x in v) / len(v),
        )
        for k, v in acc.items()
    }


# ------------------------------------------------------- distribution oracle


def test_distribution_oracle_matches_sampling():
    rng = np.random.default_rng(20260816)
    t0 = time.monotonic()
    worst_l1 = 0.0
    worst_tail = 0.0
    for _ in range(50):
        mu1, mu2 = rng.uniform(60.0, 300.0, 2)
        s1, s2 = rng.uniform(4.0, 12.0, 2)
        pmf = convolve(
            pmf_from_normal(NormalSpec(mu1, s1), 1.0),
            pmf_from_normal(NormalSpec(mu2, s2), 1.0),
        )
        n = 1_000_000
        samples = rng.normal(mu1, s1, n) + rng.normal(mu2, s2, n)
        idx = np.rint(samples).astype(np.int64) - int(round(pmf.origin))
        inside = (idx >= 0) & (idx < pmf.mass.size)
        counts = np.bincount(idx[inside], minlength=pmf.mass.size)
        l1 = float(np.abs(counts / n - pmf.mass).sum()) + (
            n - int(inside.sum())
        ) / n
        worst_l1 = max(worst_l1, l1)
        assert l1 <= DIST_L1
        # deadline on a half-grid point, where the binned and continuous
        # events agree exactly
        deadline = math.floor(np.quantile(samples, rng.uniform(0.1, 0.9)))
        deadline += 0.5
        gap = abs(prob_on_time(pmf, deadline) - float((samples <= deadline).mean()))
        worst_tail = max(worst_tail, gap)
        assert gap <= DIST_TAIL
    elapsed = time.monotonic() - t0
    assert elapsed < DIST_BUDGET_S
    _verdict(
        "distribution oracle",
        f"50 pairs, worst L1 {worst_l1:.4f}, worst tail gap "
        f"{worst_tail:.4f}, {elapsed:.1f}s",
    )


# ------------------------------------------------------------ cut exactness


def _brute_force_cut(n, edges, weights):
    """Minimum over bisections closed under predecessors."""
    entry, exit_ = 0, n - 1
    middle = [v for v in range(n) if v not in (entry, exit_)]
    best = math.inf
    for mask in range(1 << len(middle)):
        side_s = {entry}
        for bit, v in enumerate(middle):
            if mask >> bit & 1:
                side_s.add(v)
        if any(u not in side_s and v in side_s for u, v in edges):
            continue
        w = sum(weights[(u, v)] for u, v in edges if u in side_s and v not in side_s)
        best = min(best, w)
    return best


def test_min_cut_matches_brute_force():
    rng = np.random.default_rng(777)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        edges = {(i, i + 1) for i in range(n - 1)}
        for i in range(n):
            for j in range(i + 2, n):
                if rng.random() < 0.3:
                    edges.add((i, j))
        verts = tuple(
            MicroServiceSpec(f"v{i}", f"s{i}", "rand", NormalSpec(100.0, 5.0), 0.1)
            for i in range(n)
        )
        w = WorkflowSpec(
            "rand",
            verts,
            tuple((f"v{i}", f"v{j}") for i, j in sorted(edges)),
        )
        weights = {
            (f"v{i}", f"v{j}"): float(rng.uniform(0.1, 10.0))
            for i, j in sorted(edges)
        }
        got = min_cut(w, weights).cut_weight
        want = _brute_force_cut(
            n, edges, {(i, j): weights[(f"v{i}", f"v{j}")] for i, j in edges}
        )
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    _verdict("min-cut exactness", "200 random DAGs, all equal to brute force")


# ------------------------------------------------------ partitioning contract


def test_partition_trace_contract(fig5_sweep, fig7_sweep, fig11_sweep, fig12_sweep):
    total = sum(
        r.plan_violations
        for reports, _ in (fig5_sweep, fig7_sweep, fig11_sweep, fig12_sweep)
        for r in reports
    )
    assert total == 0

    # direct checks on freshly built plans
    sc = scenario_from_config({"suite": "fig5_partitioning", "seed": 1234})
    ctx = _build_context(sc, None)
    model = ctx.model
    accepted = rolled_back = 0
    for tmpl in ctx.templates:
        slacks = ctx.shape_slacks(tmpl)
        plan = build_plan(
            PartitionConfig(alpha=0.5, method="propart"),
            tmpl,
            model=model,
            origin=ctx.origin_fog,
            slacks=slacks,
        )
        assert validate_plan(plan, tmpl) == []
        for d in plan.trace:
            improves = d.p_s > d.parent_p and d.p_t > d.parent_p
            assert d.accepted == improves
            accepted += d.accepted
            rolled_back += not d.accepted
        if plan.root_p >= 0.5:
            assert len(plan.partitions) == 1
            assert plan.trace == ()
        # alpha 0 always accepts the whole workflow on the local path
        plan0 = build_plan(
            PartitionConfig(alpha=0.0, method="propart"),
            tmpl,
            model=model,
            origin=ctx.origin_fog,
            slacks=slacks,
        )
        assert len(plan0.partitions) == 1
        assert plan0.trace == ()
    assert accepted > 0
    _verdict(
        "partition trace contract",
        f"0 violations across all grid runs; direct plans: {accepted} "
        f"accepted / {rolled_back} rolled-back splits all consistent",
    )


# -------------------------------------------------------- allocation contract


def test_allocation_decision_contract(
    fig5_sweep, fig7_sweep, fig11_sweep, fig12_sweep
):
    total = sum(
        r.mr_violations
        for reports, _ in (fig5_sweep, fig7_sweep, fig11_sweep, fig12_sweep)
        for r in reports
    )
    assert total == 0

    # spot-check the decision log of one traced workflow run and one traced
    # monolithic run
    remote_seen = 0
    for suite, method, load in (
        ("fig5_partitioning", "propart", 300),
        ("fig7_alloc_monolithic", "mr", 1000),
    ):
        sc = scenario_from_config(
            {
                "suite": suite,
                "repetitions": 1,
                "seed": 1234,
                "methods": [method],
                "loads": [load],
            }
        )
        _, records = run_sweep(sc, parallel=1, trace=True)
        assert records
        for rec in records:
            if rec["method"] != "mr":
                continue
            by_fog = {c["fog"]: c for c in rec["candidates"]}
            local = by_fog[rec["local_fog"]]
            if rec["reason"] == "remote_ci_disjoint":
                chosen = by_fog[rec["chosen"]]
                assert rec["chosen"] != rec["local_fog"]
                # log probabilities are rounded to 6 places, so a strict
                # gain can print as a tie; the engine-side tally above
                # checks the full-precision inequality
                assert chosen["p"] >= local["p"]
                lo1, hi1 = chosen["ci"]
                lo2, hi2 = local["ci"]
                assert hi1 < lo2 or hi2 < lo1
                remote_seen += 1
            else:
                assert rec["chosen"] == rec["local_fog"]
    assert remote_seen > 0
    _verdict(
        "allocation decision contract",
        f"0 violations across all grid runs; {remote_seen} traced remote "
        "assignments all probability-superior with disjoint intervals",
    )


# ------------------------------------------------- partitioning improvements


def test_partitioning_meet_rate_gains(fig5_sweep):
    reports, elapsed = fig5_sweep
    cells = _cells(reports)
    loads = sorted({k[1] for k in cells})
    degree = next(iter({k[2] for k in cells}))
    gaps = []
    for load in loads:
        gap = (
            cells[("propart", load, degree)][0]
            - cells[("none", load, degree)][0]
        )
        gaps.append(gap)
        assert gap >= METHOD_GAP
    for method in ("none", "mincut", "leastdata", "propart"):
        meets = [cells[(method, load, degree)][0] for load in loads]
        for lo, hi in zip(meets, meets[1:]):
            assert hi <= lo + RISE_NOISE
    assert elapsed < GRID_BUDGET_S
    _verdict(
        "partitioning meet-rate gains",
        f"gaps {['%.1fpp' % (100 * g) for g in gaps]} at loads {loads}, "
        f"all methods non-increasing, grid ran in {elapsed:.0f}s",
    )


# ------------------------------------------------------ allocation orderings


def test_allocation_meet_rate_ordering(fig7_sweep):
    reports, _ = fig7_sweep
    cells = _cells(reports)
    loads = sorted({k[1] for k in cells})
    degree = next(iter({k[2] for k in cells}))
    top = loads[-1]
    mr = cells[("mr", top, degree)][0]
    gap_mect = mr - cells[("mect", top, degree)][0]
    gap_mcc = mr - cells[("mcc", top, degree)][0]
    assert gap_mect >= METHOD_GAP
    assert gap_mcc >= METHOD_GAP
    for load in (l for l in loads if l >= 800):
        nofed = cells[("nofed", load, degree)][0]
        for method in ("mr", "mect", "mcc"):
            assert nofed < cells[(method, load, degree)][0]
    _verdict(
        "allocation meet-rate ordering",
        f"at {top} requests the probability allocator leads by "
        f"{100 * gap_mect:.1f}pp / {100 * gap_mcc:.1f}pp; "
        "no-federation strictly worst at loads >= 800",
    )


# --------------------------------------------------------- federation scaling


def test_degree_scaling(fig11_sweep, fig12_sweep):
    wf_cells = _cells(fig11_sweep[0])
    top = max(k[1] for k in wf_cells)
    d1 = wf_cells[("mr", top, 1)][0]
    d4 = wf_cells[("mr", top, 4)][0]
    assert d4 - d1 >= DEGREE_GAP

    mono_cells = _cells(fig12_sweep[0])
    load = next(iter({k[1] for k in mono_cells}))
    gaps = {}
    for degree in (2, 3, 4):
        mr = mono_cells[("mr", load, degree)][0]
        gap_mect = mr - mono_cells[("mect", load, degree)][0]
        gap_mcc = mr - mono_cells[("mcc", load, degree)][0]
        assert gap_mect >= METHOD_GAP
        assert gap_mcc >= METHOD_GAP
        gaps[degree] = (gap_mect, gap_mcc)
    _verdict(
        "federation degree scaling",
        f"workflows: degree 4 leads degree 1 by {100 * (d4 - d1):.1f}pp at "
        f"{top} requests; monolithic leads "
        + ", ".join(
            f"d{d}: {100 * g[0]:.0f}/{100 * g[1]:.0f}pp"
            for d, g in gaps.items()
        ),
    )


# ------------------------------------------------------------ makespan trend


def test_makespan_trends(fig5_sweep, fig7_sweep):
    for sweep, methods in (
        (fig5_sweep, ("none", "mincut", "leastdata", "propart")),
        (fig7_sweep, ("mr", "mect", "mcc", "nofed")),
    ):
        cells = _cells(sweep[0])
        loads = sorted({k[1] for k in cells})
        degree = next(iter({k[2] for k in cells}))
        for method in methods:
            spans = [cells[(method, load, degree)][1] for load in loads]
            for lo, hi in zip(spans, spans[1:]):
                assert hi >= lo * (1.0 - MAKESPAN_NOISE)
    mono = _cells(fig7_sweep[0])
    degree = next(iter({k[2] for k in mono}))
    top = max(k[1] for k in mono)
    mcc = mono[("mcc", top, degree)][1]
    mr = mono[("mr", top, degree)][1]
    assert mcc > mr
    _verdict(
        "makespan trends",
        "every method non-decreasing in load within 5%; certainty baseline "
        f"{mcc:.0f}ms vs probability {mr:.0f}ms at {top} requests",
    )


# -------------------------------------------------------------- determinism


def test_csv_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "suite": "fig5_partitioning",
                "repetitions": 2,
                "seed": 4242,
            }
        )
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        subprocess.run(
            [
                sys.executable,
                "-m",
                "fogfed.cli",
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--parallel",
                str(_PARALLEL),
            ],
            check=True,
            capture_output=True,
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rows = outs[0].decode().strip().splitlines()
    _verdict(
        "byte-identical reruns",
        f"two simulate invocations, {len(rows) - 1} rows each, equal bytes",
    )


# -------------------------------------------------------------- micro-oracle


def _micro_app():
    v = MicroServiceSpec(
        "unit.stage", "stage", "unit", NormalSpec(200.0, 0.0), 0.1
    )
    return WorkflowSpec("unit", (v,), (), input_mb=0.5)


def test_engine_micro_oracle():
    # one fog, one node, point-mass 100 ms services, arrivals every 40 ms:
    # the k-th request queues behind k-1 predecessors, so its makespan is
    # max(0, k * (100 - 40)) + 100 and completions land at 100 * (k + 1)
    app = _micro_app()
    topo = build_grid(1, 1, 7, node_count=1, fixed_mips=2000.0)
    etc = build_etc(topo, {"unit.stage": NormalSpec(200.0, 0.0)})
    ett = build_ett(
        topo, LinkProfile(800.0, NormalSpec(20.0, 0.0)), {"unit.stage": 0.5}
    )
    cfg = RunConfig(
        scenario="micro",
        method="fifo",
        ctx=Context(topo, etc, ett, (app,), DeadlinePolicy(), origin_fog=0),
        workload=WorkloadSpec(10, 0.0, 1000.0),
        partition_cfg=PartitionConfig(method="no_partition"),
        alloc_method="nofed",
    )
    reqs = [
        assign_deadlines(
            app,
            40.0 * k,
            service_slacks(app, DeadlinePolicy(), {"unit.stage": 100.0}),
            request_id=k,
        )
        for k in range(10)
    ]
    engine = _Engine(cfg, seed=9)
    report = engine.run(reqs, seed=9)
    for k in range(10):
        assert engine._completions[k] == 100.0 * (k + 1)
        makespan = engine._completions[k] - 40.0 * k
        assert makespan == max(0.0, k * 60.0) + 100.0
    # slack is 100 + 50 + 20 = 170 ms, so only the first two requests meet
    assert report.met == 2 and report.missed == 8
    assert report.meet_rate == 0.2
    assert report.avg_makespan_ms == 370.0
    _verdict(
        "engine micro-oracle",
        "10-request single-node schedule matches the hand table exactly",
    )
