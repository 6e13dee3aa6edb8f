import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogfed.alloc import (
    AllocationDecision,
    CandidateRecord,
    Completion,
    CompletionModel,
    QueueEstimate,
    allocate_mcc,
    allocate_mect,
    allocate_mr,
    allocate_no_federation,
    validate_mr_decision,
)
from fogfed.dist import (
    LatencyPmf,
    NormalSpec,
    central_ci,
    ci_disjoint,
    convolve,
    pmf_from_normal,
    point_mass,
    prob_on_time,
    shift,
)
from fogfed.federation import EtcMatrix, EttMatrix, build_grid, hop_distance
from fogfed.model import MicroServiceSpec, WorkflowSpec
from fogfed.partition import PartitionPlan, no_partition


def _unit(uid="u", pinned=False):
    v = MicroServiceSpec(uid, uid, "t", NormalSpec(10.0, 1.0), 1.0, pinned)
    return WorkflowSpec("t", (v,), ())


def _etc_points(vals):
    entries = {k: point_mass(v, 1.0) for k, v in vals.items()}
    specs = {k: NormalSpec(v, 0.0) for k, v in vals.items()}
    return EtcMatrix(1.0, entries, specs)


def _etc_normals(vals, width=1.0):
    entries = {
        k: pmf_from_normal(NormalSpec(*v), width) for k, v in vals.items()
    }
    specs = {k: NormalSpec(*v) for k, v in vals.items()}
    return EtcMatrix(width, entries, specs)


def _ett_points(types, per_hop, width=1.0):
    entries = {}
    max_hops = max(per_hop)
    for t in types:
        entries[(t, 0)] = point_mass(0.0, width)
        for h, v in per_hop.items():
            if h > 0:
                entries[(t, h)] = point_mass(v, width)
    return EttMatrix(width, max_hops, entries)


def _no_wait(topo):
    return QueueEstimate({f: 0.0 for f in topo.fog_ids()})


class TestMr:
    def test_isolated_fog_stays_local(self):
        topo = build_grid(1, 1, seed=0)
        w = _unit()
        etc = _etc_points({("u", 0): 100.0})
        ett = _ett_points(["u"], {0: 0.0})
        plan = no_partition(w)
        (d,) = allocate_mr(
            plan, 0, topo, etc, ett, _no_wait(topo), (80.0,),
            model=CompletionModel(etc, ett),
        )
        assert d.chosen == 0
        assert d.reason == "local_default"
        assert validate_mr_decision(d) == []

    def test_point_mass_remote_wins(self):
        # local completes at 100ms, remote end-to-end at 50ms, deadline 80
        topo = build_grid(2, 1, seed=0)
        w = _unit()
        etc = _etc_points({("u", 0): 100.0, ("u", 1): 30.0})
        ett = _ett_points(["u"], {1: 20.0})
        plan = no_partition(w)
        (d,) = allocate_mr(
            plan, 0, topo, etc, ett, _no_wait(topo), (80.0,),
            model=CompletionModel(etc, ett),
        )
        assert d.chosen == 1
        assert d.reason == "remote_ci_disjoint"
        remote = [r for r in d.candidates if r.fog == 1][0]
        assert remote.p == 1.0
        assert remote.mean_ms == pytest.approx(50.0)
        local = [r for r in d.candidates if r.fog == 0][0]
        assert local.p == 0.0
        assert validate_mr_decision(d) == []

    def test_overlap_blocks_remote_hand_walk(self):
        # replay the algorithm by hand on a 3-fog row, center receiving
        topo = build_grid(3, 1, seed=0)
        local = 1
        etc = _etc_normals(
            {("u", 0): (55.0, 15.0), ("u", 1): (70.0, 10.0), ("u", 2): (60.0, 12.0)}
        )
        ett = _ett_points(["u"], {1: 5.0, 2: 10.0})
        queues = _no_wait(topo)
        delta = 80.0
        plan = no_partition(_unit())
        (d,) = allocate_mr(
            plan, local, topo, etc, ett, queues, (delta,),
            model=CompletionModel(etc, ett),
        )

        e_r = shift(etc.pmf("u", local), 0.0)
        p_r = prob_on_time(e_r, delta)
        ci_r = central_ci(e_r, 0.95)
        by_fog = {}
        for g in (0, 2):
            e_g = shift(convolve(etc.pmf("u", g), ett.pmf("u", 1)), 0.0)
            by_fog[g] = (prob_on_time(e_g, delta), central_ci(e_g, 0.95))
        assert all(p > p_r for p, _ in by_fog.values())
        assert all(not ci_disjoint(ci, ci_r) for _, ci in by_fog.values())

        assert d.chosen == local
        assert d.reason == "local_higher_p"
        recs = {r.fog: r for r in d.candidates}
        assert recs[local].p == pytest.approx(p_r)
        for g in (0, 2):
            assert recs[g].p == pytest.approx(by_fog[g][0])
            assert recs[g].in_f
            assert recs[g].blocked
        assert validate_mr_decision(d) == []

    def test_local_dominance(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 10.0, ("u", 1): 90.0})
        ett = _ett_points(["u"], {1: 5.0})
        plan = no_partition(_unit())
        (d,) = allocate_mr(
            plan, 0, topo, etc, ett, _no_wait(topo), (50.0,),
            model=CompletionModel(etc, ett),
        )
        assert d.chosen == 0
        assert d.reason == "local_higher_p"
        assert not any(r.in_f for r in d.candidates if r.fog != 0)
        assert validate_mr_decision(d) == []

    def test_pinned_forced_local(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 100.0, ("u", 1): 1.0})
        ett = _ett_points(["u"], {1: 0.5})
        plan = no_partition(_unit(pinned=True))
        (d,) = allocate_mr(
            plan, 0, topo, etc, ett, _no_wait(topo), (80.0,),
            model=CompletionModel(etc, ett),
        )
        assert d.chosen == 0
        assert d.reason == "forced_local_pinned"
        assert validate_mr_decision(d) == []

    def test_queue_wait_shifts_remote(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 100.0, ("u", 1): 30.0})
        ett = _ett_points(["u"], {1: 20.0})
        plan = no_partition(_unit())
        # a 200ms backlog on the fast fog kills its probability
        queues = QueueEstimate({0: 0.0, 1: 200.0})
        (d,) = allocate_mr(
            plan, 0, topo, etc, ett, queues, (80.0,),
            model=CompletionModel(etc, ett),
        )
        assert d.chosen == 0
        remote = [r for r in d.candidates if r.fog == 1][0]
        assert remote.p == 0.0
        assert remote.mean_ms == pytest.approx(250.0)

    def test_second_partition_measures_hops_from_first(self):
        # chain a->b split into two partitions; first hops to fog 1,
        # so the second sees fog 1 at zero transfer distance
        va = MicroServiceSpec("a", "a", "t", NormalSpec(10.0, 1.0), 1.0)
        vb = MicroServiceSpec("b", "b", "t", NormalSpec(10.0, 1.0), 1.0)
        w = WorkflowSpec("t", (va, vb), (("a", "b"),))
        pa = w.induced(frozenset({"a"}))
        pb = w.induced(frozenset({"b"}))
        plan = PartitionPlan(
            "propart", 0.5, 0.0, (pa, pb), (0.9, 0.9), (False, False)
        )
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points(
            {("a", 0): 100.0, ("a", 1): 10.0, ("b", 0): 100.0, ("b", 1): 10.0}
        )
        ett = _ett_points(["a", "b"], {1: 5.0})
        ds = allocate_mr(
            plan, 0, topo, etc, ett, _no_wait(topo), (60.0, 60.0),
            model=CompletionModel(etc, ett),
        )
        assert [d.chosen for d in ds] == [1, 1]
        second_remote = [r for r in ds[1].candidates if r.fog == 1][0]
        assert second_remote.hops == 0
        assert second_remote.mean_ms == pytest.approx(10.0)  # no transfer
        assert all(validate_mr_decision(d) == [] for d in ds)

    def test_deadline_count_mismatch(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 10.0, ("u", 1): 10.0})
        ett = _ett_points(["u"], {1: 5.0})
        with pytest.raises(ValueError):
            allocate_mr(
                no_partition(_unit()), 0, topo, etc, ett,
                _no_wait(topo), (50.0, 50.0),
                model=CompletionModel(etc, ett),
            )

    def test_validator_catches_bad_remote(self):
        ci = central_ci(point_mass(50.0, 1.0), 0.95)
        ci2 = central_ci(point_mass(52.0, 1.0), 0.95)
        local = CandidateRecord(fog=0, hops=0, mean_ms=50.0, p=0.9, ci=ci)
        # remote claims the win with a LOWER probability
        remote = CandidateRecord(
            fog=1, hops=1, mean_ms=52.0, p=0.5, ci=ci2, in_f=True
        )
        d = AllocationDecision(
            "mr", 0, 0, 1, "remote_ci_disjoint", (local, remote)
        )
        issues = validate_mr_decision(d)
        assert any("probability gain" in m for m in issues)
        assert any("mislabeled" in m for m in issues)


class TestMect:
    def test_argmin_expected_completion(self):
        topo = build_grid(3, 1, seed=0)
        local = 1
        etc = _etc_points({("u", 0): 7.0, ("u", 1): 10.0, ("u", 2): 9.0})
        d = allocate_mect(
            _unit(), local, topo, etc, _no_wait(topo),
            model=CompletionModel(etc),
        )
        assert d.chosen == 0
        assert d.reason == "min_expected_completion"

    def test_tie_prefers_local(self):
        topo = build_grid(3, 1, seed=0)
        etc = _etc_points({("u", 0): 8.0, ("u", 1): 8.0, ("u", 2): 8.0})
        d = allocate_mect(
            _unit(), 1, topo, etc, _no_wait(topo), model=CompletionModel(etc)
        )
        assert d.chosen == 1
        assert d.reason == "local_default"

    def test_queue_wait_counts(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 12.0, ("u", 1): 5.0})
        queues = QueueEstimate({0: 0.0, 1: 10.0})
        d = allocate_mect(
            _unit(), 0, topo, etc, queues, model=CompletionModel(etc)
        )
        assert d.chosen == 0  # 12 beats 10+5
        recs = {r.fog: r for r in d.candidates}
        assert recs[1].mean_ms == pytest.approx(15.0)

    def test_pinned(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 100.0, ("u", 1): 1.0})
        d = allocate_mect(
            _unit(pinned=True), 0, topo, etc, _no_wait(topo), pinned=True,
            model=CompletionModel(etc),
        )
        assert d.chosen == 0
        assert d.reason == "forced_local_pinned"


class TestMcc:
    def test_argmax_certainty(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 60.0, ("u", 1): 40.0})
        d = allocate_mcc(
            _unit(), 0, topo, etc, _no_wait(topo), 100.0,
            model=CompletionModel(etc),
        )
        assert d.chosen == 1
        assert d.reason == "max_certainty"
        recs = {r.fog: r for r in d.candidates}
        assert recs[1].certainty == pytest.approx(60.0)

    def test_no_positive_certainty_falls_local(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 60.0, ("u", 1): 70.0})
        d = allocate_mcc(
            _unit(), 0, topo, etc, _no_wait(topo), 50.0,
            model=CompletionModel(etc),
        )
        assert d.chosen == 0
        assert d.reason == "local_no_positive_certainty"

    def test_three_fogs(self):
        topo = build_grid(3, 1, seed=0)
        etc = _etc_points({("u", 0): 45.0, ("u", 1): 60.0, ("u", 2): 48.0})
        d = allocate_mcc(
            _unit(), 1, topo, etc, _no_wait(topo), 50.0,
            model=CompletionModel(etc),
        )
        assert d.chosen == 0  # certainty 5 beats 2; local is negative

    def test_agrees_with_mect_when_unconstrained(self):
        rng = np.random.default_rng(7)
        topo = build_grid(3, 3, seed=1)
        for _ in range(20):
            vals = {
                ("u", f): float(rng.integers(10, 40))
                for f in topo.fog_ids()
            }
            etc = _etc_points(vals)
            local = int(rng.integers(0, 9))
            model = CompletionModel(etc)
            a = allocate_mect(
                _unit(), local, topo, etc, _no_wait(topo), model=model
            )
            b = allocate_mcc(
                _unit(), local, topo, etc, _no_wait(topo), 1000.0,
                model=model,
            )
            assert a.chosen == b.chosen

    def test_ranking_ignores_backlog_while_viable(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 30.0, ("u", 1): 20.0})
        queues = QueueEstimate({0: 0.0, 1: 25.0})
        d = allocate_mcc(
            _unit(), 0, topo, etc, queues, 100.0,
            model=CompletionModel(etc),
        )
        assert d.chosen == 1  # 45 expected vs 30 local, rating still wins
        recs = {r.fog: r for r in d.candidates}
        assert recs[1].certainty == pytest.approx(80.0)
        assert recs[1].mean_ms == pytest.approx(45.0)

    def test_backlogged_best_fog_falls_local_not_runner_up(self):
        topo = build_grid(3, 1, seed=0)
        etc = _etc_points({("u", 0): 20.0, ("u", 1): 30.0, ("u", 2): 25.0})
        queues = QueueEstimate({0: 90.0, 1: 0.0, 2: 0.0})
        d = allocate_mcc(
            _unit(), 1, topo, etc, queues, 100.0,
            model=CompletionModel(etc),
        )
        # fog 0 has the best rating but its backlog spends the budget; the
        # method knows only one answer and dumps the unit back home instead
        # of trying fog 2
        assert d.chosen == 1
        assert d.reason == "local_no_positive_certainty"

    def test_all_backlogged_falls_local(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 20.0, ("u", 1): 10.0})
        queues = QueueEstimate({0: 200.0, 1: 200.0})
        d = allocate_mcc(
            _unit(), 0, topo, etc, queues, 100.0,
            model=CompletionModel(etc),
        )
        assert d.chosen == 0
        assert d.reason == "local_no_positive_certainty"


class TestNoFederation:
    def test_always_local(self):
        etc = _etc_points({("u", 3): 10.0})
        d = allocate_no_federation(
            _unit(), 3, queues=QueueEstimate({}), model=CompletionModel(etc)
        )
        assert d.chosen == 3
        assert d.reason == "local_default"
        assert len(d.candidates) == 1
        assert d.candidates[0].fog == 3

    def test_mean_logged_when_profiles_given(self):
        etc = _etc_points({("u", 0): 42.0})
        d = allocate_no_federation(
            _unit(), 0, queues=QueueEstimate({0: 8.0}),
            model=CompletionModel(etc),
        )
        assert d.candidates[0].mean_ms == pytest.approx(50.0)


class TestQueueEstimate:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QueueEstimate({0: -1.0})

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            QueueEstimate({0: 1.0, 3: math.nan})

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="inf"):
            QueueEstimate({0: 1.0, 3: math.inf})

    def test_missing_fog_is_zero(self):
        q = QueueEstimate({0: 5.0})
        assert q.wait(1) == 0.0


def test_completion_model_caches():
    etc = _etc_points({("a", 0): 10.0, ("b", 0): 20.0})
    ett = _ett_points(["a", "b"], {1: 5.0})
    m = CompletionModel(etc, ett)
    first = m.end_to_end(("a", "b"), 0, 1)
    again = m.end_to_end(("a", "b"), 0, 1)
    assert first is again
    assert m.mean_exec_sum(("a", "b"), 0) == pytest.approx(30.0)
    facts = m.completion(("a", "b"), 0, 1, 0.95)
    assert facts is m.completion(("a", "b"), 0, 1, 0.95)
    assert facts is not m.completion(("a", "b"), 0, 1, 0.9)
    assert facts.mean == first.mean
    # chains are memoized by prefix: the 1-type prefix is the ETC entry
    # itself, and the 2-type chain convolves it with the next type
    chain = m.end_to_end(("a", "b"), 0, 0)
    assert m.end_to_end(("a", "b"), 0, 0) is chain
    assert m._cache[(("a",), 0, 0)] is etc.pmf("a", 0)
    ref = convolve(etc.pmf("a", 0), etc.pmf("b", 0))
    assert (chain.bin_width, chain.origin) == (ref.bin_width, ref.origin)
    assert np.array_equal(chain.mass, ref.mass)
    with pytest.raises(ValueError, match="transfer matrix"):
        CompletionModel(etc).end_to_end(("a",), 0, 1)
    with pytest.raises(ValueError, match="empty chain"):
        m.end_to_end((), 0, 0)


grid_pmfs = st.builds(
    lambda width, k0, weights: LatencyPmf(
        width, k0 * width, np.array(weights) / sum(weights)
    ),
    width=st.sampled_from([0.1, 0.25, 1.0, 2.0, 3.7]),
    k0=st.integers(min_value=0, max_value=5000),
    weights=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60
    ).filter(lambda ws: sum(ws) > 0.1),
)


@settings(max_examples=200, deadline=None)
@given(
    grid_pmfs,
    st.floats(min_value=0.0, max_value=20_000.0),
    st.floats(min_value=-100.0, max_value=30_000.0),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_completion_offsets_match_shifted_pmf(d, wait, deadline, level):
    rec = Completion(d, level).candidate(7, 3, wait, deadline)
    assert (rec.fog, rec.hops) == (7, 3)
    ref = shift(d, wait)
    assert rec.p == prob_on_time(ref, deadline)
    ref_ci = central_ci(ref, level)
    ci = rec.ci
    assert (ci.lo, ci.hi, ci.level) == (ref_ci.lo, ref_ci.hi, ref_ci.level)
    assert abs(rec.mean_ms - ref.mean) <= 1e-9


# ------------------------------------------------- candidate-table oracle
#
# The allocator bodies as they were before the candidate tables: every
# candidate's fog list, hop count and completion looked up per decision.
# The table-driven allocators must decide exactly as these do.


def reference_allocate_mr(
    plan, local, topo, etc, ett, queues, deadlines_rel, ci_level=0.95,
    model=None,
):
    if len(deadlines_rel) != len(plan.partitions):
        raise ValueError("one deadline per partition required")
    m = model if model is not None else CompletionModel(etc, ett)
    decisions = []
    origin = local
    for idx, part in enumerate(plan.partitions):
        delta = deadlines_rel[idx]
        types = part.topo_order
        r = m.completion(types, local, 0, ci_level).candidate(
            local, 0, queues.wait(local), delta
        )
        p_r, ci_r, mean_r = r.p, r.ci, r.mean_ms
        local_rec = CandidateRecord(
            fog=local, hops=0, mean_ms=mean_r, p=p_r, ci=ci_r
        )
        if plan.must_run_local[idx]:
            decisions.append(
                AllocationDecision(
                    "mr", idx, local, local, "forced_local_pinned", (local_rec,)
                )
            )
            origin = local
            continue
        remotes = []
        for g in topo.neighbors(local):
            hops = hop_distance(topo, origin, g)
            r = m.completion(types, g, hops, ci_level).candidate(
                g, hops, queues.wait(g), delta
            )
            p_g, ci_g, mean_g = r.p, r.ci, r.mean_ms
            remotes.append((g, hops, mean_g, p_g, ci_g))
        chosen = local
        reason = "local_default" if not remotes else "local_higher_p"
        blocked = set()
        f_ordered = sorted(
            (r for r in remotes if r[3] > p_r), key=lambda r: (-r[3], r[0])
        )
        for g, _hops, _mean, _p, ci_g in f_ordered:
            if ci_disjoint(ci_g, ci_r):
                chosen = g
                reason = "remote_ci_disjoint"
                break
            blocked.add(g)
        records = [local_rec] + [
            CandidateRecord(
                fog=g, hops=hops, mean_ms=mean_g, p=p_g, ci=ci_g,
                in_f=p_g > p_r, blocked=g in blocked,
            )
            for g, hops, mean_g, p_g, ci_g in remotes
        ]
        decisions.append(
            AllocationDecision("mr", idx, local, chosen, reason, tuple(records))
        )
        origin = chosen
    return decisions


def reference_allocate_mect(
    unit, local, topo, etc, queues, *, pinned=False, partition_index=0,
    model=None,
):
    m = model if model is not None else CompletionModel(etc)
    types = unit.topo_order
    if pinned:
        rec = CandidateRecord(
            fog=local,
            hops=0,
            mean_ms=queues.wait(local) + m.mean_exec_sum(types, local),
        )
        return AllocationDecision(
            "mect", partition_index, local, local, "forced_local_pinned", (rec,)
        )
    records = []
    best_fog, best_ms = local, math.inf
    for g in [local, *topo.neighbors(local)]:
        ms = queues.wait(g) + m.mean_exec_sum(types, g)
        records.append(
            CandidateRecord(fog=g, hops=0 if g == local else 1, mean_ms=ms)
        )
        if ms < best_ms:
            best_fog, best_ms = g, ms
    reason = "local_default" if best_fog == local else "min_expected_completion"
    return AllocationDecision(
        "mect", partition_index, local, best_fog, reason, tuple(records)
    )


def reference_allocate_mcc(
    unit, local, topo, etc, queues, deadline_rel, *, pinned=False,
    partition_index=0, model=None,
):
    m = model if model is not None else CompletionModel(etc)
    types = unit.topo_order
    if pinned:
        exec_ms = m.mean_exec_sum(types, local)
        rec = CandidateRecord(
            fog=local,
            hops=0,
            mean_ms=queues.wait(local) + exec_ms,
            certainty=deadline_rel - exec_ms,
        )
        return AllocationDecision(
            "mcc", partition_index, local, local, "forced_local_pinned", (rec,)
        )
    records = []
    best_fog, best_c, best_ms = None, -math.inf, math.inf
    for g in [local, *topo.neighbors(local)]:
        exec_ms = m.mean_exec_sum(types, g)
        ms = queues.wait(g) + exec_ms
        c = deadline_rel - exec_ms
        records.append(
            CandidateRecord(
                fog=g, hops=0 if g == local else 1, mean_ms=ms, certainty=c
            )
        )
        if c > 0 and c > best_c:
            best_fog, best_c, best_ms = g, c, ms
    if best_fog is None or deadline_rel - best_ms <= 0:
        return AllocationDecision(
            "mcc", partition_index, local, local,
            "local_no_positive_certainty", tuple(records),
        )
    reason = "local_default" if best_fog == local else "max_certainty"
    return AllocationDecision(
        "mcc", partition_index, local, best_fog, reason, tuple(records)
    )


def _decision_key(d):
    """Everything a decision records; floats by repr so NaN compares equal."""
    return (
        d.method, d.partition_index, d.local_fog, d.chosen, d.reason,
        tuple(
            (
                c.fog, c.hops, repr(c.mean_ms), repr(c.p),
                None if c.ci is None
                else (repr(c.ci.lo), repr(c.ci.hi), repr(c.ci.level)),
                c.in_f, c.blocked, repr(c.certainty),
            )
            for c in d.candidates
        ),
    )


ORACLE_TYPES = ("a", "b", "c")


def _oracle_grid(width):
    """A 3x3 grid whose (type, fog) normals make CIs sometimes overlap."""
    topo = build_grid(3, 3, seed=1)
    rng = np.random.default_rng(11)
    etc = _etc_normals(
        {
            (t, f): (float(rng.uniform(20.0, 90.0)), float(rng.uniform(0, 15)))
            for t in ORACLE_TYPES
            for f in topo.fog_ids()
        },
        width,
    )
    ett = _ett_points(
        ORACLE_TYPES, {1: 6.0, 2: 13.0, 3: 19.0, 4: 27.0}, width
    )
    return topo, etc, ett


@pytest.fixture(scope="module")
def oracle_federation():
    """The oracle grid on 1 ms bins: every origin is a whole number of ms."""
    return _oracle_grid(1.0)


@pytest.fixture(scope="module")
def half_ms_federation():
    """The oracle grid on 0.5 ms bins, where a bin count is not a time."""
    return _oracle_grid(0.5)


def _oracle_plan(parts, pinned):
    """A plan of chain partitions over ``ORACLE_TYPES`` ids."""
    specs = []
    for ids in parts:
        vs = tuple(
            MicroServiceSpec(t, t, "o", NormalSpec(10.0, 1.0), 0.5)
            for t in ids
        )
        specs.append(WorkflowSpec("o", vs, tuple(zip(ids, ids[1:]))))
    return PartitionPlan(
        "propart", 0.5, 0.0, tuple(specs), (0.5,) * len(specs), tuple(pinned)
    )


oracle_cases = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(
                st.sampled_from(ORACLE_TYPES), min_size=1, max_size=3,
                unique=True,
            ),
            min_size=n, max_size=n,
        ),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(
            st.floats(min_value=0.0, max_value=400.0), min_size=n, max_size=n
        ),
    )
)
oracle_waits = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=300.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    oracle_cases,
    st.integers(min_value=0, max_value=8),
    oracle_waits,
    st.sampled_from([0.9, 0.95]),
)
# Edges of the inline arithmetic of ``allocate_mr``; the times are those of
# the 1 ms grid, whose fog 4 has neighbours 1, 3, 5 and 7, one hop away.
# Waits on half a bin, which ``round`` ties to even: on 1 ms bins 0.5 and
# 2.5 round down, 1.5 and 3.5 up; on 0.5 ms bins 0.25 and 1.25 down, 0.75
# and 1.75 up.
@example(([["a"], ["b", "c"]], [False, False], [60.0, 120.0]), 4,
         {4: 2.5, 1: 0.5, 3: 1.5, 5: 3.5, 7: 4.5}, 0.95)
@example(([["a"], ["b", "c"]], [False, False], [60.0, 120.0]), 4,
         {4: 0.25, 1: 0.75, 3: 1.25, 5: 1.75}, 0.95)
# A deadline on the first shifted bin centre of fog 3 (origin 32 + wait
# 2), before the first bin of the local fog (origin 49 + wait 7); then
# half a bin before that centre.
@example(([["a", "b"]], [False], [34.0]), 4, {4: 7.0, 3: 2.0}, 0.95)
@example(([["a", "b"]], [False], [33.5]), 4, {4: 7.0, 3: 2.0}, 0.95)
# Past the last bin of fog 1 (origin 66, five bins) but not of the local.
@example(([["a"]], [False], [71.0]), 4, {}, 0.95)
# On the last bin centre of fogs 5 and 7 (83 ms on both grids), where p
# is 1 although their CDFs end a few ulps off 1.
@example(([["a"]], [False], [83.0]), 4, {}, 0.95)
# Before every first bin, then past every last one.
@example(([["c"], ["a"]], [False, False], [0.0, 400.0]), 4, {1: 0.5}, 0.9)
def test_candidate_tables_decide_as_reference(
    oracle_federation, half_ms_federation, case, local, waits, level
):
    for federation in (oracle_federation, half_ms_federation):
        _check_candidate_tables(federation, case, local, waits, level)


def _check_candidate_tables(federation, case, local, waits, level):
    topo, etc, ett = federation
    parts, pinned, deadlines = case
    plan = _oracle_plan(parts, pinned)
    queues = QueueEstimate(waits)
    deadlines = tuple(deadlines)
    want = [
        _decision_key(d)
        for d in reference_allocate_mr(
            plan, local, topo, etc, ett, queues, deadlines, level
        )
    ]
    model = CompletionModel(etc, ett)
    # a cold model builds the tables, a warm one reads them
    for _ in range(2):
        got = allocate_mr(
            plan, local, topo, etc, ett, queues, deadlines, level, model=model
        )
        assert [_decision_key(d) for d in got] == want
    # only unpinned partitions look at remote completions
    unpinned = {
        p.topo_order for p, pin in zip(plan.partitions, pinned) if not pin
    }
    for key in model._cache:
        if key[0] == "mr" or (len(key) >= 3 and key[0] != "mean" and key[2]):
            types = key[1] if key[0] == "mr" else key[0]
            assert types in unpinned, key
    for idx, (part, pin) in enumerate(zip(plan.partitions, pinned)):
        for new, ref, extra in (
            (allocate_mect, reference_allocate_mect, ()),
            (allocate_mcc, reference_allocate_mcc, (deadlines[idx],)),
        ):
            want_d = ref(
                part, local, topo, etc, queues, *extra, pinned=pin,
                partition_index=idx,
            )
            for _ in range(2):
                got_d = new(
                    part, local, topo, etc, queues, *extra, pinned=pin,
                    partition_index=idx, model=model,
                )
                assert _decision_key(got_d) == _decision_key(want_d)


def test_pinned_partition_adds_no_remote_entry(oracle_federation):
    topo, etc, ett = oracle_federation
    plan = _oracle_plan([("a", "b"), ("c",)], [True, True])
    model = CompletionModel(etc, ett)
    decisions = allocate_mr(
        plan, 4, topo, etc, ett, _no_wait(topo), (90.0, 90.0), model=model
    )
    assert [d.reason for d in decisions] == ["forced_local_pinned"] * 2
    assert model._cache
    for key in model._cache:
        assert key[0] != "mr", key
        if len(key) >= 3:
            assert key[2] == 0, key


def test_model_refuses_a_second_topology(oracle_federation):
    # a 9x1 row shares the 3x3 grid's fog ids but not its neighbours
    topo, etc, ett = oracle_federation
    row = build_grid(9, 1, seed=1)
    plan = _oracle_plan([("a", "b")], [False])
    unit = plan.partitions[0]
    model = CompletionModel(etc, ett)
    allocate_mr(plan, 4, topo, etc, ett, _no_wait(topo), (90.0,), model=model)
    allocate_mect(unit, 4, topo, etc, _no_wait(topo), model=model)
    allocate_mcc(unit, 4, topo, etc, _no_wait(topo), 90.0, model=model)
    with pytest.raises(ValueError, match="another topology"):
        allocate_mr(
            plan, 4, row, etc, ett, _no_wait(row), (90.0,), model=model
        )
    with pytest.raises(ValueError, match="another topology"):
        allocate_mect(unit, 4, row, etc, _no_wait(row), model=model)
    with pytest.raises(ValueError, match="another topology"):
        allocate_mcc(unit, 4, row, etc, _no_wait(row), 90.0, model=model)
