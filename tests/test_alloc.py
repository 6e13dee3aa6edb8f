import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from fogfed.federation import EtcMatrix, EttMatrix, build_grid
from fogfed.model import MicroServiceSpec, WorkflowSpec
from fogfed.partition import PartitionPlan, no_partition


def _unit(uid="u", pinned=False):
    v = MicroServiceSpec(uid, uid, "t", NormalSpec(10.0, 1.0), 1.0, pinned)
    return WorkflowSpec("t", (v,), ())


def _etc_points(vals):
    entries = {k: point_mass(v, 1.0) for k, v in vals.items()}
    specs = {k: NormalSpec(v, 0.0) for k, v in vals.items()}
    return EtcMatrix(1.0, entries, specs)


def _etc_normals(vals):
    entries = {k: pmf_from_normal(NormalSpec(*v), 1.0) for k, v in vals.items()}
    specs = {k: NormalSpec(*v) for k, v in vals.items()}
    return EtcMatrix(1.0, entries, specs)


def _ett_points(types, per_hop):
    entries = {}
    max_hops = max(per_hop)
    for t in types:
        entries[(t, 0)] = point_mass(0.0, 1.0)
        for h, v in per_hop.items():
            if h > 0:
                entries[(t, h)] = point_mass(v, 1.0)
    return EttMatrix(1.0, max_hops, entries)


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
            plan, 0, topo, etc, ett, _no_wait(topo), (80.0,)
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
            plan, 0, topo, etc, ett, _no_wait(topo), (80.0,)
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
        (d,) = allocate_mr(plan, local, topo, etc, ett, queues, (delta,))

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
        (d,) = allocate_mr(plan, 0, topo, etc, ett, _no_wait(topo), (50.0,))
        assert d.chosen == 0
        assert d.reason == "local_higher_p"
        assert not any(r.in_f for r in d.candidates if r.fog != 0)
        assert validate_mr_decision(d) == []

    def test_pinned_forced_local(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 100.0, ("u", 1): 1.0})
        ett = _ett_points(["u"], {1: 0.5})
        plan = no_partition(_unit(pinned=True))
        (d,) = allocate_mr(plan, 0, topo, etc, ett, _no_wait(topo), (80.0,))
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
        (d,) = allocate_mr(plan, 0, topo, etc, ett, queues, (80.0,))
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
            plan, 0, topo, etc, ett, _no_wait(topo), (60.0, 60.0)
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
        d = allocate_mect(_unit(), local, topo, etc, _no_wait(topo))
        assert d.chosen == 0
        assert d.reason == "min_expected_completion"

    def test_tie_prefers_local(self):
        topo = build_grid(3, 1, seed=0)
        etc = _etc_points({("u", 0): 8.0, ("u", 1): 8.0, ("u", 2): 8.0})
        d = allocate_mect(_unit(), 1, topo, etc, _no_wait(topo))
        assert d.chosen == 1
        assert d.reason == "local_default"

    def test_queue_wait_counts(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 12.0, ("u", 1): 5.0})
        queues = QueueEstimate({0: 0.0, 1: 10.0})
        d = allocate_mect(_unit(), 0, topo, etc, queues)
        assert d.chosen == 0  # 12 beats 10+5
        recs = {r.fog: r for r in d.candidates}
        assert recs[1].mean_ms == pytest.approx(15.0)

    def test_pinned(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 100.0, ("u", 1): 1.0})
        d = allocate_mect(
            _unit(pinned=True), 0, topo, etc, _no_wait(topo), pinned=True
        )
        assert d.chosen == 0
        assert d.reason == "forced_local_pinned"


class TestMcc:
    def test_argmax_certainty(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 60.0, ("u", 1): 40.0})
        d = allocate_mcc(_unit(), 0, topo, etc, _no_wait(topo), 100.0)
        assert d.chosen == 1
        assert d.reason == "max_certainty"
        recs = {r.fog: r for r in d.candidates}
        assert recs[1].certainty == pytest.approx(60.0)

    def test_no_positive_certainty_falls_local(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 60.0, ("u", 1): 70.0})
        d = allocate_mcc(_unit(), 0, topo, etc, _no_wait(topo), 50.0)
        assert d.chosen == 0
        assert d.reason == "local_no_positive_certainty"

    def test_three_fogs(self):
        topo = build_grid(3, 1, seed=0)
        etc = _etc_points({("u", 0): 45.0, ("u", 1): 60.0, ("u", 2): 48.0})
        d = allocate_mcc(_unit(), 1, topo, etc, _no_wait(topo), 50.0)
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
            a = allocate_mect(_unit(), local, topo, etc, _no_wait(topo))
            b = allocate_mcc(
                _unit(), local, topo, etc, _no_wait(topo), 1000.0
            )
            assert a.chosen == b.chosen

    def test_ranking_ignores_backlog_while_viable(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 30.0, ("u", 1): 20.0})
        queues = QueueEstimate({0: 0.0, 1: 25.0})
        d = allocate_mcc(_unit(), 0, topo, etc, queues, 100.0)
        assert d.chosen == 1  # 45 expected vs 30 local, rating still wins
        recs = {r.fog: r for r in d.candidates}
        assert recs[1].certainty == pytest.approx(80.0)
        assert recs[1].mean_ms == pytest.approx(45.0)

    def test_backlogged_best_fog_falls_local_not_runner_up(self):
        topo = build_grid(3, 1, seed=0)
        etc = _etc_points({("u", 0): 20.0, ("u", 1): 30.0, ("u", 2): 25.0})
        queues = QueueEstimate({0: 90.0, 1: 0.0, 2: 0.0})
        d = allocate_mcc(_unit(), 1, topo, etc, queues, 100.0)
        # fog 0 has the best rating but its backlog spends the budget; the
        # method knows only one answer and dumps the unit back home instead
        # of trying fog 2
        assert d.chosen == 1
        assert d.reason == "local_no_positive_certainty"

    def test_all_backlogged_falls_local(self):
        topo = build_grid(2, 1, seed=0)
        etc = _etc_points({("u", 0): 20.0, ("u", 1): 10.0})
        queues = QueueEstimate({0: 200.0, 1: 200.0})
        d = allocate_mcc(_unit(), 0, topo, etc, queues, 100.0)
        assert d.chosen == 0
        assert d.reason == "local_no_positive_certainty"


class TestNoFederation:
    def test_always_local(self):
        d = allocate_no_federation(_unit(), 3)
        assert d.chosen == 3
        assert d.reason == "local_default"
        assert len(d.candidates) == 1
        assert d.candidates[0].fog == 3

    def test_mean_logged_when_profiles_given(self):
        etc = _etc_points({("u", 0): 42.0})
        d = allocate_no_federation(
            _unit(), 0, etc=etc, queues=QueueEstimate({0: 8.0})
        )
        assert d.candidates[0].mean_ms == pytest.approx(50.0)


class TestQueueEstimate:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QueueEstimate({0: -1.0})

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
    p, ci, mean_ms = Completion(d, level).at(wait, deadline)
    ref = shift(d, wait)
    assert p == prob_on_time(ref, deadline)
    ref_ci = central_ci(ref, level)
    assert (ci.lo, ci.hi, ci.level) == (ref_ci.lo, ref_ci.hi, ref_ci.level)
    assert abs(mean_ms - ref.mean) <= 1e-9
