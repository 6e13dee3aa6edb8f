import math
from dataclasses import astuple

import numpy as np
import pytest

from fogfed.alloc import CompletionModel
from fogfed.dist import NormalSpec, point_mass, prob_on_time
from fogfed.federation import EtcMatrix
from fogfed.model import (
    APP_NAMES,
    Edge,
    MicroServiceSpec,
    WorkflowSpec,
    builtin_app,
    to_monolithic,
)
from fogfed.partition import (
    PartitionConfig,
    PartitionPlan,
    SplitDecision,
    _best_prob,
    _data_weights,
    _pinned_flags,
    baseline_least_data,
    baseline_mincut,
    build_plan,
    min_cut,
    no_partition,
    propart,
    validate_plan,
)


def _vs(*ids):
    return tuple(
        MicroServiceSpec(i, i, "t", NormalSpec(10.0, 1.0), 1.0) for i in ids
    )


def _chain(ids, data=None):
    if data is None:
        edges = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    else:
        edges = [
            Edge(ids[i], ids[i + 1], data[i]) for i in range(len(ids) - 1)
        ]
    return WorkflowSpec("t", _vs(*ids), tuple(edges))


def brute_force_cuts(w, weights):
    """All minimum-weight ancestor-closed bisections (entries in, exits out)."""
    ids = [v.id for v in w.vertices]
    entries, exits = set(w.entries()), set(w.exits())
    n = len(ids)
    best_w, best_sides = math.inf, []
    for mask in range(1, 2**n - 1):
        side = {ids[i] for i in range(n) if mask >> i & 1}
        if not entries <= side or side & exits:
            continue
        if any(e.src not in side and e.dst in side for e in w.edges):
            continue
        weight = sum(
            weights[(e.src, e.dst)]
            for e in w.edges
            if e.src in side and e.dst not in side
        )
        if weight < best_w:
            best_w, best_sides = weight, [side]
        elif weight == best_w:
            best_sides.append(side)
    return best_w, best_sides


def random_dag(rng, n):
    """Single-entry DAG: every non-root vertex has an incoming edge."""
    ids = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        edges.add((ids[int(rng.integers(0, i))], ids[i]))
        for j in range(i):
            if rng.random() < 0.25:
                edges.add((ids[j], ids[i]))
    w = WorkflowSpec("t", _vs(*ids), tuple(sorted(edges)))
    # halves of small ints stay exact in binary, so weight equality is exact
    weights = {
        (e.src, e.dst): float(rng.integers(1, 9)) / 2.0 for e in w.edges
    }
    return w, weights


class TestMinCut:
    def test_weighted_chain(self):
        w = _chain(["a", "b", "c"])
        cut = min_cut(w, {("a", "b"): 5.0, ("b", "c"): 2.0})
        assert cut.side_s == {"a", "b"}
        assert cut.cut_edges == (("b", "c"),)
        assert cut.cut_weight == 2.0

    def test_unit_chain_cuts_first_edge(self):
        w = _chain(["a", "b", "c", "d"])
        cut = min_cut(w, {e: 1.0 for e in [("a", "b"), ("b", "c"), ("c", "d")]})
        assert cut.side_s == {"a"}
        assert cut.cut_weight == 1.0

    def test_diamond(self):
        vs = _vs("a", "b", "c", "d")
        edges = (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))
        w = WorkflowSpec("t", vs, edges)
        weights = {
            ("a", "b"): 3.0,
            ("a", "c"): 3.0,
            ("b", "d"): 1.0,
            ("c", "d"): 1.0,
        }
        cut = min_cut(w, weights)
        assert cut.cut_weight == 2.0
        assert set(cut.cut_edges) == {("b", "d"), ("c", "d")}

    def test_single_vertex_rejected(self):
        w = WorkflowSpec("t", _vs("a"), ())
        with pytest.raises(ValueError):
            min_cut(w, {})

    def test_missing_weight(self):
        w = _chain(["a", "b"])
        with pytest.raises(KeyError):
            min_cut(w, {})

    def test_non_positive_weight(self):
        w = _chain(["a", "b"])
        with pytest.raises(ValueError):
            min_cut(w, {("a", "b"): 0.0})

    def test_infinite_capacity_path_rejected(self):
        # a vertex that is both an entry and an exit cannot be separated
        w = WorkflowSpec("t", _vs("a", "b"), ())
        with pytest.raises(ValueError, match="infinite capacity"):
            min_cut(w, {})

    def test_matches_brute_force_on_random_dags(self):
        rng = np.random.default_rng(2042)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            w, weights = random_dag(rng, n)
            cut = min_cut(w, weights)
            best_w, best_sides = brute_force_cuts(w, weights)
            assert cut.cut_weight == best_w
            # closure and orientation
            assert set(w.entries()) <= cut.side_s
            assert not any(
                e.src in cut.side_t and e.dst in cut.side_s for e in w.edges
            )
            # the returned side is the inclusion-minimal optimum
            for side in best_sides:
                assert cut.side_s <= side
            assert cut.side_s == set.intersection(*best_sides)


def _model_two_fogs(types, slow_ms, fast_ms):
    entries, specs = {}, {}
    for t in types:
        entries[(t, 0)] = point_mass(slow_ms, 1.0)
        entries[(t, 1)] = point_mass(fast_ms, 1.0)
        specs[(t, 0)] = NormalSpec(slow_ms, 0.0)
        specs[(t, 1)] = NormalSpec(fast_ms, 0.0)
    return CompletionModel(EtcMatrix(1.0, entries, specs))


def _slacks(w, slack_per_vertex):
    return {v.id: slack_per_vertex for v in w.vertices}


class TestProPart:
    def test_alpha_gate_keeps_whole(self):
        w = _chain(["a", "b", "c", "d"])
        model = _model_two_fogs([v.id for v in w.vertices], 10.0, 10.0)
        slacks = _slacks(w, 50.0)  # local: 40ms vs 200 budget -> P=1
        plan = propart(w, model, 0, slacks, PartitionConfig(alpha=0.5))
        assert len(plan.partitions) == 1
        assert plan.root_p == 1.0
        assert plan.trace == ()
        assert validate_plan(plan, w) == []

    def test_alpha_zero_never_splits(self):
        w = _chain(["a", "b", "c", "d"])
        model = _model_two_fogs([v.id for v in w.vertices], 100.0, 10.0)
        slacks = _slacks(w, 50.0)  # local P=0, but alpha=0 accepts anything
        plan = propart(w, model, 0, slacks, PartitionConfig(alpha=0.0))
        assert len(plan.partitions) == 1
        assert validate_plan(plan, w) == []

    def test_single_vertex_final(self):
        w = WorkflowSpec("t", _vs("a"), ())
        model = _model_two_fogs(["a"], 100.0, 10.0)
        slacks = _slacks(w, 50.0)
        plan = propart(w, model, 0, slacks, PartitionConfig(alpha=0.99))
        assert len(plan.partitions) == 1

    def test_side_with_an_isolated_vertex_stays_whole(self):
        """A fork's accepted split leaves {b, c}, where each vertex is both
        an entry and an exit; no bisection exists, so the side is kept."""
        vs = _vs("a", "b", "c")
        w = WorkflowSpec("t", vs, (("a", "b"), ("a", "c")))
        model = _model_two_fogs(["a", "b", "c"], 100.0, 10.0)
        slacks = _slacks(w, 50.0)
        plan = propart(w, model, 0, slacks, PartitionConfig(alpha=0.9))
        assert validate_plan(plan, w) == []
        assert [tuple(v.id for v in p.vertices) for p in plan.partitions] == [
            ("a",), ("b", "c")
        ]
        assert len(plan.trace) == 1 and plan.trace[0].accepted
        assert plan.est_success == (plan.trace[0].p_s, plan.trace[0].p_t)

    def test_improving_split_accepted(self):
        w = _chain(["a", "b", "c", "d"])
        model = _model_two_fogs([v.id for v in w.vertices], 100.0, 10.0)
        slacks = _slacks(w, 50.0)
        plan = propart(w, model, 0, slacks, PartitionConfig(alpha=0.5))
        assert plan.root_p == 0.0
        assert len(plan.partitions) == 2
        assert [len(p.vertices) for p in plan.partitions] == [1, 3]
        assert plan.trace[0].accepted
        assert plan.trace[0].p_s > plan.root_p
        assert plan.trace[0].p_t > plan.root_p
        # the deeper re-split cannot improve on certainty and rolls back
        assert not plan.trace[1].accepted
        assert validate_plan(plan, w) == []
        # split is min-cut-consistent: unit data ties resolve to the
        # smallest ancestor-closed side
        best_w, _ = brute_force_cuts(
            w, {(e.src, e.dst): e.data_mb for e in w.edges}
        )
        crossing = sum(
            e.data_mb
            for e in w.edges
            if e.src in {v.id for v in plan.partitions[0].vertices}
            and e.dst in {v.id for v in plan.partitions[1].vertices}
        )
        assert crossing == best_w

    def test_non_improving_split_rolls_back(self):
        w = _chain(["a", "b", "c", "d"])
        # both fogs hopeless: every side stays at P=0
        model = _model_two_fogs([v.id for v in w.vertices], 100.0, 100.0)
        slacks = _slacks(w, 50.0)
        plan = propart(w, model, 0, slacks, PartitionConfig(alpha=0.5))
        assert len(plan.partitions) == 1
        assert len(plan.trace) == 1
        assert not plan.trace[0].accepted
        assert validate_plan(plan, w) == []

    def test_precedence_order(self):
        w = _chain(["a", "b", "c", "d"])
        model = _model_two_fogs([v.id for v in w.vertices], 100.0, 10.0)
        slacks = _slacks(w, 50.0)
        plan = propart(w, model, 0, slacks, PartitionConfig(alpha=0.5))
        seen = []
        for p in plan.partitions:
            seen.extend(v.id for v in p.vertices)
        assert seen == ["a", "b", "c", "d"]

    def test_pinned_partition_flagged(self):
        w = builtin_app("fire")
        model = _model_two_fogs([v.id for v in w.vertices], 100.0, 10.0)
        slacks = _slacks(w, 50.0)
        plan = propart(w, model, 0, slacks, PartitionConfig(alpha=0.5))
        assert plan.must_run_local[0]
        assert not any(plan.must_run_local[1:])

    def test_estimator_injection(self):
        """Plans read on-time estimates from whichever model they are given;
        a shared model that earlier plans warmed gives a fresh one's plan."""
        w = _chain(["a", "b", "c", "d"])
        shared = _model_two_fogs([v.id for v in w.vertices], 100.0, 10.0)
        slacks = _slacks(w, 50.0)
        cfg = PartitionConfig(alpha=0.5)
        propart(w.induced({"b", "c", "d"}), shared, 0, slacks, cfg)
        warm = propart(w, shared, 0, slacks, cfg)
        again = propart(w, shared, 0, slacks, cfg)
        fresh = propart(w, CompletionModel(shared.etc), 0, slacks, cfg)
        assert fresh.trace
        for plan in (warm, again):
            assert plan.partitions == fresh.partitions
            assert plan.est_success == fresh.est_success
            assert [astuple(d) for d in plan.trace] == [
                astuple(d) for d in fresh.trace
            ]


    def test_plan_leaves_no_reference_cycle(self):
        """Nothing of a finished plan build keeps the model alive: a
        context's cached PMFs go with the context, not at the next run of
        the cyclic collector."""
        import gc
        import weakref

        w = _chain(["a", "b", "c", "d"])
        model = _model_two_fogs([v.id for v in w.vertices], 100.0, 10.0)
        slacks = _slacks(w, 50.0)
        enabled = gc.isenabled()
        gc.disable()
        try:
            plan = propart(w, model, 0, slacks, PartitionConfig(alpha=0.5))
            assert len(plan.trace) >= 2  # the search went below the root
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_matches_recursive_reference_on_random_chains(self):
        rng = np.random.default_rng(77)
        accepted = 0
        for _ in range(60):
            ids = [f"v{i}" for i in range(int(rng.integers(2, 8)))]
            w = _chain(ids, [float(rng.integers(1, 9)) for _ in ids[1:]])
            entries, specs = {}, {}
            for t in ids:
                # the gateway, fog 0, is the slower one on average
                for fog, (lo, hi) in enumerate(((20, 60), (5, 40))):
                    ms = float(rng.integers(lo, hi))
                    entries[(t, fog)] = point_mass(ms, 1.0)
                    specs[(t, fog)] = NormalSpec(ms, 0.0)
            etc = EtcMatrix(1.0, entries, specs)
            slacks = _slacks(w, float(rng.integers(10, 40)))
            cfg = PartitionConfig(alpha=0.9)
            got = propart(w, CompletionModel(etc), 0, slacks, cfg)
            want = reference_propart(w, CompletionModel(etc), 0, slacks, cfg)
            assert _plan_key(got) == _plan_key(want)
            accepted += sum(d.accepted for d in got.trace)
        assert accepted > 10


def _plan_key(plan):
    return (
        plan.method, plan.alpha, repr(plan.root_p), plan.partitions,
        repr(plan.est_success), plan.must_run_local,
        [astuple(d) for d in plan.trace],
    )


def reference_propart(w, model, origin, slacks, cfg):
    """``propart`` as a recursive descent: side s, then side t."""
    types = w.topo_order
    root_p = prob_on_time(
        model.end_to_end(types, origin, 0),
        sum(slacks[v] for v in types),
    )
    if root_p >= cfg.alpha or len(w.vertices) == 1:
        return PartitionPlan(
            "propart", cfg.alpha, root_p, (w,), (root_p,),
            _pinned_flags((w,)),
        )
    trace, parts, est_success = [], [], []

    def descend(sub, parent_p):
        if len(sub.vertices) == 1:
            parts.append(sub)
            est_success.append(parent_p)
            return
        cut = min_cut(sub, _data_weights(sub))
        order = sub.topo_order
        side_s = tuple(v for v in order if v in cut.side_s)
        side_t = tuple(v for v in order if v in cut.side_t)
        p_s = _best_prob(model, side_s, sum(slacks[v] for v in side_s))
        p_t = _best_prob(model, side_t, sum(slacks[v] for v in side_t))
        accepted = p_s > parent_p and p_t > parent_p
        trace.append(
            SplitDecision(order, parent_p, side_s, side_t, p_s, p_t, accepted)
        )
        if not accepted:
            parts.append(sub)
            est_success.append(parent_p)
            return
        descend(sub.induced(frozenset(side_s)), p_s)
        descend(sub.induced(frozenset(side_t)), p_t)

    descend(w, root_p)
    return PartitionPlan(
        "propart", cfg.alpha, root_p, tuple(parts), tuple(est_success),
        _pinned_flags(tuple(parts)), tuple(trace),
    )

class TestBaselines:
    def test_no_partition_covers_everything(self):
        w = builtin_app("fire")
        plan = no_partition(w)
        assert len(plan.partitions) == 1
        assert plan.partitions[0] == w
        assert plan.must_run_local == (True,)
        assert validate_plan(plan, w) == []

    def test_mincut_fire_cuts_first_edge(self):
        w = builtin_app("fire")
        plan = baseline_mincut(w)
        assert len(plan.partitions) == 2
        assert [len(p.vertices) for p in plan.partitions] == [1, 6]
        assert plan.partitions[0].vertices[0].id == "fire.capture"
        assert validate_plan(plan, w) == []

    def test_mincut_single_vertex(self):
        w = WorkflowSpec("t", _vs("a"), ())
        plan = baseline_mincut(w)
        assert plan.method == "min_cut"
        assert len(plan.partitions) == 1

    def test_least_data_picks_smallest_crossing(self):
        w = _chain(["a", "b", "c", "d"], data=[10.0, 1.0, 10.0])
        plan = baseline_least_data(w)
        assert [len(p.vertices) for p in plan.partitions] == [2, 2]
        assert {v.id for v in plan.partitions[0].vertices} == {"a", "b"}

    def test_least_data_tie_breaks_smallest_head(self):
        w = _chain(["a", "b", "c"], data=[2.0, 2.0])
        plan = baseline_least_data(w)
        assert [len(p.vertices) for p in plan.partitions] == [1, 2]

    def test_least_data_fire_cuts_after_features(self):
        w = builtin_app("fire")
        plan = baseline_least_data(w)
        assert [len(p.vertices) for p in plan.partitions] == [4, 3]
        head = {v.id for v in plan.partitions[0].vertices}
        assert head == {
            "fire.capture", "fire.preprocess", "fire.noise", "fire.features"
        }
        assert validate_plan(plan, w) == []

    def test_least_data_diamond_prefix(self):
        vs = _vs("a", "b", "c", "d")
        edges = (
            Edge("a", "b", 3.0),
            Edge("a", "c", 3.0),
            Edge("b", "d", 1.0),
            Edge("c", "d", 3.0),
        )
        w = WorkflowSpec("t", vs, edges)
        # prefix crossings: {a}=6, {a,b}=4, {a,b,c}=4 -> first k wins
        plan = baseline_least_data(w)
        assert {v.id for v in plan.partitions[0].vertices} == {"a", "b"}

    @pytest.mark.parametrize(
        "build", [no_partition, baseline_mincut, baseline_least_data]
    )
    def test_unscored_plans_hold_one_nan_per_partition(self, build):
        # est_success is read per partition; a method that scores none
        # still writes one NaN for each, single-vertex fallbacks included
        shapes = [WorkflowSpec("t", _vs("a"), ()), _chain(["a", "b", "c"])]
        for name in APP_NAMES:
            w = builtin_app(name)
            shapes += [w, to_monolithic(w)]
        for w in shapes:
            plan = build(w)
            assert len(plan.est_success) == len(plan.partitions), w.app
            assert all(math.isnan(p) for p in plan.est_success), w.app

    def test_build_plan_dispatch(self):
        w = builtin_app("oil")
        model = _model_two_fogs([v.id for v in w.vertices], 100.0, 10.0)
        slacks = _slacks(w, 50.0)
        for method, parts in (
            ("no_partition", 1),
            ("min_cut", 2),
            ("least_data", 2),
        ):
            plan = build_plan(
                PartitionConfig(method=method), w, model, 0, slacks
            )
            assert plan.method == method
            assert len(plan.partitions) == parts
            assert validate_plan(plan, w) == []
        cfg = PartitionConfig(method="propart")
        plan = build_plan(cfg, w, model, 0, slacks)
        assert plan.partitions == propart(w, model, 0, slacks, cfg).partitions

    def test_build_plan_propart_needs_inputs(self):
        # every method takes the model, gateway and slacks the engine passes
        w = builtin_app("oil")
        with pytest.raises(TypeError):
            build_plan(PartitionConfig(method="propart"), w)


class TestConfig:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            PartitionConfig(alpha=1.5)
        with pytest.raises(ValueError):
            PartitionConfig(alpha=-0.1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            PartitionConfig(method="magic")
