import math

import pytest

from fogfed.dist import NormalSpec
from fogfed.model import (
    APP_NAMES,
    APP_PROFILES,
    DeadlinePolicy,
    Edge,
    MicroServiceSpec,
    Request,
    StageSlacks,
    WorkflowSpec,
    assign_deadlines,
    builtin_app,
    incoming_data_mb,
    service_slacks,
    to_monolithic,
    topological_order,
)


def _vs(*ids):
    return tuple(
        MicroServiceSpec(i, i, "t", NormalSpec(10.0, 1.0), 1.0) for i in ids
    )


def _w(ids, edges, **kw):
    return WorkflowSpec("t", _vs(*ids), tuple(edges), **kw)


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _w(("a", "a"), [])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            _w(("a",), [("a", "zz")])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            _w(("a", "b"), [("a", "b"), ("b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            _w(("a",), [("a", "a")])

    def test_bare_edges_inherit_source_output(self):
        w = _w(("a", "b"), [("a", "b")])
        assert w.edges[0].data_mb == 1.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NormalSpec(1.0, math.nan),
            lambda: NormalSpec(1.0, math.inf),
            lambda: NormalSpec(math.inf, 1.0),
            lambda: Edge("x.a", "x.b", math.nan),
            lambda: Edge("x.a", "x.b", math.inf),
            lambda: MicroServiceSpec(
                "x.a", "a", "x", NormalSpec(1.0, 0.1), math.inf
            ),
            lambda: MicroServiceSpec(
                "x.a", "a", "x", NormalSpec(1.0, 0.1), math.nan
            ),
            lambda: _w(("a", "b"), [("a", "b", math.nan)]),
            lambda: _w(("a",), [], input_mb=math.nan),
            lambda: _w(("a",), [], input_mb=math.inf),
            lambda: _w(("a",), [], input_mb=-1.0),
        ],
        ids=[
            "std-nan",
            "std-inf",
            "mean-inf",
            "edge-nan",
            "edge-inf",
            "output-inf",
            "output-nan",
            "bare-edge-nan",
            "input-nan",
            "input-inf",
            "input-negative",
        ],
    )
    def test_non_finite_or_negative_values_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestTopologicalOrder:
    def test_chain_order(self):
        w = builtin_app("oil")
        order = topological_order(w)
        assert order == [v.id for v in w.vertices]

    def test_tie_break_ascending_id(self):
        # diamond: s -> {m1, m2} -> t; ready set ties resolve by id
        w = _w(("s", "m1", "m2", "t"),
               [("s", "m1"), ("s", "m2"), ("m1", "t"), ("m2", "t")])
        assert topological_order(w) == ["s", "m1", "m2", "t"]

    def test_deterministic(self):
        w = builtin_app("fire")
        assert topological_order(w) == topological_order(w)


class TestTemplates:
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_moments_match_profile(self, name):
        w = builtin_app(name)
        profile = APP_PROFILES[name]
        mean = sum(v.work.mean for v in w.vertices)
        var = sum(v.work.std**2 for v in w.vertices)
        assert mean == pytest.approx(profile.mean, rel=1e-12)
        assert var == pytest.approx(profile.std**2, rel=1e-12)

    @pytest.mark.parametrize(
        "name,size", [("fire", 7), ("oil", 5), ("har", 4), ("aie", 4)]
    )
    def test_chain_sizes(self, name, size):
        w = builtin_app(name)
        assert len(w.vertices) == size
        assert len(w.edges) == size - 1
        assert len(w.entries()) == 1
        assert len(w.exits()) == 1

    def test_fire_pins_only_camera(self):
        w = builtin_app("fire")
        pinned = [v.id for v in w.vertices if v.location_pinned]
        assert pinned == ["fire.capture"]

    def test_pin_override(self):
        w = builtin_app("fire", pin_entry=False)
        assert not any(v.location_pinned for v in w.vertices)
        w2 = builtin_app("har", pin_entry=True)
        assert w2.vertices[0].location_pinned

    def test_non_fire_unpinned_by_default(self):
        for name in ("har", "oil", "aie"):
            assert not any(
                v.location_pinned for v in builtin_app(name).vertices
            )

    def test_fire_payload_tapers(self):
        w = builtin_app("fire")
        outs = [e.data_mb for e in w.edges]
        assert outs == sorted(outs, reverse=True)
        assert w.input_mb > outs[0]

    def test_case_insensitive_tags(self):
        assert builtin_app("Fire") == builtin_app("fire")
        assert builtin_app("HAR") == builtin_app("har")

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            builtin_app("nope")


class TestMonolithic:
    def test_moments_add(self):
        w = builtin_app("fire")
        m = to_monolithic(w)
        assert len(m.vertices) == 1
        mv = m.vertices[0]
        assert mv.work.mean == pytest.approx(APP_PROFILES["fire"].mean)
        assert mv.work.std == pytest.approx(APP_PROFILES["fire"].std)
        assert mv.id == "fire.mono"

    def test_three_four_five(self):
        vs = (
            MicroServiceSpec("a", "a", "t", NormalSpec(100.0, 3.0), 1.0),
            MicroServiceSpec("b", "b", "t", NormalSpec(200.0, 4.0), 1.0),
        )
        w = WorkflowSpec("t", vs, (("a", "b"),))
        mono = to_monolithic(w).vertices[0]
        assert mono.work.mean == pytest.approx(300.0)
        assert mono.work.std == pytest.approx(5.0)

    def test_idempotent_on_atoms(self):
        w = to_monolithic(builtin_app("oil"))
        again = to_monolithic(w)
        assert again.vertices[0].work == w.vertices[0].work
        assert again.vertices[0].output_data == w.vertices[0].output_data

    def test_pinning_survives_collapse(self):
        assert to_monolithic(builtin_app("fire")).vertices[0].location_pinned
        assert not to_monolithic(builtin_app("oil")).vertices[0].location_pinned

    def test_input_payload_preserved(self):
        w = builtin_app("fire")
        assert to_monolithic(w).input_mb == w.input_mb


class TestIncomingData:
    def test_entry_gets_workflow_input(self):
        w = builtin_app("fire")
        sizes = incoming_data_mb(w)
        assert sizes["fire.capture"] == w.input_mb

    def test_chain_gets_edge_payload(self):
        w = builtin_app("fire")
        sizes = incoming_data_mb(w)
        for e in w.edges:
            assert sizes[e.dst] == e.data_mb


class TestDeadlines:
    def test_single_vertex_formula(self):
        vs = (MicroServiceSpec("a", "a", "t", NormalSpec(10.0, 1.0), 1.0),)
        w = WorkflowSpec("t", vs, ())
        policy = DeadlinePolicy(epsilon_ms=50.0, mean_comm_ms=20.0)
        req = assign_deadlines(
            w, 0.0, service_slacks(w, policy, {"a": 100.0})
        )
        assert req.slacks["a"] == pytest.approx(170.0)
        assert req.workflow_deadline == pytest.approx(170.0)

    def test_zero_slack(self):
        vs = (MicroServiceSpec("a", "a", "t", NormalSpec(10.0, 1.0), 1.0),)
        w = WorkflowSpec("t", vs, ())
        policy = DeadlinePolicy(epsilon_ms=0.0, mean_comm_ms=0.0)
        req = assign_deadlines(
            w, 0.0, service_slacks(w, policy, {"a": 100.0})
        )
        assert req.workflow_deadline == pytest.approx(100.0)

    def test_workflow_deadline_sums_budgets(self):
        w = _w(("a", "b", "c"), [("a", "b"), ("b", "c")])
        policy = DeadlinePolicy(epsilon_ms=5.0, mean_comm_ms=2.0)
        exec_ms = {"a": 10.0, "b": 20.0, "c": 30.0}
        req = assign_deadlines(w, 7.0, service_slacks(w, policy, exec_ms))
        assert req.workflow_deadline == pytest.approx(7.0 + 81.0)
        # every stage budget is measured from the request arrival
        assert req.slacks == {"a": 17.0, "b": 27.0, "c": 37.0}

    def test_translation_equivariance(self):
        w = builtin_app("har")
        policy = DeadlinePolicy()
        exec_ms = {v.id: 10.0 for v in w.vertices}
        a = assign_deadlines(w, 0.0, service_slacks(w, policy, exec_ms))
        b = assign_deadlines(w, 123.5, service_slacks(w, policy, exec_ms))
        assert b.workflow_deadline == pytest.approx(a.workflow_deadline + 123.5)
        assert b.slacks == a.slacks

    def test_slack_is_exec_plus_constants(self):
        w = builtin_app("har")
        policy = DeadlinePolicy(epsilon_ms=15.0, mean_comm_ms=20.0)
        exec_ms = {v.id: 10.0 for v in w.vertices}
        slacks = service_slacks(w, policy, exec_ms)
        assert all(s == pytest.approx(45.0) for s in slacks.values())

    def test_missing_exec_time_raises(self):
        w = builtin_app("aie")
        with pytest.raises(KeyError):
            service_slacks(w, DeadlinePolicy(), {"aie.preprocess": 1.0})

    @pytest.mark.parametrize(
        "exec_ms", [math.nan, 0.0, -2.0], ids=["nan", "zero", "negative"]
    )
    def test_non_positive_or_nan_exec_time_raises(self, exec_ms):
        w = builtin_app("aie")
        with pytest.raises(ValueError, match="mean execution time"):
            service_slacks(
                w, DeadlinePolicy(), {v.id: exec_ms for v in w.vertices}
            )

    @pytest.mark.parametrize(
        "slack", [math.nan, -1.0], ids=["nan", "negative"]
    )
    def test_stage_slacks_rejects_nan_or_negative(self, slack):
        with pytest.raises(ValueError, match="slack"):
            StageSlacks({"a": 1.0, "b": slack})

    def test_stage_slacks_is_a_read_only_copy(self):
        given = {"a": 1.0, "b": 2.5}
        slacks = StageSlacks(given)
        given["a"] = -1.0
        assert list(slacks.items()) == [("a", 1.0), ("b", 2.5)]
        assert slacks == {"a": 1.0, "b": 2.5}
        with pytest.raises(TypeError):
            slacks["a"] = 0.0
        w = _w(("a", "b"), [("a", "b")])
        req = assign_deadlines(w, 2.0, slacks)
        assert req.slacks is slacks
        assert req.workflow_deadline == 5.5

    def test_builtin_deadline_exceeds_arrival(self):
        for name in APP_NAMES:
            w = builtin_app(name)
            exec_ms = {v.id: v.work.mean / 2.0 for v in w.vertices}
            slacks = service_slacks(w, DeadlinePolicy(), exec_ms)
            req = assign_deadlines(w, 5.0, slacks)
            assert req.workflow_deadline > 5.0

    def test_request_validation(self):
        w = builtin_app("aie")
        with pytest.raises(ValueError):
            Request(0, 10.0, "workflow", w, 0, 5.0, {})
        with pytest.raises(ValueError):
            Request(0, 10.0, "weird", w, 0, 50.0, {})
        with pytest.raises(ValueError):
            Request(0, 10.0, "workflow", w, 0, 50.0, {"aie.invert": -7.0})

    @pytest.mark.parametrize(
        "arrival, deadline",
        [
            (math.nan, 50.0),
            (10.0, math.nan),
            (math.nan, math.nan),
            (-1.0, 50.0),
            (10.0, 10.0),
        ],
        ids=[
            "arrival-nan",
            "deadline-nan",
            "both-nan",
            "arrival-negative",
            "deadline-at-arrival",
        ],
    )
    def test_request_rejects_nan_or_out_of_order_times(
        self, arrival, deadline
    ):
        w = builtin_app("aie")
        with pytest.raises(ValueError):
            Request(0, arrival, "workflow", w, 0, deadline, {})

    def test_request_rejects_nan_slack(self):
        # the deadline is given, so it does not carry the slack's NaN
        w = builtin_app("aie")
        with pytest.raises(ValueError, match="slack"):
            Request(0, 10.0, "workflow", w, 0, 50.0, {"aie.invert": math.nan})

    @pytest.mark.parametrize(
        "arrival, slack",
        [(math.nan, 10.0), (0.0, math.nan)],
        ids=["arrival-nan", "slack-nan"],
    )
    def test_assign_deadlines_rejects_nan(self, arrival, slack):
        vs = (MicroServiceSpec("a", "a", "t", NormalSpec(10.0, 1.0), 1.0),)
        w = WorkflowSpec("t", vs, ())
        with pytest.raises(ValueError):
            assign_deadlines(w, arrival, {"a": slack})


class TestInduced:
    def test_subchain(self):
        w = builtin_app("fire")
        ids = [v.id for v in w.vertices]
        sub = w.induced(set(ids[:3]))
        assert [v.id for v in sub.vertices] == ids[:3]
        assert len(sub.edges) == 2

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            builtin_app("oil").induced({"oil.preprocess", "zz"})


def test_specs_are_hashable():
    # specs are frozen values: equal builds compare and hash equal
    w = builtin_app("fire")
    assert hash(w) == hash(builtin_app("fire"))
    assert builtin_app("fire") == builtin_app("fire")
    assert builtin_app("fire") != builtin_app("fire", pin_entry=False)


def test_fire_variance_sits_in_early_stages():
    w = builtin_app("fire")
    by_id = {v.id: v for v in w.vertices}
    early_var = sum(
        by_id[f"fire.{s}"].work.std ** 2
        for s in ("capture", "preprocess", "noise")
    )
    total_var = sum(v.work.std**2 for v in w.vertices)
    assert early_var / total_var > 0.85
    # the detector alone carries most of the mean
    assert by_id["fire.detect"].work.mean / APP_PROFILES["fire"].mean == (
        pytest.approx(0.54)
    )
