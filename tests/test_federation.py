import math

import numpy as np
import pytest

import fogfed.federation as federation
from fogfed.dist import (
    NormalSpec,
    convolve,
    mean,
    pmf_from_normal,
    point_mass,
    shift,
)
from fogfed.federation import (
    MIPS_HI,
    MIPS_LO,
    EtcMatrix,
    FogSystem,
    LinkProfile,
    build_etc,
    build_ett,
    build_grid,
    hop_distance,
    mean_exec_profile,
    slowest_fog,
)
from fogfed.model import APP_PROFILES


class TestGrid:
    def test_1x2_all_degree_one(self):
        topo = build_grid(2, 1, seed=1)
        assert [topo.degree(f) for f in topo.fog_ids()] == [1, 1]

    def test_3x3_degrees(self):
        topo = build_grid(3, 3, seed=1)
        degrees = [topo.degree(f) for f in topo.fog_ids()]
        assert max(degrees) == 4
        assert topo.degree(4) == 4  # center
        assert topo.degree(0) == 2  # corner
        assert topo.degree(1) == 3  # edge

    def test_adjacency_symmetric(self):
        topo = build_grid(4, 3, seed=7)
        for f in topo.fog_ids():
            for n in topo.neighbors(f):
                assert f in topo.neighbors(n)

    def test_row_major_positions(self):
        topo = build_grid(3, 2, seed=0)
        assert topo.fog(0).grid_pos == (0, 0)
        assert topo.fog(2).grid_pos == (2, 0)
        assert topo.fog(3).grid_pos == (0, 1)

    def test_mips_bounds_and_determinism(self):
        a = build_grid(3, 3, seed=42)
        b = build_grid(3, 3, seed=42)
        c = build_grid(3, 3, seed=43)
        mips_a = [f.node_mips for f in a.fogs]
        assert all(MIPS_LO <= m <= MIPS_HI for m in mips_a)
        assert mips_a == [f.node_mips for f in b.fogs]
        assert mips_a != [f.node_mips for f in c.fogs]

    def test_fixed_mips(self):
        topo = build_grid(2, 2, seed=5, fixed_mips=2000.0)
        assert all(f.node_mips == 2000.0 for f in topo.fogs)

    def test_node_count_default_and_override(self):
        assert build_grid(1, 1, seed=0).fog(0).node_count == 8
        assert build_grid(1, 1, seed=0, node_count=1).fog(0).node_count == 1

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            build_grid(0, 3, seed=1)

    def test_bad_fog_system(self):
        with pytest.raises(ValueError):
            FogSystem(0, (0, 0), 1000.0)
        with pytest.raises(ValueError):
            FogSystem(0, (0, 0), 2000.0, node_count=0)

    def test_unknown_fog(self):
        topo = build_grid(2, 2, seed=1)
        with pytest.raises(KeyError):
            topo.fog(9)

    def test_slowest_fog(self):
        topo = build_grid(3, 3, seed=42)
        sid = slowest_fog(topo)
        assert topo.fog(sid).node_mips == min(f.node_mips for f in topo.fogs)


class TestHopDistance:
    def test_self_is_zero(self):
        topo = build_grid(3, 3, seed=1)
        assert hop_distance(topo, 4, 4) == 0

    def test_adjacent_is_one(self):
        topo = build_grid(3, 3, seed=1)
        assert hop_distance(topo, 0, 1) == 1
        assert hop_distance(topo, 0, 3) == 1

    def test_manhattan(self):
        topo = build_grid(3, 2, seed=1)
        # (0,0) to (2,1)
        assert hop_distance(topo, 0, 5) == 3

    def test_unknown_fog(self):
        topo = build_grid(2, 2, seed=1)
        with pytest.raises(KeyError):
            hop_distance(topo, 0, 99)
        with pytest.raises(KeyError):
            hop_distance(topo, -1, 0)
        with pytest.raises(KeyError):
            hop_distance(topo, 4, 0)

    @pytest.mark.parametrize("width,height", [(1, 4), (4, 1), (3, 2), (5, 3)])
    def test_matches_grid_positions(self, width, height):
        topo = build_grid(width, height, seed=1)
        for fa in topo.fogs:
            for fb in topo.fogs:
                assert hop_distance(topo, fa.id, fb.id) == abs(
                    fa.grid_pos[0] - fb.grid_pos[0]
                ) + abs(fa.grid_pos[1] - fb.grid_pos[1])


class TestEtc:
    def test_point_profile_is_mi_over_mips(self):
        topo = build_grid(1, 1, seed=0, fixed_mips=2000.0)
        etc = build_etc(topo, {"t": NormalSpec(2000.0, 0.0)}, bin_width=1.0)
        pmf = etc.pmf("t", 0)
        assert mean(pmf) == pytest.approx(1000.0)
        assert np.count_nonzero(pmf.mass) == 1

    def test_slower_fog_strictly_slower(self):
        topo = build_grid(3, 3, seed=42)
        etc = build_etc(topo, {"oil": APP_PROFILES["oil"]}, bin_width=1.0)
        by_speed = sorted(topo.fogs, key=lambda f: f.node_mips)
        means = [etc.spec("oil", f.id).mean for f in by_speed]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_reference_fog_reproduces_benchmark_means(self):
        # on a 2000 MIPS fog the profile should land on the measured
        # benchmark timings within one bin
        topo = build_grid(1, 1, seed=0, fixed_mips=2000.0)
        etc = build_etc(topo, APP_PROFILES, bin_width=1.0)
        expected = {"fire": 1349.5, "har": 0.51, "oil": 65.98, "aie": 7.55}
        for mtype, ms in expected.items():
            assert etc.pmf(mtype, 0).mean == pytest.approx(ms, abs=1.0)

    def test_complete_over_pairs(self):
        topo = build_grid(2, 2, seed=3)
        etc = build_etc(topo, APP_PROFILES, bin_width=1.0)
        assert etc.types() == sorted(APP_PROFILES)
        assert etc.fog_ids() == [0, 1, 2, 3]
        for t in etc.types():
            for f in etc.fog_ids():
                d = etc.pmf(t, f)
                assert d.origin + d.bin_width * (d.mass.size - 1) >= 0

    def test_empty_profiles_rejected(self):
        topo = build_grid(1, 1, seed=0)
        with pytest.raises(ValueError):
            build_etc(topo, {}, bin_width=1.0)

    def test_missing_entry(self):
        topo = build_grid(1, 1, seed=0)
        etc = build_etc(topo, {"t": NormalSpec(100.0, 1.0)}, bin_width=1.0)
        with pytest.raises(KeyError):
            etc.pmf("zz", 0)

    def test_determinism(self):
        topo = build_grid(2, 2, seed=11)
        a = build_etc(topo, APP_PROFILES, bin_width=1.0)
        b = build_etc(topo, APP_PROFILES, bin_width=1.0)
        for key, pmf in a.entries.items():
            other = b.entries[key]
            assert pmf.origin == other.origin
            assert np.array_equal(pmf.mass, other.mass)


class TestMeanExecProfile:
    def test_single_fog(self):
        etc = EtcMatrix(
            1.0,
            {("t", 0): point_mass(100.0, 1.0)},
            {("t", 0): NormalSpec(100.0, 0.0)},
        )
        assert mean_exec_profile(etc, "t") == pytest.approx(100.0)

    def test_two_fogs_average(self):
        etc = EtcMatrix(
            1.0,
            {("t", 0): point_mass(100.0, 1.0), ("t", 1): point_mass(200.0, 1.0)},
            {("t", 0): NormalSpec(100.0, 0.0), ("t", 1): NormalSpec(200.0, 0.0)},
        )
        assert mean_exec_profile(etc, "t") == pytest.approx(150.0)

    def test_matches_continuous_average(self):
        topo = build_grid(3, 3, seed=42)
        etc = build_etc(topo, {"oil": APP_PROFILES["oil"]}, bin_width=1.0)
        continuous = np.mean(
            [1000.0 * APP_PROFILES["oil"].mean / f.node_mips for f in topo.fogs]
        )
        assert mean_exec_profile(etc, "oil") == pytest.approx(
            continuous, abs=0.75
        )


class TestEtt:
    def test_hop_zero_is_free(self):
        topo = build_grid(3, 3, seed=1)
        ett = build_ett(topo, LinkProfile(), {"t": 5.0}, bin_width=1.0)
        pmf = ett.pmf("t", 0)
        assert mean(pmf) == 0.0
        assert pmf.mass[0] == 1.0

    def test_one_hop_arithmetic(self):
        # 1 MB at 800 Mbps -> 10 ms serialization; deterministic 20 ms hop
        topo = build_grid(2, 1, seed=1)
        link = LinkProfile(800.0, NormalSpec(20.0, 0.0))
        ett = build_ett(topo, link, {"t": 1.0}, bin_width=1.0)
        pmf = ett.pmf("t", 1)
        assert mean(pmf) == pytest.approx(30.0)
        assert np.count_nonzero(pmf.mass) == 1

    def test_two_hops_double_mean(self):
        topo = build_grid(3, 1, seed=1)
        link = LinkProfile(400.0, NormalSpec(20.0, 5.0))
        ett = build_ett(topo, link, {"t": 1.0}, bin_width=1.0)
        one = mean(ett.pmf("t", 1))
        two = mean(ett.pmf("t", 2))
        assert abs(two - 2.0 * one) <= 1.0

    def test_hop_monotone_means(self):
        topo = build_grid(3, 3, seed=9)
        link = LinkProfile(300.0, NormalSpec(20.0, 5.0))
        ett = build_ett(topo, link, {"big": 10.0, "small": 0.1}, bin_width=1.0)
        for t in ("big", "small"):
            for h in range(ett.max_hops):
                assert mean(ett.pmf(t, h + 1)) >= mean(ett.pmf(t, h))

    def test_max_hops_covers_grid(self):
        topo = build_grid(4, 3, seed=2)
        ett = build_ett(topo, LinkProfile(), {"t": 1.0}, bin_width=1.0)
        assert ett.max_hops == 5
        d = ett.pmf("t", 5)
        assert d.origin + d.bin_width * (d.mass.size - 1) > 0

    def test_negative_payload_rejected(self):
        topo = build_grid(2, 1, seed=1)
        with pytest.raises(ValueError):
            build_ett(topo, LinkProfile(), {"t": -1.0}, bin_width=1.0)

    def test_missing_entry(self):
        topo = build_grid(2, 1, seed=1)
        ett = build_ett(topo, LinkProfile(), {"t": 1.0}, bin_width=1.0)
        with pytest.raises(KeyError):
            ett.pmf("t", 99)

    def test_bad_link(self):
        with pytest.raises(ValueError):
            LinkProfile(0.0)
        with pytest.raises(ValueError):
            LinkProfile(math.nan)

    @pytest.mark.parametrize("width,height", [(1, 1), (2, 1), (3, 3), (4, 3)])
    def test_chains_built_once_equal_per_type_reference(
        self, monkeypatch, width, height
    ):
        topo = build_grid(width, height, seed=3)
        link = LinkProfile(300.0, NormalSpec(20.0, 5.0))
        data = {"a": 0.0, "b": 0.37, "c": 1.0, "d": 10.0, "e": 2.5}
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return convolve(a, b)

        monkeypatch.setattr(federation, "convolve", counting)
        ett = build_ett(topo, link, data, bin_width=1.0)
        max_hops = width + height - 2
        assert len(calls) == max(0, max_hops - 1)
        expected = reference_ett_entries(topo, link, data, 1.0)
        assert ett.entries.keys() == expected.keys()
        for key, ref in expected.items():
            got = ett.entries[key]
            assert got.origin == ref.origin, key
            assert got.bin_width == ref.bin_width, key
            assert np.array_equal(got.mass, ref.mass), key


def reference_ett_entries(topo, link, data_mb, bin_width):
    """``build_ett``'s entries, convolving each type's hop chain anew."""
    max_hops = (topo.width - 1) + (topo.height - 1)
    hop_pmf = pmf_from_normal(link.per_hop_latency, bin_width)
    entries = {}
    for mtype, mb in data_mb.items():
        entries[(mtype, 0)] = point_mass(0.0, bin_width)
        acc = None
        for h in range(1, max_hops + 1):
            acc = hop_pmf if acc is None else convolve(acc, hop_pmf)
            entries[(mtype, h)] = shift(acc, h * link.transfer_ms(mb))
    return entries


def test_fig11_contexts_convolve_each_hop_chain_once(monkeypatch):
    import fogfed.cli as cli

    calls = []
    built = []
    build = cli.build_ett

    def counting(a, b):
        calls.append((a, b))
        return convolve(a, b)

    def spy(*args):
        ett = build(*args)
        built.append((args, ett))
        return ett

    monkeypatch.setattr(federation, "convolve", counting)
    monkeypatch.setattr(cli, "build_ett", spy)
    s = cli.scenario_from_config({"suite": "fig11_scaling_workflows"})
    for degree in s.degrees:
        cli._build_context(s, degree)
    # degrees 1-4 use grids of 1, 2, 3 and 4 hops across
    assert len(calls) == 0 + 1 + 2 + 3
    assert len(built) == len(s.degrees)
    for args, ett in built:
        expected = reference_ett_entries(*args)
        assert ett.entries.keys() == expected.keys()
        for key, ref in expected.items():
            got = ett.entries[key]
            assert (got.origin, got.bin_width) == (ref.origin, ref.bin_width)
            assert np.array_equal(got.mass, ref.mass), key
