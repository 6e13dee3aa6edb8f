"""Tests for the discrete latency distribution algebra."""

from __future__ import annotations

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogfed import dist
from fogfed.dist import CiInterval, LatencyPmf, NormalSpec


def _pmf(mapping: dict[float, float], bin_width: float = 1.0) -> LatencyPmf:
    """Build a pmf from {bin_center: mass} for readable fixtures."""
    centers = sorted(mapping)
    origin = centers[0]
    n = round((centers[-1] - origin) / bin_width) + 1
    mass = np.zeros(n)
    for c, m in mapping.items():
        mass[round((c - origin) / bin_width)] = m
    return LatencyPmf(bin_width, origin, mass)


def quantile(d: LatencyPmf, p: float) -> float:
    """Oracle: smallest bin centre whose CDF reaches ``p``, by a linear scan."""
    if not 0 <= p <= 1:
        raise ValueError(f"quantile level must lie in [0, 1], got {p}")
    k = next((i for i, c in enumerate(d.cdf_list) if c >= p), d.mass.size - 1)
    return d.origin + d.bin_width * k


# ---------------------------------------------------------------- construction


def test_normal_spec_rejects_bad_moments():
    with pytest.raises(ValueError):
        NormalSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        NormalSpec(-5.0, 1.0)
    with pytest.raises(ValueError):
        NormalSpec(5.0, -1.0)


@pytest.mark.parametrize(
    "origin",
    [math.nan, -1.0, -math.inf, math.inf],
    ids=["nan", "negative", "-inf", "inf"],
)
def test_pmf_rejects_nan_or_negative_origin(origin):
    with pytest.raises(ValueError, match=f"origin .* got {origin}$"):
        LatencyPmf(1.0, origin, [1.0])


def test_zero_std_yields_point_mass():
    d = dist.pmf_from_normal(NormalSpec(100.0, 0.0), 1.0)
    assert d.mass.size == 1
    assert d.origin == 100.0
    assert d.mass[0] == 1.0


def test_pmf_from_normal_matches_moments():
    d = dist.pmf_from_normal(NormalSpec(100.0, 20.0), 1.0)
    assert abs(d.mean - 100.0) <= 1.0
    var = float(np.dot((d.centers - d.mean) ** 2, d.mass))
    # 4-sigma truncation trims the tails slightly, so allow a few percent.
    assert abs(math.sqrt(var) - 20.0) <= 1.0


def test_pmf_from_normal_truncates_at_zero():
    d = dist.pmf_from_normal(NormalSpec(10.0, 20.0), 1.0)
    assert d.origin == 0.0
    assert abs(float(d.mass.sum()) - 1.0) <= dist.MASS_TOL
    # heavy left truncation pushes the discrete mean above the raw mean
    assert d.mean > 10.0


def test_invalid_parameters_raise():
    spec = NormalSpec(10.0, 1.0)
    with pytest.raises(ValueError):
        dist.pmf_from_normal(spec, 0.0)
    with pytest.raises(ValueError):
        dist.pmf_from_normal(spec, -1.0)
    with pytest.raises(ValueError):
        dist.pmf_from_normal(spec, 1.0, truncation=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"bin_width .* got {bad}$"):
            dist.pmfs_from_normal([spec], bad)
        with pytest.raises(ValueError, match=f"truncation .* got {bad}$"):
            dist.pmfs_from_normal([spec], 1.0, truncation=bad)
        with pytest.raises(ValueError, match=f"value .* got {bad}$"):
            dist.point_mass(bad, 1.0)
        with pytest.raises(ValueError, match=f"bin_width .* got {bad}$"):
            dist.point_mass(1.0, bad)


def test_mass_validation():
    with pytest.raises(ValueError):
        LatencyPmf(1.0, 0.0, np.array([0.5, 0.4]))  # sums to 0.9
    with pytest.raises(ValueError):
        LatencyPmf(1.0, -1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        LatencyPmf(1.0, 0.0, np.array([1.5, -0.5]))
    for bad in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match=f"bin_width .* got {bad}$"):
            LatencyPmf(bad, 0.0, np.array([1.0]))


# ---------------------------------------------------------------- convolution


def test_convolve_identity_with_zero_point():
    d = dist.pmf_from_normal(NormalSpec(40.0, 5.0), 1.0)
    z = dist.point_mass(0.0, 1.0)
    out = dist.convolve(z, d)
    assert out.origin == d.origin
    assert np.allclose(out.mass, d.mass)


def test_convolve_point_masses():
    a = dist.point_mass(100.0, 1.0)
    b = dist.point_mass(50.0, 1.0)
    c = dist.convolve(a, b)
    assert c.origin == 150.0
    assert c.mass.size == 1


def test_convolve_rejects_mixed_grids():
    a = dist.pmf_from_normal(NormalSpec(40.0, 5.0), 1.0)
    b = dist.pmf_from_normal(NormalSpec(40.0, 5.0), 2.0)
    with pytest.raises(ValueError):
        dist.convolve(a, b)


def test_convolve_against_monte_carlo_oracle():
    # Oracle: 1e7 seeded samples of trunc-N(100,20) + trunc-N(50,10) rounded
    # to the 1 ms grid (rng seed 20260816): mean 149.995, P(<=160) 0.68094,
    # 2.5%/97.5% quantiles 106.0/194.0.
    a = dist.pmf_from_normal(NormalSpec(100.0, 20.0), 1.0)
    b = dist.pmf_from_normal(NormalSpec(50.0, 10.0), 1.0)
    c = dist.convolve(a, b)
    assert abs(c.mean - 150.0) <= 1.0
    assert dist.prob_on_time(c, 160.0) == pytest.approx(0.68095, abs=4e-3)
    ci = dist.central_ci(c, 0.95)
    assert ci.lo == 106.0
    assert ci.hi == 194.0


# ------------------------------------------------------------------ tail/qtile


def test_prob_on_time_point_mass_boundaries():
    d = dist.point_mass(100.0, 1.0)
    assert dist.prob_on_time(d, 100.0) == 1.0
    assert dist.prob_on_time(d, 99.0) == 0.0
    assert dist.prob_on_time(d, 0.0) == 0.0
    assert dist.prob_on_time(d, 1e9) == 1.0


def test_quantile_point_mass():
    d = dist.point_mass(100.0, 1.0)
    assert quantile(d, 0.025) == 100.0
    assert quantile(d, 0.975) == 100.0
    ci = dist.central_ci(d)
    assert (ci.lo, ci.hi) == (100.0, 100.0)


def test_quantile_steps_through_bins():
    d = _pmf({0.0: 0.25, 1.0: 0.25, 2.0: 0.5})
    assert quantile(d, 0.25) == 0.0
    assert quantile(d, 0.2500001) == 1.0
    assert quantile(d, 0.5) == 1.0
    assert quantile(d, 1.0) == 2.0
    with pytest.raises(ValueError):
        quantile(d, 1.5)


# -------------------------------------------------------------------- CI logic


def test_ci_disjoint_shared_endpoint_is_overlap():
    a = CiInterval(1.0, 2.0, 0.95)
    b = CiInterval(2.0, 3.0, 0.95)
    c = CiInterval(3.0, 4.0, 0.95)
    assert not dist.ci_disjoint(a, b)
    assert dist.ci_disjoint(a, c)
    assert dist.ci_disjoint(c, a)


def test_ci_disjoint_level_mismatch_rejected():
    a = CiInterval(1.0, 2.0, 0.95)
    b = CiInterval(3.0, 4.0, 0.90)
    with pytest.raises(ValueError):
        dist.ci_disjoint(a, b)
    with pytest.raises(ValueError):
        dist.ci_disjoint(b, a)
    # levels within the relative tolerance compare
    near = CiInterval(3.0, 4.0, 0.95 * (1 + 1e-13))
    assert dist.ci_disjoint(a, near)


def test_ci_disjoint_nan_level_rejected():
    # the constructor refuses NaN, so set it afterwards: equal-level
    # shortcut must not let two NaN levels through
    a = CiInterval(1.0, 2.0, 0.95)
    b = CiInterval(3.0, 4.0, 0.95)
    a.level = b.level = math.nan
    with pytest.raises(ValueError, match="different levels"):
        dist.ci_disjoint(a, b)
    c = CiInterval(3.0, 4.0, 0.95)
    with pytest.raises(ValueError, match="different levels"):
        dist.ci_disjoint(a, c)
    with pytest.raises(ValueError, match="different levels"):
        dist.ci_disjoint(c, a)


def test_ci_interval_validation():
    with pytest.raises(ValueError):
        CiInterval(2.0, 1.0, 0.95)
    with pytest.raises(ValueError):
        CiInterval(1.0, 2.0, 0.0)


# ----------------------------------------------------------------------- shift


def test_shift_rounds_to_grid():
    d = dist.pmf_from_normal(NormalSpec(40.0, 5.0), 1.0)
    s = dist.shift(d, 2.4)
    assert s.origin == d.origin + 2.0
    assert s.mass is d.mass  # no copy
    assert dist.shift(d, 0.0) is d
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"offset .* got {bad}$"):
            dist.shift(d, bad)


def test_shift_moves_mean_exactly():
    d = dist.pmf_from_normal(NormalSpec(40.0, 5.0), 2.0)
    s = dist.shift(d, 7.0)  # rounds to 8 on the 2 ms grid
    assert s.mean == pytest.approx(d.mean + 8.0, abs=1e-9)


# -------------------------------------------------------------------- sampling


def test_sample_frequencies_match_mass():
    d = _pmf({2.0: 0.5, 4.0: 0.5}, bin_width=2.0)
    rng = np.random.default_rng(7)
    draws = [dist.sample(d, rng) for _ in range(1_000_000)]
    freq2 = draws.count(2.0) / len(draws)
    assert 0.497 <= freq2 <= 0.503
    assert set(draws) == {2.0, 4.0}


class _Fixed:
    """A stream returning one fixed uniform."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sample_clamps_a_uniform_above_the_cdf_to_the_last_bin():
    # the masses sum to 1 within MASS_TOL, so the CDF ends below 1
    d = LatencyPmf(2.0, 4.0, np.array([0.25, 0.5, 0.25 - 5e-10]))
    top = d.cdf_list[-1]
    assert top < 1.0
    assert d.last_bin == 2
    assert d.__dict__["last_bin"] == 2  # cached like cdf_list
    for u in (math.nextafter(top, 1.0), (top + 1.0) / 2, 1.0 - 2**-53):
        assert dist.sample(d, _Fixed(u)) == 4.0 + 2.0 * 2
    assert dist.sample(d, _Fixed(top)) == 8.0
    assert dist.sample(d, _Fixed(0.0)) == 4.0
    assert dist.sample(d, _Fixed(0.25)) == 4.0
    assert dist.sample(d, _Fixed(math.nextafter(0.25, 1.0))) == 6.0
    one = LatencyPmf(1.0, 3.0, np.ones(1))
    assert one.last_bin == 0
    assert dist.sample(one, _Fixed(1.0 - 2**-53)) == 3.0


def test_sample_scalar_and_deterministic():
    d = dist.pmf_from_normal(NormalSpec(40.0, 5.0), 1.0)
    a = dist.sample(d, np.random.default_rng(123))
    b = dist.sample(d, np.random.default_rng(123))
    assert isinstance(a, float)
    assert a == b


def test_pmf_from_normal_matches_scipy_stats_norm_cdf():
    norm = pytest.importorskip("scipy.stats").norm

    for mean, std, width in [(100.0, 20.0, 1.0), (10.0, 20.0, 1.0),
                             (37.3, 0.8, 0.25), (2500.0, 900.0, 2.0)]:
        d = dist.pmf_from_normal(NormalSpec(mean, std), width)
        lo = max(0.0, mean - 4.0 * std)
        k_lo = max(0, math.floor(lo / width))
        k_hi = max(k_lo, math.ceil((mean + 4.0 * std) / width))
        edges = np.clip((np.arange(k_lo, k_hi + 2) - 0.5) * width, 0.0, None)
        mass = np.clip(np.diff(norm.cdf(edges, loc=mean, scale=std)), 0.0, None)
        assert np.array_equal(d.mass, mass / mass.sum())


def test_ndtr_is_bit_equal_to_scipy():
    ndtr = pytest.importorskip("scipy.special").ndtr
    rng = np.random.default_rng(20240)
    rt2 = math.sqrt(2.0)
    # the branch boundaries are |x| = 1/sqrt2 (erf vs erfc), |x| = 1
    # (erfc's own erf branch), |x| = 8 (P/Q vs R/S) and the exp underflow
    # near 37.5, all on x = a / sqrt2
    bounds = np.array([0.0, 1.0, rt2, 8.0 * rt2, 37.5, 37.6, 38.0, 1e6,
                       np.inf])
    bounds = np.concatenate(
        [bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, np.inf)]
    )
    a = np.concatenate([
        rng.standard_normal(400_000) * 3.0,
        rng.uniform(-40.0, 40.0, 400_000),
        np.linspace(-12.0, 12.0, 200_001),
        bounds,
        -bounds,
    ])
    with np.errstate(all="ignore"):
        want = ndtr(a)
    got = dist._ndtr(a)
    assert got.dtype == np.float64
    mismatch = np.flatnonzero(got != want)
    assert mismatch.size == 0, a[mismatch[:5]]
    assert math.isnan(dist._ndtr(np.array([math.nan]))[0])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.builds(
            NormalSpec,
            mean=st.floats(min_value=0.01, max_value=3000.0),
            std=st.one_of(
                st.just(0.0), st.floats(min_value=1e-12, max_value=900.0)
            ),
        ),
        max_size=8,
    ),
    st.sampled_from([0.25, 1.0, 2.0]),
    st.sampled_from([7, 500, dist.PASS_EDGES]),
)
def test_pmfs_from_normal_equals_one_spec_calls(specs, width, pass_edges):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "PASS_EDGES", pass_edges)
        batch = dist.pmfs_from_normal(specs, width)
    assert len(batch) == len(specs)
    for spec, got in zip(specs, batch):
        want = _one_pass_pmf(spec, width)
        assert (got.origin, got.bin_width) == (want.origin, want.bin_width)
        assert np.array_equal(got.mass, want.mass)


def _one_pass_pmf(spec, width):
    """One spec binned with all its edges in a single ``_ndtr`` pass."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "PASS_EDGES", 1 << 40)
        return dist.pmf_from_normal(spec, width)


def test_pass_boundaries_inside_specs_keep_arrays():
    # 1602 edges each, so the first pass boundary falls inside the third
    # spec; the fourth alone spans more than five passes
    specs = [NormalSpec(1000.0 + k, 200.0) for k in range(3)]
    specs += [NormalSpec(12_000.0, 2990.0), NormalSpec(40.0, 0.0)]
    edges = [
        math.ceil(s.mean + 4 * s.std) - math.floor(s.mean - 4 * s.std) + 2
        for s in specs[:4]
    ]
    assert sum(edges[:2]) < dist.PASS_EDGES < sum(edges[:3])
    assert edges[3] > 5 * dist.PASS_EDGES
    calls = []
    ndtr = dist._ndtr

    def counting(a):
        calls.append(len(a))
        return ndtr(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_ndtr", counting)
        batch = dist.pmfs_from_normal(specs, 1.0)
    assert max(calls) == dist.PASS_EDGES
    assert sum(calls) == sum(edges)
    for spec, got in zip(specs, batch):
        want = _one_pass_pmf(spec, 1.0)
        assert (got.origin, got.bin_width) == (want.origin, want.bin_width)
        assert np.array_equal(got.mass, want.mass)


# ---------------------------------------------------------- algebra properties

normal_specs = st.builds(
    NormalSpec,
    mean=st.floats(min_value=5.0, max_value=300.0),
    std=st.floats(min_value=0.0, max_value=40.0),
)


@settings(max_examples=60, deadline=None)
@given(normal_specs, normal_specs)
def test_convolve_conserves_mass_and_means(sa, sb):
    a = dist.pmf_from_normal(sa, 1.0)
    b = dist.pmf_from_normal(sb, 1.0)
    c = dist.convolve(a, b)
    assert abs(float(c.mass.sum()) - 1.0) <= dist.MASS_TOL
    assert abs(c.mean - (a.mean + b.mean)) <= 1.0


@settings(max_examples=40, deadline=None)
@given(normal_specs, normal_specs)
def test_convolve_commutes(sa, sb):
    a = dist.pmf_from_normal(sa, 1.0)
    b = dist.pmf_from_normal(sb, 1.0)
    ab = dist.convolve(a, b)
    ba = dist.convolve(b, a)
    assert ab.origin == ba.origin
    assert np.allclose(ab.mass, ba.mass, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(normal_specs)
def test_cdf_monotone_and_quantiles_on_grid(spec):
    d = dist.pmf_from_normal(spec, 1.0)
    assert np.all(np.diff(d.cdf) >= -1e-15)
    for p in (0.025, 0.5, 0.975):
        q = quantile(d, p)
        k = round((q - d.origin) / d.bin_width)
        assert 0 <= k < d.mass.size
        assert q == pytest.approx(float(d.centers[k]))
    tail = (1.0 - 0.95) / 2.0
    ci = dist.central_ci(d, 0.95)
    assert (ci.lo, ci.hi) == (quantile(d, tail), quantile(d, 1.0 - tail))


@settings(max_examples=60, deadline=None)
@given(normal_specs, st.floats(min_value=0.5, max_value=0.99))
def test_central_ci_covers_level(spec, level):
    d = dist.pmf_from_normal(spec, 1.0)
    ci = dist.central_ci(d, level)
    covered = dist.prob_on_time(d, ci.hi) - dist.prob_on_time(d, ci.lo - d.bin_width)
    assert covered >= level - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    normal_specs,
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.0, max_value=500.0),
)
def test_prob_on_time_monotone_in_deadline(spec, d1, d2):
    d = dist.pmf_from_normal(spec, 1.0)
    lo, hi = sorted((d1, d2))
    assert dist.prob_on_time(d, lo) <= dist.prob_on_time(d, hi) + 1e-15


# ------------------------------------------------------------------- left sum

_finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(_finite_or_not, max_size=12))
def test_left_sum_is_reduce_add_from_int_zero(xs):
    got = dist.left_sum(xs)
    want = functools.reduce(operator.add, xs, 0)
    assert type(got) is type(want)
    if want != want:
        assert got != got
    else:
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert dist.left_sum(iter(xs)) == want or want != want


def test_left_sum_does_not_compensate():
    # left to right, 1e16 + 1.0 rounds back to 1e16; a compensated sum
    # (math.fsum, and builtin sum from CPython 3.12) gives 1.0
    xs = [1e16, 1.0, -1e16]
    assert dist.left_sum(xs) == 0.0
    assert math.fsum(xs) == 1.0
    assert dist.left_sum([]) == 0 and type(dist.left_sum([])) is int
    assert math.copysign(1.0, dist.left_sum([-0.0])) == 1.0
