"""Discrete latency distributions on a fixed millisecond grid.

Every latency quantity in the simulator (computation time, transfer time,
end-to-end completion time) is represented as a probability mass function
over equal-width bins.  Bin k of a distribution with origin ``o`` and width
``w`` is centred at ``o + k * w``; all arithmetic stays on that grid, so
convolution is exact rather than a sampling approximation.

Distributions are immutable.  Ops that look like mutation (``shift``) return
a new object sharing the underlying mass array.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr

# Tolerance for "mass sums to one" checks.  Construction renormalises, so
# anything beyond float accumulation noise indicates a real bug.
MASS_TOL = 1e-9


@dataclass(frozen=True)
class NormalSpec:
    """Mean/std pair describing a latency or work profile before binning.

    Units are whatever the caller wants (ms for latencies, MI for work);
    the mean must be positive, the deviation non-negative.
    """

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not self.mean > 0:
            raise ValueError(f"NormalSpec.mean must be positive, got {self.mean}")
        if self.std < 0:
            raise ValueError(f"NormalSpec.std must be non-negative, got {self.std}")

    def scaled(self, factor: float) -> "NormalSpec":
        """Scale both moments, e.g. MI -> ms via 1000 / MIPS."""
        return NormalSpec(self.mean * factor, self.std * factor)


@dataclass(frozen=True)
class CiInterval:
    """Central confidence interval of a latency distribution."""

    lo: float
    hi: float
    level: float

    def __post_init__(self) -> None:
        if not 0 < self.level < 1:
            raise ValueError(f"CI level must lie in (0, 1), got {self.level}")
        if self.lo > self.hi:
            raise ValueError(f"CI bounds out of order: [{self.lo}, {self.hi}]")

    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True, eq=False)
class LatencyPmf:
    """Probability mass function over fixed-width latency bins.

    bin_width: bin width in ms, > 0.
    origin:    centre of the first bin in ms, >= 0.
    mass:      1-D array of bin probabilities, non-negative, summing to 1.
    """

    bin_width: float
    origin: float
    mass: np.ndarray

    def __post_init__(self) -> None:
        if not self.bin_width > 0:
            raise ValueError(f"bin_width must be positive, got {self.bin_width}")
        if self.origin < 0:
            raise ValueError(f"origin must be non-negative, got {self.origin}")
        arr = self.mass
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
            arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("mass must be a non-empty 1-D array")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        total = float(arr.sum())
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=MASS_TOL):
            raise ValueError(f"mass must sum to 1 within {MASS_TOL}, got {total!r}")
        if float(arr.min()) < 0.0:
            raise ValueError("mass entries must be non-negative")
        object.__setattr__(self, "mass", arr)
        # Plain floats, so grid arithmetic in Python matches ``centers``.
        object.__setattr__(self, "bin_width", float(self.bin_width))
        object.__setattr__(self, "origin", float(self.origin))

    # cached_property stores straight into __dict__, so it works on a frozen
    # dataclass; the arrays themselves are read-only.
    @cached_property
    def centers(self) -> np.ndarray:
        c = self.origin + self.bin_width * np.arange(self.mass.size)
        c.setflags(write=False)
        return c

    @cached_property
    def cdf(self) -> np.ndarray:
        c = np.cumsum(self.mass)
        c.setflags(write=False)
        return c

    @cached_property
    def cdf_list(self) -> list[float]:
        """``cdf`` as a Python list, for scalar bisection and indexing."""
        return self.cdf.tolist()

    @cached_property
    def mean(self) -> float:
        return float(np.dot(self.centers, self.mass))

    @property
    def support_hi(self) -> float:
        """Centre of the last bin."""
        return self.origin + self.bin_width * (self.mass.size - 1)

    def __repr__(self) -> str:  # keep reprs short, arrays can be huge
        return (
            f"LatencyPmf(bin_width={self.bin_width}, origin={self.origin}, "
            f"bins={self.mass.size}, mean={self.mean:.3f})"
        )


def point_mass(value: float, bin_width: float) -> LatencyPmf:
    """Degenerate distribution at ``value`` snapped to the bin grid."""
    if not bin_width > 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if value < 0:
        raise ValueError(f"point mass value must be non-negative, got {value}")
    k = max(0, round(value / bin_width))
    return LatencyPmf(bin_width, k * bin_width, np.ones(1))


def pmf_from_normal(
    spec: NormalSpec, bin_width: float, truncation: float = 4.0
) -> LatencyPmf:
    """Bin a normal profile, truncated at zero and at ``truncation`` sigmas.

    Mass below zero and beyond mean +/- truncation*std is dropped and the
    remainder renormalised, so heavy left tails (std comparable to the mean)
    produce a slightly right-shifted discrete mean.  With std = 0 the result
    is a point mass at the grid point nearest the mean.
    """
    if not bin_width > 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if not truncation > 0:
        raise ValueError(f"truncation must be positive, got {truncation}")
    # Stds far below the grid resolution are point masses; this also keeps
    # subnormal floats out of the normal CDF evaluation.
    if spec.std <= bin_width * 1e-9:
        return point_mass(spec.mean, bin_width)
    lo = max(0.0, spec.mean - truncation * spec.std)
    hi = spec.mean + truncation * spec.std
    k_lo = max(0, math.floor(lo / bin_width))
    k_hi = max(k_lo, math.ceil(hi / bin_width))
    # Bin k covers [center - w/2, center + w/2]; the edge below zero is
    # clamped so negative latencies never receive mass.
    edges = (np.arange(k_lo, k_hi + 2) - 0.5) * bin_width
    np.clip(edges, 0.0, None, out=edges)
    cdf = ndtr((edges - spec.mean) / spec.std)
    mass = np.diff(cdf)
    np.clip(mass, 0.0, None, out=mass)
    total = mass.sum()
    if total <= 0.0:
        # Entire truncation window collapsed onto one grid point.
        return point_mass(spec.mean, bin_width)
    mass /= total
    return LatencyPmf(bin_width, k_lo * bin_width, mass)


def _require_same_grid(a: LatencyPmf, b: LatencyPmf) -> None:
    if not math.isclose(a.bin_width, b.bin_width, rel_tol=1e-12):
        raise ValueError(
            f"incompatible bin widths: {a.bin_width} vs {b.bin_width}"
        )


def convolve(a: LatencyPmf, b: LatencyPmf) -> LatencyPmf:
    """Distribution of the sum of two independent latencies (exact)."""
    _require_same_grid(a, b)
    mass = np.convolve(a.mass, b.mass)
    total = mass.sum()
    # Direct convolution keeps the total within float noise of 1; divide the
    # dust out so long chains cannot drift.
    if total > 0.0:
        mass /= total
    return LatencyPmf(a.bin_width, a.origin + b.origin, mass)


def convolve_chain(parts: "list[LatencyPmf] | tuple[LatencyPmf, ...]") -> LatencyPmf:
    """Fold ``convolve`` over a non-empty sequence of distributions."""
    if len(parts) == 0:
        raise ValueError("convolve_chain needs at least one distribution")
    acc = parts[0]
    for part in parts[1:]:
        acc = convolve(acc, part)
    return acc


def prob_on_time_at(
    cdf, origin: float, bin_width: float, deadline: float
) -> float:
    """``prob_on_time`` of the grid whose first bin centre is ``origin``.

    ``cdf`` is any indexable CDF sequence; a shifted distribution differs
    from its base only in ``origin``, so callers holding the base CDF can
    evaluate a shift without building it.
    """
    # Nudge by a relative epsilon so a deadline sitting exactly on a bin
    # centre includes that bin despite float division error.
    pos = (deadline - origin) / bin_width
    count = math.floor(pos + 1e-9) + 1
    if count <= 0:
        return 0.0
    if count >= len(cdf):
        return 1.0
    return float(cdf[count - 1])


def prob_on_time(d: LatencyPmf, deadline: float) -> float:
    """P(latency <= deadline): total mass of bins whose centre <= deadline."""
    return prob_on_time_at(d.cdf, d.origin, d.bin_width, deadline)


def _quantile_bin(d: LatencyPmf, p: float) -> int:
    idx = int(np.searchsorted(d.cdf, p, side="left"))
    return min(idx, d.mass.size - 1)


def quantile(d: LatencyPmf, p: float) -> float:
    """Smallest bin centre whose CDF reaches ``p`` (right-continuous inverse)."""
    if not 0 <= p <= 1:
        raise ValueError(f"quantile level must lie in [0, 1], got {p}")
    return float(d.centers[_quantile_bin(d, p)])


def ci_bins(d: LatencyPmf, level: float = 0.95) -> tuple[int, int]:
    """Bin indices of the ``central_ci`` bounds; a shift leaves them fixed."""
    if not 0 < level < 1:
        raise ValueError(f"CI level must lie in (0, 1), got {level}")
    tail = (1.0 - level) / 2.0
    return _quantile_bin(d, tail), _quantile_bin(d, 1.0 - tail)


def central_ci(d: LatencyPmf, level: float = 0.95) -> CiInterval:
    """Central ``level`` probability interval via grid quantiles."""
    lo, hi = ci_bins(d, level)
    return CiInterval(float(d.centers[lo]), float(d.centers[hi]), level)


def ci_disjoint(a: CiInterval, b: CiInterval) -> bool:
    """True when the intervals do not touch; a shared endpoint is overlap."""
    if not math.isclose(a.level, b.level, rel_tol=1e-12):
        raise ValueError(
            f"cannot compare intervals at different levels: {a.level} vs {b.level}"
        )
    return a.hi < b.lo or b.hi < a.lo


def shift(d: LatencyPmf, offset: float) -> LatencyPmf:
    """Add a deterministic delay; the offset snaps to the bin grid."""
    if offset < 0:
        raise ValueError(f"shift offset must be non-negative, got {offset}")
    k = round(offset / d.bin_width)
    if k == 0:
        return d
    return LatencyPmf(d.bin_width, d.origin + k * d.bin_width, d.mass)


def sample(d: LatencyPmf, rng: np.random.Generator, size: "int | None" = None):
    """Draw bin centres with probability equal to their mass.

    Returns a float for ``size=None``, else an ndarray of length ``size``.
    Both paths consume the same uniform draws and pick the same bins.
    """
    if size is None:
        idx = bisect_left(d.cdf_list, rng.random())
        return d.origin + d.bin_width * min(idx, d.mass.size - 1)
    u = rng.random(size)
    idx = np.searchsorted(d.cdf, u, side="left")
    idx = np.minimum(idx, d.mass.size - 1)
    return d.centers[idx]


def mean(d: LatencyPmf) -> float:
    return d.mean
