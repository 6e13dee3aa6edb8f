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

# Tolerance for "mass sums to one" checks.  Construction renormalises, so
# anything beyond float accumulation noise indicates a real bug.
MASS_TOL = 1e-9


@dataclass(frozen=True)
class NormalSpec:
    """Mean/std pair describing a latency or work profile before binning.

    Units are whatever the caller wants (ms for latencies, MI for work);
    the mean must be positive, the deviation non-negative, both finite.
    """

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not 0 < self.mean < math.inf:
            raise ValueError(
                f"NormalSpec.mean must be positive and finite, got {self.mean}"
            )
        if not 0 <= self.std < math.inf:
            raise ValueError(
                "NormalSpec.std must be non-negative and finite, "
                f"got {self.std}"
            )

    def scaled(self, factor: float) -> "NormalSpec":
        """Scale both moments, e.g. MI -> ms via 1000 / MIPS."""
        return NormalSpec(self.mean * factor, self.std * factor)


@dataclass(slots=True)
class CiInterval:
    """Central confidence interval of a latency distribution.

    Slotted rather than frozen, since one is built per examined candidate
    (see the decision records in ``fogfed.alloc``); never changed after it
    is built.
    """

    lo: float
    hi: float
    level: float

    def __post_init__(self) -> None:
        if not 0 < self.level < 1:
            raise ValueError(f"CI level must lie in (0, 1), got {self.level}")
        if self.lo > self.hi:
            raise ValueError(f"CI bounds out of order: [{self.lo}, {self.hi}]")


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
        if not self.origin >= 0:
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


# ------------------------------------------------------------- normal CDF
#
# A port of the Cephes ``ndtr``/``erf``/``erfc`` (Moshier, Cephes Math
# Library), the routine scipy.special.ndtr evaluates: the same branch
# rules, the same rational approximations evaluated by Horner's rule, and
# libm's ``exp``, so every bin mass matches scipy bit for bit.

# erf(x) = x T(x^2) / U(x^2) for |x| <= 1; U has an implicit leading 1
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8; Q has an implicit leading 1
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) = exp(-x^2) R(x) / S(x) for x >= 8; S has an implicit leading 1
_ERFC_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# log(DBL_MAX); Cephes takes exp(-x^2) below -_MAXLOG as an underflow to 0
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule, ``coef`` highest power first."""
    acc = x * coef[0]
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """``_polevl`` with an implicit leading coefficient of 1."""
    acc = x + coef[0]
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _erf_small(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` on |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc_pos(x: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` on x >= 0 (NaN passes through)."""
    out = np.zeros_like(x)
    near = x < 1.0
    out[near] = 1.0 - _erf_small(x[near])
    far = ~near
    xf = x[far]
    with np.errstate(over="ignore"):  # -inf past |x| ~ 1e154, as in C
        z = -xf * xf
    live = ~(z < -_MAXLOG)
    xl, zl = xf[live], z[live]
    # libm's exp, as Cephes calls it: numpy's SIMD exp differs in the last
    # bit on some inputs
    e = np.fromiter(map(math.exp, zl.tolist()), np.float64, count=zl.size)
    y = np.empty_like(xl)
    mid = xl < 8.0
    for part, num, den in ((mid, _ERFC_P, _ERFC_Q), (~mid, _ERFC_R, _ERFC_S)):
        xp = xl[part]
        y[part] = (e[part] * _polevl(xp, num)) / _p1evl(xp, den)
    farv = np.zeros_like(xf)
    farv[live] = y
    out[far] = farv
    return out


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise; bit-equal to scipy.special.ndtr."""
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf_small(x[inner])
    outer = ~inner
    yo = 0.5 * _erfc_pos(z[outer])
    upper = x[outer] > 0
    yo[upper] = 1.0 - yo[upper]
    y[outer] = yo
    return y


# ------------------------------------------------------------ normal binning

# Bin edges per ``_ndtr`` pass.  Each pass allocates about a dozen arrays
# of this length; one pass over every edge of a sweep's ETC once set the
# process's peak memory.
PASS_EDGES = 4096


def pmfs_from_normal(
    specs: "list[NormalSpec] | tuple[NormalSpec, ...]",
    bin_width: float,
    truncation: float = 4.0,
) -> list[LatencyPmf]:
    """``pmf_from_normal`` of each spec, binned in a few array passes.

    The bin edges of all specs go through ``_ndtr`` together, at most
    ``PASS_EDGES`` at a time, so its per-call overhead is paid once per
    pass and its temporaries stay small.  Every step is elementwise, so
    each result equals its one-spec counterpart array for array, wherever
    the pass boundaries fall.
    """
    if not bin_width > 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if not truncation > 0:
        raise ValueError(f"truncation must be positive, got {truncation}")
    out: list = [None] * len(specs)
    binned = []  # (index into specs, first bin, edge count)
    for i, spec in enumerate(specs):
        # Stds far below the grid resolution are point masses; this also
        # keeps subnormal floats out of the normal CDF evaluation.
        if spec.std <= bin_width * 1e-9:
            out[i] = point_mass(spec.mean, bin_width)
            continue
        lo = max(0.0, spec.mean - truncation * spec.std)
        hi = spec.mean + truncation * spec.std
        k_lo = max(0, math.floor(lo / bin_width))
        k_hi = max(k_lo, math.ceil(hi / bin_width))
        binned.append((i, k_lo, k_hi + 2 - k_lo))
    if not binned:
        return out
    index, k_los, counts = (np.array(col) for col in zip(*binned))
    starts = np.cumsum(counts) - counts
    # edge j of the concatenation is bin k_lo + (j - start) of its spec
    k_offsets = k_los - starts
    means = np.array([specs[i].mean for i in index.tolist()])
    stds = np.array([specs[i].std for i in index.tolist()])
    total = int(counts.sum())
    cdf = np.empty(total)
    for first in range(0, total, PASS_EDGES):
        j = np.arange(first, min(first + PASS_EDGES, total))
        owner = np.searchsorted(starts, j, side="right") - 1
        # Bin k covers [center - w/2, center + w/2]; the edge below zero
        # is clamped so negative latencies never receive mass.
        edges = (j + k_offsets[owner] - 0.5) * bin_width
        np.clip(edges, 0.0, None, out=edges)
        cdf[first:first + j.size] = _ndtr((edges - means[owner]) / stds[owner])
    for i, k_lo, start, n in zip(
        index.tolist(), k_los.tolist(), starts.tolist(), counts.tolist()
    ):
        # mass[b] = cdf[b + 1] - cdf[b] over the spec's own edges
        seg = cdf[start + 1:start + n] - cdf[start:start + n - 1]
        np.clip(seg, 0.0, None, out=seg)
        total_mass = seg.sum()
        if total_mass <= 0.0:
            # Entire truncation window collapsed onto one grid point.
            out[i] = point_mass(specs[i].mean, bin_width)
            continue
        seg /= total_mass
        seg.setflags(write=False)
        out[i] = LatencyPmf(bin_width, k_lo * bin_width, seg)
    return out


def pmf_from_normal(
    spec: NormalSpec, bin_width: float, truncation: float = 4.0
) -> LatencyPmf:
    """Bin a normal profile, truncated at zero and at ``truncation`` sigmas.

    Mass below zero and beyond mean +/- truncation*std is dropped and the
    remainder renormalised, so heavy left tails (std comparable to the mean)
    produce a slightly right-shifted discrete mean.  With std = 0 the result
    is a point mass at the grid point nearest the mean.
    """
    return pmfs_from_normal((spec,), bin_width, truncation)[0]


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
