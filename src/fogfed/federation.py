"""Fog federation topology plus the computation and transfer time matrices.

A federation is a 2-D grid of fog systems; each fog talks to its 4-adjacent
neighbours.  Heterogeneity lives across fogs (one MIPS rating per fog, all
nodes inside a fog identical).  The ETC matrix turns per-type work profiles
(in millions of instructions) into per-fog latency PMFs; the ETT matrix
turns payload sizes into hop-indexed transfer latency PMFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import (
    LatencyPmf,
    NormalSpec,
    convolve,
    memo_convolve,
    memo_shift,
    pmfs_from_normal,
    point_mass,
)

MIPS_LO = 1500.0
MIPS_HI = 2500.0
DEFAULT_NODE_COUNT = 8


@dataclass(frozen=True)
class FogSystem:
    """One gateway-fronted fog: identical nodes sharing a MIPS rating."""

    id: int
    grid_pos: tuple[int, int]
    node_mips: float
    node_count: int = DEFAULT_NODE_COUNT

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be at least 1")
        if not (MIPS_LO <= self.node_mips <= MIPS_HI):
            raise ValueError(
                f"node_mips {self.node_mips} outside [{MIPS_LO}, {MIPS_HI}]"
            )


@dataclass(frozen=True, eq=False)
class FederationTopology:
    """Grid federation: fogs indexed by id, neighbours by 4-adjacency.

    Fog ids are row-major grid positions (``hop_distance`` reads them so),
    so the grid holds exactly ``width * height`` fogs, ``fogs[i].id == i``,
    and the adjacency names only those ids.
    """

    width: int
    height: int
    fogs: tuple[FogSystem, ...]
    adjacency: dict[int, tuple[int, ...]] = field(repr=False)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be at least 1x1")
        n = len(self.fogs)
        if n != self.width * self.height:
            raise ValueError(
                f"{n} fogs on a {self.width}x{self.height} grid; "
                f"need {self.width * self.height}"
            )
        for i, f in enumerate(self.fogs):
            if f.id != i:
                raise ValueError(f"fog at index {i} has id {f.id}")
        for fid, nbrs in self.adjacency.items():
            for g in (fid, *nbrs):
                if not 0 <= g < n:
                    raise ValueError(f"adjacency names unknown fog {g}")

    def fog(self, fog_id: int) -> FogSystem:
        if not 0 <= fog_id < len(self.fogs):
            raise KeyError(f"unknown fog {fog_id}")
        return self.fogs[fog_id]

    def neighbors(self, fog_id: int) -> tuple[int, ...]:
        self.fog(fog_id)
        return self.adjacency[fog_id]

    def degree(self, fog_id: int) -> int:
        return len(self.neighbors(fog_id))

    def fog_ids(self) -> range:
        return range(len(self.fogs))


def build_grid(
    width: int,
    height: int,
    seed: int,
    *,
    node_count: int = DEFAULT_NODE_COUNT,
    fixed_mips: "float | None" = None,
) -> FederationTopology:
    """Build a width x height federation with seeded per-fog MIPS.

    Fog ids are row-major: id = y * width + x.  ``fixed_mips`` pins every
    fog to one rating (useful for hand-checkable schedules).
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be at least 1x1")
    n = width * height
    if fixed_mips is None:
        rng = np.random.default_rng(seed)
        mips = rng.uniform(MIPS_LO, MIPS_HI, size=n)
    else:
        mips = np.full(n, float(fixed_mips))
    fogs = []
    for y in range(height):
        for x in range(width):
            fid = y * width + x
            fogs.append(
                FogSystem(fid, (x, y), float(mips[fid]), node_count)
            )
    adjacency: dict[int, tuple[int, ...]] = {}
    for f in fogs:
        x, y = f.grid_pos
        nbrs = []
        for dx, dy in ((0, -1), (-1, 0), (1, 0), (0, 1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                nbrs.append(ny * width + nx)
        adjacency[f.id] = tuple(sorted(nbrs))
    return FederationTopology(width, height, tuple(fogs), adjacency)


def hop_distance(topo: FederationTopology, a: int, b: int) -> int:
    """Manhattan distance on the grid, from the row-major fog ids."""
    n = len(topo.fogs)
    if not (0 <= a < n and 0 <= b < n):
        raise KeyError(f"unknown fog {b if 0 <= a < n else a}")
    ay, ax = divmod(a, topo.width)
    by, bx = divmod(b, topo.width)
    return abs(ax - bx) + abs(ay - by)


def slowest_fog(topo: FederationTopology) -> int:
    """Fog with the lowest MIPS rating (ties: lowest id)."""
    return min(topo.fogs, key=lambda f: (f.node_mips, f.id)).id


def override_mips(
    topo: FederationTopology, fog_id: int, node_mips: float
) -> FederationTopology:
    """Copy of the topology with one fog repinned to ``node_mips``.

    Scenarios use this to provision the gateway fog at a known rating while
    the rest of the federation keeps its seeded draws.
    """
    base = topo.fog(fog_id)
    fogs = list(topo.fogs)
    fogs[fog_id] = FogSystem(
        base.id, base.grid_pos, float(node_mips), base.node_count
    )
    return FederationTopology(
        topo.width, topo.height, tuple(fogs), topo.adjacency
    )


@dataclass(frozen=True)
class LinkProfile:
    """Inter-fog link: effective bandwidth plus per-hop latency."""

    bandwidth_mbps: float = 1000.0
    per_hop_latency: NormalSpec = NormalSpec(20.0, 5.0)

    def __post_init__(self) -> None:
        if not self.bandwidth_mbps > 0:
            raise ValueError("bandwidth must be positive")

    def transfer_ms(self, data_mb: float) -> float:
        """Serialization time for one hop."""
        return data_mb * 8.0 / self.bandwidth_mbps * 1000.0


@dataclass(frozen=True, eq=False)
class EtcMatrix:
    """(micro-service type, fog id) -> computational latency PMF.

    ``specs`` keeps the continuous ms-scale normal behind each entry so
    sub-bin-width comparisons (e.g. speed monotonicity) stay exact.  The
    sorted types and fog ids of ``entries`` are taken once, when the
    matrix is built; nothing changes ``entries`` after that.
    """

    bin_width: float
    entries: dict[tuple[str, int], LatencyPmf] = field(repr=False)
    specs: dict[tuple[str, int], NormalSpec] = field(repr=False)
    _types: tuple[str, ...] = field(init=False, repr=False)
    _fog_ids: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        types = sorted({t for t, _ in self.entries})
        fog_ids = sorted({f for _, f in self.entries})
        object.__setattr__(self, "_types", tuple(types))
        object.__setattr__(self, "_fog_ids", tuple(fog_ids))

    def pmf(self, mtype: str, fog_id: int) -> LatencyPmf:
        try:
            return self.entries[(mtype, fog_id)]
        except KeyError:
            raise KeyError(f"no ETC entry for ({mtype!r}, {fog_id})") from None

    def spec(self, mtype: str, fog_id: int) -> NormalSpec:
        try:
            return self.specs[(mtype, fog_id)]
        except KeyError:
            raise KeyError(f"no ETC entry for ({mtype!r}, {fog_id})") from None

    def types(self) -> list[str]:
        return list(self._types)

    def fog_ids(self) -> list[int]:
        return list(self._fog_ids)


def _binned(
    memo: dict, specs: "list[NormalSpec]", bin_width: float
) -> list[LatencyPmf]:
    """The PMF of each spec, held in ``memo`` under ``(spec, bin_width)``.

    Only the misses are binned, in one ``pmfs_from_normal`` pass, which
    gives each spec the same array as binning it alone.
    """
    misses = list(
        dict.fromkeys(s for s in specs if (s, bin_width) not in memo)
    )
    for spec, pmf in zip(misses, pmfs_from_normal(misses, bin_width)):
        memo[(spec, bin_width)] = pmf
    return [memo[(s, bin_width)] for s in specs]


def build_etc(
    topo: FederationTopology,
    profiles: dict[str, NormalSpec],
    bin_width: float = 1.0,
    memo: "dict | None" = None,
) -> EtcMatrix:
    """Work in MI divided by fog speed gives latency in ms.

    ``memo`` is a sweep memo (see ``fogfed.dist``).  Pass one dict to
    every context of a sweep and each distinct normal is binned once.
    """
    if not profiles:
        raise ValueError("profiles must be non-empty")
    specs = {
        (mtype, f.id): work.scaled(1000.0 / f.node_mips)
        for mtype, work in profiles.items()
        for f in topo.fogs
    }
    if memo is None:
        memo = {}
    pmfs = _binned(memo, list(specs.values()), bin_width)
    return EtcMatrix(bin_width, dict(zip(specs, pmfs)), specs)


def mean_exec_profile(etc: EtcMatrix, mtype: str) -> float:
    """Average expected execution over every fog; the E_i of deadlines.

    Budgets come from the discretised (non-negative) latency model the
    simulator actually samples, so wide stages whose truncation lifts the
    mean get a matching budget.  Stages lighter than one bin snap to a
    zero PMF; those fall back to the continuous mean so every service
    still contributes a positive budget.
    """
    fogs = etc.fog_ids()
    if not fogs:
        raise KeyError("empty ETC matrix")
    means = []
    for f in fogs:
        m = etc.pmf(mtype, f).mean
        means.append(m if m > 0.0 else etc.spec(mtype, f).mean)
    return float(np.mean(means))


@dataclass(frozen=True, eq=False)
class EttMatrix:
    """(micro-service type, hop count) -> communication latency PMF.

    Hop count already determines the path cost on the grid, so entries are
    shared by every destination at the same distance.
    """

    bin_width: float
    max_hops: int
    entries: dict[tuple[str, int], LatencyPmf] = field(repr=False)

    def pmf(self, mtype: str, hops: int) -> LatencyPmf:
        try:
            return self.entries[(mtype, hops)]
        except KeyError:
            raise KeyError(f"no ETT entry for ({mtype!r}, {hops} hops)") from None


def build_ett(
    topo: FederationTopology,
    link: LinkProfile,
    data_mb: dict[str, float],
    bin_width: float = 1.0,
    memo: "dict | None" = None,
) -> EttMatrix:
    """Hop-indexed transfer latencies.

    Hop 0 is a point mass at 0 (local handoff).  Each hop adds one draw of
    the link latency plus the payload serialization time.  The sum of the
    link draws does not depend on the type, so each hop count's chain is
    convolved once and shifted per type.  The hop normal, the chains and
    the shifts go through ``memo``, a sweep memo (see ``fogfed.dist``), so
    the contexts of one sweep share every one they have in common.
    """
    if memo is None:
        memo = {}
    max_hops = (topo.width - 1) + (topo.height - 1)
    hop_pmf = _binned(memo, [link.per_hop_latency], bin_width)[0]
    chains = [hop_pmf] if max_hops else []
    while len(chains) < max_hops:
        chains.append(memo_convolve(memo, chains[-1], hop_pmf, convolve))
    local = point_mass(0.0, bin_width)
    entries: dict[tuple[str, int], LatencyPmf] = {}
    for mtype, mb in data_mb.items():
        # written so that a NaN fails it
        if not 0 <= mb < math.inf:
            raise ValueError(
                f"payload for {mtype!r} must be non-negative and finite, "
                f"got {mb}"
            )
        per_hop_transfer = link.transfer_ms(mb)
        entries[(mtype, 0)] = local
        for h, chain in enumerate(chains, start=1):
            entries[(mtype, h)] = memo_shift(memo, chain, h * per_hop_transfer)
    return EttMatrix(bin_width, max_hops, entries)
