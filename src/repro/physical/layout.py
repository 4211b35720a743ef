"""Trapping-region grid geometry (Figure 1 of the paper).

The physical machine is a two-dimensional grid of *trapping regions*
connected by shared *junctions*.  A logical-qubit tile is a rectangular
patch of this grid that holds the ion-qubits of one encoded qubit plus
the open regions used as movement channels.

This module provides the grid coordinate system, Manhattan routing
distances and the tile-geometry helper used by :mod:`repro.arch.tile` to
turn ion counts into silicon (well, alumina) area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .params import DEFAULT_PARAMS, PhysicalParams

Coord = Tuple[int, int]


@dataclass(frozen=True)
class GridSpec:
    """A rectangular grid of trapping regions.

    ``rows`` x ``cols`` regions; each region can hold at most
    ``capacity`` ions (two ions in one region are required for a two-qubit
    gate, per Figure 1(b)).
    """

    rows: int
    cols: int
    capacity: int = 2

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.capacity < 1:
            raise ValueError("region capacity must be at least 1")

    @property
    def n_regions(self) -> int:
        return self.rows * self.cols

    def contains(self, coord: Coord) -> bool:
        r, c = coord
        return 0 <= r < self.rows and 0 <= c < self.cols

    def coords(self) -> Iterator[Coord]:
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)

    def neighbors(self, coord: Coord) -> List[Coord]:
        """The 4-connected neighbor regions (junction-linked)."""
        r, c = coord
        candidates = [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]
        return [n for n in candidates if self.contains(n)]

    def area_um2(self, params: PhysicalParams = DEFAULT_PARAMS) -> float:
        return self.n_regions * params.region_area_um2

    def area_mm2(self, params: PhysicalParams = DEFAULT_PARAMS) -> float:
        return self.area_um2(params) / 1.0e6


def manhattan(a: Coord, b: Coord) -> int:
    """Number of fundamental move hops between two regions."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def route(a: Coord, b: Coord) -> List[Coord]:
    """A dimension-ordered (row-first) shortest path from ``a`` to ``b``.

    The returned list includes both endpoints.  Junction contention along
    the path is resolved by the machine executor, not here.
    """
    path = [a]
    r, c = a
    step_r = 1 if b[0] > r else -1
    while r != b[0]:
        r += step_r
        path.append((r, c))
    step_c = 1 if b[1] > c else -1
    while c != b[1]:
        c += step_c
        path.append((r, c))
    return path


def near_square_grid(n_slots: int) -> GridSpec:
    """Smallest near-square grid with at least ``n_slots`` regions."""
    if n_slots <= 0:
        raise ValueError("need at least one slot")
    rows = max(1, int(math.floor(math.sqrt(n_slots))))
    cols = int(math.ceil(n_slots / rows))
    return GridSpec(rows=rows, cols=cols)


@dataclass(frozen=True)
class TileGeometry:
    """Geometry of a logical-qubit tile on the trapping-region grid.

    A tile hosting ``n_ions`` ion-qubits needs one trapping region per
    ion plus open regions for ballistic movement.  The amount of movement
    headroom depends on the code's physical layout:

    * ``channel_fraction`` — open regions per ion region.  Codes that only
      ever interact nearest neighbors (the Bacon-Shor 3x3 layout) need
      little headroom; codes whose syndrome extraction shuttles ancilla
      blocks across the tile (Steane) need channel rows between ion rows.
    """

    n_ions: int
    channel_fraction: float

    def __post_init__(self) -> None:
        if self.n_ions <= 0:
            raise ValueError("a tile must hold at least one ion")
        if self.channel_fraction < 0:
            raise ValueError("channel fraction cannot be negative")

    @property
    def n_regions(self) -> int:
        """Total trapping regions (ion homes plus movement channels)."""
        return int(math.ceil(self.n_ions * (1.0 + self.channel_fraction)))

    def grid(self) -> GridSpec:
        return near_square_grid(self.n_regions)

    def area_um2(self, params: PhysicalParams = DEFAULT_PARAMS) -> float:
        return self.n_regions * params.region_area_um2

    def area_mm2(self, params: PhysicalParams = DEFAULT_PARAMS) -> float:
        return self.area_um2(params) / 1.0e6

    def mean_hop_distance(self) -> float:
        """Mean Manhattan distance between random regions of the tile.

        For a ``rows x cols`` grid the expected Manhattan distance between
        two uniformly random cells is ``(rows^2-1)/(3*rows) / ...`` per
        axis; we use the standard closed form per axis and sum them.  This
        drives the movement-cost estimates of the EC schedules.
        """
        g = self.grid()

        def axis_mean(n: int) -> float:
            if n <= 1:
                return 0.0
            return (n * n - 1) / (3.0 * n)

        return axis_mean(g.rows) + axis_mean(g.cols)
