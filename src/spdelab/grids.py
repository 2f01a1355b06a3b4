"""Uniform cell-centered lattices on a box, and solution samples on them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BOUNDARIES = ("zero-flux", "zero-value")


@dataclass(frozen=True)
class Grid:
    """Uniform lattice of cell centers x_i = x_min + (i + 1/2) h on a box.

    The box realizes the compactly-supported setting: scenarios must keep
    mass away from the walls (see the boundary-mass guard in the solver).
    """

    d: int
    x_min: tuple
    x_max: tuple
    n: tuple
    boundary: str = "zero-flux"

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValidationError(f"grid.d must be 1 or 2, got {self.d}")
        for name in ("x_min", "x_max", "n"):
            v = getattr(self, name)
            if len(v) != self.d:
                raise ValidationError(f"grid.{name} must have {self.d} entries")
        if self.boundary not in BOUNDARIES:
            raise ValidationError(f"grid.boundary must be one of {BOUNDARIES}")
        for lo, hi, n in zip(self.x_min, self.x_max, self.n):
            if n < 16:
                raise ValidationError(f"grid.n must be >= 16, got {n}")
            if hi <= lo:
                raise ValidationError("grid needs x_max > x_min")

    @classmethod
    def line(cls, x_min: float, x_max: float, n: int, boundary: str = "zero-flux") -> "Grid":
        return cls(1, (float(x_min),), (float(x_max),), (int(n),), boundary)

    @classmethod
    def box2d(cls, x_min, x_max, n, boundary: str = "zero-flux") -> "Grid":
        return cls(2, tuple(map(float, x_min)), tuple(map(float, x_max)),
                   tuple(map(int, n)), boundary)

    @property
    def hs(self) -> tuple:
        return tuple((hi - lo) / n for lo, hi, n in zip(self.x_min, self.x_max, self.n))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.hs))

    @property
    def npts(self) -> int:
        return int(np.prod(self.n))

    def axis(self, i: int) -> np.ndarray:
        h = self.hs[i]
        return self.x_min[i] + (np.arange(self.n[i]) + 0.5) * h

    def points(self) -> np.ndarray:
        """All cell centers, shape (npts, d); row-major in the axis order."""
        if self.d == 1:
            return self.axis(0)[:, None]
        X, Y = np.meshgrid(self.axis(0), self.axis(1), indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    @property
    def x(self) -> np.ndarray:
        """1-d coordinate array (only for d = 1)."""
        if self.d != 1:
            raise ValidationError("Grid.x is only defined for 1-d grids")
        return self.axis(0)

    def integrate(self, values: np.ndarray) -> float:
        """Cell-volume quadrature with compensated summation."""
        return math.fsum(np.asarray(values, float).ravel()) * self.cell_volume

    def l1(self, values) -> float:
        return self.integrate(np.abs(values))

    def l2(self, values) -> float:
        v = np.asarray(values, float).ravel()
        return math.sqrt(math.fsum(v * v) * self.cell_volume)


@dataclass
class DensityField:
    """A solution sample u on a grid at one time index."""

    grid: Grid
    values: np.ndarray
    time_index: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.shape[0] != self.grid.npts:
            raise ValidationError("DensityField values do not match the grid size")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("DensityField contains non-finite values")
