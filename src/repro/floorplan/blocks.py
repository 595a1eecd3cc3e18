"""Rectangular floorplan blocks and whole-die floorplans.

Dimensions are in millimetres and power in watts.  A :class:`Floorplan` is a
collection of non-overlapping :class:`Block` rectangles covering (part of) a
die outline; it can rasterize itself into a power-density map for the thermal
solver (W/mm^2 per grid cell).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional

import numpy as np


class FloorplanError(ValueError):
    """Raised for geometrically or physically inconsistent floorplans."""


@dataclass(frozen=True)
class Block:
    """A rectangular functional block placed on a die.

    Attributes:
        name: Unique block name within its floorplan (e.g. ``"FP"``).
        x: Left edge, mm, in die coordinates.
        y: Bottom edge, mm, in die coordinates.
        width: Extent in x, mm.  Must be positive.
        height: Extent in y, mm.  Must be positive.
        power: Total power dissipated in the block, W.  Must be >= 0.
    """

    name: str
    x: float
    y: float
    width: float
    height: float
    power: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise FloorplanError(
                f"block {self.name!r} has non-positive size "
                f"{self.width}x{self.height}"
            )
        if self.power < 0:
            raise FloorplanError(
                f"block {self.name!r} has negative power {self.power}"
            )

    @property
    def area(self) -> float:
        """Block area in mm^2."""
        return self.width * self.height

    @property
    def power_density(self) -> float:
        """Power density in W/mm^2."""
        return self.power / self.area

    @property
    def x2(self) -> float:
        """Right edge, mm."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Top edge, mm."""
        return self.y + self.height

    def overlaps(self, other: "Block") -> bool:
        """True if this block's rectangle overlaps *other* (not just touching)."""
        eps = 1e-9
        return (
            self.x < other.x2 - eps
            and other.x < self.x2 - eps
            and self.y < other.y2 - eps
            and other.y < self.y2 - eps
        )

    def with_power(self, power: float) -> "Block":
        """Return a copy of this block with a different power."""
        return replace(self, power=power)

    def moved_to(self, x: float, y: float) -> "Block":
        """Return a copy of this block placed at (x, y)."""
        return replace(self, x=x, y=y)


class Floorplan:
    """A die-level floorplan: a named set of non-overlapping blocks.

    Args:
        name: Human-readable floorplan name.
        die_width: Die outline width, mm.
        die_height: Die outline height, mm.
        blocks: Blocks to place.  Block rectangles must lie inside the die
            outline and must not overlap each other.
    """

    def __init__(
        self,
        name: str,
        die_width: float,
        die_height: float,
        blocks: Iterable[Block] = (),
    ) -> None:
        if die_width <= 0 or die_height <= 0:
            raise FloorplanError(
                f"floorplan {name!r} has non-positive die size "
                f"{die_width}x{die_height}"
            )
        self.name = name
        self.die_width = float(die_width)
        self.die_height = float(die_height)
        self._blocks: Dict[str, Block] = {}
        for block in blocks:
            self.add(block)

    # -- construction -----------------------------------------------------

    def add(self, block: Block) -> None:
        """Add *block*, validating containment and non-overlap."""
        if block.name in self._blocks:
            raise FloorplanError(f"duplicate block name {block.name!r}")
        eps = 1e-6
        if (
            block.x < -eps
            or block.y < -eps
            or block.x2 > self.die_width + eps
            or block.y2 > self.die_height + eps
        ):
            raise FloorplanError(
                f"block {block.name!r} extends outside the "
                f"{self.die_width}x{self.die_height} mm die outline"
            )
        for existing in self._blocks.values():
            if block.overlaps(existing):
                raise FloorplanError(
                    f"block {block.name!r} overlaps {existing.name!r}"
                )
        self._blocks[block.name] = block

    def replace_block(self, block: Block) -> None:
        """Replace the existing block of the same name with *block*."""
        if block.name not in self._blocks:
            raise FloorplanError(f"no block named {block.name!r} to replace")
        del self._blocks[block.name]
        try:
            self.add(block)
        except FloorplanError:
            # Restore a consistent state before propagating.
            self._blocks[block.name] = block
            raise

    # -- queries -----------------------------------------------------------

    @property
    def blocks(self) -> List[Block]:
        """Blocks in insertion order."""
        return list(self._blocks.values())

    def block(self, name: str) -> Block:
        """Look up a block by name."""
        try:
            return self._blocks[name]
        except KeyError:
            raise FloorplanError(
                f"floorplan {self.name!r} has no block {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def die_area(self) -> float:
        """Die outline area, mm^2."""
        return self.die_width * self.die_height

    @property
    def total_power(self) -> float:
        """Sum of block powers, W."""
        return sum(b.power for b in self._blocks.values())

    # -- rasterization -----------------------------------------------------

    def rasterize(self, nx: int, ny: int) -> np.ndarray:
        """Rasterize block power onto an ``(ny, nx)`` grid of W/mm^2.

        Each grid cell receives the area-weighted power density of the
        blocks overlapping it, so total power is conserved:
        ``raster.sum() * cell_area == total_power`` (up to float rounding).

        Args:
            nx: Number of grid cells across the die width.
            ny: Number of grid cells across the die height.

        Returns:
            Array of shape ``(ny, nx)`` in W/mm^2, row 0 at y = 0.
        """
        if nx <= 0 or ny <= 0:
            raise FloorplanError("raster grid must have positive dimensions")
        dx = self.die_width / nx
        dy = self.die_height / ny
        cell_area = dx * dy
        grid = np.zeros((ny, nx), dtype=float)
        for block in self._blocks.values():
            density = block.power_density
            # Index ranges of cells the block touches.
            i0 = max(0, int(np.floor(block.x / dx)))
            i1 = min(nx, int(np.ceil(block.x2 / dx)))
            j0 = max(0, int(np.floor(block.y / dy)))
            j1 = min(ny, int(np.ceil(block.y2 / dy)))
            for j in range(j0, j1):
                cell_y0 = j * dy
                cell_y1 = cell_y0 + dy
                oy = min(cell_y1, block.y2) - max(cell_y0, block.y)
                if oy <= 0:
                    continue
                for i in range(i0, i1):
                    cell_x0 = i * dx
                    cell_x1 = cell_x0 + dx
                    ox = min(cell_x1, block.x2) - max(cell_x0, block.x)
                    if ox <= 0:
                        continue
                    grid[j, i] += density * (ox * oy) / cell_area
        return grid

    # -- transforms ----------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Floorplan":
        """A deep-enough copy (blocks are immutable) with an optional rename."""
        return Floorplan(
            name or self.name, self.die_width, self.die_height, self.blocks
        )

    def scaled_geometry(self, factor: float, name: Optional[str] = None) -> "Floorplan":
        """Return a copy scaled geometrically by *factor* per axis.

        Block powers are unchanged, so power density scales by 1/factor^2.
        """
        if factor <= 0:
            raise FloorplanError(f"geometry scale factor must be > 0, got {factor}")
        scaled = [
            Block(
                b.name,
                b.x * factor,
                b.y * factor,
                b.width * factor,
                b.height * factor,
                b.power,
            )
            for b in self.blocks
        ]
        return Floorplan(
            name or self.name,
            self.die_width * factor,
            self.die_height * factor,
            scaled,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Floorplan({self.name!r}, {self.die_width}x{self.die_height} mm, "
            f"{len(self)} blocks, {self.total_power:.1f} W)"
        )


def uniform_floorplan(
    name: str, die_width: float, die_height: float, power: float
) -> Floorplan:
    """A single-block floorplan dissipating *power* uniformly over the die.

    Used for cache-only dies in the Memory+Logic stack, which the paper notes
    have uniform power (Section 3, discussion of Figure 8b).
    """
    block = Block(name=f"{name}-uniform", x=0.0, y=0.0,
                  width=die_width, height=die_height, power=power)
    return Floorplan(name, die_width, die_height, [block])
