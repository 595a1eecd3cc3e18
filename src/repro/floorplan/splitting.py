"""Block splitting and automatic 3D floorplan generation.

Section 4 notes that beyond moving whole blocks between dies, "further
power improvement can be found by dividing blocks between die" — the
intra-block splitting of [1][7][25] that the paper leaves out of scope.
This module implements it:

* :func:`split_block` — divide one block into two stacked halves (half
  the area and power on each die, perfectly overlapped, halving the
  block's worst-case internal wire length).
* :func:`auto_stack` — generate a two-die 3D floorplan from a planar one:
  the named blocks are split across the dies; the remaining blocks are
  distributed greedily to balance die power (hot blocks alternating) and
  packed row by row.

The result plugs directly into the thermal model and the power-density
analysis, so a user can quantify split-vs-move trade-offs on their own
designs (see ``examples/custom_stack_design.py``).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

from repro.floorplan.blocks import Block, Floorplan, FloorplanError


def split_block(block: Block) -> Tuple[Block, Block]:
    """Split *block* into two aligned halves for face-to-face stacking.

    Each half keeps the block's position and width but has half the
    height and half the power, so the stacked pair reconstructs the
    planar power density over half the footprint.
    """
    half_height = block.height / 2.0
    bottom = Block(
        f"{block.name}/b", block.x, block.y, block.width, half_height,
        block.power / 2.0,
    )
    top = Block(
        f"{block.name}/t", block.x, block.y, block.width, half_height,
        block.power / 2.0,
    )
    return bottom, top


def _pack_rows(
    name: str, blocks: List[Block], die_width: float
) -> Floorplan:
    """Shelf-pack blocks into rows on a die of the given width.

    Simple first-fit shelf packing: blocks are placed left to right; a
    new row starts when the current one is full.  The die height is
    whatever the packing needs.
    """
    x = 0.0
    y = 0.0
    row_height = 0.0
    placed: List[Block] = []
    for block in blocks:
        if block.width > die_width + 1e-9:
            raise FloorplanError(
                f"block {block.name!r} ({block.width} mm) is wider than "
                f"the {die_width} mm die"
            )
        if x + block.width > die_width + 1e-9:
            x = 0.0
            y += row_height
            row_height = 0.0
        placed.append(block.moved_to(x, y))
        x += block.width
        row_height = max(row_height, block.height)
    die_height = y + row_height if placed else 1.0
    plan = Floorplan(name, die_width, die_height)
    for block in placed:
        plan.add(block)
    return plan


def auto_stack(
    planar: Floorplan,
    split: Iterable[str] = (),
    die_width: Optional[float] = None,
) -> Tuple[Floorplan, Floorplan]:
    """Generate a two-die 3D floorplan from a planar one.

    Blocks named in *split* are divided across the dies (stacked halves,
    aligned); all other blocks are assigned whole to whichever die
    currently has less power (hot blocks first, so they alternate), then
    shelf-packed.  Both dies are padded to a common outline.

    Args:
        planar: The planar floorplan to convert.
        split: Names of blocks to split across the dies (typically large
            arrays: caches, register files).
        die_width: Target die width; default ``planar.die_width / sqrt(2)``
            (the 50%-footprint goal of the paper's 3D floorplan).

    Returns:
        ``(bottom_die, top_die)``, bottom carrying the larger power.

    Raises:
        FloorplanError: If a *split* name does not exist.
    """
    split = set(split)
    unknown = split - {b.name for b in planar.blocks}
    if unknown:
        raise FloorplanError(f"cannot split unknown blocks {sorted(unknown)}")
    width = die_width or planar.die_width / math.sqrt(2.0)

    bottom_blocks: List[Block] = []
    top_blocks: List[Block] = []
    for block in planar.blocks:
        if block.name in split:
            half_b, half_t = split_block(block)
            bottom_blocks.append(half_b)
            top_blocks.append(half_t)

    movable = sorted(
        (b for b in planar.blocks if b.name not in split),
        key=lambda b: b.power,
        reverse=True,
    )
    power_bottom = sum(b.power for b in bottom_blocks)
    power_top = sum(b.power for b in top_blocks)
    for block in movable:
        if power_bottom <= power_top:
            bottom_blocks.append(block)
            power_bottom += block.power
        else:
            top_blocks.append(block)
            power_top += block.power

    bottom = _pack_rows(f"{planar.name} 3D (bottom)", bottom_blocks, width)
    top = _pack_rows(f"{planar.name} 3D (top)", top_blocks, width)

    # Pad both dies to a common outline (face-to-face requirement).
    height = max(bottom.die_height, top.die_height)
    bottom = Floorplan(bottom.name, width, height, bottom.blocks)
    top = Floorplan(top.name, width, height, top.blocks)
    if bottom.total_power < top.total_power:
        bottom, top = top, bottom
    return bottom, top
