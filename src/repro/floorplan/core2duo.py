"""Baseline Intel Core 2 Duo floorplan and stacked-die companions.

The paper's Memory+Logic study (Section 3) uses a 92 W skew of a Core 2 Duo
with two cores, private 32 KB L1s, and a shared 4 MB L2 occupying roughly
half the die.  Figure 6 identifies the hotspots as the FP units, reservation
stations, and load/store units; Figure 7 gives the cache-die powers
(4 MB SRAM = 7 W, stacked 8 MB SRAM = 14 W, 32 MB DRAM = 3.1 W,
64 MB DRAM = 6.2 W).  This module rebuilds that floorplan at block level
from those published constraints.
"""

from __future__ import annotations

from typing import List

from repro.floorplan.blocks import Block, Floorplan, FloorplanError, uniform_floorplan

#: Power of the on-die 4 MB SRAM L2 (Figure 7a).
L2_4MB_POWER_W = 7.0

#: Power of the stacked 8 MB SRAM die: "adds 200% more SRAM cache and
#: increases the total power by 14W to 106W" (Section 3).
STACKED_8MB_SRAM_POWER_W = 14.0

#: Power of the stacked 32 MB DRAM die (Figure 7c).
STACKED_32MB_DRAM_POWER_W = 3.1

#: Power of the stacked 64 MB DRAM die (Figure 7d).
STACKED_64MB_DRAM_POWER_W = 6.2

#: Baseline die outline, mm.  ~144 mm^2, consistent with a 65 nm Core 2 Duo;
#: the 4 MB L2 occupies ~50% of the die (Section 3).
DIE_WIDTH_MM = 12.0
DIE_HEIGHT_MM = 12.0


def _core_blocks(suffix: str, x0: float) -> List[Block]:
    """Blocks of one core placed in a 6x6 mm region with bottom-left (x0, 6).

    Per-block powers are chosen so that the hottest densities sit in the FP
    unit, the reservation stations (RS), and the load/store unit (LdSt), as
    called out in Figure 6(b), and one core totals 38.5 W.
    """
    y_core = 6.0
    return [
        # Front end: instruction fetch, L1I, decode.  Wide, cool strip.
        Block(f"FE-{suffix}", x0, y_core + 4.8, 6.0, 1.2, 4.0),
        # Rename / allocation.
        Block(f"Rename-{suffix}", x0, y_core + 3.2, 1.8, 1.6, 3.0),
        # Reservation stations: hotspot.
        Block(f"RS-{suffix}", x0 + 1.8, y_core + 3.2, 1.6, 1.6, 5.5),
        # Integer execution units.
        Block(f"IEU-{suffix}", x0 + 3.4, y_core + 3.2, 2.6, 1.6, 5.0),
        # Floating point unit: hotspot.
        Block(f"FP-{suffix}", x0, y_core + 1.6, 1.6, 1.6, 6.0),
        # Load/store unit: hotspot.
        Block(f"LdSt-{suffix}", x0 + 1.6, y_core + 1.6, 1.6, 1.6, 5.5),
        # L1 data cache.
        Block(f"L1D-{suffix}", x0 + 3.2, y_core + 1.6, 2.8, 1.6, 2.5),
        # Reorder buffer / retirement.
        Block(f"ROB-{suffix}", x0, y_core, 2.4, 1.6, 3.5),
        # Memory ordering, TLBs, pads, misc.
        Block(f"Misc-{suffix}", x0 + 2.4, y_core, 3.6, 1.6, 3.5),
    ]


def core2duo_floorplan(l2_power_w: float = L2_4MB_POWER_W,
                       with_l2: bool = True) -> Floorplan:
    """The baseline Core 2 Duo floorplan of Figure 6.

    Args:
        l2_power_w: Power of the on-die shared L2 (default: the 4 MB SRAM's
            7 W from Figure 7a).
        with_l2: If False, build the 32 MB-DRAM-option CPU die (Figure 7c):
            the on-die 4 MB SRAM L2 is removed and replaced by the (smaller,
            lower-power) DRAM tag array, shrinking the die outline.

    Returns:
        A validated :class:`Floorplan` totalling 92 W (85 W + tags for the
        no-L2 variant).
    """
    if with_l2:
        plan = Floorplan("Core 2 Duo (2D baseline)", DIE_WIDTH_MM, DIE_HEIGHT_MM)
        # Shared L2 across the bottom half of the die (~50% of die area),
        # with the off-die bus interface on the right edge.
        plan.add(Block("L2", 0.0, 0.0, 10.8, 6.0, l2_power_w))
        plan.add(Block("BusIF", 10.8, 0.0, 1.2, 6.0, 8.0))
        for block in _core_blocks("c1", 0.0):
            plan.add(block)
        for block in _core_blocks("c2", 6.0):
            plan.add(block)
        return plan

    # Option (c): the 4 MB L2 is removed (die shrinks ~35%) and a ~2 MB DRAM
    # tag array is placed on-die (Section 3: up to 25% area overhead on the
    # cores, but the die still shrinks overall).
    width = DIE_WIDTH_MM
    height = 9.6  # cores (6 mm) + tag/bus strip (3.6 mm); 115 mm^2 < 144 mm^2
    plan = Floorplan("Core 2 Duo (no L2, DRAM tags)", width, height)
    plan.add(Block("DRAMTags", 0.0, 0.0, 10.8, 3.6, 3.0))
    plan.add(Block("BusIF", 10.8, 0.0, 1.2, 3.6, 8.0))
    # Core regions sit directly above the tag strip: shift y by -? The helper
    # places cores with their bottom edge at y = 6; here the strip is 3.6 mm
    # tall, so rebuild cores shifted down by 2.4 mm.
    for block in _core_blocks("c1", 0.0) + _core_blocks("c2", 6.0):
        plan.add(block.moved_to(block.x, block.y - 2.4))
    return plan


def stacked_cache_die(kind: str, footprint: Floorplan) -> Floorplan:
    """Build the uniform-power stacked cache die for a Memory+Logic option.

    The paper notes the cache-only die has uniform power (Section 3,
    Figure 8b discussion), so the die is modeled as a single uniform block
    matching the CPU die outline.

    Args:
        kind: One of ``"sram-8mb"``, ``"dram-32mb"``, ``"dram-64mb"``.
        footprint: The CPU die the cache is stacked on; the cache die adopts
            its outline (face-to-face stacking requires matching outlines).

    Returns:
        A uniform :class:`Floorplan` with the published die power.
    """
    powers = {
        "sram-8mb": STACKED_8MB_SRAM_POWER_W,
        "dram-32mb": STACKED_32MB_DRAM_POWER_W,
        "dram-64mb": STACKED_64MB_DRAM_POWER_W,
    }
    if kind not in powers:
        raise FloorplanError(
            f"unknown stacked cache kind {kind!r}; expected one of {sorted(powers)}"
        )
    return uniform_floorplan(
        f"stacked {kind}", footprint.die_width, footprint.die_height, powers[kind]
    )
