"""Stacked power-density analysis and iterative hotspot repair.

Section 4 warns that the central risk of Logic+Logic stacking is the
accidental doubling of power density, and describes the mitigation used in
the paper: "A simple iterative process of placing blocks, observing the new
power densities and repairing outliers".  This module provides the combined
(through-stack) power-density map for a two-die stack, summary reporting,
and an implementation of that repair loop that relocates top-die blocks off
of combined-density outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.floorplan.blocks import Block, Floorplan, FloorplanError

# -- die-to-die interface technology constants ---------------------------
# The electrical side of face-to-face stacking (Section 3): the d2d via
# path is far closer to an on-die via stack than to an I/O pad.  These
# live with the physical stacking substrate so both the electrical model
# (core.stack) and the wire-delay model (uarch.wires) draw on one source.

#: RC of a full first-to-last-metal via stack, normalized to 1.0.
VIA_STACK_RC = 1.0

#: RC of the d2d via path relative to a full via stack (paper: ~1/3).
D2D_RC_FRACTION = VIA_STACK_RC / 3.0


def power_density_map(
    bottom: Floorplan, top: Floorplan, nx: int = 64, ny: int = 64
) -> np.ndarray:
    """Combined through-stack power density, W/mm^2, on an (ny, nx) grid.

    In a face-to-face stack the two active layers are a few tens of microns
    apart — far thinner than any lateral feature — so to first order the
    heat flux toward the heat sink at (x, y) is driven by the *sum* of the
    two dies' local power densities.  This is the quantity the paper's
    repair loop monitors.

    The dies must share an outline (face-to-face stacking requirement).
    """
    if (
        abs(bottom.die_width - top.die_width) > 1e-6
        or abs(bottom.die_height - top.die_height) > 1e-6
    ):
        raise FloorplanError(
            "stacked dies must share an outline: "
            f"{bottom.die_width}x{bottom.die_height} vs "
            f"{top.die_width}x{top.die_height}"
        )
    return bottom.rasterize(nx, ny) + top.rasterize(nx, ny)


@dataclass(frozen=True)
class PowerDensityReport:
    """Summary of a stack's power-density situation.

    Attributes:
        total_power: Sum of both dies' power, W.
        peak_density: Peak combined density, W/mm^2.
        mean_density: Mean combined density over the die outline, W/mm^2.
        peak_vs_reference: Ratio of peak combined density to the reference
            (planar) peak density, if a reference was given.
    """

    total_power: float
    peak_density: float
    mean_density: float
    peak_vs_reference: Optional[float]


def power_density_report(
    bottom: Floorplan,
    top: Floorplan,
    reference: Optional[Floorplan] = None,
    nx: int = 64,
    ny: int = 64,
) -> PowerDensityReport:
    """Analyze a two-die stack, optionally against a planar reference."""
    combined = power_density_map(bottom, top, nx, ny)
    peak = float(combined.max())
    mean = float(combined.mean())
    ratio = None
    if reference is not None:
        ref_peak = float(reference.rasterize(nx, ny).max())
        if ref_peak > 0:
            ratio = peak / ref_peak
    return PowerDensityReport(
        total_power=bottom.total_power + top.total_power,
        peak_density=peak,
        mean_density=mean,
        peak_vs_reference=ratio,
    )


def _placement_candidates(
    plan: Floorplan, block: Block, step: float
) -> List[Tuple[float, float]]:
    """Grid of legal (x, y) positions for *block* on *plan* (block removed)."""
    others = [b for b in plan.blocks if b.name != block.name]
    candidates = []
    x = 0.0
    while x + block.width <= plan.die_width + 1e-9:
        y = 0.0
        while y + block.height <= plan.die_height + 1e-9:
            moved = block.moved_to(x, y)
            if not any(moved.overlaps(other) for other in others):
                candidates.append((x, y))
            y += step
        x += step
    return candidates


def _peak_after_move(
    bottom: Floorplan,
    top: Floorplan,
    block_name: str,
    position: Tuple[float, float],
    nx: int,
    ny: int,
) -> float:
    trial = top.copy()
    trial.replace_block(trial.block(block_name).moved_to(*position))
    return float(power_density_map(bottom, trial, nx, ny).max())


def repair_hotspots(
    bottom: Floorplan,
    top: Floorplan,
    target_peak_density: float,
    max_iterations: int = 16,
    step: float = 0.2,
    nx: int = 64,
    ny: int = 64,
) -> Tuple[Floorplan, int]:
    """Iteratively relocate top-die blocks to cap combined power density.

    Implements Section 4's "place, observe, repair outliers" loop: while
    the combined density peak exceeds *target_peak_density*, the top-die
    block contributing to the worst cell is moved to the legal position
    that minimizes the new combined peak.  The bottom die (heat-sink side,
    hot logic) is held fixed, as in the paper's floorplan.

    Args:
        bottom: Heat-sink-side die (not modified).
        top: Die to repair; not modified — a repaired copy is returned.
        target_peak_density: Acceptable combined peak, W/mm^2.
        max_iterations: Bail-out bound on repair moves.
        step: Candidate-position grid pitch, mm.
        nx: Density-map raster width.
        ny: Density-map raster height.

    Returns:
        ``(repaired_top, iterations_used)``.  If the target cannot be met,
        the best floorplan found is returned after *max_iterations* moves.
    """
    if target_peak_density <= 0:
        raise FloorplanError("target peak density must be positive")
    current = top.copy()
    for iteration in range(max_iterations):
        combined = power_density_map(bottom, current, nx, ny)
        peak = float(combined.max())
        if peak <= target_peak_density:
            return current, iteration
        # Locate the worst cell and the top-die block covering it.
        j, i = np.unravel_index(int(np.argmax(combined)), combined.shape)
        cx = (i + 0.5) * current.die_width / nx
        cy = (j + 0.5) * current.die_height / ny
        offender = _block_at(current, cx, cy)
        if offender is None:
            # The hotspot is entirely on the fixed bottom die; nothing the
            # top-die repair loop can do about it.
            return current, iteration
        best_position = (offender.x, offender.y)
        best_peak = peak
        for position in _placement_candidates(current, offender, step):
            trial_peak = _peak_after_move(
                bottom, current, offender.name, position, nx, ny
            )
            if trial_peak < best_peak - 1e-9:
                best_peak = trial_peak
                best_position = position
        if best_position == (offender.x, offender.y):
            # No improving move exists for the offender; stop.
            return current, iteration
        current.replace_block(offender.moved_to(*best_position))
    return current, max_iterations


def _block_at(plan: Floorplan, x: float, y: float) -> Optional[Block]:
    """The block covering point (x, y), or None if the point is whitespace."""
    for block in plan.blocks:
        if block.x <= x <= block.x2 and block.y <= y <= block.y2:
            return block
    return None
