"""Block-level floorplans and power maps.

This package models the physical-design substrate both studies in the paper
rest on: rectangular functional blocks with assigned power, composed into
planar (2D) and stacked (3D) floorplans.  It provides the baseline
Intel Core 2 Duo floorplan used for the Memory+Logic study (Section 3,
Figure 6) and the Pentium 4-family planar and 3D floorplans used for the
Logic+Logic study (Section 4, Figures 9 and 10), together with the
power-density analysis and the iterative hotspot-repair placement loop the
paper describes.
"""

from repro.floorplan.blocks import Block, Floorplan, FloorplanError
from repro.floorplan.core2duo import (
    core2duo_floorplan,
    stacked_cache_die,
)
from repro.floorplan.pentium4 import (
    pentium4_3d_floorplans,
    pentium4_planar_floorplan,
    pentium4_worstcase_3d,
)
from repro.floorplan.splitting import auto_stack, split_block
from repro.floorplan.stacking import (
    PowerDensityReport,
    power_density_map,
    power_density_report,
    repair_hotspots,
)

__all__ = [
    "Block",
    "Floorplan",
    "FloorplanError",
    "core2duo_floorplan",
    "stacked_cache_die",
    "pentium4_planar_floorplan",
    "pentium4_3d_floorplans",
    "pentium4_worstcase_3d",
    "auto_stack",
    "split_block",
    "PowerDensityReport",
    "power_density_map",
    "power_density_report",
    "repair_hotspots",
]
