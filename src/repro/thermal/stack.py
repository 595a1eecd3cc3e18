"""Layer-stack construction for the thermal solver.

A :class:`ThermalStack` is the vertical cross-section of Figure 2: heat
sink, IHS, the die stack of Figure 1, package, socket, and motherboard,
described as a top-to-bottom list of :class:`Layer` objects.  Each layer has
a material inside the die footprint and a (usually low-conductivity) fill
material outside it — the paper's thermal maps show the epoxy fillet around
the die edge, which this two-region scheme reproduces.

One builder, :func:`build_stack`, covers the 2D baseline (one die), the
face-to-face two-die stack and N-die stacks.  Per Figure 1 and Table 2,
die #1 (750 um bulk Si) is adjacent to the heat sink and every further die
(thinned to 20 um) sits below it toward the C4 bumps; power is dissipated
in the active/metal layer of each die.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.floorplan.blocks import Floorplan
from repro.thermal.materials import (
    DOMAIN_SIZE_M,
    TABLE2_CONSTANTS,
    Material,
    get_material,
)

#: Metres per micrometre / millimetre, for readability below.
UM = 1e-6
MM = 1e-3


@dataclass(frozen=True)
class DieSpec:
    """One die of a stack (see :func:`build_stack`).

    Attributes:
        floorplan: Power map of the die.
        metal: ``"cu"`` (logic, 12 um) or ``"al"`` (DRAM, 2 um), per
            Table 2.
    """

    floorplan: Floorplan
    metal: str = "cu"


@dataclass(frozen=True)
class Layer:
    """One horizontal layer of the thermal stack.

    Attributes:
        name: Unique layer name within the stack.
        thickness_m: Layer thickness, metres.
        material_in: Material inside the die footprint.
        material_out: Material outside the die footprint (fill/air/epoxy).
        divisions: Number of finite-volume cells across the thickness.
        power_plan: If set, this floorplan's power is dissipated uniformly
            through the layer's thickness (used for active/metal layers).
    """

    name: str
    thickness_m: float
    material_in: Material
    material_out: Material
    divisions: int = 1
    power_plan: Optional[Floorplan] = None

    def __post_init__(self) -> None:
        if self.thickness_m <= 0:
            raise ValueError(f"layer {self.name!r} must have positive thickness")
        if self.divisions < 1:
            raise ValueError(f"layer {self.name!r} needs at least one division")

    def with_conductivity(self, conductivity: float) -> "Layer":
        """Copy of this layer with the in-die material conductivity replaced.

        Used for the Figure 3 sensitivity sweep over the Cu-metal and bond
        layer conductivities.
        """
        material = Material(f"{self.material_in.name}*", conductivity)
        return replace(self, material_in=material)


@dataclass
class ThermalStack:
    """A complete stacked-die/package/board thermal configuration.

    Attributes:
        name: Configuration name for reports.
        die_width_m: Die footprint width, metres.
        die_height_m: Die footprint height, metres.
        layers: Layers ordered top (heat-sink side) to bottom (board side).
        domain_size_m: Lateral extent of the square solve domain; the die
            footprint is centred inside it.
    """

    name: str
    die_width_m: float
    die_height_m: float
    layers: List[Layer] = field(default_factory=list)
    domain_size_m: float = DOMAIN_SIZE_M

    def __post_init__(self) -> None:
        if self.die_width_m > self.domain_size_m or self.die_height_m > self.domain_size_m:
            raise ValueError(
                f"die ({self.die_width_m}x{self.die_height_m} m) does not fit "
                f"in the {self.domain_size_m} m domain"
            )
        names = [layer.name for layer in self.layers]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate layer names in stack {self.name!r}")

    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"stack {self.name!r} has no layer {name!r}")

    def replace_layer(self, layer: Layer) -> "ThermalStack":
        """Return a new stack with the same-named layer replaced."""
        if all(existing.name != layer.name for existing in self.layers):
            raise KeyError(f"stack {self.name!r} has no layer {layer.name!r}")
        new_layers = [
            layer if existing.name == layer.name else existing
            for existing in self.layers
        ]
        return ThermalStack(
            self.name,
            self.die_width_m,
            self.die_height_m,
            new_layers,
            self.domain_size_m,
        )

    @property
    def total_power(self) -> float:
        """Total dissipated power across all powered layers, W."""
        return sum(
            layer.power_plan.total_power
            for layer in self.layers
            if layer.power_plan is not None
        )


def _package_top_layers() -> List[Layer]:
    """Heat sink, TIM, and IHS — common to every configuration."""
    return [
        Layer("heat-sink", 4.0 * MM, get_material("heat-sink"),
              get_material("heat-sink"), divisions=3),
        Layer("tim1", 100.0 * UM, get_material("tim"), get_material("tim")),
        Layer("ihs", 2.0 * MM, get_material("ihs-copper"),
              get_material("ihs-copper"), divisions=2),
        Layer("tim2", 50.0 * UM, get_material("tim"), get_material("air-gap")),
    ]


def _package_bottom_layers() -> List[Layer]:
    """C4/underfill, package substrate, socket, and motherboard."""
    return [
        Layer("c4-underfill", 80.0 * UM, get_material("underfill"),
              get_material("epoxy-fillet")),
        Layer("package", 1.2 * MM, get_material("package"),
              get_material("package")),
        Layer("socket", 2.0 * MM, get_material("socket"), get_material("socket")),
        Layer("motherboard", 1.6 * MM, get_material("motherboard"),
              get_material("motherboard")),
    ]


#: Die metal -> (its Table 2 thickness key, its material).
_METALS = {
    "cu": ("cu_metal_thickness_um", "cu-metal"),
    "al": ("al_metal_thickness_um", "al-metal"),
}


def build_stack(dies: Sequence[DieSpec]) -> ThermalStack:
    """The die stack of Figure 1 in the desktop package of Figure 2.

    Dies are listed heat-sink side first ("the highest power die is
    placed closest to the heat sink", Section 3).  Die #1 keeps its
    750 um bulk Si toward the sink; one die alone is the 2D baseline.
    Each further die is thinned to 20 um and joined through a bond
    layer: die #2 face to face (Figure 1), later dies back to face, the
    construction of multi-die DRAM stacks (and what production HBM later
    standardized).  Layers are named ``bulk-si-i``, ``metal-i`` (where
    die *i*'s power is dissipated) and ``bond-i`` (below die *i*).

    Raises:
        ValueError: On no dies, mismatched outlines (bonding requires
            matching footprints), or an unknown metal.
    """
    if not dies:
        raise ValueError("a stack needs at least one die")
    first = dies[0].floorplan
    for spec in dies:
        plan = spec.floorplan
        if (
            abs(first.die_width - plan.die_width) > 1e-9
            or abs(first.die_height - plan.die_height) > 1e-9
        ):
            raise ValueError(
                "stacked dies must share an outline: "
                f"{first.die_width}x{first.die_height} vs "
                f"{plan.die_width}x{plan.die_height} mm"
            )
        if spec.metal not in _METALS:
            raise ValueError(
                f"die metal must be 'cu' or 'al', got {spec.metal!r}"
            )

    t = TABLE2_CONSTANTS
    bulk_si = get_material("bulk-si")
    epoxy = get_material("epoxy-fillet")
    layers = _package_top_layers()
    for index, spec in enumerate(dies, start=1):
        if index == 1:
            layers.append(Layer("bulk-si-1", t["si1_thickness_um"] * UM,
                                bulk_si, epoxy, divisions=2))
        else:
            layers.append(Layer(f"bond-{index - 1}",
                                t["bond_thickness_um"] * UM,
                                get_material("bond"), epoxy))
        thickness, material = _METALS[spec.metal]
        layers.append(Layer(f"metal-{index}", t[thickness] * UM,
                            get_material(material), epoxy,
                            power_plan=spec.floorplan))
        if index > 1:
            layers.append(Layer(f"bulk-si-{index}",
                                t["si2_thickness_um"] * UM, bulk_si, epoxy))
    layers += _package_bottom_layers()
    return ThermalStack(
        " + ".join(spec.floorplan.name for spec in dies),
        first.die_width * MM,
        first.die_height * MM,
        layers,
    )
