"""Tests for material constants (Table 2) and the layer-stack builders."""

import pytest

from repro.floorplan import core2duo_floorplan, stacked_cache_die
from repro.floorplan.pentium4 import pentium4_3d_floorplans
from repro.thermal.materials import (
    AMBIENT_C,
    MATERIALS,
    TABLE2_CONSTANTS,
    Material,
    get_material,
)
from repro.thermal.stack import DieSpec, Layer, ThermalStack, build_stack

UM = 1e-6

#: Heat sink to IHS, above the dies in every stack: (name, thickness um,
#: divisions, material in, its conductivity, material out, power plan).
PACKAGE_TOP = [
    ("heat-sink", 4000.0, 3, "heat-sink", 400.0, "heat-sink", None),
    ("tim1", 100.0, 1, "tim", 10.0, "tim", None),
    ("ihs", 2000.0, 2, "ihs-copper", 390.0, "ihs-copper", None),
    ("tim2", 50.0, 1, "tim", 10.0, "air-gap", None),
]

#: C4 bumps to motherboard, below the dies in every stack.
PACKAGE_BOTTOM = [
    ("c4-underfill", 80.0, 1, "underfill", 1.5, "epoxy-fillet", None),
    ("package", 1200.0, 1, "package", 15.0, "package", None),
    ("socket", 2000.0, 1, "socket", 0.3, "socket", None),
    ("motherboard", 1600.0, 1, "motherboard", 0.8, "motherboard", None),
]

CORE2 = "Core 2 Duo (2D baseline)"
CORE2_NO_L2 = "Core 2 Duo (no L2, DRAM tags)"
DRAM = "stacked dram-32mb"
P4_BOTTOM = "Pentium 4 3D (bottom die)"
P4_TOP = "Pentium 4 3D (top die)"


def _core2_dram_dies(n_dram):
    cpu = core2duo_floorplan(with_l2=False)
    dram = stacked_cache_die("dram-32mb", cpu)
    return [DieSpec(cpu)] + [DieSpec(dram, "al")] * n_dram


#: The die layers of each stack, heat-sink side first.
DIE_LAYERS = {
    "1-die-core2": (
        lambda: [DieSpec(core2duo_floorplan())],
        [
            ("bulk-si-1", 750.0, 2, "bulk-si", 120.0, "epoxy-fillet", None),
            ("metal-1", 12.0, 1, "cu-metal", 12.0, "epoxy-fillet", CORE2),
        ],
    ),
    "2-die-p4-cu-cu": (
        lambda: [DieSpec(plan) for plan in pentium4_3d_floorplans()],
        [
            ("bulk-si-1", 750.0, 2, "bulk-si", 120.0, "epoxy-fillet", None),
            ("metal-1", 12.0, 1, "cu-metal", 12.0, "epoxy-fillet",
             P4_BOTTOM),
            ("bond-1", 15.0, 1, "bond", 60.0, "epoxy-fillet", None),
            ("metal-2", 12.0, 1, "cu-metal", 12.0, "epoxy-fillet", P4_TOP),
            ("bulk-si-2", 20.0, 1, "bulk-si", 120.0, "epoxy-fillet", None),
        ],
    ),
    "2-die-core2-dram-al": (
        lambda: _core2_dram_dies(1),
        [
            ("bulk-si-1", 750.0, 2, "bulk-si", 120.0, "epoxy-fillet", None),
            ("metal-1", 12.0, 1, "cu-metal", 12.0, "epoxy-fillet",
             CORE2_NO_L2),
            ("bond-1", 15.0, 1, "bond", 60.0, "epoxy-fillet", None),
            ("metal-2", 2.0, 1, "al-metal", 9.0, "epoxy-fillet", DRAM),
            ("bulk-si-2", 20.0, 1, "bulk-si", 120.0, "epoxy-fillet", None),
        ],
    ),
    "3-die-core2-2dram-al": (
        lambda: _core2_dram_dies(2),
        [
            ("bulk-si-1", 750.0, 2, "bulk-si", 120.0, "epoxy-fillet", None),
            ("metal-1", 12.0, 1, "cu-metal", 12.0, "epoxy-fillet",
             CORE2_NO_L2),
            ("bond-1", 15.0, 1, "bond", 60.0, "epoxy-fillet", None),
            ("metal-2", 2.0, 1, "al-metal", 9.0, "epoxy-fillet", DRAM),
            ("bulk-si-2", 20.0, 1, "bulk-si", 120.0, "epoxy-fillet", None),
            ("bond-2", 15.0, 1, "bond", 60.0, "epoxy-fillet", None),
            ("metal-3", 2.0, 1, "al-metal", 9.0, "epoxy-fillet", DRAM),
            ("bulk-si-3", 20.0, 1, "bulk-si", 120.0, "epoxy-fillet", None),
        ],
    ),
}


class TestTable2Constants:
    """The published constants, verbatim from Table 2."""

    def test_si1_thickness(self):
        assert TABLE2_CONSTANTS["si1_thickness_um"] == 750.0

    def test_si2_thickness(self):
        assert TABLE2_CONSTANTS["si2_thickness_um"] == 20.0

    def test_si_conductivity(self):
        assert TABLE2_CONSTANTS["si_conductivity"] == 120.0

    def test_cu_metal(self):
        assert TABLE2_CONSTANTS["cu_metal_thickness_um"] == 12.0
        assert TABLE2_CONSTANTS["cu_metal_conductivity"] == 12.0

    def test_al_metal(self):
        assert TABLE2_CONSTANTS["al_metal_thickness_um"] == 2.0
        assert TABLE2_CONSTANTS["al_metal_conductivity"] == 9.0

    def test_bond_layer(self):
        assert TABLE2_CONSTANTS["bond_thickness_um"] == 15.0
        assert TABLE2_CONSTANTS["bond_conductivity"] == 60.0

    def test_heat_sink(self):
        assert TABLE2_CONSTANTS["heat_sink_conductivity"] == 400.0

    def test_ambient(self):
        assert AMBIENT_C == 40.0


class TestMaterial:
    def test_rejects_nonpositive_conductivity(self):
        with pytest.raises(ValueError):
            Material("bad", 0.0)

    def test_get_material(self):
        assert get_material("bulk-si").conductivity == 120.0

    def test_get_material_unknown(self):
        with pytest.raises(KeyError, match="unknown material"):
            get_material("unobtainium")

    def test_all_materials_positive(self):
        for material in MATERIALS.values():
            assert material.conductivity > 0


class TestLayer:
    def test_rejects_nonpositive_thickness(self):
        with pytest.raises(ValueError):
            Layer("l", 0.0, get_material("bulk-si"), get_material("bulk-si"))

    def test_rejects_zero_divisions(self):
        with pytest.raises(ValueError):
            Layer("l", 1e-3, get_material("bulk-si"),
                  get_material("bulk-si"), divisions=0)

    def test_with_conductivity(self):
        layer = Layer("l", 1e-3, get_material("cu-metal"),
                      get_material("epoxy-fillet"))
        swept = layer.with_conductivity(3.0)
        assert swept.material_in.conductivity == 3.0
        assert swept.material_out.conductivity == layer.material_out.conductivity
        assert layer.material_in.conductivity == 12.0  # original untouched


class TestStackBuilders:
    @pytest.mark.parametrize("stack_id", sorted(DIE_LAYERS))
    def test_layer_table_is_pinned(self, stack_id):
        """Every layer of the 1-, 2- and 3-die stacks, as the Table 2
        layering puts them: a change of builder must not move one."""
        dies, die_layers = DIE_LAYERS[stack_id]
        stack = build_stack(dies())
        table = [
            (
                layer.name,
                round(layer.thickness_m / UM, 9),
                layer.divisions,
                layer.material_in.name,
                layer.material_in.conductivity,
                layer.material_out.name,
                layer.power_plan.name if layer.power_plan else None,
            )
            for layer in stack.layers
        ]
        assert table == PACKAGE_TOP + die_layers + PACKAGE_BOTTOM

    def test_rejects_no_dies(self):
        with pytest.raises(ValueError, match="at least one die"):
            build_stack([])

    def test_planar_stack_layer_order(self, baseline_die):
        stack = build_stack([DieSpec(baseline_die)])
        names = [layer.name for layer in stack.layers]
        assert names.index("heat-sink") < names.index("bulk-si-1")
        assert names.index("bulk-si-1") < names.index("metal-1")
        assert names.index("metal-1") < names.index("package")
        assert names[-1] == "motherboard"

    def test_planar_stack_power(self, baseline_die):
        stack = build_stack([DieSpec(baseline_die)])
        assert stack.total_power == pytest.approx(92.0)

    def test_planar_si_thickness_matches_table2(self, baseline_die):
        stack = build_stack([DieSpec(baseline_die)])
        assert stack.layer("bulk-si-1").thickness_m == pytest.approx(750e-6)
        assert stack.layer("metal-1").thickness_m == pytest.approx(12e-6)

    def test_3d_stack_has_bond_and_second_die(self, baseline_die):
        cache = stacked_cache_die("sram-8mb", baseline_die)
        stack = build_stack([DieSpec(baseline_die), DieSpec(cache)])
        names = [layer.name for layer in stack.layers]
        for expected in ("bond-1", "metal-2", "bulk-si-2"):
            assert expected in names
        # Face-to-face: metal-1 and metal-2 sandwich the bond layer.
        assert names.index("metal-1") + 1 == names.index("bond-1")
        assert names.index("bond-1") + 1 == names.index("metal-2")

    def test_3d_stack_dram_uses_al_metal(self, baseline_die):
        cache = stacked_cache_die("dram-64mb", baseline_die)
        stack = build_stack([DieSpec(baseline_die), DieSpec(cache, "al")])
        metal2 = stack.layer("metal-2")
        assert metal2.thickness_m == pytest.approx(2e-6)
        assert metal2.material_in.conductivity == 9.0

    def test_3d_stack_die2_is_thinned(self, baseline_die):
        cache = stacked_cache_die("sram-8mb", baseline_die)
        stack = build_stack([DieSpec(baseline_die), DieSpec(cache)])
        assert stack.layer("bulk-si-2").thickness_m == pytest.approx(20e-6)

    def test_3d_stack_total_power(self, baseline_die):
        cache = stacked_cache_die("sram-8mb", baseline_die)
        stack = build_stack([DieSpec(baseline_die), DieSpec(cache)])
        assert stack.total_power == pytest.approx(106.0)

    def test_3d_requires_matching_outlines(self, baseline_die):
        from repro.floorplan.blocks import uniform_floorplan

        small = uniform_floorplan("small", 5.0, 5.0, 1.0)
        with pytest.raises(ValueError, match="share an outline"):
            build_stack([DieSpec(baseline_die), DieSpec(small)])

    def test_3d_rejects_unknown_metal(self, baseline_die):
        cache = stacked_cache_die("sram-8mb", baseline_die)
        with pytest.raises(ValueError, match="die metal"):
            build_stack([DieSpec(baseline_die), DieSpec(cache, "w")])

    def test_replace_layer(self, baseline_die):
        stack = build_stack([DieSpec(baseline_die)])
        swept = stack.replace_layer(
            stack.layer("metal-1").with_conductivity(3.0)
        )
        assert swept.layer("metal-1").material_in.conductivity == 3.0
        assert stack.layer("metal-1").material_in.conductivity == 12.0

    def test_replace_unknown_layer_raises(self, baseline_die):
        stack = build_stack([DieSpec(baseline_die)])
        with pytest.raises(KeyError):
            stack.replace_layer(
                Layer("ghost", 1e-3, get_material("bulk-si"),
                      get_material("bulk-si"))
            )

    def test_duplicate_layer_names_rejected(self, baseline_die):
        layer = Layer("x", 1e-3, get_material("bulk-si"),
                      get_material("bulk-si"))
        with pytest.raises(ValueError, match="duplicate"):
            ThermalStack("s", 0.01, 0.01, [layer, layer])

    def test_die_bigger_than_domain_rejected(self):
        from repro.floorplan.blocks import uniform_floorplan

        huge = uniform_floorplan("huge", 50.0, 50.0, 10.0)
        with pytest.raises(ValueError, match="does not fit"):
            build_stack([DieSpec(huge)])
