"""Steady-state finite-volume solver for the stacked-die heat equation.

Solves the steady form of the paper's Equation (1),

    div( K(x) grad T ) + Q(x) = 0,

on a structured grid over the full package cross-section, with Equation
(2)'s convective (Robin) boundary conditions on the heat-sink and
motherboard faces and adiabatic side walls.  The lateral grid is
die-conforming and graded (:func:`lateral_grid`): uniform cells over the
die, widening outward over the package.  The domain is the lateral
package extent; each :class:`~repro.thermal.stack.Layer` contributes one or
more grid planes with its own (two-region) conductivity, and power maps are
injected into the layers that carry floorplans.

The discrete system is symmetric positive definite, and a steady solve
runs Jacobi-preconditioned conjugate gradients on it, starting from the
ambient field.  Most steady solves are one-shot: every point of a
conductivity sweep is a new geometry, and a sparse LU factor would be
built for one back-substitution.

Assembly depends only on the stack *geometry* (layers, materials, grid,
boundary coefficients) — never on the power maps, which enter through
the right-hand side alone.  The assembled operator is therefore cached
per geometry key (see :func:`geometry_key`): sweeping power maps over a
fixed stack reuses the matrix and only rebuilds the cheap power vector.
The transient solver attaches its backward-Euler LU factors (one per
time step) to the same cached operator, because a transient reuses one
factor over hundreds of steps.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.oracles.config import (
    CONSERVATION_RTOL,
    RESIDUAL_TOL,
    SAMPLE_STRIDE,
    TEMP_SLACK_C,
    get_oracle_config,
)
from repro.oracles.integrity import crc32_of_arrays
from repro.oracles.invariants import (
    check_energy_conservation,
    check_temperature_bounds,
)
from repro.oracles.report import record_check, record_violation
from repro.resilience.errors import GuardViolation, SolverDivergenceError
from repro.thermal.materials import AMBIENT_C, HEATSINK_H_EFF, MOTHERBOARD_H
from repro.thermal.stack import ThermalStack


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and boundary parameters.

    Attributes:
        nx: Target lateral pitch in x, as cells across the domain: the
            die gets ``round(die / (domain / nx))`` uniform cells and the
            package periphery a graded strip each side (see
            :func:`cell_widths`).
        ny: The same in y.
        ambient_c: Ambient temperature, Celsius (Equation 2's T_amb).
        heatsink_h: Effective heat-transfer coefficient on the heat-sink
            face, W/(m^2 K) — lumps the fin array and forced airflow.
        motherboard_h: Natural-convection coefficient on the board back.
    """

    nx: int = 48
    ny: int = 48
    ambient_c: float = AMBIENT_C
    heatsink_h: float = HEATSINK_H_EFF
    motherboard_h: float = MOTHERBOARD_H

    def __post_init__(self) -> None:
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid must be at least 4x4")
        if self.heatsink_h <= 0 or self.motherboard_h <= 0:
            raise ValueError("heat-transfer coefficients must be positive")


@dataclass
class ThermalSolution:
    """Result of a steady-state solve.

    Attributes:
        temperature: Temperatures in Celsius, shape ``(nz, ny, nx)``, plane
            0 at the heat-sink face.
        stack: The solved configuration.
        config: Solver configuration used.
        layer_planes: Maps layer name to its ``(z_start, z_end)`` plane
            range (end exclusive).
        die_region: ``(j0, j1, i0, i1)`` cell bounds of the die footprint;
            its edges are grid lines (see :func:`lateral_grid`).
    """

    temperature: np.ndarray
    stack: ThermalStack
    config: SolverConfig
    layer_planes: Dict[str, Tuple[int, int]]
    die_region: Tuple[int, int, int, int]
    _die_layer_names: List[str] = field(default_factory=list)

    # -- queries -----------------------------------------------------------

    def layer_temperature(self, name: str) -> np.ndarray:
        """Full-domain temperature slab of a layer, shape (planes, ny, nx)."""
        z0, z1 = self.layer_planes[name]
        return self.temperature[z0:z1]

    def die_map(self, name: str) -> np.ndarray:
        """Die-footprint temperature map of a layer (averaged over planes)."""
        j0, j1, i0, i1 = self.die_region
        return self.layer_temperature(name)[:, j0:j1, i0:i1].mean(axis=0)

    def layer_peak(self, name: str) -> float:
        """Hottest cell in a layer (die region only), Celsius."""
        return float(self.die_map(name).max())

    @property
    def die_layer_names(self) -> List[str]:
        """Names of layers belonging to the silicon die stack."""
        return list(self._die_layer_names)

    def peak_temperature(self) -> float:
        """Hottest on-die temperature across all die-stack layers, Celsius."""
        return max(self.layer_peak(name) for name in self._die_layer_names)

    def coolest_on_die(self) -> float:
        """Coldest temperature within the die footprint, Celsius."""
        return min(
            float(self.die_map(name).min()) for name in self._die_layer_names
        )

    def hottest_layer(self) -> str:
        """Name of the die-stack layer containing the global hotspot."""
        peaks = {name: self.layer_peak(name) for name in self._die_layer_names}
        return max(peaks, key=peaks.get)

    def boundary_heat_flow(self, per_face: bool = False):
        """Heat leaving through the convective boundaries, W.

        Conservation check: at steady state the total equals the injected
        power.  The per-cell conductance uses the same two-region
        conductivity map as the assembly (die material inside the
        footprint, fill material outside) — using the in-die conductivity
        uniformly, as an earlier version did, misstates the flow whenever
        a two-region layer sits on a boundary face (e.g. a flipped stack
        with a die layer at the board side).

        Args:
            per_face: If True, return ``{"heatsink": W, "motherboard": W}``
                instead of the total.
        """
        nz = self.temperature.shape[0]
        dx, dy, (j0, j1, i0, i1) = lateral_grid(self.stack, self.config)
        area = np.outer(dy, dx)
        flows: Dict[str, float] = {}
        for face, z, layer, h in (
            ("heatsink", 0, self.stack.layers[0], self.config.heatsink_h),
            (
                "motherboard",
                nz - 1,
                self.stack.layers[-1],
                self.config.motherboard_h,
            ),
        ):
            dz = layer.thickness_m / layer.divisions
            k = np.full(area.shape, layer.material_out.conductivity)
            k[j0:j1, i0:i1] = layer.material_in.conductivity
            # Series conductance: half-cell conduction + surface convection
            # (identical to the assembled Robin term, so the check closes
            # to solver precision).
            g = area / (dz / (2.0 * k) + 1.0 / h)
            flows[face] = float(
                np.sum(g * (self.temperature[z] - self.config.ambient_c))
            )
        if per_face:
            return flows
        return flows["heatsink"] + flows["motherboard"]


#: Width ratio of neighbouring package-periphery cells, outward from the
#: die edge.
GRADING_RATIO = 1.4


def cell_widths(
    domain_m: float, die_m: float, n: int
) -> Tuple[np.ndarray, int]:
    """Cell widths along one lateral axis, and the die's first cell.

    The die, centred in the domain, gets ``round(die / (domain / n))``
    uniform cells (at least two), so its edges are grid lines and its
    modelled width is its true width at every *n*.  Each periphery strip
    gets widths ``h * r, h * r**2, ...`` (``h`` the die pitch, ``r``
    :data:`GRADING_RATIO`) until they cover the strip, scaled to fill it
    exactly; the widest cells sit at the domain edge.
    """
    n_die = max(2, int(round(die_m / (domain_m / n))))
    pitch = die_m / n_die
    strip_m = (domain_m - die_m) / 2.0
    strip: List[float] = []
    while sum(strip) < strip_m:
        strip.append(pitch * GRADING_RATIO ** (len(strip) + 1))
    outward = np.asarray(strip)
    if strip:
        outward *= strip_m / outward.sum()
    widths = np.concatenate((outward[::-1], np.full(n_die, pitch), outward))
    return widths, len(strip)


def lateral_grid(
    stack: ThermalStack, config: SolverConfig
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int, int, int]]:
    """Cell widths ``(dx, dy)`` and die bounds ``(j0, j1, i0, i1)``.

    The one grid rule (:func:`cell_widths` per axis), shared by the
    assembly and the boundary-flow check so both see the same cells.
    """
    dx, i0 = cell_widths(stack.domain_size_m, stack.die_width_m, config.nx)
    dy, j0 = cell_widths(stack.domain_size_m, stack.die_height_m, config.ny)
    return dx, dy, (j0, len(dy) - j0, i0, len(dx) - i0)


_DIE_LAYER_PREFIXES = ("bulk-si", "metal", "bond")


def geometry_key(
    stack: ThermalStack, config: SolverConfig
) -> Tuple[Any, ...]:
    """Hashable key capturing everything the operator depends on.

    Two (stack, config) pairs with equal keys assemble the *same* matrix,
    mass vector, and ambient boundary vector — power plans are explicitly
    excluded because they only shape the power part of the right-hand
    side.  Anything that feeds the assembly MUST appear here: layer
    names/thicknesses/divisions, both region materials (name alone is not
    enough — :meth:`Layer.with_conductivity` synthesizes materials, so
    the numeric properties are keyed too), die and domain extents, grid
    size, and the three boundary parameters.
    """
    layers = tuple(
        (
            layer.name,
            layer.thickness_m,
            layer.divisions,
            layer.material_in.name,
            layer.material_in.conductivity,
            layer.material_in.volumetric_heat_capacity,
            layer.material_out.name,
            layer.material_out.conductivity,
            layer.material_out.volumetric_heat_capacity,
        )
        for layer in stack.layers
    )
    return (
        layers,
        stack.die_width_m,
        stack.die_height_m,
        stack.domain_size_m,
        config.nx,
        config.ny,
        config.ambient_c,
        config.heatsink_h,
        config.motherboard_h,
    )


@dataclass
class ThermalOperator:
    """The geometry-dependent (power-independent) part of one system.

    Everything here is a pure function of :func:`geometry_key`, so one
    operator is shared by every solve over the same stack geometry.
    Steady solves run CG on ``matrix`` and keep no factor; the transient
    solver attaches its backward-Euler LU factors (one per time step)
    lazily, the first time it needs them.

    Cached operators are shared: callers must treat ``matrix``, ``mass``,
    and ``boundary_rhs`` as read-only.
    """

    key: Tuple[Any, ...]
    matrix: sp.csc_matrix
    mass: np.ndarray
    boundary_rhs: np.ndarray
    shape: Tuple[int, int, int]
    layer_planes: Dict[str, Tuple[int, int]]
    die_region: Tuple[int, int, int, int]
    die_layers: List[str]
    transient_lus: Dict[float, Any] = field(default_factory=dict)
    #: crc32 over the geometry arrays at cache-insertion time; the
    #: operator-integrity oracle rechecks it on reuse (every reuse in
    #: strict mode) to catch in-memory corruption of the cached entry.
    crc: int = 0
    #: Number of times this entry was served from the cache.
    reuse_count: int = 0
    #: True once a differential re-assembly confirmed the cached entry
    #: matches a from-scratch build for its key (done once per geometry).
    assembly_verified: bool = False


#: Geometry-keyed operator cache, LRU over :data:`_OPERATOR_CACHE_MAX`
#: distinct geometries.  Entries are immutable w.r.t. power sweeps; the
#: cache must only be cleared when memory pressure matters (each fine-grid
#: transient LU holds tens of MB).
_OPERATOR_CACHE: "OrderedDict[Tuple[Any, ...], ThermalOperator]" = OrderedDict()
_OPERATOR_CACHE_MAX = 8
_CACHE_STATS = {"hits": 0, "misses": 0}

#: Backward-Euler factorizations kept per operator (one per distinct dt).
_TRANSIENT_LU_MAX = 4

#: Relative-residual target of the steady CG solve (``atol`` is 0).  At
#: this target fields match a direct LU solve to ~1e-10 C, and energy
#: conservation closes far inside its oracle tolerance.
CG_RTOL = 1e-12

#: CG iteration cap.  Jacobi-preconditioned CG takes a few hundred
#: iterations on the paper's grids; hitting the cap raises.
_CG_MAXITER = 20_000


def operator_cache_stats() -> Dict[str, int]:
    """Cache effectiveness counters (for benchmarks and tests)."""
    return {
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
        "size": len(_OPERATOR_CACHE),
        "max_size": _OPERATOR_CACHE_MAX,
    }


def clear_operator_cache() -> None:
    """Drop all cached operators and factorizations, and zero the stats."""
    _OPERATOR_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


#: One-shot corruption hook consumed on the next operator-cache hit
#: (chaos testing: models a bit flip landing in a cached array while it
#: sat in memory).  Armed via :func:`arm_operator_corruption`.
_CORRUPTION_HOOK: Optional[Any] = None


def arm_operator_corruption(hook: Any) -> None:
    """Arm a one-shot hook(operator) fired on the next cache hit.

    Fault-injection only: the campaign chaos mode ``flip-operator`` uses
    this to flip bits inside a cached operator's arrays and prove the
    operator-integrity oracle detects them.  The hook runs *before* the
    oracle checks, exactly like real silent corruption would.
    """
    global _CORRUPTION_HOOK
    _CORRUPTION_HOOK = hook


def _operator_crc(operator: ThermalOperator) -> int:
    """Integrity fingerprint over the geometry-dependent arrays."""
    return crc32_of_arrays(
        (
            operator.matrix.data,
            operator.matrix.indices,
            operator.matrix.indptr,
            operator.mass,
            operator.boundary_rhs,
        )
    )


def _operator_arrays_equal(a: ThermalOperator, b: ThermalOperator) -> bool:
    """Bitwise equality of two operators' geometry arrays."""
    return (
        np.array_equal(a.matrix.data, b.matrix.data)
        and np.array_equal(a.matrix.indices, b.matrix.indices)
        and np.array_equal(a.matrix.indptr, b.matrix.indptr)
        and np.array_equal(a.mass, b.mass)
        and np.array_equal(a.boundary_rhs, b.boundary_rhs)
    )


def _quarantine_operator(
    stack: ThermalStack,
    config: SolverConfig,
    key: Tuple[Any, ...],
    detail: str,
    oracle: str,
) -> ThermalOperator:
    """Drop a corrupt cached entry, record the violation, rebuild fresh."""
    record_violation(oracle, "thermal", detail, action="quarantined-entry")
    _OPERATOR_CACHE.pop(key, None)
    fresh = _assemble_operator(stack, config, key)
    fresh.crc = _operator_crc(fresh)
    fresh.assembly_verified = True  # it IS the from-scratch build
    _OPERATOR_CACHE[key] = fresh
    return fresh


def _verify_cached_operator(
    stack: ThermalStack,
    config: SolverConfig,
    key: Tuple[Any, ...],
    operator: ThermalOperator,
) -> ThermalOperator:
    """Oracle pass over a cache hit; returns the (possibly fresh) operator.

    Two checks, never raising:

    * **Integrity** — recompute the crc32 stored at insertion.  Checked
      on the first reuse, then every :data:`SAMPLE_STRIDE`-th reuse (every
      reuse in strict mode).  A mismatch means the cached arrays were
      corrupted in memory: the entry is quarantined and reassembled.
    * **Differential** — once per geometry, re-run the full assembly
      and compare bitwise, catching a stale/colliding cache entry.
    """
    global _CORRUPTION_HOOK
    if _CORRUPTION_HOOK is not None:
        hook, _CORRUPTION_HOOK = _CORRUPTION_HOOK, None
        hook(operator)
    cfg = get_oracle_config()
    if not cfg.enabled:
        return operator
    operator.reuse_count += 1
    check_crc = (
        cfg.strict
        or operator.reuse_count == 1
        or operator.reuse_count % SAMPLE_STRIDE == 0
    )
    if check_crc:
        record_check("thermal.operator-crc")
        if _operator_crc(operator) != operator.crc:
            return _quarantine_operator(
                stack,
                config,
                key,
                "cached thermal operator failed its crc32 integrity "
                f"recheck on reuse {operator.reuse_count}",
                "thermal.operator-crc",
            )
    if not operator.assembly_verified:
        record_check("thermal.operator-differential")
        fresh = _assemble_operator(stack, config, key)
        if not _operator_arrays_equal(operator, fresh):
            return _quarantine_operator(
                stack,
                config,
                key,
                "cached thermal operator differs from a from-scratch "
                "assembly for the same geometry key",
                "thermal.operator-differential",
            )
        operator.assembly_verified = True
    return operator


@dataclass
class DiscreteSystem:
    """The assembled finite-volume system of one stack/config pair.

    ``matrix @ T = rhs`` is the steady-state balance; *mass* holds each
    cell's heat capacity (rho c V, J/K) for the transient solver.  The
    rhs is the exact element-wise sum ``power_rhs + boundary_rhs`` — the
    power injection and the ambient (Robin) terms never overlap in a
    single cell's contribution order, so the split is bitwise equal to
    assembling them together.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    mass: np.ndarray
    shape: Tuple[int, int, int]
    layer_planes: Dict[str, Tuple[int, int]]
    die_region: Tuple[int, int, int, int]
    die_layers: List[str]
    stack: ThermalStack
    config: SolverConfig
    power_rhs: Optional[np.ndarray] = None
    boundary_rhs: Optional[np.ndarray] = None
    operator: Optional[ThermalOperator] = None

    def solution_from(self, temperature_flat: np.ndarray) -> ThermalSolution:
        """Wrap a flat temperature vector as a :class:`ThermalSolution`."""
        return ThermalSolution(
            temperature=temperature_flat.reshape(self.shape),
            stack=self.stack,
            config=self.config,
            layer_planes=self.layer_planes,
            die_region=self.die_region,
            _die_layer_names=list(self.die_layers),
        )


def _assemble_operator(
    stack: ThermalStack, config: SolverConfig, key: Tuple[Any, ...]
) -> ThermalOperator:
    """Build the geometry-dependent operator: matrix, mass, ambient rhs."""
    dx, dy, (j0, j1, i0, i1) = lateral_grid(stack, config)
    nx, ny = len(dx), len(dy)

    # Expand layers into grid planes.
    plane_k: List[np.ndarray] = []   # conductivity per plane, (ny, nx)
    plane_c: List[np.ndarray] = []   # volumetric heat capacity, (ny, nx)
    plane_dz: List[float] = []
    layer_planes: Dict[str, Tuple[int, int]] = {}
    die_layers: List[str] = []
    z = 0
    for layer in stack.layers:
        k_map = np.full((ny, nx), layer.material_out.conductivity)
        k_map[j0:j1, i0:i1] = layer.material_in.conductivity
        c_map = np.full(
            (ny, nx), layer.material_out.volumetric_heat_capacity
        )
        c_map[j0:j1, i0:i1] = layer.material_in.volumetric_heat_capacity
        layer_planes[layer.name] = (z, z + layer.divisions)
        if layer.name.startswith(_DIE_LAYER_PREFIXES):
            die_layers.append(layer.name)
        for _ in range(layer.divisions):
            plane_k.append(k_map)
            plane_c.append(c_map)
            plane_dz.append(layer.thickness_m / layer.divisions)
        z += layer.divisions

    nz = z
    k = np.stack(plane_k)          # (nz, ny, nx)
    c = np.stack(plane_c)          # (nz, ny, nx)
    dz = np.asarray(plane_dz)      # (nz,)

    def index(zz: np.ndarray, jj: np.ndarray, ii: np.ndarray) -> np.ndarray:
        return (zz * ny + jj) * nx + ii

    n_cells = nz * ny * nx
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    diag = np.zeros(n_cells)
    boundary_rhs = np.zeros(n_cells)

    zz, jj, ii = np.meshgrid(
        np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"
    )

    def couple(g: np.ndarray, idx_a: np.ndarray, idx_b: np.ndarray) -> None:
        """Add a symmetric conductive coupling g between cell pairs."""
        rows.append(idx_a)
        cols.append(idx_b)
        vals.append(-g)
        rows.append(idx_b)
        cols.append(idx_a)
        vals.append(-g)
        np.add.at(diag, idx_a, g)
        np.add.at(diag, idx_b, g)

    # Per-cell widths broadcast over (nz, ny, nx), and face areas.
    dz3 = dz[:, None, None]
    dy3 = dy[None, :, None]
    dx3 = dx[None, None, :]
    area = np.outer(dy, dx)        # (ny, nx)

    # X-direction faces.
    ka = k[:, :, :-1]
    kb = k[:, :, 1:]
    g_x = (dz3 * dy3) / (dx3[:, :, :-1] / (2 * ka) + dx3[:, :, 1:] / (2 * kb))
    couple(
        g_x.ravel(),
        index(zz[:, :, :-1], jj[:, :, :-1], ii[:, :, :-1]).ravel(),
        index(zz[:, :, 1:], jj[:, :, 1:], ii[:, :, 1:]).ravel(),
    )

    # Y-direction faces.
    ka = k[:, :-1, :]
    kb = k[:, 1:, :]
    g_y = (dz3 * dx3) / (dy3[:, :-1] / (2 * ka) + dy3[:, 1:] / (2 * kb))
    couple(
        g_y.ravel(),
        index(zz[:, :-1, :], jj[:, :-1, :], ii[:, :-1, :]).ravel(),
        index(zz[:, 1:, :], jj[:, 1:, :], ii[:, 1:, :]).ravel(),
    )

    # Z-direction faces.
    ka = k[:-1]
    kb = k[1:]
    g_z = area / (dz3[:-1] / (2 * ka) + dz3[1:] / (2 * kb))
    couple(
        g_z.ravel(),
        index(zz[:-1], jj[:-1], ii[:-1]).ravel(),
        index(zz[1:], jj[1:], ii[1:]).ravel(),
    )

    # Convective boundaries (Robin): half-cell conduction in series with h.
    for plane, h in ((0, config.heatsink_h), (nz - 1, config.motherboard_h)):
        g_b = area / (dz[plane] / (2 * k[plane]) + 1.0 / h)
        idx = index(
            np.full((ny, nx), plane), jj[0], ii[0]
        ).ravel()
        np.add.at(diag, idx, g_b.ravel())
        np.add.at(boundary_rhs, idx, (g_b * config.ambient_c).ravel())

    all_rows = np.concatenate(rows + [np.arange(n_cells)])
    all_cols = np.concatenate(cols + [np.arange(n_cells)])
    all_vals = np.concatenate(vals + [diag])
    matrix = sp.csc_matrix(
        (all_vals, (all_rows, all_cols)), shape=(n_cells, n_cells)
    )

    mass = (c * area * dz3).ravel()  # rho c V, J/K
    return ThermalOperator(
        key=key,
        matrix=matrix,
        mass=mass,
        boundary_rhs=boundary_rhs,
        shape=(nz, ny, nx),
        layer_planes=layer_planes,
        die_region=(j0, j1, i0, i1),
        die_layers=die_layers,
    )


def _power_rhs(stack: ThermalStack, operator: ThermalOperator) -> np.ndarray:
    """The injected-power part of the right-hand side, W per cell.

    Rebuilt on every assembly (it is cheap and carries everything the
    cached operator deliberately excludes), including the power-map
    validity guard.
    """
    nz, ny, nx = operator.shape
    j0, j1, i0, i1 = operator.die_region
    plane_q: List[np.ndarray] = []
    for layer in stack.layers:
        q_map = np.zeros((ny, nx))
        if layer.power_plan is not None:
            raster = layer.power_plan.rasterize(i1 - i0, j1 - j0)
            total = layer.power_plan.total_power
            # Guard: NaN power used to vanish silently here (NaN > 0 is
            # False), solving an unpowered stack without complaint.
            if (
                not np.all(np.isfinite(raster))
                or not np.isfinite(total)
                or (raster.size and raster.min() < 0)
                or total < 0
            ):
                raise GuardViolation(
                    f"layer {layer.name!r} has a non-finite or negative "
                    "power map",
                    guard="power-map",
                )
            if raster.sum() > 0:
                q_map[j0:j1, i0:i1] = raster / raster.sum() * total
        for _ in range(layer.divisions):
            plane_q.append(q_map / layer.divisions)
    return np.stack(plane_q).ravel()


def assemble_system(
    stack: ThermalStack,
    config: Optional[SolverConfig] = None,
    reuse_operator: bool = True,
) -> DiscreteSystem:
    """Discretize a stack into its finite-volume system.

    The geometry-dependent operator (matrix, mass, ambient boundary rhs)
    is served from the per-geometry LRU cache when available; only the
    power vector is rebuilt.  Pass ``reuse_operator=False`` to force a
    from-scratch assembly that bypasses the cache entirely (benchmarks
    use this to time the cold path).
    """
    config = config or SolverConfig()
    key = geometry_key(stack, config)
    operator = _OPERATOR_CACHE.get(key) if reuse_operator else None
    if operator is not None:
        _OPERATOR_CACHE.move_to_end(key)
        _CACHE_STATS["hits"] += 1
        operator = _verify_cached_operator(stack, config, key, operator)
    else:
        operator = _assemble_operator(stack, config, key)
        if reuse_operator:
            _CACHE_STATS["misses"] += 1
            operator.crc = _operator_crc(operator)
            _OPERATOR_CACHE[key] = operator
            while len(_OPERATOR_CACHE) > _OPERATOR_CACHE_MAX:
                _OPERATOR_CACHE.popitem(last=False)

    power_rhs = _power_rhs(stack, operator)
    # Bitwise equal to assembling power and boundary into one vector: a
    # boundary cell's rhs is exactly one ambient term added to its power.
    rhs = power_rhs + operator.boundary_rhs
    return DiscreteSystem(
        matrix=operator.matrix,
        rhs=rhs,
        mass=operator.mass,
        shape=operator.shape,
        layer_planes=dict(operator.layer_planes),
        die_region=operator.die_region,
        die_layers=list(operator.die_layers),
        stack=stack,
        config=config,
        power_rhs=power_rhs,
        boundary_rhs=operator.boundary_rhs,
        operator=operator,
    )


def solve_steady_state(
    stack: ThermalStack, config: Optional[SolverConfig] = None
) -> ThermalSolution:
    """Solve a stack for its steady-state temperature field.

    Args:
        stack: The configuration to solve.
        config: Discretization/boundary parameters (defaults are calibrated
            for the paper's desktop package).

    Returns:
        The solved field; a solve the online oracles flag is recorded on
        the oracle scoreboard (see :func:`_steady_solution_oracles`).

    Raises:
        SolverDivergenceError: CG could not run (non-positive diagonal),
            did not converge, or produced non-finite temperatures.
    """
    system = assemble_system(stack, config)
    flat = _solve_cg(system)
    solution = system.solution_from(flat)
    _steady_solution_oracles(
        system, solution, relative_residual(system.matrix, flat, system.rhs)
    )
    return solution


def relative_residual(matrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """Relative residual ``||Ax - b|| / ||b||`` of a candidate solution."""
    x = np.asarray(x, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    norm_b = _norm(rhs)
    if norm_b == 0.0:
        return _norm(matrix @ x)
    if not np.all(np.isfinite(x)):
        return float("inf")
    return _norm(matrix @ x - rhs) / norm_b


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product with a fixed reduction order.

    numpy's pairwise sum, not BLAS ``ddot``: OpenBLAS splits a long dot
    product across its threads, so its rounding (and every CG iterate
    after it) would follow the host's thread count.
    """
    return float((a * b).sum())


def _norm(v: np.ndarray) -> float:
    """Euclidean norm through :func:`_dot`."""
    return math.sqrt(_dot(v, v))


def _solve_cg(system: DiscreteSystem) -> np.ndarray:
    """Jacobi-preconditioned CG on the SPD steady system, from ambient.

    The start is the ambient field, not a neighbouring solution, so a
    result never depends on what was solved before it; every reduction
    goes through :func:`_dot`, so it does not depend on the BLAS thread
    count either.  Stops once ``||r|| <= CG_RTOL * ||b||``.
    """
    matrix = system.matrix
    diagonal = matrix.diagonal()
    if not (np.all(diagonal > 0) and np.all(np.isfinite(diagonal))):
        raise SolverDivergenceError(
            "system diagonal is not positive; CG preconditioner undefined",
            method="cg",
        )
    inverse_diagonal = 1.0 / diagonal
    x = np.full(system.rhs.shape, system.config.ambient_c)
    r = system.rhs - matrix @ x
    norm_b = _norm(system.rhs)
    residual = _norm(r)
    p = np.zeros_like(x)
    rho_previous = 0.0
    iterations = 0
    while residual > CG_RTOL * norm_b and math.isfinite(residual):
        if iterations == _CG_MAXITER:
            raise SolverDivergenceError(
                f"CG did not converge in {_CG_MAXITER} iterations "
                f"(relative residual {residual / norm_b:.3g})",
                method="cg",
            )
        z = inverse_diagonal * r
        rho = _dot(r, z)
        beta = rho / rho_previous if iterations else 0.0
        p = z + beta * p
        q = matrix @ p
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_previous = rho
        residual = _norm(r)
        iterations += 1
    if not (math.isfinite(residual) and np.all(np.isfinite(x))):
        raise SolverDivergenceError(
            "CG produced non-finite temperatures", method="cg"
        )
    return x


def _steady_solution_oracles(
    system: DiscreteSystem, solution: "ThermalSolution", residual: float
) -> None:
    """Online invariant oracles over a steady solve (never raise).

    Three cheap checks (Section 2.3 physics): the linear residual is
    within tolerance, every watt injected leaves through the boundary
    faces, and no cell sits below ambient or above the damage ceiling.
    A trip records a violation on the oracle scoreboard; the numbers
    are still returned so a campaign completes degraded instead of
    crashing.
    """
    if not get_oracle_config().enabled:
        return
    problems: List[str] = []
    record_check("thermal.residual")
    if not (residual <= RESIDUAL_TOL):
        problems.append(
            f"steady residual {residual:.3g} above "
            f"tolerance {RESIDUAL_TOL:.3g}"
        )
    record_check("thermal.conservation")
    power_w = float(system.power_rhs.sum()) if system.power_rhs is not None \
        else float("nan")
    problems += check_energy_conservation(
        solution.boundary_heat_flow(), power_w, CONSERVATION_RTOL
    )
    record_check("thermal.bounds")
    problems += check_temperature_bounds(
        float(solution.temperature.min()),
        float(solution.temperature.max()),
        system.config.ambient_c,
        TEMP_SLACK_C,
    )
    for problem in problems:
        record_violation("thermal.steady", "thermal", problem)
