"""Brute-force numerical oracles backing the closed-form results.

Three independent verification tools live here:

* a finite-volume solver for the radially symmetric elasticity problem on
  the layered sphere (piecewise-constant moduli, thermal eigenstrain),
  discretizing the conservative balance  d/dr (r^2 sigma_rr) = 2 r sigma_tt
  with cell-centered material coefficients and the interface on a node;
* a dense grid scan minimizing the bound objective over an interval;
* quadrature evaluation of per-phase L^p moments of sampled fields.

None of them reuse the closed-form shell solution, so agreement with the
analytic constructions is a genuine cross-check.  The finite-volume scheme
is second-order accurate in the grid spacing; linear-in-r displacement
fields (uniform hydrostatic states) are reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import SQRT3
from .coated_sphere import (
    CoatedSphereConfig,
    evaluate_fields,
    superposed_shell_coefficients,
)
from .errors import NonConvergent, SingularSystem
from .materials import Loading, check_exponent

MIN_NODES = 16


@dataclass(frozen=True)
class RadialGrid:
    """Radial nodes in (0, 1] with a node exactly at the interface.

    The center r = 0 is a ghost point with the regularity condition u(0) = 0;
    it is not part of ``nodes``.  ``nodes[interface_index]`` equals the core
    radius a.
    """

    nodes: np.ndarray
    interface_index: int

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < MIN_NODES:
            raise ValueError(f"grid needs at least {MIN_NODES} nodes, got {len(nodes)}")
        if not np.all(np.diff(nodes) > 0.0) or nodes[0] <= 0.0:
            raise ValueError("nodes must be strictly increasing and positive")
        if nodes[-1] != 1.0:
            raise ValueError("last node must equal the outer radius 1")
        if not (0 <= self.interface_index < len(nodes) - 1):
            raise ValueError("interface node must be interior")


def make_radial_grid(config: CoatedSphereConfig, n: int) -> RadialGrid:
    """Uniform grid with ~n nodes total and a node exactly at the interface.

    Node counts in core and coating are allocated proportionally to the
    radii so the spacing is nearly uniform across the interface.  Raises
    SingularSystem when the core fraction is so close to 0 or 1 that some
    cell's volume rounds to zero (the coating nodes collapse once a rounds
    to 1; the core cells' r^3 underflows for a core fraction near the
    smallest float).
    """
    if n < MIN_NODES:
        raise ValueError(f"n must be >= {MIN_NODES}, got {n}")
    a = config.core_radius()
    n_core = min(n - 4, max(4, round(n * a)))
    n_coat = n - n_core
    core_nodes = np.linspace(0.0, a, n_core + 1)[1:]
    coat_nodes = np.linspace(a, 1.0, n_coat + 1)[1:]
    nodes = np.concatenate([core_nodes, coat_nodes])
    if not np.all(np.diff(np.concatenate([[0.0], nodes]) ** 3) > 0.0):
        raise SingularSystem(f"core radius {a!r} leaves {n}-node grid cells of zero volume")
    return RadialGrid(nodes=nodes, interface_index=n_core - 1)


@dataclass(frozen=True)
class RadialSolution:
    """Discrete solution of the layered-sphere problem.

    ``u`` holds nodal displacements aligned with ``grid.nodes`` (u(0) = 0 is
    implicit).  Stress samples live at cell midpoints, where the material is
    unambiguous; ``cell_phase`` is the material index (1 or 2) of each cell.
    ``tr_sigma_core``/``tr_sigma_coating`` are volume-weighted means of the
    stress trace over each region, and ``sigma_rr_jump`` is the one-sided
    estimate of the radial traction mismatch at the interface (zero up to
    discretization error).
    """

    grid: RadialGrid
    u: np.ndarray
    cell_mid: np.ndarray
    cell_sigma_rr: np.ndarray
    cell_sigma_tt: np.ndarray
    cell_tr_sigma: np.ndarray
    cell_phase: np.ndarray
    tr_sigma_core: float
    tr_sigma_coating: float
    sigma_rr_jump: float


def _cell_arrays(config: CoatedSphereConfig, grid: RadialGrid, deltaT: float):
    """Per-cell geometry and material data (cells never straddle the interface)."""
    r = np.concatenate([[0.0], grid.nodes])
    h = np.diff(r)
    rm = 0.5 * (r[:-1] + r[1:])
    n_core_cells = grid.interface_index + 1
    is_core = np.arange(len(h)) < n_core_cells
    core, coat = config.core, config.coating
    k = np.where(is_core, core.k, coat.k)
    mu = np.where(is_core, core.mu, coat.mu)
    eig = np.where(is_core, core.h, coat.h) * deltaT
    phase = np.where(is_core, config.core_phase, config.coating_phase)
    return r, h, rm, k, mu, eig, phase


def solve_radial_bvp(
    config: CoatedSphereConfig,
    loading: Loading,
    grid: RadialGrid,
    outer: str = "traction",
) -> RadialSolution:
    """Solve the layered-sphere equilibrium problem on the given grid.

    ``outer`` selects the outer boundary condition: ``"traction"`` imposes
    sigma_rr(b) = loading.sigma0 with the thermal eigenstrain active (the
    superposed total-field scenario), ``"clamped"`` imposes u(b) = 0 (the
    pure-thermal scenario; requires sigma0 == 0).

    The finite-volume balance at node i equates the flux difference of
    r^2 sigma_rr across the two adjacent cell midpoints with the integral of
    2 r sigma_tt over the dual cell, evaluated per half-cell so material
    jumps at the interface node are respected.  The resulting tridiagonal
    system is solved directly.
    """
    if outer == "clamped" and loading.sigma0 != 0.0:
        raise ValueError("clamped outer condition requires sigma0 == 0")
    if outer not in ("traction", "clamped"):
        raise ValueError(f"outer must be 'traction' or 'clamped', got {outer!r}")

    r, h, rm, k, mu, eig, phase = _cell_arrays(config, grid, loading.deltaT)
    ncell = len(h)
    nun = ncell + 1  # unknowns: ghost node 0 plus all grid nodes

    # flux coefficients per cell: F = a_c (u_R - u_L) + b_c (u_L + u_R) - f_c
    a_c = rm**2 * (k + 4.0 * mu / 3.0) / h
    b_c = rm * (2.0 * k - 4.0 * mu / 3.0) / 2.0
    f_c = rm**2 * 3.0 * k * eig

    # half-cell hoop-stress sources; right half of node i lives in cell i,
    # left half of node i in cell i-1
    mR = r[:-1] + 0.25 * h
    mL = r[1:] - 0.25 * h
    pR = mR * (k - 2.0 * mu / 3.0)
    qR = h * (2.0 * k + 2.0 * mu / 3.0) / 4.0
    gR = 3.0 * mR * h * k * eig
    pL = mL * (k - 2.0 * mu / 3.0)
    qL = h * (2.0 * k + 2.0 * mu / 3.0) / 4.0
    gL = 3.0 * mL * h * k * eig

    rhs = np.zeros(nun)

    i = np.arange(1, ncell)  # interior nodes; cell i-1 on the left, i on the right
    li = a_c[i - 1] - b_c[i - 1] + pL[i - 1] - qL[i - 1]
    di = (
        -a_c[i] + b_c[i] - a_c[i - 1] - b_c[i - 1]
        + pR[i] - 3.0 * qR[i] - pL[i - 1] - 3.0 * qL[i - 1]
    )
    ui = a_c[i] + b_c[i] - pR[i] - qR[i]
    ri = f_c[i] - f_c[i - 1] - gR[i] - gL[i - 1]

    if outer == "clamped":
        lo_n, di_n, ri_n = 0.0, 1.0, 0.0
    else:
        lo_n = a_c[-1] - b_c[-1] + pL[-1] - qL[-1]
        di_n = -a_c[-1] - b_c[-1] - pL[-1] - 3.0 * qL[-1]
        ri_n = -loading.sigma0 - f_c[-1] - gL[-1]

    # banded layout for scipy.linalg.solve_banded with (1, 1);
    # row 0 is the center regularity condition u(0) = 0
    ab = np.zeros((3, nun))
    ab[1, 0] = 1.0
    ab[1, i] = di
    ab[0, i + 1] = ui
    ab[2, i - 1] = li
    ab[1, -1] = di_n
    ab[2, -2] = lo_n
    rhs[i] = ri
    rhs[-1] = ri_n

    if not np.all(np.isfinite(ab)):
        raise SingularSystem("non-finite coefficients in radial system")
    # imported here so that importing the package does not load scipy
    from scipy.linalg import solve_banded

    try:
        u_full = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(u_full)):
        raise NonConvergent("direct solve returned non-finite displacements")

    # cell-midpoint stresses
    du = np.diff(u_full) / h
    ubar = 0.5 * (u_full[:-1] + u_full[1:])
    sig_rr = (k + 4.0 * mu / 3.0) * du + (2.0 * k - 4.0 * mu / 3.0) * ubar / rm - 3.0 * k * eig
    sig_tt = (k - 2.0 * mu / 3.0) * du + (2.0 * k + 2.0 * mu / 3.0) * ubar / rm - 3.0 * k * eig
    tr_sig = sig_rr + 2.0 * sig_tt

    w = np.diff(r**3)  # proportional to cell volumes
    is_core = np.arange(ncell) <= grid.interface_index
    tr_core = float(np.sum(tr_sig[is_core] * w[is_core]) / np.sum(w[is_core]))
    tr_coat = float(np.sum(tr_sig[~is_core] * w[~is_core]) / np.sum(w[~is_core]))

    # one-sided (second-order) radial-traction estimates at the interface;
    # node spacing is uniform within each region by construction
    idx = grid.interface_index
    a_r = grid.nodes[idx]
    j = idx + 1  # index of the interface node in u_full
    core_cell, coat_cell = idx, idx + 1
    du_minus = (3.0 * u_full[j] - 4.0 * u_full[j - 1] + u_full[j - 2]) / (
        2.0 * h[core_cell]
    )
    du_plus = (-3.0 * u_full[j] + 4.0 * u_full[j + 1] - u_full[j + 2]) / (
        2.0 * h[coat_cell]
    )
    u_a = u_full[j]
    srr_minus = (
        (k[core_cell] + 4.0 * mu[core_cell] / 3.0) * du_minus
        + (2.0 * k[core_cell] - 4.0 * mu[core_cell] / 3.0) * u_a / a_r
        - 3.0 * k[core_cell] * eig[core_cell]
    )
    srr_plus = (
        (k[coat_cell] + 4.0 * mu[coat_cell] / 3.0) * du_plus
        + (2.0 * k[coat_cell] - 4.0 * mu[coat_cell] / 3.0) * u_a / a_r
        - 3.0 * k[coat_cell] * eig[coat_cell]
    )

    return RadialSolution(
        grid=grid,
        u=u_full[1:],
        cell_mid=rm,
        cell_sigma_rr=sig_rr,
        cell_sigma_tt=sig_tt,
        cell_tr_sigma=tr_sig,
        cell_phase=phase,
        tr_sigma_core=tr_core,
        tr_sigma_coating=tr_coat,
        sigma_rr_jump=float(abs(srr_plus - srr_minus)),
    )


def sample_analytic_fields(
    config: CoatedSphereConfig, loading: Loading, grid: RadialGrid
) -> RadialSolution:
    """Evaluate the closed-form shell solution on a grid's nodes and cells.

    Produces the same structure as :func:`solve_radial_bvp` so the two can
    be compared directly or fed to :func:`sampled_moment`.
    """
    r, h, rm, k, mu, eig, phase = _cell_arrays(config, grid, loading.deltaT)
    u_nodes, _ = evaluate_fields(config, loading, grid.nodes)
    total = superposed_shell_coefficients(config, loading)

    is_core = np.arange(len(h)) <= grid.interface_index
    lin = np.where(is_core, total.core_linear, total.coat_linear)
    inv = np.where(is_core, 0.0, total.coat_inverse_square)
    sig_rr = 3.0 * k * (lin - eig) - 4.0 * mu * inv / rm**3
    sig_tt = 3.0 * k * (lin - eig) + 2.0 * mu * inv / rm**3
    tr_sig = sig_rr + 2.0 * sig_tt

    core_const = 9.0 * config.core.k * (total.core_linear - config.core.h * loading.deltaT)
    coat_const = 9.0 * config.coating.k * (total.coat_linear - config.coating.h * loading.deltaT)

    return RadialSolution(
        grid=grid,
        u=u_nodes,
        cell_mid=rm,
        cell_sigma_rr=sig_rr,
        cell_sigma_tt=sig_tt,
        cell_tr_sigma=tr_sig,
        cell_phase=phase,
        tr_sigma_core=float(core_const),
        tr_sigma_coating=float(coat_const),
        sigma_rr_jump=0.0,
    )


def interval_scan_min(lo: float, hi: float, sigma0: float, D: float, n: int) -> float:
    """Dense-scan minimum of sqrt(3)*|(sigma0 - D) t + D| over [lo, hi].

    Evaluates at n equispaced points; the result overestimates the true
    minimum by at most sqrt(3) |sigma0 - D| (hi - lo) / (n - 1).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    t = np.linspace(lo, hi, n)
    return float(np.min(SQRT3 * np.abs((sigma0 - D) * t + D)))


def sampled_moment(solution: RadialSolution, phase: int, p: float) -> float:
    """Quadrature L^p moment of |hydrostatic stress| over one phase.

    Integrates (|tr sigma|/sqrt(3))^p against the volume measure over the
    cells of the requested material phase, normalized by the phase volume.
    Requires finite p > 1; for constant-per-phase fields the result is
    independent of p up to quadrature roundoff.
    """
    check_exponent(p, finite=True)
    r = np.concatenate([[0.0], solution.grid.nodes])
    w = np.diff(r**3)
    mask = solution.cell_phase == phase
    if not np.any(mask):
        raise ValueError(f"no cells of phase {phase} in solution")
    vals = np.abs(solution.cell_tr_sigma[mask]) / SQRT3
    mean_p = np.sum(vals**p * w[mask]) / np.sum(w[mask])
    return float(mean_p ** (1.0 / p))


def compare_fields(analytic: RadialSolution, numeric: RadialSolution) -> float:
    """Maximum normalized discrepancy between two solutions on one grid.

    Compares nodal displacements and cell-midpoint stress traces, each
    normalized by the largest magnitude of the analytic field (so the
    comparison stays meaningful near zeros of u).  Returns 0 for two zero
    fields.
    """
    if analytic.grid.n != numeric.grid.n or not np.allclose(
        analytic.grid.nodes, numeric.grid.nodes, rtol=0, atol=0
    ):
        raise ValueError("solutions live on different grids")
    err = 0.0
    for x, y in ((analytic.u, numeric.u), (analytic.cell_tr_sigma, numeric.cell_tr_sigma)):
        scale = float(np.max(np.abs(x)))
        if scale == 0.0:
            scale = float(np.max(np.abs(y)))
        if scale == 0.0:
            continue
        err = max(err, float(np.max(np.abs(x - y))) / scale)
    return err
