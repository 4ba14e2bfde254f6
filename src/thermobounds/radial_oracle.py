"""Brute-force numerical oracles backing the closed-form results.

Two independent verification tools live here:

* a finite-volume solver for the radially symmetric elasticity problem on
  the layered sphere (piecewise-constant moduli, thermal eigenstrain),
  discretizing the conservative balance  d/dr (r^2 sigma_rr) = 2 r sigma_tt
  with cell-centered material coefficients and the interface on a node;
* quadrature evaluation of per-phase L^p moments of sampled fields.

Neither reuses the closed-form shell solution, so agreement with the
analytic constructions is a genuine cross-check.  The finite-volume scheme
is second-order accurate in the grid spacing; linear-in-r displacement
fields (uniform hydrostatic states) are reproduced exactly, which is what
lets its tridiagonal system be solved in closed form up to one cumulative
sum, by reduction of order (:func:`solve_radial_bvp`).  A solution holds
only what is compared or averaged, none of it tied to uniform node spacing.
The other side of that comparison, the closed-form fields sampled on the
same grid, is :func:`sample_analytic_fields`.

Elsewhere only verify's regime-table check computes with arrays.  Every
function here imports numpy where it builds them, so loading this module
does not load numpy.  ``import thermobounds`` does not load this module: the
package resolves its names here on first access.  The CLI loads it for the
``--grid-n`` limits (:data:`MIN_NODES`, :data:`MAX_NODES` and the default
:data:`ORACLE_REFERENCE_N`), and of the commands only ``verify`` runs it.
Each array function turns an overflow into inf or nan under its own
``np.errstate``, never a warning, for its caller to report; the
finite-volume oracle refuses a sphere it cannot solve with ``SingularSystem``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bounds import SQRT3
from .coated_sphere import CoatedSphereConfig, local_field_constants, superposed_shell_coefficients
from .errors import SingularSystem
from .materials import Loading, check_exponent

MIN_NODES = 16
MAX_NODES = 2**20  # verify's ceiling on --grid-n: about 130 bytes of peak memory per node
ORACLE_REFERENCE_N = 4096  # --grid-n's default, the grid size verify's TOL_ORACLE is set at


class _GridFields(NamedTuple):
    nodes: np.ndarray
    interface_index: int
    volume_weights: np.ndarray


class RadialGrid(_GridFields):
    """Radial nodes in (0, 1] with a node exactly at the interface.

    The center r = 0 carries the regularity condition u(0) = 0; it is not
    part of ``nodes``.  ``nodes[interface_index]`` equals the core radius a.
    Cell 0 spans (0, nodes[0]] and cell i > 0 spans (nodes[i-1], nodes[i]].
    The constructor derives ``volume_weights``, the differences of r^3 over the
    cells (proportional to their volumes), and requires each to be positive: the
    nodes then increase from above 0, and no cell's r^3 has underflowed.
    """

    __slots__ = ()

    def __new__(cls, nodes, interface_index):
        import numpy as np

        nodes = np.asarray(nodes, dtype=float)
        if len(nodes) < MIN_NODES:
            raise ValueError(f"grid needs at least {MIN_NODES} nodes, got {len(nodes)}")
        weights = np.diff(np.concatenate(([0.0], nodes)) ** 3)
        if not np.all(weights > 0.0):
            raise ValueError("every cell must have positive volume")
        if nodes[-1] != 1.0:
            raise ValueError("last node must equal the outer radius 1")
        if not (0 <= interface_index < len(nodes) - 1):
            raise ValueError("interface node must be interior")
        return tuple.__new__(cls, (nodes, interface_index, weights))

    def __getnewargs__(self):
        return self[:2]

    @property
    def n(self) -> int:
        return len(self.nodes)


def make_radial_grid(config: CoatedSphereConfig, n: int) -> RadialGrid:
    """Uniform grid with ~n nodes total and a node exactly at the interface.

    Node counts in core and coating are allocated proportionally to the
    radii so the spacing is nearly uniform across the interface.  Raises
    SingularSystem when a cell's volume rounds to zero, the one grid rule these
    nodes can break: the coating nodes collapse once a rounds to 1, and the core
    cells' r^3 underflows for a core fraction near the smallest float.
    """
    import numpy as np

    if n < MIN_NODES:
        raise ValueError(f"n must be >= {MIN_NODES}, got {n}")
    a = config.core_radius()
    n_core = min(n - 4, max(4, round(n * a)))
    n_coat = n - n_core
    core_nodes = np.linspace(0.0, a, n_core + 1)[1:]
    coat_nodes = np.linspace(a, 1.0, n_coat + 1)[1:]
    nodes = np.concatenate([core_nodes, coat_nodes])
    try:
        return RadialGrid(nodes, n_core - 1)
    except ValueError:
        raise SingularSystem(f"core radius {a!r} leaves {n}-node grid cells of zero volume") from None


class RadialSolution(NamedTuple):
    """Discrete solution of the layered-sphere problem.

    ``u`` holds nodal displacements aligned with ``grid.nodes`` (u(0) = 0 is
    implicit).  ``cell_tr_sigma`` samples the stress trace at cell midpoints,
    where the material is unambiguous.  ``core_phase`` is the material index
    (1 or 2) of the cells up to ``grid.interface_index``; the other phase
    fills the rest.  ``tr_sigma_core``/``tr_sigma_coating`` are
    volume-weighted means of the stress trace over each region.
    """

    grid: RadialGrid
    u: np.ndarray
    cell_tr_sigma: np.ndarray
    core_phase: int
    tr_sigma_core: float
    tr_sigma_coating: float


def solve_radial_bvp(
    config: CoatedSphereConfig, loading: Loading, grid: RadialGrid
) -> RadialSolution:
    """Solve the layered-sphere equilibrium problem on the given grid.

    The outer surface carries the radial traction sigma_rr(b) =
    loading.sigma0, with the thermal eigenstrain at loading.deltaT active:
    the superposed total field.

    The finite-volume balance at node i equates the flux difference of
    r^2 sigma_rr across the two adjacent cell midpoints with the integral of
    2 r sigma_tt over the dual cell, evaluated per half-cell so material
    jumps at the interface node are respected.  With u(0) = 0 known, this is
    a tridiagonal system for the ``grid.n`` nodal displacements.  A cell
    [r0, r1] of P-wave modulus M = k + 4 mu/3 couples its two nodes by
    M r0 r1 / h and adds -h M to each node's row sum; Lame's lambda and the
    thermal stress s = 3 k h deltaT enter only where they jump.  Applied to
    u = r, row i is then r_i^2 (M_right - M_left): 0 inside each region,
    3 a^2 (kt - kc) at the interface node f (r_f = a), and -3 kt at the outer
    node, since M + 2 lambda = 3k (core kc, coating kt and mut).

    So the system is solved in closed form by reduction of order (the
    discrete Abel, or Casoratian, identity of a three-term recurrence;
    Elaydi, *An Introduction to Difference Equations*, 3rd ed., 2005, ch. 2).
    Put u = r z.  Row i times r_i is z_i r_i (A r)_i plus the difference
    across node i of the discrete flux (M r_{j-1} r_j / h_j) r_{j-1} r_j
    (z_j - z_{j-1}) of cell j.  The flux is 0 at the centre, so it is 0
    across the core, where z = alpha, and one constant Phi across the
    coating, where z_i = alpha + (Phi / Mt) V_i with
    V_i = sum_{j=f+1..i} h_j / (r_{j-1}^2 r_j^2), a sum of positive terms.
    Rows f and n-1 leave two equations,

        Phi + 3 a^3 (kt - kc) alpha = a^3 (st - sc),
        -3 kt alpha - (3 kt V / Mt + 1) Phi = -st - sigma0,

    with V the whole sum.  Telescoping, 3 V = 1/a^3 - 1 - E with
    E = sum h_j^3 / (r_{j-1}^3 r_j^3), since the nodes end at 1.  With
    x = kt / Mt, H = a^3 + x 3 a^3 V and G = 1 - H = (1 - a^3) 4 mut / (3 Mt)
    + x a^3 E, their solution is, with pt = st + sigma0 and pc = sc + sigma0,

        alpha = (G pt + H pc) / (3 (kt G + kc H)),
        beta = z_{n-1} = ((G + 3 a^3 V kc / Mt) pt + a^3 pc) / (3 (kt G + kc H)),
        beta - alpha = 3 a^3 V (kc pt - kt pc) / (3 Mt (kt G + kc H)),

    and Phi = a^3 (kc pt - kt pc) / (kt G + kc H).  Every weight is a sum of
    positive terms, so only the loads can cancel, and each product pairs a
    modulus with a ratio of moduli or with geometry, so nothing overflows
    that the solution does not.  The coating's z runs from its end of the
    smaller magnitude, and each coating u is that end's u plus a change, so
    that the differences across thin cells, which the trace reads, carry no
    rounding of the larger end.  A P-wave modulus or 3k that is not finite
    raises ``SingularSystem``, and so does a solution that is not finite.
    The stress trace follows at the cell midpoints, with its volume-weighted
    mean over each region; any node spacing will do.
    """
    import numpy as np

    f, nodes, dT = grid.interface_index, grid.nodes, loading.deltaT
    core, coat = config.core, config.coating
    kc, kt, m4 = core.k, coat.k, 4.0 * coat.mu / 3.0
    mc, mt = kc + 4.0 * core.mu / 3.0, kt + m4  # the P-wave moduli
    sc, st = 3.0 * kc * core.h * dT, 3.0 * kt * coat.h * dT
    if not all(map(math.isfinite, (mc, mt, 3.0 * kc, 3.0 * kt))):
        raise SingularSystem("non-finite coefficients in radial system")

    r = np.concatenate(([0.0], nodes))
    h = np.diff(r)
    with np.errstate(all="ignore"):
        # the coating's cells [p, rho]; 3 a^3 V_i is the first cell's term,
        # then the rest telescoped, since that cell may reach far beyond a tiny core
        a, p, rho, hc = nodes[f], nodes[f:-1], nodes[f + 1 :], h[f + 1 :]
        a3, c3 = a**3, (1.0 - a) * (1.0 + a + a * a)  # a^3 and 1 - a^3
        e3 = ((a / p) * (hc / rho)) ** 3  # a^3 E, cell by cell
        rest = np.concatenate(([0.0], np.cumsum(e3[1:])))
        b = rho[0]
        inner = 3.0 * (a / b) * (hc[0] / b) - rest + (a / b) ** 3 * (
            (rho - b) * (rho * rho + rho * b + b * b) / rho**3
        )
        whole = inner[-1]  # 3 a^3 V
        x, y = kt / mt, m4 / mt
        G, H = c3 * y + x * (e3[0] + rest[-1]), a3 + x * whole
        det = kt * G + kc * H  # at most kt + kc: G and H lie in [0, 1]
        pt, pc = st + loading.sigma0, sc + loading.sigma0
        alpha = ((G / det) * pt + (H / det) * pc) / 3.0
        beta = ((G / det + (kc / det) * (whole / mt)) * pt + (a3 / det) * pc) / 3.0
        # beta - alpha as their difference, or by its closed form where that rounds less
        scale, wc, wt = whole / (3.0 * mt), (kc / det) * pt, (kt / det) * pc
        step = beta - alpha
        if (abs(wc) + abs(wt)) * scale < abs(alpha) + abs(beta):
            step = (wc - wt) * scale
        u = nodes * alpha
        if abs(alpha) <= abs(beta):
            u[f + 1 :] = u[f] + ((rho - a) * alpha + rho * (step * (inner / whole)))
        else:
            outer = (a / rho) ** 3 * ((1.0 - rho) * (1.0 + rho + rho * rho)) - (rest[-1] - rest)
            rho = nodes[f:]
            u[f:] = beta - ((1.0 - rho) * beta + rho * (step * (np.append(whole, outer) / whole)))
        if not np.all(np.isfinite(u)):
            raise SingularSystem("direct solve returned non-finite displacements")

        # cell-midpoint stress trace: 3k (du/dr + 2 u/r - 3 eigenstrain)
        nc = f + 1
        u0 = np.concatenate(([0.0], u))
        tr = np.diff(u0) / h + (u0[:-1] + u0[1:]) / (0.5 * (r[:-1] + r[1:]))
        tr[:nc] = 3.0 * kc * tr[:nc] - 3.0 * sc
        tr[nc:] = 3.0 * kt * tr[nc:] - 3.0 * st
        w = grid.volume_weights
        means = (float(tr[run] @ w[run] / w[run].sum()) for run in (slice(nc), slice(nc, None)))
        return RadialSolution(grid, u, tr, config.core_phase, *means)


def sample_analytic_fields(
    config: CoatedSphereConfig, loading: Loading, grid: RadialGrid
) -> RadialSolution:
    """Evaluate the closed-form shell solution on a grid's nodes and cells.

    Produces the same structure as :func:`solve_radial_bvp` so the two can
    be compared directly or fed to :func:`sampled_moment`.  The displacement
    at each node is that of
    :func:`~thermobounds.coated_sphere.superposed_shell_coefficients`, the
    interface node taking the core's (both sides agree there).  The stress
    trace is constant in each region, that of
    :func:`~thermobounds.coated_sphere.local_field_constants`.
    """
    import numpy as np

    total = superposed_shell_coefficients(config, loading)
    fields = local_field_constants(config, loading)
    nc = grid.interface_index + 1  # node i is cell i's outer end
    core, coat = grid.nodes[:nc], grid.nodes[nc:]
    # at extreme modulus ratios the coating coefficients overflow, and the
    # non-finite u is for compare_fields to report
    with np.errstate(over="ignore", invalid="ignore"):
        coat_u = total.coat_linear * coat + total.coat_inverse_square / coat**2
        u = np.concatenate((total.core_linear * core, coat_u))
    return RadialSolution(
        grid=grid,
        u=u,
        cell_tr_sigma=np.repeat((fields.tr_sigma_core, fields.tr_sigma_coating), (nc, grid.n - nc)),
        core_phase=config.core_phase,
        tr_sigma_core=fields.tr_sigma_core,
        tr_sigma_coating=fields.tr_sigma_coating,
    )


def sampled_moment(solution: RadialSolution, phase: int, p: float) -> float:
    """Quadrature L^p moment of |hydrostatic stress| over one phase.

    Integrates (|tr sigma|/sqrt(3))^p against the volume measure over the
    cells of the requested material phase, normalized by the phase volume.
    Requires finite p > 1; for constant-per-phase fields the result is
    independent of p up to quadrature roundoff.
    """
    check_exponent(p, finite=True)
    return _phase_moments(solution, phase, (p,))[0]


def _phase_moments(solution: RadialSolution, phase: int, exponents) -> list[float]:
    """:func:`sampled_moment` at each of ``exponents``, from one pass over the phase's cells."""
    import numpy as np

    # a phase's cells are one run: the core's up to the interface node, or the coating's
    if phase not in (1, 2):
        raise ValueError(f"no cells of phase {phase} in solution")
    nc = solution.grid.interface_index + 1
    run = slice(nc) if phase == solution.core_phase else slice(nc, None)
    w = solution.grid.volume_weights[run]
    vals = np.abs(solution.cell_tr_sigma[run]) / SQRT3
    total = w.sum()  # a numpy float: a zero total gives nan or inf, not ZeroDivisionError
    # a phase whose largest value's power would leave the float range is taken
    # in units of that value; elsewhere the values are taken as they are
    top = float(np.max(vals))
    if 0.0 < top < math.inf and max(exponents) * abs(math.log2(top)) > 1000:
        vals = vals / top
    else:
        top = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        return [float(((vals**p * w).sum() / total) ** (1.0 / p)) * top for p in exponents]


def compare_fields(analytic: RadialSolution, numeric: RadialSolution) -> float:
    """Maximum normalized discrepancy between two solutions on one grid.

    Compares nodal displacements and cell-midpoint stress traces, each
    normalized by the largest magnitude of the analytic field (so the
    comparison stays meaningful near zeros of u).  Returns 0 for two zero
    fields, and a nan or an infinity where either field is not finite.
    """
    import numpy as np

    grid = analytic.grid
    if grid is not numeric.grid and not np.array_equal(grid.nodes, numeric.grid.nodes):
        raise ValueError("solutions live on different grids")
    err = 0.0
    for x, y in ((analytic.u, numeric.u), (analytic.cell_tr_sigma, numeric.cell_tr_sigma)):
        scale = float(np.max(np.abs(x)))
        if scale == 0.0:
            scale = float(np.max(np.abs(y)))
        if scale == 0.0:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            e = float(np.max(np.abs(x - y))) / scale
        if e > err or e != e:  # a nan stays, as max(err, nan) would drop it
            err = e
    return err
