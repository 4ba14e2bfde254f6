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
fields (uniform hydrostatic states) are reproduced exactly.  A solution
holds only what is compared or averaged, none of it tied to uniform node
spacing.  The other side of that comparison, the closed-form fields sampled
on the same grid, is :func:`sample_analytic_fields`.  Spheres on grids of one
size share one exact cyclic reduction: their systems couple by zeros only.

Elsewhere only verify's regime-table check computes with arrays.  Every
function here imports numpy where it builds them, so ``import thermobounds``
does not load it.  Each array function turns an overflow into inf or nan
under its own ``np.errstate``, never a warning, for its caller to report;
the finite-volume oracle refuses a sphere it cannot solve with ``SingularSystem``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bounds import SQRT3
from .coated_sphere import CoatedSphereConfig, local_field_constants, superposed_shell_coefficients
from .errors import SingularSystem
from .materials import Loading, check_exponent

MIN_NODES = 16


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


def _solve_tridiagonal(lower, upper, row_sum, rhs) -> np.ndarray:
    """Solve tridiagonal systems given by their off-diagonals and row sums.

    Row i reads ``lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i]``
    with ``diag = row_sum - lower - upper``; ``lower[0]`` and ``upper[-1]``
    must be zero.  Odd-even cyclic reduction (Hockney 1965; Buzbee, Golub
    and Nielson 1970): each level eliminates the even-indexed unknowns from
    the odd-indexed rows, halving the system whatever its length, and the
    way back up recovers them.  The row sums are the matrix applied to a
    vector of ones, so they are reduced like the right-hand side, and the
    pivots are formed from them.  On rows with positive off-diagonals and
    negative row sums no step cancels, so the small row sums of a fine
    discretization keep their accuracy.  There is no pivoting: a zero pivot
    yields a non-finite solution, without a floating-point warning, for the
    caller to reject.

    Systems of one length n along the leading axes are reduced end to end in
    one raveled array while n is even, then each alone, with no bit changed:
    the terms across a system's end, products with its zero coupling (or nan
    beside an inf), are put to -0.0, since x + -0.0 is x for every x.
    """
    import numpy as np

    levels = []
    n = np.shape(rhs)[-1]  # rows per system
    a, c, s, d = (np.ravel(v) for v in (lower, upper, row_sum, rhs))
    with np.errstate(all="ignore"):
        while n > 1 and (n % 2 == 0 or len(d) == n):
            h, k = len(d) // 2, (len(d) - 1) // 2  # rows kept; kept rows with a right neighbour
            ends = slice(n // 2 - 1, h - 1, n // 2)  # kept rows that end a system, but the last
            nb = 1.0 / (a[0::2] + c[0::2] - s[0::2])  # minus the inverse pivots
            al = a[1::2] * nb[:h]
            ga = c[1 : 2 * k : 2] * nb[1:]
            levels.append((a, c, d, nb, ends))
            left, right = slice(0, 2 * h, 2), slice(2, 2 * k + 1, 2)
            s2 = s[1::2] + al * s[left]
            d2 = d[1::2] + al * d[left]
            across_s, across_d = ga * s[right], ga * d[right]
            across_s[ends] = across_d[ends] = -0.0
            s2[:k] += across_s
            d2[:k] += across_d
            c2 = np.zeros(h)  # the last kept row has no right neighbour when k < h
            c2[:k] = ga * c[right]
            c2[ends] = 0.0
            a, c, s, d, n = al * a[left], c2, s2, d2, n // 2
        if n > 1:  # several systems of odd length
            x = np.hstack([*map(_solve_tridiagonal, *(v.reshape(-1, n) for v in (a, c, s, d)))])
        else:
            x = d / s
        for a, c, d, nb, ends in reversed(levels):
            h, k = len(x), (len(d) - 1) // 2
            e = -d[0::2]
            across = a[2::2] * x[:k]
            across[ends] = -0.0
            e[1:] += across
            e[:h] += c[0 : 2 * h : 2] * x
            full = np.empty(len(d))
            full[0::2] = e * nb
            full[1::2] = x
            x = full
    return x.reshape(np.shape(rhs))


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
    jumps at the interface node are respected.  With u(0) = 0 known, the
    ``grid.n`` nodal displacements solve a tridiagonal system by cyclic
    reduction.  The stress trace follows at the cell midpoints, with its
    volume-weighted mean over each region; any node spacing will do.
    """
    return _solve_radial_bvps([config], loading, [grid])[0]


def _solve_radial_bvps(configs, loading: Loading, grids) -> list[RadialSolution]:
    """:func:`solve_radial_bvp` of each config on its grid, all of one size, by one solve."""
    import numpy as np

    r = np.concatenate((np.zeros((len(grids), 1)), [g.nodes for g in grids]), axis=1)
    h = np.diff(r)
    rm = 0.5 * (r[:, :-1] + r[:, 1:])

    # per region: P-wave modulus, 3k, the thermal stress 3k h deltaT and Lame lambda
    def moduli(p):
        k3 = 3.0 * p.k
        return [p.k + 4.0 * p.mu / 3.0, k3, k3 * p.h * loading.deltaT, p.k - 2.0 * p.mu / 3.0]

    with np.errstate(over="ignore", invalid="ignore"):
        regions = zip(*((c.core, c.coating) for c in configs))  # the cores, then the coatings
        core, coat = (np.array([moduli(p) for p in phases]).T[..., None] for phases in regions)
        pwave, k3, s3 = cells = np.empty((3, *h.shape))  # per grid: its core run, then its coating's
        for j, nc in enumerate(grid.interface_index + 1 for grid in grids):
            cells[:, j, :nc], cells[:, j, nc:] = core[:3, j], coat[:3, j]
        lam_core, lam_coat = core[3, :, 0], coat[3, :, 0]  # needed only where lambda jumps

        # The flux and half-cell hoop terms of a cell [r0, r1] sum in closed
        # form: they couple its two nodes by M r0 r1 / h and add -h M to each
        # node's row sum.  Lambda and the eigenstrain enter only where they
        # jump, at the interface and the outer surface.  Assembling these sums,
        # not their O(1/h) parts, keeps the rows free of cancellation.
        off = pwave * r[:, :-1] * r[:, 1:] / h
        hm = h * pwave
        row_sum = -hm
        row_sum[:, :-1] -= hm[:, 1:]
        rhs = np.zeros(off.shape)
        for j, i in enumerate(grid.interface_index for grid in grids):
            row_sum[j, i] += 2.0 * r[j, i + 1] * (lam_coat[j] - lam_core[j])
            rhs[j, i] = (s3[j, i + 1] - s3[j, i]) * r[j, i + 1] ** 2
        upper = np.zeros(off.shape)
        upper[:, :-1] = off[:, 1:]
        row_sum[:, -1] -= 2.0 * lam_coat
        rhs[:, -1] = -s3[:, -1] - loading.sigma0

        if not (np.all(np.isfinite(off)) and np.all(np.isfinite(row_sum))):
            raise SingularSystem("non-finite coefficients in radial system")
        u = _solve_tridiagonal(off, upper, row_sum, rhs)
        if not np.all(np.isfinite(u)):
            raise SingularSystem("direct solve returned non-finite displacements")

        # cell-midpoint stress trace: 3k (du/dr + 2 u/r - 3 eigenstrain)
        u0 = np.concatenate((np.zeros((len(grids), 1)), u), axis=1)
        tr_sig = k3 * (np.diff(u0) / h + (u0[:, :-1] + u0[:, 1:]) / rm) - 3.0 * s3

        solutions = []
        for config, grid, u_j, tr in zip(configs, grids, u, tr_sig):
            w, nc = grid.volume_weights, grid.interface_index + 1
            means = (float(tr[run] @ w[run] / w[run].sum()) for run in (slice(nc), slice(nc, None)))
            solutions.append(RadialSolution(grid, u_j, tr, config.core_phase, *means))
    return solutions


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
    # in units of that value; elsewhere the unit is 1.0, which changes no bit
    top = float(np.max(vals))
    if not (0.0 < top < math.inf and max(exponents) * abs(math.log2(top)) > 1000):
        top = 1.0
    vals = vals / top
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
