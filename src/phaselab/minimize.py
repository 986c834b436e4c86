"""Discrete energy, its first variation, relaxation, and minimality spot checks.

The energy is the midpoint-rule quadrature of F(x, u, grad u) with the field
value and gradient reconstructed at cell centers from the corner nodes; the
scheme is second-order consistent.  The gradient returned by
``energy_gradient`` is the exact derivative of that quadrature (divided by
the cell volume), so the pairing <g, delta> h^n reproduces directional
derivatives of ``energy`` to rounding, and the same array serves as the
discrete Euler-Lagrange residual.

Relaxation is preconditioned gradient descent (a Sobolev gradient): it steps
along P^-1 g, where P = Q + sigma is the exact Hessian Q of the scheme's own
|p|^2 term shifted by the integrand's curvature bound sigma.  P is diagonal
in sine modes on box axes and Fourier modes on periodic axes, so it is
applied by FFT, and the step count no longer grows with the grid.  Steps
are accepted only when the energy does not rise (grow 1.2x up to 1, halve on
a rise).  Energies are compared in floating point, so the reachable
gradient floor scales like sqrt(eps * |E| / step); the loop detects the
resulting stall and stops instead of spinning.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field import BoxAxis, GridError, PeriodicAxis, ScalarField

STEP_GROW = 1.2
STEP_SHRINK = 0.5
#: Largest relax step along P^-1 g.  With sigma >= sup |F_uu|, P bounds the
#: Hessian of the built-in density from above, so a unit step minimizes a
#: quadratic upper bound of the energy.  Longer steps that still lower the
#: energy can leave interior tail values of a long layer just below 0.
STEP_MAX = 1.0
_STEP_FLOOR = 1e-17
#: iterations without strict energy or gradient-norm progress before the
#: adaptive loop reports a rounding-level stall
_STALL_PATIENCE = 200
#: Default sampling of ``minimality_spot_check``: trial count and largest
#: bump radius; every bump radius is at least SPOT_MIN_RADIUS.
SPOT_TRIALS = 50
SPOT_MAX_RADIUS = 2.0
SPOT_MIN_RADIUS = 0.5


class EnergyDivergedError(RuntimeError):
    """Relaxation produced a non-finite or runaway energy."""


@dataclass(frozen=True)
class RelaxOptions:
    max_iterations: int = 200_000
    gradient_tolerance: float = 1e-10
    initial_step: float = 1e-5
    clamp: tuple[float, float] | None = None
    log_every: int = 100

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max iterations must be non-negative")
        if not (math.isfinite(self.gradient_tolerance) and self.gradient_tolerance > 0):
            raise ValueError("gradient tolerance must be finite and positive")
        if self.clamp is not None:
            lo, hi = self.clamp
            if not lo < hi:
                raise ValueError("clamp range needs u_min < u_max")
        if not (math.isfinite(self.initial_step) and self.initial_step > 0):
            raise ValueError("initial step must be finite and positive")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")


@dataclass
class RelaxResult:
    field: ScalarField
    converged: bool
    status: str  # "converged" | "max-iterations" | "stalled"
    iterations: int
    final_energy: float
    final_gradient_norm: float
    history: dict


@dataclass
class MinimalityReport:
    """Sampled evidence, not certification: PASS means no tried compactly
    supported perturbation lowered the energy beyond rounding tolerance."""

    trials: int
    passed: bool
    worst_delta: float
    worst_trial: dict
    failures: list
    seed: int


# ---------------------------------------------------------------------------
# midpoint-cell machinery


class _AxisPlan:
    __slots__ = ("wrap", "start", "stop", "h", "rise", "nodes")

    def __init__(self, wrap, start, stop, h, rise, nodes):
        self.wrap = wrap
        self.start = start
        self.stop = stop
        self.h = h
        self.rise = rise
        self.nodes = nodes


def _plan(u: ScalarField, region):
    """Normalize a region (per-axis node ranges or None) into axis plans."""
    plans = []
    if region is None:
        region = (None,) * u.n
    if len(region) != u.n:
        raise GridError("region needs one entry per axis")
    for ax, p, reg in zip(u.axes, u.rises, region):
        nodes = ax.nodes
        if reg is None:
            start, stop = 0, nodes
        else:
            start, stop = reg
            start, stop = int(start), int(stop)
            if not (0 <= start < stop <= nodes):
                raise GridError(f"region [{start}, {stop}) outside axis of {nodes} nodes")
        full = start == 0 and stop == nodes
        wrap = isinstance(ax, PeriodicAxis) and full
        n_cells = (stop - start) if wrap else (stop - start - 1)
        if n_cells < 1:
            raise GridError("region is empty (fewer than two nodes along an axis)")
        plans.append(_AxisPlan(wrap, start, stop, ax.h, p, nodes))
    return plans


def _axis_slot(n, axis, sl):
    slot = [slice(None)] * n
    slot[axis] = sl
    return tuple(slot)


class _Cells:
    """Cell geometry of one region, built once per ``energy``,
    ``energy_gradient`` or ``relax`` call.

    ``corners`` lists the cell-corner arrays in lexicographic signature order
    (bit 0 for the low node along an axis, 1 for the high one), and
    ``scatter`` sends a corner's per-cell contribution back to its nodes.
    Box axes slice; periodic axes roll, into buffers kept across calls, so
    every pass works on contiguous arrays.
    """

    def __init__(self, shape, plans):
        n = len(plans)
        self.plans = plans
        self.shape = shape
        self.cell_shape = tuple(p.nodes if p.wrap else p.stop - p.start - 1 for p in plans)
        self.sigs = list(itertools.product((0, 1), repeat=n))
        self.inv2n = 1.0 / 2**n
        self.slope_scale = [1.0 / (2 ** (n - 1) * p.h) for p in plans]
        self.vol = 1.0
        for plan in plans:
            self.vol *= plan.h
        # per axis, the corners step: box axes slice into (low, high) views;
        # periodic axes roll each corner back by one node into a buffer,
        # the wrapped slab gaining the rise
        self.corner_steps = []
        # per axis, the scatter step: the node slots a low and a high corner
        # land in, and for periodic axes the roll forward by one node
        node_slots = []
        forward = []
        stage = list(shape)
        for i, plan in enumerate(plans):
            at = functools.partial(_axis_slot, n, i)
            if plan.wrap:
                m = plan.nodes
                back = (at(slice(0, m - 1)), at(slice(1, m)), at(slice(m - 1, m)), at(slice(0, 1)))
                bufs = [np.empty(stage) for _ in range(2**i)]
                self.corner_steps.append((back, bufs, plan.rise))
                node_slots.append((slice(None), slice(None)))
                forward.append(
                    (at(slice(1, m)), at(slice(0, m - 1)), at(slice(0, 1)), at(slice(m - 1, m)))
                )
            else:
                lo, hi = slice(plan.start, plan.stop - 1), slice(plan.start + 1, plan.stop)
                self.corner_steps.append(((at(lo), at(hi)), None, 0))
                node_slots.append((lo, hi))
                forward.append(None)
            stage[i] = self.cell_shape[i]
        self.scatter_plans = [
            (
                tuple(node_slots[i][bit] for i, bit in enumerate(sig)),
                [forward[i] for i, bit in enumerate(sig) if bit and forward[i] is not None],
            )
            for sig in self.sigs
        ]
        self.scatter_bufs = [np.empty(self.cell_shape) for _ in range(2)]

    def corners(self, total):
        corners = [total]
        for slots, bufs, rise in self.corner_steps:
            grown = []
            if bufs is None:
                lo, hi = slots
                for arr in corners:
                    grown += (arr[lo], arr[hi])
            else:
                for arr, buf in zip(corners, bufs):
                    _roll(buf, arr, slots, rise)
                    grown += (arr, buf)
            corners = grown
        return corners

    def means_and_slopes(self, corners, ub, slopes):
        """Cell means into ``ub`` and per-axis cell slopes into ``slopes``."""
        np.add(corners[0], corners[1], out=ub)
        for arr in corners[2:]:
            ub += arr
        ub *= self.inv2n
        for i, acc in enumerate(slopes):
            # corner 0 enters with a minus sign; corner 1 is high only on the last axis
            if self.sigs[1][i]:
                np.subtract(corners[1], corners[0], out=acc)
            else:
                np.negative(corners[0], out=acc)
                acc -= corners[1]
            for sig, arr in zip(self.sigs[2:], corners[2:]):
                if sig[i]:
                    acc += arr
                else:
                    acc -= arr
            acc *= self.slope_scale[i]

    def scatter(self, g, contrib, k):
        """Add corner ``k``'s per-cell contribution to its nodes in ``g``."""
        slot, rolls = self.scatter_plans[k]
        for j, slots in enumerate(rolls):
            buf = self.scatter_bufs[j % 2]
            _roll(buf, contrib, slots, 0)
            contrib = buf
        g[slot] += contrib


def _roll(dst, src, slots, rise):
    """dst = src rolled by one node along an axis; ``slots`` are the
    (bulk, its source, wrapped slab, its source) slots.  The wrapped slab
    gains ``rise``."""
    bulk, bulk_src, wrapped, wrapped_src = slots
    dst[bulk] = src[bulk_src]
    if rise:
        np.add(src[wrapped_src], rise, out=dst[wrapped])
    else:
        dst[wrapped] = src[wrapped_src]


class _SobolevPreconditioner:
    """P = Q + sigma for ``relax``, built once per call from the axis plans.

    Q is the exact Hessian of the midpoint |p|^2 term,
    Q = 2 sum_i (D_i^T D_i / h_i^2) (x) prod_{j != i} A_j^T A_j, with D the
    node difference and A the two-node average along an axis.  P is
    diagonal in sine modes on the interior nodes of box axes (the pinned
    ends are left out) and in Fourier modes on periodic axes, with symbol
    2 sum_i (4 sin^2(theta_i/2) / h_i^2) prod_{j != i} cos^2(theta_j/2) + sigma.
    A twist is affine, so it does not enter.
    """

    def __init__(self, plans, sigma):
        n = len(plans)
        self.box = [i for i, p in enumerate(plans) if not p.wrap]
        self.periodic = [i for i, p in enumerate(plans) if p.wrap]
        self.sizes = [plans[i].nodes for i in self.periodic]
        #: the nodes ``relax`` moves: all but the end slabs of box axes
        self.interior = tuple(slice(None) if p.wrap else slice(1, -1) for p in plans)
        sin2, cos2 = [], []
        scale = 1.0
        for i, p in enumerate(plans):
            if not p.wrap:
                theta = np.pi * np.arange(1, p.nodes - 1) / (p.nodes - 1)
                # the transform pair below is 2 DST-I twice: 2 (nodes - 1) I
                scale /= 2.0 * (p.nodes - 1)
            elif i == self.periodic[-1]:  # rfftn halves the last axis
                theta = 2.0 * np.pi * np.arange(p.nodes // 2 + 1) / p.nodes
            else:
                theta = 2.0 * np.pi * np.arange(p.nodes) / p.nodes
            shape = [1] * n
            shape[i] = theta.size
            sin2.append(np.sin(0.5 * theta).reshape(shape) ** 2)
            cos2.append(np.cos(0.5 * theta).reshape(shape) ** 2)
        symbol = sigma
        for i, p in enumerate(plans):
            term = 8.0 / p.h**2 * sin2[i]
            for j in range(n):
                if j != i:
                    term = term * cos2[j]
            symbol = symbol + term
        self.inverse = scale / symbol

    def solve(self, g):
        """P^-1 g on the interior nodes (``g`` and the result hold those only)."""
        r = g
        for i in self.box:
            r = _dst1(r, i)
        if self.periodic:
            r = np.fft.rfftn(r, axes=self.periodic)
            r *= self.inverse
            r = np.fft.irfftn(r, s=self.sizes, axes=self.periodic)
        else:
            r = r * self.inverse
        for i in self.box:
            r = _dst1(r, i)
        return r


def _dst1(v, axis):
    """Twice the DST-I of ``v`` along ``axis``: the ``rfft`` of the odd
    extension [0, v, 0, -v[::-1]], of which it is minus the imaginary part."""
    v = np.moveaxis(v, axis, -1)
    m = v.shape[-1]
    ext = np.zeros(v.shape[:-1] + (2 * m + 2,))
    ext[..., 1 : m + 1] = v
    ext[..., m + 2 :] = -v[..., ::-1]
    return np.moveaxis(-np.fft.rfft(ext)[..., 1 : m + 1].imag, -1, axis)


def _cell_centers(u: ScalarField, plans):
    coords = []
    for ax, plan in zip(u.axes, plans):
        c = ax.coords()
        if plan.wrap:
            coords.append(c + 0.5 * plan.h)
        else:
            coords.append(c[plan.start : plan.stop - 1] + 0.5 * plan.h)
    grids = np.meshgrid(*coords, indexing="ij")
    return np.stack(grids, axis=-1)


def _reduced_total(u: ScalarField) -> np.ndarray:
    """Node values with the offset reduced mod 1 (integrands are 1-periodic
    in u, and the reduction makes full-cell energies of vertical translates
    agree bitwise)."""
    off = u.offset - math.floor(u.offset)
    return u.values + float(off) + u.linear_part()


def _reduce_cells(dens, vol, fast):
    if fast:
        return vol * float(np.add.reduce(dens, axis=None))
    # canonical-order reduction: full-cell energies of lattice translates are
    # permutations of the same cell terms and must sum identically
    return vol * float(np.add.reduce(np.sort(dens, axis=None)))


class _CellPass:
    """The midpoint cell pass of an integrand, through its callbacks.

    ``energy`` evaluates the cells at a node array and keeps the cell means
    and slopes; ``gradient`` returns the first variation at the last
    evaluated array.  Work buffers are kept across calls.  The slopes are
    stored axis-first, so ``p[..., i]`` is contiguous; callbacks get a view.
    Callback results are read, never written: the scaled derivatives go
    into buffers of the pass.
    """

    def __init__(self, cells, integrand, x_cells):
        self.cells = cells
        self.integrand = integrand
        self.x_cells = x_cells
        n = len(cells.plans)
        shape = cells.cell_shape
        self.ub = np.empty(shape)
        self.slopes = np.empty((n,) + shape)
        self.p = np.moveaxis(self.slopes, 0, -1)
        #: F_u / 2^n, then F_p along each axis / (2^(n-1) h)
        self.parts = np.empty((n + 1,) + shape)
        self.contrib = np.empty(shape)

    def energy(self, total, fast):
        cells = self.cells
        cells.means_and_slopes(cells.corners(total), self.ub, self.slopes)
        dens = self.integrand.density(self.x_cells, self.ub, self.p)
        # a NaN or inf in any cell, or a sum that overflows, leaves the total
        # non-finite
        energy = _reduce_cells(dens, cells.vol, fast)
        if not math.isfinite(energy):
            raise EnergyDivergedError("non-finite energy value")
        return energy

    def gradient(self):
        cells, integrand, parts, tmp = self.cells, self.integrand, self.parts, self.contrib
        args = (self.x_cells, self.ub, self.p)
        np.multiply(integrand.d_u(*args), cells.inv2n, out=parts[0])
        fp = integrand.d_p(*args)
        for i, scale in enumerate(cells.slope_scale):
            np.multiply(fp[..., i], scale, out=parts[i + 1])
        g = np.zeros(cells.shape)
        for k, sig in enumerate(cells.sigs):
            (np.add if sig[0] else np.subtract)(parts[0], parts[1], out=tmp)
            for bit, part in zip(sig[1:], parts[2:]):
                if bit:
                    tmp += part
                else:
                    tmp -= part
            cells.scatter(g, tmp, k)
        return g


def _kernel(u: ScalarField, integrand, region):
    """The cell pass of ``integrand`` over the region, built once per call."""
    dim = getattr(integrand, "dimension", None)
    if dim is not None and dim != u.n:
        raise GridError(f"integrand dimension {dim} does not match field dimension {u.n}")
    cells = _Cells(u.shape, _plan(u, region))
    x_cells = _cell_centers(u, cells.plans) if integrand.depends_on_x else None
    return _CellPass(cells, integrand, x_cells)


def energy(u: ScalarField, integrand, region=None) -> float:
    """Midpoint-rule energy of the field over the region (default whole cell)."""
    return _kernel(u, integrand, region).energy(_reduced_total(u), False)


def energy_gradient(u: ScalarField, integrand) -> ScalarField:
    """Exact first variation g of the discrete energy: for any compactly
    supported grid perturbation delta, energy(u + s*delta) = energy(u)
    + s <g, delta> h^n + O(s^2)."""
    kernel = _kernel(u, integrand, None)
    kernel.energy(_reduced_total(u), False)
    return ScalarField(u.axes, kernel.gradient(), (0,) * u.n)


def relax(u0: ScalarField, integrand, opts: RelaxOptions = RelaxOptions()) -> RelaxResult:
    """Preconditioned gradient descent toward a critical point of the energy.

    Each trial steps along d = P^-1 g (see :class:`_SobolevPreconditioner`,
    with sigma the integrand's growth constant).  The first trial step is
    ``opts.initial_step``; an accepted step (energy not higher) grows the
    step 1.2x up to 1, a rejected one halves it.  The stop test is the sup
    of the unpreconditioned g against ``gradient_tolerance``.

    Dirichlet behaviour: the end slabs of box axes keep their initial values
    bitwise, and ``clamp`` acts on the other nodes.  The average slope is
    preserved -- updates live entirely in the periodic part.
    Non-convergence is flagged, not raised; a runaway energy raises
    :class:`EnergyDivergedError`.
    """
    kernel = _kernel(u0, integrand, None)
    precond = _SobolevPreconditioner(kernel.cells.plans, float(integrand.growth_constant))
    inner = precond.interior
    lin = u0.linear_part() + float(u0.offset - math.floor(u0.offset))
    if not np.any(lin):
        lin = None

    values = u0.values.copy()

    def energy_at(vals):
        return kernel.energy(vals if lin is None else vals + lin, True)

    def gradient():
        return kernel.gradient()[inner]

    e_cur = energy_at(values)
    g_cur = gradient()
    e_guard = abs(e_cur) * 1e8 + 1e8
    gnorm = float(np.abs(g_cur).max())

    hist_it, hist_e, hist_g, hist_s = [0], [e_cur], [gnorm], [0.0]
    status = "max-iterations"
    step = opts.initial_step
    iterations = 0
    best_e = e_cur
    best_g = gnorm
    last_progress = 0
    if gnorm <= opts.gradient_tolerance:
        status = "converged"
    else:
        d_cur = precond.solve(g_cur)
        while iterations < opts.max_iterations:
            iterations += 1
            cand = values.copy()
            moved = values[inner] - step * d_cur
            if opts.clamp is not None:
                lo, hi = opts.clamp
                if lin is None:
                    np.clip(moved, lo, hi, out=moved)
                else:
                    moved = np.clip(moved + lin[inner], lo, hi) - lin[inner]
            cand[inner] = moved
            e_new = energy_at(cand)
            if e_new > e_guard:
                raise EnergyDivergedError(
                    f"energy diverged at iteration {iterations}: {e_new}"
                )
            if e_new <= e_cur:
                values, e_cur, g_cur = cand, e_new, gradient()
                gnorm = float(np.abs(g_cur).max())
                step = min(step * STEP_GROW, STEP_MAX)
                if e_cur < best_e:
                    best_e = e_cur
                    last_progress = iterations
                if gnorm < 0.999 * best_g:
                    best_g = gnorm
                    last_progress = iterations
                if iterations % opts.log_every == 0:
                    hist_it.append(iterations)
                    hist_e.append(e_cur)
                    hist_g.append(gnorm)
                    hist_s.append(step)
                if gnorm <= opts.gradient_tolerance:
                    status = "converged"
                    break
                d_cur = precond.solve(g_cur)
            else:
                step *= STEP_SHRINK
            if step < _STEP_FLOOR or iterations - last_progress >= _STALL_PATIENCE:
                status = "stalled"
                break

    if not hist_it or hist_it[-1] != iterations:
        hist_it.append(iterations)
        hist_e.append(e_cur)
        hist_g.append(gnorm)
        hist_s.append(step)
    out = ScalarField(u0.axes, values, u0.rises, u0.offset)
    return RelaxResult(
        field=out,
        converged=status == "converged",
        status=status,
        iterations=iterations,
        final_energy=e_cur,
        final_gradient_norm=gnorm,
        history={
            "iteration": np.array(hist_it),
            "energy": np.array(hist_e),
            "grad_norm": np.array(hist_g),
            "step": np.array(hist_s),
        },
    )


# ---------------------------------------------------------------------------
# compactly supported random perturbations


def _mollifier(s2: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s2)
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def _bump(u: ScalarField, center, radii, amplitude, power) -> np.ndarray:
    s2 = np.zeros(u.shape)
    for i, ax in enumerate(u.axes):
        x = ax.coords()
        d = np.abs(x - center[i])
        if isinstance(ax, PeriodicAxis):
            d = np.minimum(d, ax.period - d)
        shape = [1] * u.n
        shape[i] = x.size
        s2 = s2 + (d.reshape(shape) / radii[i]) ** 2
    phi = _mollifier(s2)
    if power != 1:
        phi = phi**power
    return amplitude * phi


def _support_region(u: ScalarField, center, radii):
    region = []
    for i, ax in enumerate(u.axes):
        lo_x = center[i] - radii[i]
        hi_x = center[i] + radii[i]
        if isinstance(ax, PeriodicAxis):
            if hi_x - lo_x + 2 * ax.h >= ax.period or lo_x < 0 or hi_x > ax.period:
                region.append(None)
                continue
        start = max(0, int(np.floor(lo_x * ax.m)) - 1)
        if isinstance(ax, BoxAxis):
            start = max(0, int(np.floor((lo_x - ax.lo) * ax.m)) - 1)
            stop = min(ax.nodes, int(np.ceil((hi_x - ax.lo) * ax.m)) + 2)
        else:
            stop = min(ax.nodes, int(np.ceil(hi_x * ax.m)) + 2)
        if stop - start < 2:
            region.append(None)
        else:
            region.append((start, stop))
    return tuple(region)


def minimality_spot_check(
    u: ScalarField,
    integrand,
    trials: int = SPOT_TRIALS,
    max_radius: float = SPOT_MAX_RADIUS,
    *,
    seed: int,
    amplitude: float = 0.5,
) -> MinimalityReport:
    """Probe local minimality with random compactly supported perturbations.

    Each trial draws a mollifier bump (random center, per-axis radii up to
    ``max_radius``, which must be finite and at least ``SPOT_MIN_RADIUS``;
    random amplitude up to ``amplitude``) and evaluates the
    energy difference on a window containing its support.  On a periodic axis
    a radius at or beyond half the period wraps into a perturbation covering
    the whole period (compactly supported in the remaining axes); on box axes
    the support stays strictly interior so pinned ends are untouched.  PASS
    means every difference is >= -tol with tol = 1e-9 (1 + |local energy|).
    Failures are data, not errors.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(max_radius) and max_radius >= SPOT_MIN_RADIUS):
        raise ValueError(
            f"max_radius must be finite and at least {SPOT_MIN_RADIUS}, got {max_radius}"
        )
    rng = np.random.default_rng(seed)
    worst_delta = np.inf
    worst_trial: dict = {}
    failures = []
    for trial in range(trials):
        radii = []
        center = []
        for ax in u.axes:
            if isinstance(ax, PeriodicAxis):
                r = rng.uniform(SPOT_MIN_RADIUS, max_radius)
                c = rng.uniform(0.0, ax.period)
            else:
                cap = 0.5 * (ax.hi - ax.lo) - 2 * ax.h
                r = min(rng.uniform(SPOT_MIN_RADIUS, max_radius), max(cap, ax.h))
                c = rng.uniform(ax.lo + r + ax.h, ax.hi - r - ax.h)
            radii.append(r)
            center.append(c)
        amp = rng.uniform(0.1 * amplitude, amplitude) * rng.choice([-1.0, 1.0])
        power = int(rng.integers(1, 3))
        phi = _bump(u, center, radii, amp, power)
        region = _support_region(u, center, radii)
        e_base = energy(u, integrand, region)
        e_pert = energy(u.with_values(u.values + phi), integrand, region)
        delta = e_pert - e_base
        tol = 1e-9 * (1.0 + abs(e_base))
        descriptor = {
            "trial": trial,
            "center": [float(c) for c in center],
            "radii": [float(r) for r in radii],
            "amplitude": float(amp),
            "power": power,
            "delta": float(delta),
            "tolerance": float(tol),
        }
        if delta < worst_delta:
            worst_delta = delta
            worst_trial = descriptor
        if delta < -tol:
            failures.append(descriptor)
    return MinimalityReport(
        trials=trials,
        passed=not failures,
        worst_delta=float(worst_delta),
        worst_trial=worst_trial,
        failures=failures,
        seed=seed,
    )
