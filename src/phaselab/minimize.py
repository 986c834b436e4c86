"""Discrete energy, its first variation, relaxation, and minimality spot checks.

The energy is the midpoint-rule quadrature of F(x, u, grad u) with the field
value and gradient reconstructed at cell centers from the corner nodes; the
scheme is second-order consistent.  The gradient returned by
``energy_gradient`` is the exact derivative of that quadrature (divided by
the cell volume), so the pairing <g, delta> h^n reproduces directional
derivatives of ``energy`` to rounding, and the same array serves as the
discrete Euler-Lagrange residual.

Relaxation is preconditioned L-BFGS.  Its start H0 = P^-1 is a Sobolev
gradient: P = Q + sigma is the exact Hessian Q of the scheme's own |p|^2
term shifted by the integrand's curvature bound sigma.  P is diagonal in
sine modes on box axes and real Fourier modes on periodic axes, so it is
applied by a DST along box axes and a dense real Fourier basis along
periodic axes, and from smooth starts the step count does not grow with the
grid.  From rough starts it does: sigma overstates the curvature of
grid-scale modes, and the b = 0 member of the (1, 0) family on
BoxAxis(-10, 10, m) x PeriodicAxis(1, 4) plus
``1e-3 * np.random.default_rng(0).standard_normal`` noise needs 75
iterations at m = 10 and 201 at m = 25 to reach gradient tolerance 3e-7
(the cell-mean preconditioner item of ROADMAP.md would take sigma's share
from the cells instead).  Steps are accepted only when the energy does not
rise; the trial after an accepted step is the unit step, and a rise halves
the step.  Once the stop test passes, one closing unit step along P^-1 g
follows: in the layer tails F_uu = sigma, so there P is the Hessian and the
step puts the tails on their equilibrium.  Energies are compared in
floating point, so the reachable gradient floor scales like
sqrt(eps * |E| / step); an energy drop within a few ulps of |E| counts as no
progress, and the loop detects the resulting stall and stops instead of
spinning.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field import BoxAxis, GridError, PeriodicAxis, ScalarField, _is_integer
from .integrand import _check_seed

STEP_SHRINK = 0.5
#: Largest relax step.  Along P^-1 g, the first and the closing direction,
#: a unit step minimizes a quadratic upper bound of the energy when
#: sigma >= sup |F_uu|; along the L-BFGS direction it is the quasi-Newton
#: step, which may raise the energy and be halved.  Longer steps that still
#: lower the energy can leave interior tail values of a long layer just
#: below 0.
STEP_MAX = 1.0
_STEP_FLOOR = 1e-17
#: iterations without energy or gradient-norm progress before the adaptive
#: loop reports a rounding-level stall
_STALL_PATIENCE = 200
#: an energy drop of at most this many ulps of |E| is rounding, not progress
_ENERGY_ULPS = 4
#: (s, y) pairs that relax's L-BFGS direction keeps.  On seeds 1-20 of the
#: perfbench relax workloads, memory 1 took more iterations on generic2d,
#: and memories 3, 4 and 6 more on layer1d; rigidity2d took 7 at each.
_LBFGS_MEMORY = 2
#: Sampling of ``minimality_spot_check``: the default trial count and
#: largest bump radius, and the largest bump amplitude; every bump radius
#: is at least SPOT_MIN_RADIUS.
SPOT_TRIALS = 50
SPOT_MAX_RADIUS = 2.0
SPOT_AMPLITUDE = 0.5
SPOT_MIN_RADIUS = 0.5
#: Most multiply-adds of one matmul in the preconditioner's Fourier basis.
_MATMUL_SIZE = 2**18
#: Most trials one cell pass of ``minimality_spot_check`` evaluates at once:
#: it bounds the work arrays of the pass to that many windows.
_SPOT_BATCH = 16


class EnergyDivergedError(RuntimeError):
    """Relaxation produced a non-finite or runaway energy."""


@dataclass(frozen=True)
class RelaxOptions:
    max_iterations: int = 200_000
    gradient_tolerance: float = 1e-10
    initial_step: float = 1e-5
    log_every: int = 100

    def __post_init__(self):
        if not (_is_integer(self.max_iterations) and self.max_iterations >= 0):
            raise ValueError(
                f"max_iterations must be an integer >= 0, got {self.max_iterations!r}"
            )
        if not (math.isfinite(self.gradient_tolerance) and self.gradient_tolerance > 0):
            raise ValueError("gradient tolerance must be finite and positive")
        if not (math.isfinite(self.initial_step) and self.initial_step > 0):
            raise ValueError("initial step must be finite and positive")
        if not (_is_integer(self.log_every) and self.log_every >= 1):
            raise ValueError(f"log_every must be an integer >= 1, got {self.log_every!r}")


@dataclass
class RelaxResult:
    field: ScalarField
    converged: bool
    status: str  # "converged" | "max-iterations" | "stalled"
    iterations: int
    final_energy: float
    final_gradient_norm: float
    history: dict
    #: trial steps that raised the energy and were halved; unit steps along
    #: the L-BFGS direction are not majorant steps, so some are rejected
    rejected: int


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


class _SobolevPreconditioner:
    """P = Q + sigma for ``relax``, built once per call from the axis plans.

    Q is the exact Hessian of the midpoint |p|^2 term,
    Q = 2 sum_i (D_i^T D_i / h_i^2) (x) prod_{j != i} A_j^T A_j, with D the
    node difference and A the two-node average along an axis.  P is
    diagonal in sine modes on the interior nodes of box axes (the pinned
    ends are left out) and in real Fourier modes on periodic axes, with symbol
    2 sum_i (4 sin^2(theta_i/2) / h_i^2) prod_{j != i} cos^2(theta_j/2) + sigma.
    A twist is affine, so it does not enter.

    Box axes are transformed by DST-I (:func:`_dst1`), periodic axes by a
    matmul with their dense orthonormal real Fourier basis
    (:func:`_fourier_basis`).  Periodic axes are short in practice (the
    README's has 4 nodes), and there the m x m matmul beats the per-line
    call overhead of an FFT.  Medians of interleaved solves against
    ``rfftn``/``irfftn`` (2-vCPU host, numpy 2.4.6 on OpenBLAS): B1001 x P4
    104 against 144 us, B1001 x P32 1.28 against 1.39 ms, P64^2 44 against
    70 us.  Beyond 64 nodes the matmul's m^2 cost per line overtakes the
    FFT: B1001 x P128 9.1 against 8.2 ms, P128^2 344 against 320 us,
    P256^2 1.95 against 1.27 ms.
    """

    def __init__(self, plans, sigma):
        n = len(plans)
        #: the nodes ``relax`` moves: all but the end slabs of box axes
        self.interior = tuple(slice(None) if p.wrap else slice(1, -1) for p in plans)
        sizes = [p.nodes if p.wrap else p.nodes - 2 for p in plans]
        #: (axis, its DST-I extension buffer) per box axis: the zero slots
        #: stay zero, each transform writes the rest
        self.box = [
            (i, np.zeros(sizes[:i] + [2 * p.nodes - 2] + sizes[i + 1 :]))
            for i, p in enumerate(plans)
            if not p.wrap
        ]
        #: (axis, its Fourier basis) per periodic axis
        self.fourier = []
        sin2, cos2 = [], []
        scale = 1.0
        for i, p in enumerate(plans):
            if p.wrap:
                basis, theta = _fourier_basis(p.nodes)
                self.fourier.append((i, basis))
            else:
                theta = np.pi * np.arange(1, p.nodes - 1) / (p.nodes - 1)
                # the transform pair below is 2 DST-I twice: 2 (nodes - 1) I
                scale /= 2.0 * (p.nodes - 1)
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
        # the matmuls first: on the README grid, B1001 x P4, a solve takes
        # 98 us this way and 104 us with the DSTs first (on B1001 x P32 the
        # DSTs first would win, 1.03 against 1.30 ms)
        r = g
        for i, basis in self.fourier:
            r = _along(r, basis, i)
        for i, ext in self.box:
            r = _dst1(r, i, ext)
        r = r * self.inverse
        for i, basis in self.fourier:
            r = _along(r, basis, i)
        for i, ext in self.box:
            r = _dst1(r, i, ext)
        return r


def _fourier_basis(m):
    """Orthonormal real eigenbasis of the periodic second difference on ``m``
    nodes, one mode per column, and each mode's angle theta: the Hartley
    basis cas(2 pi j k / m) / sqrt(m), cas = cos + sin, whose column k mixes
    the cos and sin modes of frequencies k and m - k.  It is symmetric and
    its own inverse, so it transforms both ways."""
    jk = np.outer(np.arange(m), np.arange(m))
    # sin x = cos(x - pi/2): angles in quarter turns / m, exact integers
    cas = _cos_quarter_turns(4 * jk, m) + _cos_quarter_turns(4 * jk - m, m)
    return cas / math.sqrt(m), 2.0 * np.pi / m * np.arange(m)


def _cos_quarter_turns(a, m):
    """cos(pi a / (2 m)) of integers ``a``, reflected into [0, pi/2] first:
    values equal in exact arithmetic come out equal, and cos(pi/2) is 0.  On
    m = 4 nodes the basis is then exactly +-1/2, and it maps a field constant
    along the axis to exactly the constant mode and back."""
    a = np.abs(a) % (4 * m)
    a = np.minimum(a, 4 * m - a)
    sign = np.where(a > m, -1.0, 1.0)
    a = np.where(a > m, 2 * m - a, a)
    return sign * np.where(a == m, 0.0, np.cos(np.pi / (2 * m) * a))


def _along(v, matrix, axis):
    """``v`` times ``matrix`` along ``axis``: sum_j v[..., j, ...] matrix[j, k].

    The lines go through in blocks of at most _MATMUL_SIZE multiply-adds, but
    never fewer than m lines.  OpenBLAS runs larger matmuls on several
    threads, and with m <= 32 such a call stalled 7 to 15 ms on a 2-vCPU
    host: a solve on B1001 x P32 took 14.6 ms in one matmul per direction,
    2.6 ms by FFT."""
    w = v.swapaxes(axis, -1)
    lines = w.reshape(-1, w.shape[-1])
    out = np.empty(lines.shape)
    step = max(_MATMUL_SIZE // matrix.size, len(matrix))
    for lo in range(0, len(lines), step):
        np.matmul(lines[lo : lo + step], matrix, out=out[lo : lo + step])
    return out.reshape(w.shape).swapaxes(axis, -1)


def _dst1(v, axis, ext):
    """Twice the DST-I of ``v`` along ``axis``: the imaginary part of the
    ``rfft`` of the odd extension [0, -v, 0, v[::-1]], built along ``axis``
    without moving it.  ``ext`` holds the extension: the shape of ``v`` with
    2 m + 2 along ``axis``, and 0 in slots 0 and m + 1, which stay so."""
    m = v.shape[axis]
    at = (slice(None),) * axis
    np.negative(v, out=ext[at + (slice(1, m + 1),)])
    ext[at + (slice(m + 2, None),)] = v[at + (slice(None, None, -1),)]
    return np.fft.rfft(ext, axis=axis)[at + (slice(1, m + 1),)].imag


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
    # canonical-order reduction: cell terms that are permutations of each
    # other sum identically.  Full-cell energies of vertical translates, of
    # any lattice translate on an untwisted grid and of shifts by whole
    # periods are such permutations.  On a twisted axis a shift by less than
    # a period moves the node values against the linear part, which rounds
    # differently, so those energies agree only to a few ulp (up to 4.6e-16
    # relative measured on 16x4 twisted grids)
    if not fast:
        dens = np.sort(dens, axis=None)
    energy = vol * float(np.add.reduce(dens, axis=None))
    # a NaN or inf in any cell, or a sum that overflows, leaves the total
    # non-finite
    if not math.isfinite(energy):
        raise EnergyDivergedError("non-finite energy value")
    return energy


class _CellPass:
    """The midpoint cell pass of an integrand through its callbacks, built
    once per ``energy``, ``energy_gradient`` or ``relax`` call (see
    :func:`_region_pass`) and once per batch of ``minimality_spot_check``
    trials.

    ``plans`` give each axis's cells; ``count`` stacks that many node
    windows along a leading axis, and the pass then evaluates the cells of
    every window in one callback call.  ``densities`` evaluates the cells at
    a node array and keeps the cell means and slopes; ``gradient`` returns
    the first variation at the last evaluated array (unstacked passes
    only).  The cell corners come in lexicographic signature order (bit 0
    for the low node along an axis, 1 for the high one).  Along a box axis
    the corners are slices of the node array.  Along a periodic axis the
    low corner is the array and the high one the array moved back by one
    node, the wrapped slab gaining the rise; a high corner's contribution
    moves forward again before it is added to its nodes.  The slopes are
    stored axis-first, so ``p[..., i]`` is contiguous; callbacks get a view.
    Callback results are read, never written: the scaled derivatives go
    into work buffers of the pass, kept across calls.
    """

    def __init__(self, integrand, plans, x_cells, count=None):
        n = len(plans)
        dim = getattr(integrand, "dimension", None)
        if dim is not None and dim != n:
            raise GridError(f"integrand dimension {dim} does not match field dimension {n}")
        self.plans = plans
        self.integrand = integrand
        self.x_cells = x_cells
        self.shape = tuple(p.nodes for p in plans)
        lead = () if count is None else (count,)
        self.lead = len(lead)
        self.sigs = list(itertools.product((0, 1), repeat=n))
        self.inv2n = 1.0 / 2**n
        self.slope_scale = [1.0 / (2 ** (n - 1) * p.h) for p in plans]
        self.vol = 1.0
        for plan in plans:
            self.vol *= plan.h
        #: per axis, the (low, high) node slots of a box axis; whole on a periodic one
        self.slots = [
            (slice(None),) * 2
            if p.wrap
            else (slice(p.start, p.stop - 1), slice(p.start + 1, p.stop))
            for p in plans
        ]
        #: per signature, the node slot of the corner and the periodic axes
        #: along which it is high
        self.scatter_to = [
            (
                tuple(slots[bit] for slots, bit in zip(self.slots, sig)),
                [i for i, (p, bit) in enumerate(zip(plans, sig)) if bit and p.wrap],
            )
            for sig in self.sigs
        ]
        shape = lead + tuple(p.nodes if p.wrap else p.stop - p.start - 1 for p in plans)
        self.ub = np.empty(shape)
        self.slopes = np.empty((n,) + shape)
        self.p = np.moveaxis(self.slopes, 0, -1)
        if not lead:
            #: F_u / 2^n, then F_p along each axis / (2^(n-1) h)
            self.parts = np.empty((n + 1,) + shape)
            self.contrib = np.empty(shape)

    def corners(self, total):
        corners = [total]
        for i, (plan, (lo, hi)) in enumerate(zip(self.plans, self.slots), start=self.lead):
            if plan.wrap:
                corners = [c for arr in corners for c in (arr, _wrap(arr, i, 1, plan.rise))]
            else:
                at = (slice(None),) * i
                corners = [c for arr in corners for c in (arr[at + (lo,)], arr[at + (hi,)])]
        return corners

    def means_and_slopes(self, corners):
        """Cell means into ``ub`` and per-axis cell slopes into ``slopes``."""
        ub = self.ub
        np.add(corners[0], corners[1], out=ub)
        for arr in corners[2:]:
            ub += arr
        ub *= self.inv2n
        for i, acc in enumerate(self.slopes):
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

    def densities(self, total):
        self.means_and_slopes(self.corners(total))
        return self.integrand.density(self.x_cells, self.ub, self.p)

    def energy(self, total, fast):
        return _reduce_cells(self.densities(total), self.vol, fast)

    def gradient(self):
        integrand, parts, tmp = self.integrand, self.parts, self.contrib
        args = (self.x_cells, self.ub, self.p)
        np.multiply(integrand.d_u(*args), self.inv2n, out=parts[0])
        fp = integrand.d_p(*args)
        for i, scale in enumerate(self.slope_scale):
            np.multiply(fp[..., i], scale, out=parts[i + 1])
        g = np.zeros(self.shape)
        for sig, (slot, high) in zip(self.sigs, self.scatter_to):
            (np.add if sig[0] else np.subtract)(parts[0], parts[1], out=tmp)
            for bit, part in zip(sig[1:], parts[2:]):
                if bit:
                    tmp += part
                else:
                    tmp -= part
            contrib = tmp
            for i in high:
                contrib = _wrap(contrib, i, -1, 0)
            g[slot] += contrib
        return g


def _wrap(arr, axis, k, rise):
    """``arr`` rolled back by ``k`` nodes along ``axis`` (forward for k < 0):
    arr[k:] followed by the wrapped part arr[:k] plus ``rise``.

    In a C-contiguous array the roll is one copy of the flattened array
    shifted by k slabs; then only the |k| slabs that crossed into the next
    line are rewritten.  These are the copies and additions of concatenating
    the two parts, so the result is bitwise theirs, at about half the cost of
    ``np.concatenate`` on 1001 x 4 nodes."""
    arr = np.ascontiguousarray(arr)
    out = np.empty_like(arr)
    flat, src = out.reshape(-1), arr.reshape(-1)
    shift = k * math.prod(arr.shape[axis + 1 :])
    at = (slice(None),) * axis
    if k > 0:
        flat[: src.size - shift] = src[shift:]
        out[at + (slice(-k, None),)] = arr[at + (slice(None, k),)]
    else:
        flat[-shift:] = src[: src.size + shift]
        out[at + (slice(None, -k),)] = arr[at + (slice(k, None),)]
    if rise:
        # the slabs of arr[:k], for either sign of k
        out[at + (slice(-k, None),)] += rise
    return out


def _region_pass(u: ScalarField, integrand, region) -> _CellPass:
    """The cell pass over ``region`` (per-axis node ranges or None) of ``u``'s grid."""
    plans = _plan(u, region)
    x_cells = _cell_centers(u, plans) if integrand.depends_on_x else None
    return _CellPass(integrand, plans, x_cells)


def energy(u: ScalarField, integrand, region=None) -> float:
    """Midpoint-rule energy of the field over the region (default whole cell)."""
    return _region_pass(u, integrand, region).energy(_reduced_total(u), False)


def energy_gradient(u: ScalarField, integrand) -> ScalarField:
    """Exact first variation g of the discrete energy: for any compactly
    supported grid perturbation delta, energy(u + s*delta) = energy(u)
    + s <g, delta> h^n + O(s^2).  This is the discrete Euler-Lagrange
    residual -div(F_p) + F_u; for the Allen-Cahn integrand its node values
    equal -2 lap(u) + 2 (u - 3u^2 + 2u^3) up to O(h^2)."""
    kernel = _region_pass(u, integrand, None)
    kernel.energy(_reduced_total(u), False)
    return ScalarField(u.axes, kernel.gradient(), (0,) * u.n)


def _lbfgs_direction(g, pairs, precond):
    """The L-BFGS two-loop product H g, with H the inverse Hessian estimate
    built from the (s, y, 1 / s.y) ``pairs``, oldest first, on H0 = P^-1."""
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(np.vdot(s, g))
        g = g - alpha * y
        alphas.append(alpha)
    r = precond.solve(g)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * float(np.vdot(y, r))) * s
    return r


def relax(u0: ScalarField, integrand, opts: RelaxOptions = RelaxOptions()) -> RelaxResult:
    """Preconditioned L-BFGS toward a critical point of the energy.

    Each trial steps along the L-BFGS direction d = H g (see
    :func:`_lbfgs_direction`), with H0 = P^-1 (see
    :class:`_SobolevPreconditioner`, with sigma the integrand's growth
    constant) and the last ``_LBFGS_MEMORY`` pairs (s, y) of accepted steps
    that lowered the energy beyond rounding and have s.y > 0.  The first
    trial step is ``opts.initial_step``; after an accepted step (energy not
    higher) the next trial is ``STEP_MAX``, and a rejected one halves the
    step.  The stop test is the sup of the unpreconditioned g against
    ``gradient_tolerance``.  When it passes, one closing trial steps along
    plain P^-1 g from the unit step, halved like any other; it counts as an
    iteration and is always logged, and the run converges if its gradient
    passes the stop test again, else the loop resumes.  A run that ends with
    that trial still pending (budget or stall) reports ``converged``: its
    field passes the stop test.

    Dirichlet behaviour: the end slabs of box axes keep their initial values
    bitwise.  The average slope is preserved -- updates live entirely in the
    periodic part.
    Non-convergence is flagged, not raised; a runaway energy raises
    :class:`EnergyDivergedError`.
    """
    kernel = _region_pass(u0, integrand, None)
    precond = _SobolevPreconditioner(kernel.plans, float(integrand.growth_constant))
    inner = precond.interior
    lin = u0.linear_part() + float(u0.offset - math.floor(u0.offset))
    # x + 0.0 == x for every value the pass reads, so an all-zero lin (no
    # rise, a whole offset) is not added
    shifted = lin.any()
    values = u0.values.copy()
    e_cur = kernel.energy(values + lin if shifted else values, True)
    g_cur = kernel.gradient()[inner]
    e_guard = abs(e_cur) * 1e8 + 1e8
    gnorm = float(np.abs(g_cur).max())

    history = [(0, e_cur, gnorm, 0.0)]
    status = "max-iterations"
    step = opts.initial_step
    iterations = rejected = 0
    best_g = gnorm
    last_progress = 0
    pairs = collections.deque(maxlen=_LBFGS_MEMORY)
    closing = False
    if gnorm > opts.gradient_tolerance:
        d_cur = precond.solve(g_cur)
        while iterations < opts.max_iterations:
            iterations += 1
            cand = values.copy()
            cand[inner] -= d_cur if step == 1.0 else step * d_cur
            e_new = kernel.energy(cand + lin if shifted else cand, True)
            if e_new > e_guard:
                raise EnergyDivergedError(
                    f"energy diverged at iteration {iterations} (step {step:g}): {e_new}"
                )
            if e_new <= e_cur:
                g_new = kernel.gradient()[inner]
                # a drop within the energy's rounding is no progress, and
                # its (s, y) pair is rounding noise
                if e_new < e_cur - _ENERGY_ULPS * math.ulp(e_cur):
                    last_progress = iterations
                    s, y = cand[inner] - values[inner], g_new - g_cur
                    sy = float(np.vdot(s, y))
                    if sy > 0.0:
                        pairs.append((s, y, 1.0 / sy))
                values, e_cur, g_cur = cand, e_new, g_new
                gnorm = float(np.abs(g_cur).max())
                step = STEP_MAX
                if gnorm < 0.999 * best_g:
                    best_g = gnorm
                    last_progress = iterations
                if closing or iterations % opts.log_every == 0:
                    history.append((iterations, e_cur, gnorm, step))
                if gnorm > opts.gradient_tolerance:
                    closing = False
                    d_cur = _lbfgs_direction(g_cur, pairs, precond)
                elif closing:
                    break
                else:
                    # the closing trial, along P^-1 g: P is the tails' Hessian
                    closing = True
                    d_cur = precond.solve(g_cur)
            else:
                step *= STEP_SHRINK
                rejected += 1
            if step < _STEP_FLOOR or iterations - last_progress >= _STALL_PATIENCE:
                status = "stalled"
                break
    if gnorm <= opts.gradient_tolerance:
        status = "converged"

    if history[-1][0] != iterations:
        history.append((iterations, e_cur, gnorm, step))
    return RelaxResult(
        field=ScalarField(u0.axes, values, u0.rises, u0.offset),
        converged=status == "converged",
        status=status,
        iterations=iterations,
        final_energy=e_cur,
        final_gradient_norm=gnorm,
        history={
            name: np.array(column)
            for name, column in zip(("iteration", "energy", "grad_norm", "step"), zip(*history))
        },
        rejected=rejected,
    )


# ---------------------------------------------------------------------------
# compactly supported random perturbations


def _mollifier(s2: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s2)
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def _mollified(u: ScalarField, coords, center, radii) -> np.ndarray:
    """The mollifier of the scaled distance to ``center`` at node coordinates:
    ``coords[i]`` along axis i, broadcast against the other axes' and against
    ``center[i]`` and ``radii[i]`` (which may carry a leading trial axis)."""
    s2 = 0.0
    for ax, x, c, r in zip(u.axes, coords, center, radii):
        d = np.abs(x - c)
        if isinstance(ax, PeriodicAxis):
            d = np.minimum(d, ax.period - d)
        s2 = s2 + (d / r) ** 2
    return _mollifier(s2)


def _bump(u: ScalarField, center, radii, amplitude, power) -> np.ndarray:
    """The bump at the nodes of ``u``'s grid."""
    coords = []
    for i, ax in enumerate(u.axes):
        x = ax.coords()
        shape = [1] * u.n
        shape[i] = x.size
        coords.append(x.reshape(shape))
    phi = _mollified(u, coords, center, radii)
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
        lo = ax.lo if isinstance(ax, BoxAxis) else 0
        start = max(0, int(np.floor((lo_x - lo) * ax.m)) - 1)
        stop = min(ax.nodes, int(np.ceil((hi_x - lo) * ax.m)) + 2)
        if stop - start < 2:
            region.append(None)
        else:
            region.append((start, stop))
    return tuple(region)


def _check_spot_args(trials=SPOT_TRIALS, max_radius=SPOT_MAX_RADIUS):
    """Reject ``minimality_spot_check`` arguments before any work is done."""
    if not (_is_integer(trials) and trials >= 1):
        raise ValueError(f"need at least one trial: an integer count, got {trials!r}")
    if not (math.isfinite(max_radius) and max_radius >= SPOT_MIN_RADIUS):
        raise ValueError(
            f"max_radius must be finite and at least {SPOT_MIN_RADIUS}, got {max_radius}"
        )


def _draw_trial(u: ScalarField, rng, max_radius):
    """One trial's bump: center, radii, signed amplitude and power."""
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
    # the stream of rng.choice([-1.0, 1.0]), at a fraction of its cost
    amp = rng.uniform(0.1 * SPOT_AMPLITUDE, SPOT_AMPLITUDE) * (-1.0, 1.0)[rng.integers(0, 2)]
    return center, radii, amp, int(rng.integers(1, 3))


def _spot_energies(u: ScalarField, integrand, off, lin, total, draws, plans):
    """Per trial, the base and perturbed window energies of trials whose
    windows wrap along the same axes, from one cell pass over their stacked
    node windows.  A window that does not wrap along an axis is padded to
    the widest with its own last node (its cell centers with its last
    cell's), and each trial sorts and sums exactly its own cells: with
    pointwise callbacks, the energies are bitwise the region :func:`energy`
    calls."""
    count = len(draws)
    index, x_axes, window = [], [], []
    for i, (ax, plan) in enumerate(zip(u.axes, plans[0])):
        if plan.wrap:
            idx = np.arange(ax.nodes)[None]
        else:
            start, stop = np.array([(p[i].start, p[i].stop) for p in plans]).T[..., None]
            width = int((stop - start).max())
            idx = np.minimum(start + np.arange(width), stop - 1)
            plan = _AxisPlan(False, 0, width, ax.h, plan.rise, width)
        window.append(plan)
        shape = [1] * (u.n + 1)
        shape[0], shape[i + 1] = idx.shape
        index.append(idx.reshape(shape))
        if integrand.depends_on_x:
            cell = idx if plan.wrap else np.minimum(idx[:, :-1], stop - 2)
            shape[0], shape[i + 1] = cell.shape
            x_axes.append((ax.coords()[cell] + 0.5 * ax.h).reshape(shape))
    x_cells = None
    if x_axes:
        shape = (count,) + tuple(x.shape[i + 1] for i, x in enumerate(x_axes))
        x_cells = np.stack([np.broadcast_to(x, shape) for x in x_axes], axis=-1)
    kernel = _CellPass(integrand, window, x_cells, count)
    nodes = tuple(index)
    lead = (count,) + (1,) * u.n
    center, radii, amp, power = (np.array(column) for column in zip(*draws))
    phi = _mollified(
        u,
        [ax.coords()[idx] for ax, idx in zip(u.axes, index)],
        center.T.reshape((u.n,) + lead),
        radii.T.reshape((u.n,) + lead),
    )
    phi[power == 2] **= 2
    # (values + amp phi) + off + lin, as one trial builds it, in place
    phi *= amp.reshape(lead)
    pert = np.add(u.values[nodes], phi, out=phi)
    pert += off
    pert += lin[nodes]
    cells = [
        (t, tuple(slice(None if p.wrap else p.stop - p.start - 1) for p in plan))
        for t, plan in enumerate(plans)
    ]
    energies = []
    for stack in (total[nodes], pert):
        dens = kernel.densities(stack)
        energies.append([_reduce_cells(dens[t][own], kernel.vol, False) for t, own in cells])
    return list(zip(*energies))


def minimality_spot_check(
    u: ScalarField,
    integrand,
    trials: int = SPOT_TRIALS,
    max_radius: float = SPOT_MAX_RADIUS,
    *,
    seed: int,
) -> MinimalityReport:
    """Probe local minimality with random compactly supported perturbations.

    Each trial draws a mollifier bump (random center, per-axis radii up to
    ``max_radius``, which must be finite and at least ``SPOT_MIN_RADIUS``;
    random sign, and an amplitude between a tenth of ``SPOT_AMPLITUDE`` and
    all of it) and evaluates the energy difference on a window containing
    its support.
    All trials are drawn first; then up to ``_SPOT_BATCH`` trials whose
    windows wrap alike share one cell pass over their stacked windows, and
    each energy is bitwise the region :func:`energy` call on ``u`` or
    ``u + phi``.  On a periodic axis a radius at or beyond half the period
    wraps into a perturbation covering the whole period (compactly supported
    in the remaining axes); on box axes the support stays strictly interior
    so pinned ends are untouched.  PASS means every difference is >= -tol
    with tol = 1e-9 (1 + |local energy|).  Failures are data, not errors.
    """
    _check_spot_args(trials, max_radius)
    _check_seed(seed)
    off = float(u.offset - math.floor(u.offset))
    lin = u.linear_part()
    total = u.values + off + lin
    rng = np.random.default_rng(seed)
    draws = [_draw_trial(u, rng, max_radius) for _ in range(trials)]
    plans = [_plan(u, _support_region(u, center, radii)) for center, radii, _, _ in draws]
    groups = {}
    for trial, plan in enumerate(plans):
        groups.setdefault(tuple(p.wrap for p in plan), []).append(trial)
    energies = [None] * trials
    for group in groups.values():
        for lo in range(0, len(group), _SPOT_BATCH):
            batch = group[lo : lo + _SPOT_BATCH]
            pairs = _spot_energies(
                u, integrand, off, lin, total, [draws[t] for t in batch], [plans[t] for t in batch]
            )
            for trial, pair in zip(batch, pairs):
                energies[trial] = pair
    worst_delta = np.inf
    worst_trial: dict = {}
    failures = []
    for trial, ((center, radii, amp, power), (e_base, e_pert)) in enumerate(zip(draws, energies)):
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
        trials=int(trials),
        passed=not failures,
        worst_delta=float(worst_delta),
        worst_trial=worst_trial,
        failures=failures,
        seed=int(seed),
    )
