"""Variational densities F(x, u, p): the double well and growth checks.

Built-in integrands are unit-periodic in x and u.  The double well is
evaluated through the reduction w = u - round(u), which equals W over one
period, extends it with exact floating-point periodicity under integer
shifts of representable inputs, and avoids the cancellation of computing the
fractional part near integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Central second-difference step for Hessian probes: balances truncation and
#: roundoff for C^2 densities.  ``check_growth`` probes each block of
#: samples on a 13-point stencil in (p along xi, u, x along eta), one
#: density call per point: the centre, the six axis points and the (+, +)
#: and (-, -) diagonal of each pair of axes.  Its mixed differences,
#: like the axis ones, are O(d^2) accurate; their rounding is about
#: 8 eps |F| / (2 d^2), some 1e-7 at this step, four times that of the
#: 4-point cross they replace and far below GROWTH_TOL.
HESSIAN_PROBE_STEP = 1e-4
#: ``check_growth`` draws x and u uniformly from [-range, range] and allows
#: GROWTH_TOL of slack on the sampled second-difference quotients.
GROWTH_X_RANGE = 2.0
GROWTH_U_RANGE = 2.0
GROWTH_TOL = 1e-3
#: Most samples ``check_growth`` probes at once, which bounds its work
#: arrays.  Two checks of the benchmark's 2-D density on 20,000 samples took
#: 24.4 ms in one block, and 20.2, 19.5, 20.8 and 22.0 ms in blocks of 2,048,
#: 4,096, 8,192 and 12,288 samples (medians of 40 alternating runs, 2-core
#: x86-64 host with 2 MiB of L2 per core); on 200,000 samples 4,096 and
#: 8,192 tied at 215 ms against 337 ms in one block.
_GROWTH_BLOCK = 4096


class IntegrandEvaluationError(RuntimeError):
    """Non-finite density value; carries the offending sample point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


def _well_offset(arr):
    """w = u - rint(u) in a new array of at least one dimension."""
    w = np.rint(np.atleast_1d(arr))
    np.subtract(arr, w, out=w)
    return w


def eval_double_well(u):
    """Periodic double well: W(frac(u)) with W(v) = v^2 (1 - v)^2.

    Vanishes exactly at every integer, peaks at 1/16 on the half-integers,
    and satisfies W(u) = W(1 - u).  Evaluated as q * q with
    q = w (1 - |w|), the order the cell pass relies on.
    """
    arr = np.asarray(u, dtype=float)
    w = _well_offset(arr)
    q = np.abs(w)
    np.subtract(1.0, q, out=q)
    q *= w
    q *= q
    return float(q[0]) if arr.ndim == 0 else q


def double_well_derivative(u):
    """d/du of the periodic double well (continuous, 1-periodic), evaluated
    as 2 (w t) (t - |w|) with t = 1 - |w|."""
    arr = np.asarray(u, dtype=float)
    w = _well_offset(arr)
    aw = np.abs(w)
    t = np.subtract(1.0, aw)
    np.subtract(t, aw, out=aw)
    w *= t
    w *= aw
    w *= 2.0
    return float(w[0]) if arr.ndim == 0 else w


def allen_cahn_density(u, p):
    """|p|^2 + W(u) with the periodic double well: W first, then p_i^2 for
    each axis in order."""
    p = np.asarray(p, dtype=float)
    dens = eval_double_well(u) + p[..., 0] * p[..., 0]
    for i in range(1, p.shape[-1]):
        dens += p[..., i] * p[..., i]
    return dens


@dataclass(frozen=True)
class Integrand:
    """Variational density with first derivatives and growth constant.

    ``density``, ``d_u`` and ``d_p`` are vectorized callables of
    ``(x, u, p)`` where ``x`` has shape ``(..., n)`` (or is None when
    ``depends_on_x`` is false), ``u`` has shape ``(...,)`` and ``p`` has
    shape ``(..., n)``.  They are expected to be unit-periodic in x and u.
    Evaluation is pure and reentrant, and pointwise: the value at a cell
    depends only on that cell's own ``(x, u, p)``, not on other cells or on
    the shape of the arrays, so one call over the cells of several windows
    (as ``minimality_spot_check`` makes) gives each cell the bits of a call
    over its window alone.  Likewise ``check_growth`` calls the density once
    per stencil point and block of samples, and this contract is what makes
    its report bitwise that of one call over all samples.  The ``u`` and
    ``p`` passed in are work buffers of the cell pass, valid only during the
    call: copy what must outlive it.  ``dimension`` is an integer >= 1.
    """

    name: str
    dimension: int
    density: Callable
    d_u: Callable
    d_p: Callable
    growth_constant: float = 1.0
    depends_on_x: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.growth_constant) and self.growth_constant >= 1.0):
            raise ValueError("growth constant must be finite and >= 1")
        if not (_is_integer(self.dimension) and self.dimension >= 1):
            raise ValueError(f"dimension must be an integer >= 1, got {self.dimension!r}")


def _ac_density(x, u, p):
    return allen_cahn_density(u, p)


def _ac_d_u(x, u, p):
    return double_well_derivative(u)


def _ac_d_p(x, u, p):
    return 2.0 * np.asarray(p, dtype=float)


def allen_cahn(dimension: int) -> Integrand:
    """The built-in |p|^2 + W(u).  ``minimize`` evaluates it through these
    callbacks like any other integrand; its callbacks are module functions,
    so two instances of one dimension compare equal."""
    return Integrand(
        name="allen-cahn",
        dimension=dimension,
        density=_ac_density,
        d_u=_ac_d_u,
        d_p=_ac_d_p,
        growth_constant=2.0,
        depends_on_x=False,
    )


#: Integrands addressable by name from the batch front end.  User-defined
#: densities enter through the library API only.
REGISTRY = {"allen-cahn": allen_cahn}


def get_integrand(name: str, dimension: int) -> Integrand:
    """The registered integrand ``name`` in ``dimension`` space dimensions;
    an unknown name raises ``ValueError``, which lists the available ones."""
    if name not in REGISTRY:
        raise ValueError(f"unknown integrand {name!r}; available: {sorted(REGISTRY)}")
    return REGISTRY[name](dimension)


@dataclass
class GrowthReport:
    """Sampled ellipticity and derivative-growth measurements."""

    samples: int
    seed: int
    rayleigh_min: float
    rayleigh_max: float
    rayleigh_bounds: tuple[float, float]
    first_order_max: float   # sup (|F_pu| + |F_px|) / (1 + |p|), directional
    second_order_max: float  # sup (|F_uu| + |F_ux| + |F_xx|) / (1 + |p|^2)
    violations: list
    passed: bool


def _sample_density(integrand, x, u, p):
    val = np.asarray(integrand.density(x, u, p), dtype=float)
    if not np.all(np.isfinite(val)):
        bad = int(np.argmin(np.isfinite(val).ravel()))
        point = {
            "x": None if x is None else np.asarray(x).reshape(-1, np.asarray(x).shape[-1])[bad].tolist(),
            "u": float(np.asarray(u).ravel()[bad]),
            "p": np.asarray(p).reshape(-1, np.asarray(p).shape[-1])[bad].tolist(),
        }
        raise IntegrandEvaluationError("non-finite density value", point=point)
    return val


def _row_norms(a):
    """``np.linalg.norm(a, axis=1)`` of a column-major samples x n array,
    bitwise: the squared columns summed in order, then the root.  numpy's
    reduction along such a short axis (see ``field.SHORT_AXIS``) took 183
    against 44 us on 20,000 x 2 samples."""
    total = a[:, 0] * a[:, 0]
    for k in range(1, a.shape[1]):
        total += a[:, k] * a[:, k]
    return np.sqrt(total)


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool: a
    count, a seed or a dimension is never a float, never True."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed):
    """Reject a seed of a sampled check before any draw: None would draw
    from OS entropy, so that the run could not be repeated."""
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def _probe(integrand, x, u, p, dxi, eta):
    """The Rayleigh quotients, first- and second-order growth ratios of one
    block of samples, from the 13-point stencil (7 points when the density
    ignores x): ``dxi`` and ``eta`` are the p and x moves, already scaled by
    the step."""
    d = HESSIAN_PROBE_STEP
    xs = integrand.depends_on_x
    X, U, P = 0, 1, 2
    coords = (x, u, p)
    moves = (eta, d, dxi)

    def f(*steps):
        """The density with coordinate k moved one step up (sign > 0) or down,
        for each (k, sign) in ``steps``."""
        pt = list(coords)
        for k, sign in steps:
            pt[k] = (np.add if sign > 0 else np.subtract)(coords[k], moves[k])
        return _sample_density(integrand, pt[X] if xs else None, pt[U], pt[P])

    def axis(k):
        """Second difference along coordinate k, and the sum of its two points
        for the mixed differences."""
        plus, minus = f((k, 1)), f((k, -1))
        return (plus - 2.0 * base + minus) / (d * d), plus + minus

    def mixed(a, b, sum_a, sum_b):
        """Mixed difference along coordinates a and b from the diagonal pair:
        (g(++) + g(--) - g(a+) - g(a-) - g(b+) - g(b-) + 2 g(0)) / (2 d^2)."""
        diagonal = f((a, 1), (b, 1)) + f((a, -1), (b, -1))
        return (diagonal - sum_a - sum_b + 2.0 * base) / (2.0 * d * d)

    # x comes second in each pair: for a density that ignores x the diagonal
    # sum is then bitwise the other axis sum, and its mixed differences are
    # exactly 0, as in the x-free branch
    pnorm = _row_norms(p)
    base = f()
    ray, sum_p = axis(P)
    second, sum_u = axis(U)
    np.abs(second, out=second)
    if xs:
        f_xx, sum_x = axis(X)
        second += np.abs(f_xx)
        second += np.abs(mixed(U, X, sum_u, sum_x))
    second /= 1.0 + pnorm * pnorm
    first = np.abs(mixed(P, U, sum_p, sum_u))
    if xs:
        first += np.abs(mixed(P, X, sum_p, sum_x))
    first /= 1.0 + pnorm
    return ray, first, second


def check_growth(
    integrand: Integrand,
    sample_count: int,
    seed: int,
    p_range: float = 3.0,
) -> GrowthReport:
    """Statistical check of ellipticity and derivative growth.

    Draws random (x, u, p) samples and unit directions xi (in p) and eta
    (in x), probes second differences of the density with step
    :data:`HESSIAN_PROBE_STEP`, and flags Rayleigh quotients of the
    p-Hessian leaving [1/c - GROWTH_TOL, c + GROWTH_TOL] as well as
    derivative-growth ratios exceeding the growth constant.  The check is
    sampled, not symbolic: the integrand is an opaque callback.  ``seed``
    is an integer >= 0, so that every check can be repeated.

    The probe is one 13-point stencil over (p along xi, u, x along eta), each
    point evaluated once: the centre g(0), the six axis points and the
    diagonal pair (+, +), (-, -) of each pair of axes.  The axis points give
    the Rayleigh quotient, F_uu and F_xx as central second differences; each
    mixed term F_pu, F_px, F_ux is
    (g(++) + g(--) - g(a+) - g(a-) - g(b+) - g(b-) + 2 g(0)) / (2 d^2).
    That is 13 density calls per block of samples, or 7 when
    ``depends_on_x`` is false: such a density is never probed along eta, and
    its F_px, F_ux and F_xx are exactly 0.

    All samples are drawn first; then consecutive blocks of at most
    ``_GROWTH_BLOCK`` samples are probed in turn, so that the work arrays
    stay block-sized and in cache.  A pointwise
    density gives every sample the bits of one call over all samples, so
    the report does not depend on the block size.  When a density is
    non-finite at several samples, the one named by the
    :class:`IntegrandEvaluationError` is the first within the first block
    that has one, which need not be that of an unblocked probe.
    """
    if not (_is_integer(sample_count) and sample_count >= 1):
        raise ValueError(f"need at least one sample: an integer count, got {sample_count!r}")
    _check_seed(seed)
    if not (np.isfinite(p_range) and p_range >= 0):
        raise ValueError(f"p range must be finite and >= 0, got {p_range}")
    rng = np.random.default_rng(seed)
    n = integrand.dimension
    S = int(sample_count)
    x = rng.uniform(-GROWTH_X_RANGE, GROWTH_X_RANGE, size=(S, n))
    u = rng.uniform(-GROWTH_U_RANGE, GROWTH_U_RANGE, size=S)
    p = rng.uniform(-p_range, p_range, size=(S, n))
    xi = rng.normal(size=(S, n))
    eta = rng.normal(size=(S, n))
    c = integrand.growth_constant
    lo, hi = 1.0 / c - GROWTH_TOL, c + GROWTH_TOL
    kinds = ("rayleigh", "first-order-growth", "second-order-growth")
    flagged = {kind: [] for kind in kinds}
    # per block: the Rayleigh minimum and maximum, and the two growth maxima
    extremes = []
    for start in range(0, S, _GROWTH_BLOCK):
        rows = slice(start, start + _GROWTH_BLOCK)
        # the callbacks see column-major samples, as the cell pass hands them p
        xb, pb, xib, etab = (np.asfortranarray(a[rows]) for a in (x, p, xi, eta))
        ub = u[rows]
        xib /= _row_norms(xib)[:, None]
        etab /= _row_norms(etab)[:, None]
        etab *= HESSIAN_PROBE_STEP
        ray, first, second = _probe(integrand, xb, ub, pb, HESSIAN_PROBE_STEP * xib, etab)
        extremes.append((ray.min(), ray.max(), first.max(), second.max()))
        for kind, arr, bad in zip(
            kinds, (ray, first, second), ((ray < lo) | (ray > hi), first > hi, second > hi)
        ):
            kept = flagged[kind]
            for i in np.flatnonzero(bad)[: 20 - len(kept)]:
                entry = {"kind": kind, "value": float(arr[i]), "x": xb[i].tolist(),
                         "u": float(ub[i]), "p": pb[i].tolist()}
                if kind == "rayleigh":
                    entry["direction"] = xib[i].tolist()
                kept.append(entry)
    # np.min and np.max propagate a NaN of any block, as one reduction over
    # all samples would
    ray_min, ray_max, first_max, second_max = np.array(extremes).T
    violations = [v for kind in kinds for v in flagged[kind]]
    return GrowthReport(
        samples=S,
        seed=int(seed),
        rayleigh_min=float(ray_min.min()),
        rayleigh_max=float(ray_max.max()),
        rayleigh_bounds=(lo, hi),
        first_order_max=float(first_max.max()),
        second_order_max=float(second_max.max()),
        violations=violations,
        passed=not violations,
    )
