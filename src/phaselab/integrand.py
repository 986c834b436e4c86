"""Variational densities F(x, u, p): the double well, growth checks, residuals.

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

from .field import GridError, ScalarField

#: Central second-difference step for Hessian probes: balances truncation and
#: roundoff for C^2 densities.
HESSIAN_PROBE_STEP = 1e-4
#: ``check_growth`` draws x and u uniformly from [-range, range] and allows
#: GROWTH_TOL of slack on the sampled second-difference quotients.
GROWTH_X_RANGE = 2.0
GROWTH_U_RANGE = 2.0
GROWTH_TOL = 1e-3


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
    Evaluation is pure and reentrant.  The ``u`` and ``p`` passed in are
    work buffers of the cell pass, valid only during the call: copy what
    must outlive it.
    """

    name: str
    dimension: int
    density: Callable
    d_u: Callable
    d_p: Callable
    growth_constant: float = 1.0
    depends_on_x: bool = True

    def __post_init__(self):
        if self.growth_constant < 1.0:
            raise ValueError("growth constant must be >= 1")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")


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
    try:
        factory = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown integrand {name!r}; available: {sorted(REGISTRY)}"
        ) from None
    return factory(dimension)


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


def check_growth(
    integrand: Integrand,
    sample_count: int,
    seed: int,
    p_range: float = 3.0,
) -> GrowthReport:
    """Statistical check of ellipticity and derivative growth.

    Draws random (x, u, p) samples and unit directions, probes second
    differences of the density with step :data:`HESSIAN_PROBE_STEP`, and
    flags Rayleigh quotients of the p-Hessian leaving
    [1/c - GROWTH_TOL, c + GROWTH_TOL] as well as mixed-derivative ratios
    exceeding the growth constant.  The check is sampled, not symbolic: the
    integrand is an opaque callback.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    n = integrand.dimension
    S = sample_count
    x = rng.uniform(-GROWTH_X_RANGE, GROWTH_X_RANGE, size=(S, n))
    u = rng.uniform(-GROWTH_U_RANGE, GROWTH_U_RANGE, size=S)
    p = rng.uniform(-p_range, p_range, size=(S, n))
    xi = rng.normal(size=(S, n))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    eta = rng.normal(size=(S, n))
    eta /= np.linalg.norm(eta, axis=1, keepdims=True)
    d = HESSIAN_PROBE_STEP

    def f(xx, uu, pp):
        return _sample_density(integrand, xx if integrand.depends_on_x else None, uu, pp)

    base = f(x, u, p)
    ray = (f(x, u, p + d * xi) - 2.0 * base + f(x, u, p - d * xi)) / (d * d)

    f_pu = (
        f(x, u + d, p + d * xi) - f(x, u + d, p - d * xi)
        - f(x, u - d, p + d * xi) + f(x, u - d, p - d * xi)
    ) / (4.0 * d * d)
    f_px = (
        f(x + d * eta, u, p + d * xi) - f(x + d * eta, u, p - d * xi)
        - f(x - d * eta, u, p + d * xi) + f(x - d * eta, u, p - d * xi)
    ) / (4.0 * d * d)
    f_uu = (f(x, u + d, p) - 2.0 * base + f(x, u - d, p)) / (d * d)
    f_ux = (
        f(x + d * eta, u + d, p) - f(x + d * eta, u - d, p)
        - f(x - d * eta, u + d, p) + f(x - d * eta, u - d, p)
    ) / (4.0 * d * d)
    f_xx = (f(x + d * eta, u, p) - 2.0 * base + f(x - d * eta, u, p)) / (d * d)

    pnorm = np.linalg.norm(p, axis=1)
    first = (np.abs(f_pu) + np.abs(f_px)) / (1.0 + pnorm)
    second = (np.abs(f_uu) + np.abs(f_ux) + np.abs(f_xx)) / (1.0 + pnorm * pnorm)

    c = integrand.growth_constant
    lo, hi = 1.0 / c - GROWTH_TOL, c + GROWTH_TOL
    violations = []
    bad_ray = np.flatnonzero((ray < lo) | (ray > hi))
    for idx in bad_ray[:20]:
        violations.append(
            {
                "kind": "rayleigh",
                "value": float(ray[idx]),
                "x": x[idx].tolist(),
                "u": float(u[idx]),
                "p": p[idx].tolist(),
                "direction": xi[idx].tolist(),
            }
        )
    for arr, kind in ((first, "first-order-growth"), (second, "second-order-growth")):
        bad = np.flatnonzero(arr > hi)
        for idx in bad[:20]:
            violations.append(
                {
                    "kind": kind,
                    "value": float(arr[idx]),
                    "x": x[idx].tolist(),
                    "u": float(u[idx]),
                    "p": p[idx].tolist(),
                }
            )
    return GrowthReport(
        samples=S,
        seed=seed,
        rayleigh_min=float(ray.min()),
        rayleigh_max=float(ray.max()),
        rayleigh_bounds=(lo, hi),
        first_order_max=float(first.max()),
        second_order_max=float(second.max()),
        violations=violations,
        passed=not violations,
    )


def euler_lagrange_residual(u: ScalarField, integrand: Integrand) -> ScalarField:
    """Discrete Euler-Lagrange residual -div(F_p) + F_u on the grid.

    Implemented as the exact first variation of the discrete energy, so the
    pairing with any compactly supported test field reproduces directional
    derivatives of the energy to rounding; for the Allen-Cahn integrand the
    node values equal -2 lap(u) + 2 (u - 3u^2 + 2u^3) up to O(h^2).
    """
    if integrand.dimension != u.n:
        raise GridError(
            f"integrand dimension {integrand.dimension} does not match field ({u.n})"
        )
    if min(ax.nodes for ax in u.axes) < 3:
        raise GridError("grid too small for the residual stencil (< 3 points per axis)")
    from .minimize import energy_gradient  # minimize imports this module

    return energy_gradient(u, integrand)
