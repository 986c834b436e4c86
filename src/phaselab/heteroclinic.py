"""The 1-D connecting orbit between the pure phases 0 and 1.

The closed form is the logistic curve: along it u' = u(1 - u), which is the
first integral of the second-order equation u'' = u - 3u^2 + 2u^3 with the
pure phases as limits and value 1/2 at the origin.  The boundary-value solve
is the independent numerical route: it relaxes the 1-D discrete energy with
pinned ends down to a machine-accurate root of the discrete first-variation
equations by damped Newton steps (Levenberg-Marquardt) on a tridiagonal
Jacobian: large damping first acts as an implicit flow, and it shrinks after
each accepted step to a Levenberg floor, which keeps the nearly flat
translation mode of the pinned problem from letting the layer wander at
rounding level and masking the O(h^2) convergence of the scheme.  Nothing is
shared with the FFT preconditioner of ``relax``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import MIN_POINTS_PER_UNIT, BoxAxis, ScalarField
from .integrand import double_well_derivative, eval_double_well


#: The BVP solve stops at sup residual RESIDUAL_TOL within NEWTON_CAP trials,
#: each shifting the Jacobian by mu = DAMPING_START at first; an accepted trial
#: scales mu by DAMPING_SHRINK down to LEVENBERG, a rejected one divides it.
RESIDUAL_TOL = 1e-9
NEWTON_CAP = 30
DAMPING_START = 4.0
DAMPING_SHRINK = 0.25
LEVENBERG = 0.1
#: Tolerated decrease between neighbouring samples of a transition profile.
MONOTONE_SLACK = 1e-6
#: Half-lengths from here on saturate the logistic: 1 + e^(-t) rounds to 1
#: once e^(-t) <= 2^-53, so the profile's top samples round to the phase 1.
SATURATION_LENGTH = 53 * math.log(2)


class BvpConvergenceError(RuntimeError):
    pass


def logistic_profile(t):
    """1 / (1 + e^(-t)), evaluated overflow-safe for large |t|."""
    arr = np.asarray(t, dtype=float)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Profile1D:
    """Monotone transition profile sampled on [-L, L]; calling it evaluates
    the piecewise-linear interpolant."""

    half_length: float
    h: float
    values: np.ndarray
    residual_sup: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.half_length) and self.half_length > 0):
            raise ValueError(f"half-length must be finite and positive, got {self.half_length}")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"spacing must be finite and positive, got h={self.h}")
        vals = np.asarray(self.values, dtype=float)
        expected = int(round(2 * self.half_length / self.h)) + 1
        if vals.size != expected:
            raise ValueError(f"profile needs {expected} samples, got {vals.size}")
        if vals.size < 3:
            raise ValueError(
                f"half-length {self.half_length} gives {vals.size} samples at h={self.h}; "
                "a profile needs at least 3"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile values must be finite")
        # interior strictly between the phases; pinned ends may touch 0 / 1
        if vals[1:-1].min() <= 0.0 or vals[1:-1].max() >= 1.0 or vals[0] < 0.0 or vals[-1] > 1.0:
            raise ValueError("profile values must lie inside (0, 1) away from the pinned ends")
        _require_monotone(vals)
        mid = vals[vals.size // 2]
        if abs(mid - 0.5) > 1e-3:
            raise ValueError(f"profile value at t=0 is {mid}, not 1/2")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def grid(self) -> np.ndarray:
        return -self.half_length + np.arange(self.values.size) * self.h

    def __call__(self, t):
        """Piecewise-linear interpolant of the samples: each sample exactly
        at its node, constant at the end values beyond [-L, L]."""
        return np.interp(t, self.grid(), self.values)


def _require_monotone(vals: np.ndarray):
    d = np.diff(vals)
    if vals[-1] - vals[0] < 0.5 or d.min() < -MONOTONE_SLACK:
        raise ValueError("profile is not an increasing transition")


def _check_unsaturated(half_length: float):
    if half_length >= SATURATION_LENGTH:
        raise ValueError(
            f"half-length {half_length} saturates the logistic, which rounds to 1 "
            f"from {SATURATION_LENGTH:.4f} on; use a half-length below that"
        )


def closed_form_profile(half_length: float, h: float) -> Profile1D:
    if not (np.isfinite(half_length) and half_length > 0):
        raise ValueError(f"half-length must be finite and positive, got {half_length}")
    _check_unsaturated(half_length)
    m = _points_per_unit(h)
    count = int(round(2 * half_length * m)) + 1
    t = -half_length + np.arange(count) / m
    return Profile1D(half_length, 1.0 / m, logistic_profile(t))


def _points_per_unit(h: float) -> int:
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"spacing must be finite and positive, got h={h}")
    m = 1.0 / h
    if abs(m - round(m)) > 1e-9 or round(m) < MIN_POINTS_PER_UNIT:
        raise ValueError(
            f"spacing must be 1/m for integer m >= {MIN_POINTS_PER_UNIT}, got h={h}"
        )
    return int(round(m))


def _solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Solve a tridiagonal system by odd-even cyclic reduction (Buzbee,
    Golub & Nielson 1970); sub/sup have one entry less than diag.

    Each level eliminates the odd unknowns from the even equations, matrix
    and right-hand side together, which halves the system; the odd rows are
    kept to recover the odd unknowns once the even half is solved.  This is
    Gaussian elimination on a symmetrically permuted system, so it needs no
    pivoting on the symmetric positive definite systems solved here.
    """
    # row i reads a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i] (a[0] = c[-1] = 0)
    a = np.concatenate(([0.0], sub))
    b = np.asarray(diag, dtype=float)
    c = np.concatenate((sup, [0.0]))
    d = np.asarray(rhs, dtype=float)
    odd_rows = []
    while b.size > 1:
        ne, no = (b.size + 1) // 2, b.size // 2
        a_odd, b_odd, c_odd, d_odd = a[1::2], b[1::2], c[1::2], d[1::2]
        # even row 2j meets odd unknowns 2j - 1 (j >= 1) and 2j + 1 (j < no)
        left = -a[2::2] / b_odd[: ne - 1]
        right = -c[0 : 2 * no : 2] / b_odd
        a, b, c, d = np.zeros(ne), b[0::2].copy(), np.zeros(ne), d[0::2].copy()
        a[1:] = left * a_odd[: ne - 1]
        b[1:] += left * c_odd[: ne - 1]
        b[:no] += right * a_odd
        c[:no] = right * c_odd
        d[1:] += left * d_odd[: ne - 1]
        d[:no] += right * d_odd
        odd_rows.append((a_odd, b_odd, c_odd, d_odd))
    x = d / b
    for a_odd, b_odd, c_odd, d_odd in reversed(odd_rows):
        n = x.size + b_odd.size
        # the even unknowns, then the odd ones; y[n] = 0 pads the last odd row
        y = np.zeros(n + 1)
        y[0:n:2] = x
        y[1:n:2] = (d_odd - a_odd * y[0 : n - 1 : 2] - c_odd * y[2::2]) / b_odd
        x = y[:n]
    return x


def _variation(u: np.ndarray, h: float) -> np.ndarray:
    """First variation of the 1-D midpoint energy at the interior nodes."""
    av = 0.5 * (u[:-1] + u[1:])
    wp = double_well_derivative(av)
    return (2.0 / (h * h)) * (2.0 * u[1:-1] - u[:-2] - u[2:]) + 0.5 * (wp[:-1] + wp[1:])


def solve_heteroclinic_bvp(L: float, h: float, init: str = "ramp") -> Profile1D:
    """Solve the pinned two-point problem for the connecting orbit.

    The ends are pinned at the closed form's tail values (not at 0/1), which
    keeps boundary-layer artifacts out of grid-convergence studies.  Returns
    a monotone profile solving the discrete first-variation equations with
    sup residual below :data:`RESIDUAL_TOL`.
    """
    if not (np.isfinite(L) and L >= 10):
        raise ValueError(f"half-length must be finite and at least 10, got {L}")
    _check_unsaturated(L)
    if h > 0.1:
        raise ValueError("spacing must be at most 0.1")
    m = _points_per_unit(h)
    h = 1.0 / m
    count = int(round(2 * L * m)) + 1
    t = -L + np.arange(count) / m
    lo, hi = float(logistic_profile(-L)), float(logistic_profile(L))
    if init == "ramp":
        u = lo + (hi - lo) * (t + L) / (2.0 * L)
    elif init == "closed-form":
        u = logistic_profile(t)
        u[0], u[-1] = lo, hi
    else:
        raise ValueError(f"unknown init {init!r}")

    # damped Newton on the discrete first variation: a trial that lowers the
    # sup residual is taken and relaxes the damping, any other one stiffens it
    mu = DAMPING_START
    g = _variation(u, h)
    residual = float(np.abs(g).max())
    for _ in range(NEWTON_CAP):
        if residual <= RESIDUAL_TOL:
            break
        av = 0.5 * (u[:-1] + u[1:])
        wpp = 2.0 - 12.0 * av + 12.0 * av * av
        diag = 4.0 / (h * h) + 0.25 * (wpp[:-1] + wpp[1:]) + mu
        off = -2.0 / (h * h) + 0.25 * wpp[1:-1]
        trial = u.copy()
        trial[1:-1] += _solve_tridiagonal(off, diag, off, -g)
        g_trial = _variation(trial, h)
        r_trial = float(np.abs(g_trial).max())
        if r_trial < residual:
            u, g, residual = trial, g_trial, r_trial
            mu = max(mu * DAMPING_SHRINK, LEVENBERG)
        else:
            mu /= DAMPING_SHRINK
    if residual > RESIDUAL_TOL:
        raise BvpConvergenceError(
            f"no convergence: residual {residual:.3e} after {NEWTON_CAP} damped Newton trials"
        )
    return Profile1D(L, h, u, residual_sup=residual)


def equipartition_residual(profile: Profile1D) -> float:
    """Sup over interior nodes of |u'^2 - W(u)| with central-difference u'.

    The identity u'^2 = W holds exactly along the connecting orbit, so this
    is a first-integral diagnostic.  Rejects inputs that are not increasing
    transitions (up to solver noise).
    """
    vals = profile.values
    _require_monotone(vals)
    up = (vals[2:] - vals[:-2]) / (2.0 * profile.h)
    w = eval_double_well(vals[1:-1])
    return float(np.abs(up * up - w).max())


def profile_to_field(profile: Profile1D) -> ScalarField:
    """View the profile as a 1-D box field (half-length must be an integer)."""
    L = profile.half_length
    if abs(L - round(L)) > 1e-12:
        raise ValueError("only integer half-lengths convert to box fields")
    m = _points_per_unit(profile.h)
    axis = BoxAxis(-int(round(L)), int(round(L)), m)
    return ScalarField((axis,), profile.values, (0,))


def field_to_profile(u: ScalarField) -> Profile1D:
    if u.n != 1 or not isinstance(u.axes[0], BoxAxis):
        raise ValueError("need a 1-D box field")
    ax = u.axes[0]
    if ax.hi != -ax.lo:
        raise ValueError("need a symmetric box [-L, L]")
    return Profile1D(float(ax.hi), ax.h, u.total_values())

