"""Grid fields with rational average slope and an exact lattice-translation algebra.

A field is stored over a fundamental domain that is a product of per-axis
segments.  A periodic axis covers an integer period ``q`` with spacing
``1/m`` and twisted periodicity ``u(x + q e_i) = u(x) + p_i`` for an integer
rise ``p_i`` (average slope ``p_i / q_i``).  A box axis covers an integer
interval ``[lo, hi]`` and is extended by clamping beyond its ends; this is
the truncated form used for transition layers whose tails are exponentially
flat.

Internally a field keeps three channels: the sampled periodic part
(``values``), the integer rises, and a rational vertical ``offset``.  Integer
translations then act by array rolls (or clamped gathers on box axes) plus
exact ``Fraction`` arithmetic on the offset, so the translation group law and
order comparisons hold with zero floating-point slack.  Fields are immutable.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

#: Default tolerance for order comparisons: far below physical feature sizes
#: (wells are separated by 1) and far above solver residuals.
ORDER_TOL = 1e-8

#: Grid convention: spacing is 1/m with m at least this, so every integer
#: translation is grid aligned and ``translate`` never interpolates.
MIN_POINTS_PER_UNIT = 4

#: Sign-change locations a CROSSING comparison reports besides its extrema.
SIGN_CHANGE_WITNESSES = 4


class GridError(ValueError):
    """Invalid grid description or mismatched grids."""


class SlopeMismatchError(ValueError):
    """Comparison requested between fields of different average slope.

    Fields with different slopes always cross far from the origin, so an
    order relation restricted to the fundamental domain would be meaningless.
    """


def _as_int(value) -> int | None:
    """``int(value)`` if ``value`` is an integer, like 2 or 2.0, else None:
    2.7, a NaN or the string "2" is never truncated or parsed."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return out if out == value else None


def _integer_fields(obj, kind: str, *names: str) -> None:
    """Store the named fields of the frozen dataclass ``obj`` as ints; a
    value that is not an integer is a ``GridError`` naming the field."""
    for name in names:
        value = getattr(obj, name)
        out = _as_int(value)
        if out is None:
            raise GridError(f"{kind} {name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, out)


@dataclass(frozen=True)
class PeriodicAxis:
    """Axis covering an integer period with twisted-periodic wrapping."""

    period: int
    m: int

    def __post_init__(self):
        _integer_fields(self, "periodic axis", "period", "m")
        if self.period < 1:
            raise GridError(f"periodic axis needs period >= 1, got {self.period}")
        if self.m < MIN_POINTS_PER_UNIT:
            raise GridError(f"need m >= {MIN_POINTS_PER_UNIT} points per unit, got {self.m}")

    @property
    def nodes(self) -> int:
        return self.period * self.m

    @property
    def h(self) -> float:
        return 1.0 / self.m

    def coords(self) -> np.ndarray:
        return np.arange(self.nodes) / self.m


@dataclass(frozen=True)
class BoxAxis:
    """Axis covering the integer interval [lo, hi], clamped beyond the ends."""

    lo: int
    hi: int
    m: int

    def __post_init__(self):
        _integer_fields(self, "box axis", "lo", "hi", "m")
        if self.hi <= self.lo:
            raise GridError(f"box axis needs hi > lo, got [{self.lo}, {self.hi}]")
        if self.m < MIN_POINTS_PER_UNIT:
            raise GridError(f"need m >= {MIN_POINTS_PER_UNIT} points per unit, got {self.m}")

    @property
    def nodes(self) -> int:
        return (self.hi - self.lo) * self.m + 1

    @property
    def h(self) -> float:
        return 1.0 / self.m

    def coords(self) -> np.ndarray:
        return self.lo + np.arange(self.nodes) / self.m


Axis = PeriodicAxis | BoxAxis


def _integer_components(comps, what: str) -> tuple[int, ...]:
    """``comps`` as ints; a component that is not an integer, like 1.5, is
    a ``ValueError`` naming ``what`` and the components, never truncated."""
    comps = tuple(comps)
    ints = tuple(_as_int(c) for c in comps)
    if None in ints:
        raise ValueError(f"{what} must be integers, got ({', '.join(map(str, comps))})")
    return ints


@dataclass(frozen=True)
class TranslationVector:
    """Element of the integer lattice acting by u(x) -> u(x - k) + vertical."""

    spatial: tuple[int, ...]
    vertical: int

    def __post_init__(self):
        if not all(isinstance(k, (int, np.integer)) for k in self.spatial):
            raise ValueError("translation components must be integers")
        object.__setattr__(self, "spatial", tuple(int(k) for k in self.spatial))
        object.__setattr__(self, "vertical", int(self.vertical))

    @classmethod
    def from_components(cls, comps) -> "TranslationVector":
        comps = _integer_components(comps, "translation components")
        return cls(comps[:-1], comps[-1])

    def scaled(self, factor: int) -> "TranslationVector":
        return TranslationVector(tuple(factor * k for k in self.spatial), factor * self.vertical)

    def __neg__(self) -> "TranslationVector":
        return self.scaled(-1)

    def __add__(self, other: "TranslationVector") -> "TranslationVector":
        return TranslationVector(
            tuple(a + b for a, b in zip(self.spatial, other.spatial)),
            self.vertical + other.vertical,
        )


class Ordering(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    CROSSING = "crossing"


@dataclass(frozen=True)
class Witness:
    """Grid point backing an order classification."""

    point: tuple[float, ...]
    delta: float


@dataclass(frozen=True)
class OrderRelation:
    """Outcome of an order comparison over the fundamental domain.

    ``margin`` is the size of the one-signed excursion for LESS/GREATER, the
    residual sup-difference for EQUAL, and the smaller of the two opposite
    excursions for CROSSING.  Witnesses are populated for CROSSING: the two
    extremal points followed by up to four sign-change locations.
    """

    kind: Ordering
    margin: float
    witnesses: tuple[Witness, ...] = ()


@dataclass(frozen=True)
class ScalarField:
    """Immutable grid field: periodic part + integer rises + rational offset."""

    axes: tuple[Axis, ...]
    values: np.ndarray
    rises: tuple[int, ...]
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        rises = _integer_rises(axes, self.rises)
        vals = np.asarray(self.values, dtype=float)
        shape = tuple(ax.nodes for ax in axes)
        if vals.shape != shape:
            raise GridError(f"values shape {vals.shape} does not match grid {shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "rises", rises)
        object.__setattr__(self, "offset", Fraction(self.offset))

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def slope(self) -> tuple[Fraction, ...]:
        out = []
        for ax, p in zip(self.axes, self.rises):
            if isinstance(ax, PeriodicAxis):
                out.append(Fraction(p, ax.period))
            else:
                out.append(Fraction(0))
        return tuple(out)

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.axes, values, self.rises, self.offset)

    def axis_coords(self) -> list[np.ndarray]:
        return [ax.coords() for ax in self.axes]

    def linear_part(self) -> np.ndarray:
        """Linear contribution slope . x at the nodes (zero on box axes)."""
        return _linear_part(self.axes, self.rises)

    def total_values(self) -> np.ndarray:
        """Field values at the nodes, linear part and offset included."""
        return self.values + float(self.offset) + self.linear_part()

    def value_range(self) -> tuple[float, float]:
        t = self.total_values()
        return float(t.min()), float(t.max())


def _integer_rises(axes, rises) -> tuple[int, ...]:
    """The rises of a field on ``axes`` as ints: one per axis, each an
    integer (1.5 is a ``GridError``, never truncated) and 0 on box axes."""
    rises = tuple(rises)
    ints = tuple(_as_int(p) for p in rises)
    if None in ints:
        raise GridError(f"rises must be integers, got {rises}")
    if len(ints) != len(axes):
        raise GridError("one rise per axis required")
    for ax, p in zip(axes, ints):
        if isinstance(ax, BoxAxis) and p != 0:
            raise GridError("box axes carry no average slope")
    return ints


def _linear_part(axes, rises) -> np.ndarray:
    out = np.zeros(tuple(ax.nodes for ax in axes))
    for i, (ax, p) in enumerate(zip(axes, rises)):
        if isinstance(ax, PeriodicAxis) and p != 0:
            shape = [1] * len(axes)
            shape[i] = ax.nodes
            out = out + (ax.coords() * (p / ax.period)).reshape(shape)
    return out


def constant_field(axes, value: float) -> ScalarField:
    axes = tuple(axes)
    shape = tuple(ax.nodes for ax in axes)
    return ScalarField(axes, np.full(shape, float(value)), (0,) * len(axes))


def field_from_values(axes, samples: np.ndarray, rises=None) -> ScalarField:
    """Build a field from sampled total values; the linear part is split off."""
    axes = tuple(axes)
    rises = (0,) * len(axes) if rises is None else _integer_rises(axes, rises)
    periodic_part = np.asarray(samples, dtype=float) - _linear_part(axes, rises)
    return ScalarField(axes, periodic_part, rises)


def field_from_function(axes, fn, rises=None) -> ScalarField:
    """Sample ``fn`` (vectorized over points of shape (..., n)) on the grid."""
    axes = tuple(axes)
    grids = np.meshgrid(*[ax.coords() for ax in axes], indexing="ij")
    pts = np.stack(grids, axis=-1)
    return field_from_values(axes, np.asarray(fn(pts), dtype=float), rises)


def _check_tolerance(name: str, value, positive: bool = False) -> None:
    """Reject a tolerance argument unless finite and >= 0 (> 0 if ``positive``):
    a NaN fails every comparison silently, and an inf passes them all."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "positive" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")


def _check_same_grid(u: ScalarField, v: ScalarField):
    if u.axes != v.axes:
        raise GridError("fields live on different grids")
    if u.rises != v.rises:
        raise SlopeMismatchError(
            f"ordering undefined for slopes {u.slope} vs {v.slope}"
        )


def _shifted(u: ScalarField, spatial) -> tuple[np.ndarray, Fraction | int]:
    """Values and exact vertical shift ``-slope . k`` of u(x - k).

    The raw array behind :func:`translate`, for callers that classify many
    translates of one field and need no validated field per translate.  The
    shift stays the integer 0 when no axis the translation moves along has
    a rise.
    """
    if len(spatial) != u.n:
        raise GridError("translation dimension mismatch")
    out = u.values
    shift = 0
    for i, (ax, k, p) in enumerate(zip(u.axes, spatial, u.rises)):
        if k == 0:
            continue
        if isinstance(ax, PeriodicAxis):
            step = (k * ax.m) % ax.nodes
            if step:
                out = np.roll(out, step, axis=i)
            if p:
                shift -= Fraction(p, ax.period) * k
        else:
            out = np.take(out, np.arange(ax.nodes) - k * ax.m, axis=i, mode="clip")
    return out, shift


def translate(u: ScalarField, kbar: TranslationVector) -> ScalarField:
    """Apply the lattice action u(x) -> u(x - k) + vertical.

    Exact on periodic axes (pure index roll); box axes gather with clamped
    indices, matching the clamped extension of the stored window.  The rises
    and hence the average slope are unchanged; the offset absorbs the exact
    rational vertical shift ``vertical - slope . k``.
    """
    out, shift = _shifted(u, kbar.spatial)
    return ScalarField(u.axes, out, u.rises, u.offset + (kbar.vertical + shift))


def _difference(u: ScalarField, v: ScalarField) -> np.ndarray:
    _check_same_grid(u, v)
    # equal offsets, the common case, need no exact Fraction subtraction
    shift = 0.0 if u.offset == v.offset else float(u.offset - v.offset)
    return (u.values - v.values) + shift


def _point_of(u: ScalarField, flat_index: int) -> tuple[float, ...]:
    idx = np.unravel_index(flat_index, u.shape)
    coords = u.axis_coords()
    return tuple(float(coords[i][j]) for i, j in enumerate(idx))


def _sign_change_points(u: ScalarField, d: np.ndarray, tol: float):
    """Grid points where d flips sign along an axis, for crossing reports.

    Within-tol plateaus between the signed regions are skipped; the reported
    point sits midway between the last significant samples of opposite sign.
    """
    pts = []
    sgn = np.zeros(d.shape, dtype=np.int8)
    sgn[d > tol] = 1
    sgn[d < -tol] = -1
    coords = u.axis_coords()
    for i, ax in enumerate(u.axes):
        moved = np.moveaxis(sgn, i, -1)
        lines = moved.reshape(-1, moved.shape[-1])
        n_i = lines.shape[-1]
        for line_no, line in enumerate(lines):
            sig = np.flatnonzero(line)
            if sig.size < 2:
                continue
            idx_pairs = zip(sig[:-1], sig[1:])
            if isinstance(ax, PeriodicAxis):
                idx_pairs = list(idx_pairs) + [(sig[-1], sig[0] + n_i)]
            for j0, j1 in idx_pairs:
                if line[j0 % n_i] != line[j1 % n_i]:
                    mid = ((j0 + j1) // 2) % n_i
                    other = np.unravel_index(line_no, moved.shape[:-1])
                    full = list(other)
                    full.insert(i, mid)
                    point = tuple(float(coords[k][q]) for k, q in enumerate(full))
                    pts.append(Witness(point, float(d[tuple(full)])))
                    if len(pts) >= SIGN_CHANGE_WITNESSES:
                        return pts
    return pts


def _relation(u: ScalarField, dmax: float, dmin: float, tol: float, difference) -> OrderRelation:
    """Classify a difference from its extremes ``dmax`` and ``dmin``.

    ``difference()`` returns the full difference array; only a CROSSING
    calls it, for the extremal points and sign changes it reports.
    """
    if dmax <= tol and dmin >= -tol:
        return OrderRelation(Ordering.EQUAL, max(abs(dmax), abs(dmin)))
    if dmin >= -tol:
        return OrderRelation(Ordering.GREATER, dmax)
    if dmax <= tol:
        return OrderRelation(Ordering.LESS, -dmin)
    d = difference()
    wits = [
        Witness(_point_of(u, int(d.argmax())), dmax),
        Witness(_point_of(u, int(d.argmin())), dmin),
    ]
    wits.extend(_sign_change_points(u, d, tol))
    return OrderRelation(Ordering.CROSSING, min(dmax, -dmin), tuple(wits))


def compare(u: ScalarField, v: ScalarField, tol: float = ORDER_TOL) -> OrderRelation:
    """Classify u vs v over the fundamental domain.

    EQUAL when sup|u - v| <= tol.  LESS/GREATER when the difference exceeds
    tol somewhere with one sign and nowhere with the other (sub-tol
    excursions are absorbed, so numerical equality swallows solver noise).
    CROSSING otherwise, with witness points.  ``tol`` must be finite and
    >= 0.
    """
    _check_tolerance("tol", tol)
    d = _difference(u, v)
    return _relation(u, float(d.max()), float(d.min()), tol, lambda: d)


def sup_distance(u: ScalarField, v: ScalarField) -> float:
    """Sup norm of u - v over the fundamental domain (a metric at fixed slope)."""
    d = _difference(u, v)
    return float(np.abs(d).max())


def node_gradients(u: ScalarField) -> list[np.ndarray]:
    """Central-difference gradient per axis at the nodes.

    The differences are taken of the periodic part ``u.values``, so neither
    the offset nor the linear part enters their rounding; a periodic axis
    with a rise then adds its slope.  Periodic axes wrap; box axes use
    one-sided second-order differences at the window ends.  This is the one
    gradient formula of the package: the Cauchy test of an orbit
    (:meth:`_Orbit.cauchy_gap`) calls it on the iterates it compares.
    """
    grads = []
    for i, (ax, s) in enumerate(zip(u.axes, u.slope)):
        if isinstance(ax, BoxAxis):
            g = np.gradient(u.values, ax.h, axis=i, edge_order=2)
        else:
            g = (np.roll(u.values, -1, axis=i) - np.roll(u.values, 1, axis=i)) / (2.0 * ax.h)
        grads.append(g + float(s) if s else g)
    return grads


def _replace(index: tuple, i: int, piece) -> tuple:
    """``index`` with its entry for axis ``i`` replaced by ``piece``."""
    return index[:i] + (piece,) + index[i + 1 :]


def _running_max(a: np.ndarray, width: int, axis: int) -> np.ndarray:
    """Entry p along ``axis`` is the max of entries p .. p + width - 1.

    Doubling windows, which may overlap since a max does not mind counting
    an entry twice: about log2(width) elementwise maxima.
    """
    every = (slice(None),) * a.ndim
    span = 1
    while span < width:
        lag = min(span, width - span)
        n = a.shape[axis]
        head, tail = slice(0, n - lag), slice(lag, n)
        a = np.maximum(a[_replace(every, axis, head)], a[_replace(every, axis, tail)])
        span += lag
    return a


#: Axes up to this long are reduced one entry at a time: numpy's reduction
#: along a short axis costs over ten times as much.
SHORT_AXIS = 8


def _fold_max(a: np.ndarray, axis: int) -> np.ndarray:
    """``a`` reduced by max along ``axis``."""
    k = a.shape[axis]
    if k > SHORT_AXIS:
        return a.max(axis=axis)
    every = (slice(None),) * a.ndim
    out = a[_replace(every, axis, 0)]
    for q in range(1, k):
        out = np.maximum(out, a[_replace(every, axis, q)])
    return out


class _Span(NamedTuple):
    """How one axis of a translation orbit sits in the extended array."""

    nodes: int
    length: int  # of the axis in the extended array
    lo: int  # where iterate 0 starts
    step: int  # nodes one step moves; 0 on an axis it leaves in place
    wraps: bool  # periodic: window starts wrap mod ``nodes``

    def start(self, j):
        """Window start of iterate ``j``, an int or an index array."""
        if self.wraps:
            return self.lo + (-j * self.step) % self.nodes
        cap = self.length - self.nodes
        return self.lo - np.minimum(np.maximum(j * self.step, -cap), cap)

    def gather(self, values: np.ndarray, axis: int, t: int) -> np.ndarray:
        """``values`` along ``axis`` laid out on this axis of the extended
        array, ``t`` steps on: each position takes the node behind it,
        wrapped or clamped."""
        pos = np.arange(self.length) - (self.lo + t * self.step)
        return np.take(values, pos, axis=axis, mode="wrap" if self.wraps else "clip")


class _Orbit:
    """The iterates ``translate(u, kbar.scaled(j))``, j = 0..steps, as windows
    of one extended values array.

    A fixed lattice step moves every iterate the same number of nodes along
    each axis, so iterate j is the window of one array that starts where j
    steps put it.  A periodic axis the step moves is unrolled over two
    periods less one node, which holds a window starting anywhere in the
    first period (starts wrap mod the node count); a box axis is
    clamp-extended by ``min(steps |s|, n)`` rows on the side it moves away
    from, for a step of ``s`` nodes, which is every row a clamped gather
    can reach.  The offset of iterate j is ``u.offset + j * delta``,
    with ``delta`` the exact Fraction one :func:`translate` adds.  Windows are
    bitwise the values ``translate`` gives, and no iterate becomes a
    :class:`ScalarField` until :meth:`field` asks for it.

    Value gaps and distances are whole-array reductions: a difference over
    the extended array holds every pair at once, reduced in full along the
    axes every window covers and by a running maximum along each moved box
    axis, which gives each window's maximum.  The gradient half of a Cauchy
    gap (:meth:`cauchy_gap`) is :func:`node_gradients` of two iterates, one
    step at a time, about 0.3 ms on the README grid.  Callers take it only
    where the value gap passes; an orbit whose values settle while its
    gradients do not, say a 4e-8 ripple along the box axis, pays it at
    each such step (40 steps: 2 ms become 16 ms).
    """

    def __init__(self, u: ScalarField, kbar: TranslationVector, steps: int):
        if steps < 1:
            raise ValueError(f"steps must be at least 1, got {steps}")
        if len(kbar.spatial) != u.n:
            raise GridError("translation dimension mismatch")
        self.u = u
        self.steps = steps
        delta = kbar.vertical
        self._spans = []
        for ax, k, p in zip(u.axes, kbar.spatial, u.rises):
            n = ax.nodes
            if isinstance(ax, PeriodicAxis):
                if p and k:
                    delta -= Fraction(p, ax.period) * k
                r = (k * ax.m) % n
                span = _Span(n, 2 * n - 1, 0, r, True) if r else _Span(n, n, 0, 0, True)
            else:
                s = k * ax.m
                cap = min(abs(steps * s), n)
                span = _Span(n, n + cap, cap if s > 0 else 0, s, False)
            self._spans.append(span)
        self.delta = delta
        self._shift = 0.0 if delta == 0 else float(delta)
        self._values = self._gather(0)
        self._starts = [span.start(np.arange(steps + 1)) for span in self._spans]
        # the moved box axes, where windows of different iterates cover
        # different entries; a window covers every entry of an unmoved axis
        # and every residue of a moved periodic one
        self._slides = [i for i, span in enumerate(self._spans) if span.step and not span.wraps]

    def _gather(self, t: int) -> np.ndarray:
        """The extended array whose window at iterate j's start holds
        iterate ``j + t``."""
        out = self.u.values
        for i, span in enumerate(self._spans):
            if span.step:
                out = span.gather(out, i, t)
        return out

    def field(self, j: int) -> ScalarField:
        u = self.u
        window = tuple(
            slice(st[j], st[j] + span.nodes) for st, span in zip(self._starts, self._spans)
        )
        return ScalarField(u.axes, self._values[window], u.rises, u.offset + j * self.delta)

    def _maxima(self, a: np.ndarray, count: int) -> np.ndarray:
        """Per iterate j < ``count``, the max of ``a`` over the iterate's window.

        ``a`` lies over the extended array.  Each axis a window covers in
        full is reduced in full (on a moved periodic axis ``a`` may be
        shorter: any run of entries holds every residue), and along a moved
        box axis the window of iterate j is ``nodes`` entries from its start.
        """
        if not self._slides:
            return np.full(count, a.max())
        # the covered axes first, last to first: they shrink what the
        # running maxima see
        for i in reversed(range(a.ndim)):
            if i not in self._slides:
                a = _fold_max(a, i)
        index = []
        for pos, i in enumerate(self._slides):
            a = _running_max(a, self._spans[i].nodes, pos)
            index.append(self._starts[i][:count])
        return a[tuple(index)]

    def gaps(self) -> list[float]:
        """For j = 1..steps, ``sup_distance`` of iterates j and j - 1.

        The extended array gathered one step on holds iterate j + 1 at
        iterate j's window, so one difference holds every consecutive pair.
        """
        ahead = self._gather(1)
        return self._maxima(np.abs((ahead - self._values) + self._shift), self.steps).tolist()

    def cauchy_gap(self, j: int) -> float:
        """``sup_distance`` of iterates j and j - 1 plus, axis by axis, the
        sup distance of their :func:`node_gradients`.  It is at least the
        value gap of :meth:`gaps`, since rounded addition is monotone."""
        now, before = self.field(j), self.field(j - 1)
        gap = sup_distance(now, before)
        for g, g_prev in zip(node_gradients(now), node_gradients(before)):
            gap += float(np.abs(g - g_prev).max())
        return gap

    def closest_pair(self):
        """The first pair ``(i, j, sup_distance)``, i < j <= steps in row-major
        order, at the least distance.

        Pairs are taken one lag ``j - i`` at a time: the difference of the
        extended array and its ``lag``-step shift holds every pair at that
        lag, and :meth:`_maxima` gives each pair's distance, O(steps n) per
        lag.  On periodic axes the window covers every residue, so a step
        moving none of the box axes gives a distance that depends on the
        lag alone, and i = 0 comes first.
        """
        best = None
        for lag in range(1, self.steps + 1):
            # float(offset_i - offset_j) as sup_distance takes it
            shift = 0.0 if self.delta == 0 else float(-lag * self.delta)
            diff = self._values - self._gather(lag)
            if shift:
                diff += shift
            dist = self._maxima(np.abs(diff, out=diff), self.steps + 1 - lag)
            i = int(np.argmin(dist))
            if best is None or (float(dist[i]), i, lag) < best:
                best = (float(dist[i]), i, lag)
        d, i, lag = best
        return (i, i + lag, d)


# ---------------------------------------------------------------------------
# CSV dump / load


def _axis_to_json(ax: Axis) -> dict:
    if isinstance(ax, PeriodicAxis):
        return {"kind": "periodic", "period": ax.period, "m": ax.m}
    return {"kind": "box", "lo": ax.lo, "hi": ax.hi, "m": ax.m}


def _axis_from_json(d: dict) -> Axis:
    if d["kind"] == "periodic":
        return PeriodicAxis(d["period"], d["m"])
    if d["kind"] == "box":
        return BoxAxis(d["lo"], d["hi"], d["m"])
    raise GridError(f"unknown axis kind {d['kind']!r}")


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def _csv_and_sidecar(csv_path) -> tuple[Path, Path]:
    """The paths of a field CSV and its sidecar; a ``.json`` path, which is
    its own sidecar, is a ``GridError``."""
    csv_path = Path(csv_path)
    meta_path = sidecar_path(csv_path)
    if meta_path == csv_path:
        raise GridError(f"field CSV path {str(csv_path)!r} is its own JSON sidecar")
    return csv_path, meta_path


def _read_sidecar(path: Path):
    """The axes, rises and offset a field's JSON sidecar records; content of
    any other shape is a ``GridError`` that names the sidecar."""
    with open(path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
            axes = tuple(_axis_from_json(d) for d in meta["axes"])
            if not axes:
                raise GridError("no axes")
            rises = _integer_rises(axes, meta.get("rises", [0] * len(axes)))
            offset = Fraction(meta.get("offset", "0"))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            detail = f"no key {exc}" if isinstance(exc, KeyError) else exc
            raise GridError(f"malformed field sidecar {str(path)!r}: {detail}") from None
    return axes, rises, offset


def dump_csv(u: ScalarField, csv_path) -> Path:
    """Write one row per grid node (x1,...,xn,u) plus a JSON sidecar.

    The sidecar is ``csv_path`` with the suffix ``.json``, so a ``.json``
    path is rejected before anything is written.

    Values are printed with 17 significant digits so the decimal text
    round-trips every double bit-exactly.  The rational offset is folded into
    the value column; the sidecar records the grid, the slope and the cell.
    """
    csv_path, meta_path = _csv_and_sidecar(csv_path)
    coords = [[f"{c:.17g}" for c in ax.coords().tolist()] for ax in u.axes]
    total = u.total_values().ravel().tolist()
    n = u.n
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(n)) + ",u\n")
        # product walks the nodes in C order, the order of the raveled values
        fh.writelines(
            ",".join(xs) + f",{t:.17g}\n"
            for xs, t in zip(itertools.product(*coords), total)
        )
    meta = {
        "n": n,
        "axes": [_axis_to_json(ax) for ax in u.axes],
        "cell": [
            ax.period if isinstance(ax, PeriodicAxis) else [ax.lo, ax.hi]
            for ax in u.axes
        ],
        "h": [ax.h for ax in u.axes],
        "slope": [str(s) for s in u.slope],
        "rises": list(u.rises),
        "offset": "0",
    }
    _write_json(meta_path, meta)
    return csv_path


def load_csv(csv_path) -> ScalarField:
    csv_path, meta_path = _csv_and_sidecar(csv_path)
    axes, rises, off = _read_sidecar(meta_path)
    shape = tuple(ax.nodes for ax in axes)
    count = int(np.prod(shape))
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "u" or len(header) != len(axes) + 1:
            raise GridError(f"malformed field CSV header: {header}")
        rows = fh.readlines()
    # faults are reported in file order: the rows before the first one
    # with a wrong column count are converted first, so a bad value among
    # them comes first, and a surplus row comes after every grid row
    bad = next((k for k, row in enumerate(rows[:count]) if row.count(",") != len(axes)), None)
    good = rows[: count if bad is None else bad]
    vals = np.array([row.rsplit(",", 1)[1] for row in good], dtype=float)
    if bad is not None:
        raise GridError(
            f"field CSV line {bad + 2} does not have {len(header)} columns: {rows[bad].rstrip()!r}"
        )
    if len(rows) > count:
        raise GridError("field CSV has more rows than grid nodes")
    if len(rows) < count:
        raise GridError("field CSV has fewer rows than grid nodes")
    samples = vals.reshape(shape)
    out = field_from_values(axes, samples, rises)
    if off != 0:
        out = ScalarField(axes, out.values, rises, off)
    return out
