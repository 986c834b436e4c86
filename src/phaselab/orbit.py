"""Translation-orbit analysis: self-intersection scans, ordering invariants, envelopes.

For a field without self-intersections the lattice translates are totally
ordered, and the ordering is described by a finite chain of unit directions
together with a nested chain of integer sublattices: level s classifies the
translations inside the sublattice orthogonal to the previous directions by
the sign of their inner product with the level's direction, and the chain
ends at the sublattice of translations fixing the field.  Extraction works
by brute-force classification of short lattice vectors, exact integer
elimination for the sublattice bases, and an orientation rule that ties each
direction's sign to the translations classified above the field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .field import (
    ORDER_TOL,
    OrderRelation,
    Ordering,
    PeriodicAxis,
    ScalarField,
    TranslationVector,
    _Orbit,
    _check_count,
    _check_same_grid,
    _check_tolerance,
    _relation,
    _shifted,
    _slope,
    compare,
    translate,
)

#: Lattice vectors are accepted as orthogonal when |k . a| is below this,
#: and a direction lies in a sublattice's span when its residual off it is.
LATTICE_TOL = 1e-10
#: Default scan radius: desk-scale slopes have small denominators, so the
#: relevant lattice generators are short.
DEFAULT_RADIUS = 3
#: Chains a scan plan remembers, one per classification that extracted.
_CHAINS_PER_PLAN = 64
#: Translation steps an envelope iteration may take before giving up.
ENVELOPE_STEPS = 60


class LatticeEnumerationError(RuntimeError):
    """The enumerated ball cannot represent the requested sublattice."""


class InvariantExtractionError(RuntimeError):
    """Classification of translations is inconsistent with a total order.

    Signals either a true self-intersection beyond the scan radius or
    tolerance trouble; carries the offending witnesses.
    """

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class SelfIntersectionError(InvariantExtractionError):
    """The field crosses some of its lattice translates within the scan
    ball; the witnesses are the crossings."""


class EnvelopeConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class IntersectionWitness:
    """Crossing translate: re-evaluating the translation reproduces it."""

    kbar: TranslationVector
    relation: OrderRelation


@dataclass(frozen=True)
class InvariantSystem:
    """Ordering classification data (t, a_1..a_t, sublattice chain).

    ``gamma_bases`` holds integer bases of the chain, from the full lattice
    down to the invariance sublattice (t + 1 entries); serialization uses the
    schema {t, a, gamma_bases}.
    """

    t: int
    a: np.ndarray
    gamma_bases: tuple[np.ndarray, ...]

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        bases = []
        for b in self.gamma_bases:
            b = np.asarray(b, dtype=np.int64).reshape(-1, a.shape[1])
            b = b.copy()
            b.setflags(write=False)
            bases.append(b)
        object.__setattr__(self, "gamma_bases", tuple(bases))
        if self.t != a.shape[0] or len(bases) != self.t + 1:
            raise ValueError("need t directions and t+1 sublattice bases")
        # geometric validity (spans, nesting, orientation) is checked by
        # check() / is_admissible, not at construction: inadmissible systems
        # must be representable so they can be classified as such

    def check(self):
        """Validate the defining properties of the chain."""
        if self.a[0][-1] <= 0:
            raise ValueError("first direction must have positive last component")
        for s in range(self.t):
            a_s = self.a[s]
            if abs(np.linalg.norm(a_s) - 1.0) > 1e-10:
                raise ValueError(f"direction {s + 1} is not unit")
            if self._leaves_span(s):
                raise ValueError(f"direction {s + 1} leaves the span of its sublattice")
            nxt = self.gamma_bases[s + 1]
            for row in nxt:
                if abs(float(row @ a_s)) > LATTICE_TOL:
                    raise ValueError("sublattice chain is not orthogonal to its direction")
                if not _lattice_contains(self.gamma_bases[s], row):
                    raise ValueError("sublattice chain is not nested")

    def _leaves_span(self, s: int) -> bool:
        """Whether direction ``s + 1`` leaves the span of its own sublattice
        level, the per-level condition of :meth:`check` and
        :func:`is_admissible`."""
        return _span_residual(self.gamma_bases[s], self.a[s]) > LATTICE_TOL

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "a": [[float(x) for x in row] for row in self.a],
            "gamma_bases": [
                [[int(x) for x in row] for row in basis] for basis in self.gamma_bases
            ],
        }


# ---------------------------------------------------------------------------
# integer lattice helpers


def _xgcd(a: int, b: int):
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    return x, y, g


def _hermite_basis(vectors, dim: int) -> np.ndarray:
    """Canonical (Hermite-form) row basis of the integer span of ``vectors``."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = [int(x) for x in vec]
        while True:
            j = next((k for k, x in enumerate(v) if x), None)
            if j is None:
                break
            if j in pivots:
                i = pivots.index(j)
                row = rows[i]
                a, b = row[j], v[j]
                if b % a == 0:
                    q = b // a
                    v = [vv - q * rr for vv, rr in zip(v, row)]
                else:
                    x, y, g = _xgcd(a, b)
                    ag, bg = a // g, b // g
                    new_row = [x * rr + y * vv for rr, vv in zip(row, v)]
                    v = [-bg * rr + ag * vv for rr, vv in zip(row, v)]
                    rows[i] = new_row
            else:
                where = next(
                    (i for i, p in enumerate(pivots) if p > j), len(pivots)
                )
                rows.insert(where, v)
                pivots.insert(where, j)
                break
    # normalize: positive pivots, entries above each pivot reduced into [0, pivot)
    for i, j in enumerate(pivots):
        if rows[i][j] < 0:
            rows[i] = [-x for x in rows[i]]
    # top to bottom: row i is zero left of its pivot, so reducing the rows
    # above it leaves their entries at earlier pivots reduced
    for i, pj in enumerate(pivots):
        pv = rows[i][pj]
        for k in range(i):
            q = rows[k][pj] // pv
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[i])]
    if not rows:
        return np.zeros((0, dim), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def _lattice_contains(basis: np.ndarray, vec) -> bool:
    """Whether ``vec`` lies in the integer span of the rows of ``basis``, any
    basis: adding it leaves the Hermite form of the span unchanged."""
    dim = len(vec)
    return np.array_equal(_hermite_basis([*basis, vec], dim), _hermite_basis(basis, dim))


def _ball(dim: int, radius: int) -> np.ndarray:
    return np.array(
        list(itertools.product(range(-radius, radius + 1), repeat=dim)),
        dtype=np.int64,
    )


def _orthonormal_span(mat: np.ndarray) -> np.ndarray:
    """Columns: orthonormal basis of the row space of ``mat``, a matrix
    with at least one row."""
    _, s, vt = np.linalg.svd(np.asarray(mat, dtype=float), full_matrices=False)
    keep = s > 1e-9 * max(1.0, s[0])
    return vt[keep].T


def _span_residual(basis: np.ndarray, vec: np.ndarray) -> float:
    if basis.size == 0:
        return float(np.linalg.norm(vec))
    q = _orthonormal_span(basis)
    return float(np.linalg.norm(vec - q @ (q.T @ vec)))


def _sublattice(points: np.ndarray, dirs: np.ndarray):
    """Indices of the integer ``points`` orthogonal to every row of ``dirs``
    (to :data:`LATTICE_TOL`) and the Hermite basis of their integer span.

    v and -v span the same lattice, so only the points whose first nonzero
    component is positive enter the basis."""
    idx = np.flatnonzero(np.all(np.abs(points @ dirs.T) <= LATTICE_TOL, axis=1))
    found = points[idx]
    lead = found[np.arange(len(found)), np.argmax(found != 0, axis=1)]
    return idx, _hermite_basis(found[lead > 0], points.shape[1])


def lattice_in_orthocomplement(directions, radius: int = DEFAULT_RADIUS) -> np.ndarray:
    """Integer basis of the sublattice orthogonal to the given directions.

    Enumerates lattice vectors with sup-norm at most ``radius`` whose inner
    products with every direction vanish to :data:`LATTICE_TOL` and reduces
    them by exact integer elimination.  Correct whenever the true sublattice
    has a basis inside the ball; a deficient enumeration is reported as
    :class:`LatticeEnumerationError`, never guessed.
    """
    _check_count("radius", radius, 1)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    dim = dirs.shape[1]
    sing = np.linalg.svd(dirs, compute_uv=False)
    if sing.min() < 1e-8:
        raise ValueError("directions must be linearly independent")
    _, basis = _sublattice(_ball(dim, radius), dirs)
    expected = dim - dirs.shape[0]
    if basis.shape[0] < expected:
        raise LatticeEnumerationError(
            f"radius {radius} enumerates a rank-{basis.shape[0]} set, expected "
            f"rank {expected}; enlarge the radius"
        )
    if basis.shape[0] > expected:
        raise LatticeEnumerationError(
            "enumeration admitted spurious near-orthogonal vectors; tighten tolerances"
        )
    return basis


# ---------------------------------------------------------------------------
# classification


def classify_translation(
    u: ScalarField, kbar: TranslationVector, tol: float = ORDER_TOL
) -> OrderRelation:
    """Order the translate against the field."""
    return compare(translate(u, kbar), u, tol)


#: Kind of a translate's side of the field: above, below or equal.
_KIND = {1.0: Ordering.GREATER, -1.0: Ordering.LESS, 0.0: Ordering.EQUAL}


class _ScanPlan(NamedTuple):
    """What a scan of one grid, slope, radius and vertical reach needs
    besides the field's values (see :func:`_scan_plan`).

    ``shifts`` holds one spatial shift per distinct node move and ``move``
    the distinct move of each shift of the ball.  ``c`` is the exact
    vertical constant of every translation, a row per spatial shift and a
    column per vertical component.  ``later`` marks the rows of the full
    table past its middle, whose mirrors come first, and ``rows`` the
    rows of the nonzero translations, whose keys are ``keys``.  The arrays
    are read-only, since every scan of the plan shares them.  ``chains``
    maps the signs of a classification that extracted to its validated
    chain.
    """

    shifts: tuple
    move: np.ndarray
    c: np.ndarray
    later: np.ndarray
    rows: np.ndarray
    keys: np.ndarray
    chains: dict


@lru_cache(maxsize=32)
def _scan_plan(axes, rises, radius: int, kv: int) -> _ScanPlan:
    """The field-independent part of :func:`_scan_table` on ``axes`` with
    ``rises``, built once: every member of a family, and every iterate of
    an orbit, shares it."""
    spatial = _ball(len(axes), radius)
    verts = np.arange(-kv, kv + 1)
    # the node move of each spatial shift, wrapped on periodic axes
    moves = spatial * np.array([ax.m for ax in axes])
    periodic = [isinstance(ax, PeriodicAxis) for ax in axes]
    moves[:, periodic] %= np.array([ax.nodes for ax in axes])[periodic]
    _, first, move = np.unique(moves, axis=0, return_index=True, return_inverse=True)
    # slope . k over a common denominator is an exact integer, and both
    # parts of the quotient are exact doubles: it rounds as Fraction does
    slope = _slope(axes, rises)
    den = math.lcm(*(s.denominator for s in slope))
    lift = spatial @ np.array([int(s * den) for s in slope])
    c = ((verts * den)[None, :] - lift[:, None]) / den
    keys = np.column_stack((np.repeat(spatial, verts.size, axis=0), np.tile(verts, len(spatial))))
    # the ball is symmetric, so row k's mirror is row N - 1 - k, and the
    # rows past the middle come after their mirrors
    later = np.arange(keys.shape[0]) > keys.shape[0] // 2
    rows = np.flatnonzero(np.any(keys != 0, axis=1))
    arrays = (move.reshape(-1), c, later, rows, keys[rows])
    for a in arrays:
        a.setflags(write=False)
    return _ScanPlan(tuple(tuple(spatial[k].tolist()) for k in first), *arrays, {})


class _Scan(NamedTuple):
    """The classified scan ball.

    Row k of ``keys`` is a translation, its spatial components and then the
    vertical one, in lexicographic order.  ``signs[k]`` is the translate's
    side of the field, +1 above, -1 below, 0 equal and nan for a crossing,
    and ``margins[k]`` the margin :func:`~phaselab.field.compare` gives.
    ``crossings`` maps the row of each crossing to its witness.  ``plan``
    is the :class:`_ScanPlan` the table came from.
    """

    keys: np.ndarray
    signs: np.ndarray
    margins: np.ndarray
    crossings: dict
    plan: _ScanPlan

    def relation(self, k: int) -> OrderRelation:
        if k in self.crossings:
            return self.crossings[k].relation
        return OrderRelation(_KIND[float(self.signs[k])], float(self.margins[k]))


def _scan_table(u: ScalarField, radius: int, tol: float) -> _Scan:
    """Classify every nonzero lattice translation with spatial sup-norm up to
    ``radius`` once, in lexicographic order of the integer components.

    Vertical components are restricted to the range the field's values can
    reach.  A translation whose mirror -k comes first and does not cross
    takes the mirrored relation instead of a comparison of its own.

    Spatial shifts that move the nodes alike share one difference ``D`` to
    the field, taken of the raw values, and its extremes serve every
    vertical component.  A translation adds the constant
    ``c = float(vertical - slope . k)``, and rounding of ``x + c`` is
    monotone in ``x``, so ``max D + c`` and ``min D + c`` are bitwise the
    extremes :func:`~phaselab.field.compare` finds for that translate.
    They are classified as arrays, and only a crossing forms ``D + c`` in
    full, for its witnesses.  The keys, moves, constants and masks depend
    on the grid alone and come from :func:`_scan_plan`.
    """
    _check_count("radius", radius, 1)
    _check_tolerance("tol", tol)
    vmin, vmax = u.value_range()
    reach = vmax - vmin
    for s in u.slope:
        reach += abs(float(s)) * radius
    plan = _scan_plan(u.axes, u.rises, radius, min(radius, int(np.ceil(reach)) + 1))
    extremes = []
    for shift in plan.shifts:
        diff = _shifted(u, shift)[0] - u.values
        extremes.append((diff.max(), diff.min()))
    dmax, dmin = np.array(extremes)[plan.move].T
    hi, lo = ((d[:, None] + plan.c).ravel() for d in (dmax, dmin))
    cases = [(hi <= tol) & (lo >= -tol), lo >= -tol, hi <= tol]
    signs = np.select(cases, [0.0, 1.0, -1.0], np.nan)
    margins = np.select(cases, [np.maximum(np.abs(hi), np.abs(lo)), hi, -lo], np.minimum(hi, -lo))
    mirrored = plan.later & ~np.isnan(signs[::-1])
    signs = np.where(mirrored, 0.0 - signs[::-1], signs)
    margins = np.where(mirrored, margins[::-1], margins)
    signs, margins = signs[plan.rows], margins[plan.rows]
    crossings = {}
    for k in np.flatnonzero(np.isnan(signs)).tolist():
        row, key = plan.rows[k], plan.keys[k]
        diff = _shifted(u, tuple(key[:-1].tolist()))[0] - u.values
        c = float(plan.c.flat[row])
        rel = _relation(u, float(hi[row]), float(lo[row]), tol, lambda: diff + c)
        crossings[k] = IntersectionWitness(TranslationVector.from_components(key), rel)
    return _Scan(plan.keys, signs, margins, crossings, plan)


def self_intersection_scan(
    u: ScalarField, radius: int = DEFAULT_RADIUS, tol: float = ORDER_TOL
) -> list[IntersectionWitness]:
    """Classify every lattice translation with sup-norm up to ``radius`` and
    return the crossings; an empty list means no self-intersection was
    detected up to the radius.  Vertical components are restricted to the
    range the field's values can reach."""
    return list(_scan_table(u, radius, tol).crossings.values())


# ---------------------------------------------------------------------------
# invariant extraction


def extract_invariants(
    u: ScalarField,
    radius: int = DEFAULT_RADIUS,
    tol: float = ORDER_TOL,
) -> InvariantSystem:
    """Extract (t, a_1..a_t, sublattice chain) by brute-force classification.

    Every translation of the scan ball (see :func:`self_intersection_scan`)
    is classified once; a crossing anywhere in the ball aborts extraction
    with :class:`SelfIntersectionError`, the crossings as witnesses.  Then
    level by level: take the classified translations in the current
    sublattice, stop when all are EQUAL, and otherwise find the unit
    direction in the sublattice's span that is orthogonal to the EQUAL set
    and gives every GREATER translation a positive inner product.
    Sign-inconsistent classifications abort with witnesses too: extraction
    is only meaningful for fields whose translates are totally ordered, and
    failures are diagnostic, not repaired.

    The solve reads nothing of the field but the signs of its scan table,
    whose keys and slope its scan plan fixes (see :func:`_scan_table`).
    So the plan remembers the chain of each classification that extracted,
    keyed by the exact signs, and a field classified alike, such as another
    member of a family, gets that same chain.  A failing solve is never
    remembered: it runs again on the caller's own table and raises with
    that table's witnesses and margins.
    """
    scan = _scan_table(u, radius, tol)
    if scan.crossings:
        raise SelfIntersectionError(
            f"field has {len(scan.crossings)} crossing translates within radius {radius}",
            witnesses=scan.crossings.values(),
        )
    key = scan.signs.astype(np.int8).tobytes()
    chain = scan.plan.chains.get(key)
    if chain is None:
        chain = _chain(scan, u.slope, radius)
        if len(scan.plan.chains) < _CHAINS_PER_PLAN:
            scan.plan.chains[key] = chain
    return chain


def _chain(scan: _Scan, slope, radius: int) -> InvariantSystem:
    """The level-by-level solve of :func:`extract_invariants` on a scan
    table without crossings, for a field of average ``slope``."""
    dim = len(slope) + 1
    ball = scan.keys
    # a_1 is the upward unit normal of the exact rational slope
    a1 = np.array([-float(s) for s in slope] + [1.0])
    a1 /= np.linalg.norm(a1)
    a1 += 0.0  # flush negative zeros from the sign flip
    a_list = [a1]
    gammas = [np.eye(dim, dtype=np.int64)]

    while True:
        ortho, basis = _sublattice(ball, np.vstack(a_list))
        expected = dim - len(a_list)
        if basis.shape[0] < expected:
            raise LatticeEnumerationError(
                f"radius {radius} is too small to span sublattice level "
                f"{len(a_list) + 1} (rank {basis.shape[0]} of {expected})"
            )
        gammas.append(basis)
        points = ball[ortho]
        signs = scan.signs[ortho]
        if not signs.any():
            break  # every translation left fixes the field, or none is left
        moving = ortho[signs != 0][:8]  # witnesses when no direction fits
        span_q = _orthonormal_span(basis)
        equal_pts = points[signs == 0].astype(float)
        if equal_pts.shape[0]:
            coords = equal_pts @ span_q
            _, s, vt = np.linalg.svd(coords, full_matrices=True)
            rank = int(np.sum(s > 1e-9 * max(1.0, s[0] if s.size else 1.0)))
            null = vt[rank:].T  # directions in span coords orthogonal to EQUALs
        else:
            null = np.eye(span_q.shape[1])
        if null.shape[1] == 0:
            raise InvariantExtractionError(
                "translations fix the whole sublattice span yet are not all EQUAL",
                witnesses=_witnesses(scan, moving),
            )
        if null.shape[1] == 1:
            a_next = span_q @ null[:, 0]
        else:
            alpha, *_ = np.linalg.lstsq(points @ span_q, signs, rcond=None)
            beta = null @ (null.T @ alpha)
            norm = np.linalg.norm(beta)
            if norm < 1e-12:
                raise InvariantExtractionError(
                    "no separating direction for the classified translations",
                    witnesses=_witnesses(scan, moving),
                )
            a_next = span_q @ (beta / norm)
        a_next = a_next / np.linalg.norm(a_next)
        # orientation: translations above the field have positive inner product
        dots = points @ a_next
        lead = np.flatnonzero((np.abs(dots) > 1e-8) & (signs != 0))
        if not lead.size:
            raise InvariantExtractionError(
                "orientation of the next direction is undetermined",
                witnesses=_witnesses(scan, moving),
            )
        if dots[lead[0]] * signs[lead[0]] < 0:
            a_next, dots = -a_next, -dots
        bad = np.flatnonzero(((dots > 1e-8) & (signs != 1)) | ((dots < -1e-8) & (signs != -1)))
        if bad.size:
            raise InvariantExtractionError(
                "classifications are inconsistent with a separating direction",
                witnesses=_witnesses(scan, ortho[bad]),
            )
        a_list.append(a_next)
        if len(a_list) > dim:
            raise InvariantExtractionError("invariant chain exceeded the dimension")
    out = InvariantSystem(t=len(a_list), a=np.vstack(a_list), gamma_bases=tuple(gammas))
    out.check()
    return out


def _witnesses(scan: _Scan, idx) -> list[IntersectionWitness]:
    return [
        IntersectionWitness(TranslationVector.from_components(scan.keys[i]), scan.relation(i))
        for i in idx
    ]


def is_admissible(sys: InvariantSystem) -> bool:
    """True iff the first direction points upward and every direction lies in
    the span of its own sublattice level."""
    return bool(sys.a[0][-1] > 0) and not any(sys._leaves_span(s) for s in range(sys.t))


# ---------------------------------------------------------------------------
# envelopes and order reports


def envelope(
    u: ScalarField,
    sys: InvariantSystem,
    sign: int,
    steps: int = ENVELOPE_STEPS,
    tol: float = 1e-6,
) -> ScalarField:
    """Pointwise limit of repeated translation along the deepest sublattice.

    Picks a generator of the last sublattice level whose inner product with
    the last direction has the requested sign and translates each iterate by
    it to get the next, declaring convergence when successive iterates are
    within ``tol`` in sup norm.  The limit should carry the chain with the
    last direction dropped; the caller checks that where it matters.
    ``tol`` must be finite and positive.

    The iterates are windows of one extended values array (see
    ``field._Orbit``), bitwise the translates by the generator times their
    index; every step's gap is taken at once, and only the first iterate
    within ``tol`` of the one before becomes a field.
    """
    if sys.t < 2:
        raise ValueError("envelopes need an invariant chain of length >= 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_tolerance("tol", tol, positive=True)
    basis = sys.gamma_bases[sys.t - 1]
    a_t = sys.a[sys.t - 1]
    dots = basis @ a_t
    if not np.any(np.abs(dots) > 1e-8):
        raise ValueError("no sublattice generator moves along the last direction")
    i = np.argmax(np.abs(dots))
    step_vec = TranslationVector.from_components(basis[i] if dots[i] * sign > 0 else -basis[i])
    orbit = _Orbit(u, step_vec, steps)
    for j, gap in enumerate(orbit.gaps(), start=1):
        if gap < tol:
            return orbit.field(j)
    raise EnvelopeConvergenceError(f"envelope did not converge within {steps} translation steps")


@dataclass
class TotalOrderReport:
    passed: bool
    pair_count: int
    violations: list  # (i, j, OrderRelation)

    def to_json_dict(self) -> dict:
        return {
            "kind": "total-order",
            "passed": self.passed,
            "pairs": self.pair_count,
            "violations": [
                {
                    "i": i,
                    "j": j,
                    "witnesses": [
                        {"point": list(w.point), "delta": w.delta}
                        for w in rel.witnesses
                    ],
                }
                for i, j, rel in self.violations
            ],
        }


def total_order_check(fields, tol: float = ORDER_TOL) -> TotalOrderReport:
    """Pairwise order of the fields; PASS iff no pair crosses.

    Every pair is counted and classified as :func:`compare` classifies it,
    but ``compare`` runs only on the pairs that exact pointwise order leaves
    open.  For fields with equal offsets the difference is
    ``(u.values - v.values) + 0.0``, and ``fl(x - y) <= 0`` holds exactly
    when ``x <= y``; so ``u.values <= v.values`` at every node gives
    ``max D <= 0 <= tol``, and the pair is EQUAL, LESS or GREATER, never
    CROSSING.  Pointwise ``<=`` is transitive, and rounded sums respect it,
    so the fields are sorted by offset and value sum; each consecutive pair
    with equal offsets and pointwise ordered values is a link, and a maximal
    run of links is a chain whose pairs need no comparison.  Violations, their order and
    witnesses, and the pair count are those of the full pairwise loop.

    Raises the grid errors of :func:`compare` for the first field
    incompatible with ``fields[0]``, and ``ValueError`` unless ``tol`` is
    finite and >= 0.
    """
    fields = list(fields)
    for v in fields[1:]:
        _check_same_grid(fields[0], v)
    _check_tolerance("order tolerance", tol)
    order = sorted(
        range(len(fields)),
        key=lambda i: (fields[i].offset, float(fields[i].values.sum())),
    )
    chain = [0] * len(fields)
    for a, b in zip(order, order[1:]):
        u, v = fields[a], fields[b]
        linked = u.offset == v.offset and bool(np.all(u.values <= v.values))
        chain[b] = chain[a] + (not linked)
    violations = []
    for i, j in itertools.combinations(range(len(fields)), 2):
        if chain[i] != chain[j]:
            rel = compare(fields[i], fields[j], tol)
            if rel.kind is Ordering.CROSSING:
                violations.append((i, j, rel))
    return TotalOrderReport(
        passed=not violations,
        pair_count=len(fields) * (len(fields) - 1) // 2,
        violations=violations,
    )

