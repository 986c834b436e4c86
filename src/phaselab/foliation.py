"""Explicit minimal foliations of the slab between the pure phases.

A family member is the 1-D connecting profile ridden along a rational
direction: v_b(x) = profile(omega . x - b).  The family decreases strictly
in b, its graphs are pairwise disjoint, and between consecutive members any
intermediate level is reached by bisection in b, so the family foliates the
open region between its bounding fields.  On a truncated window the family
covers everything except two bands hugging the pure phases whose width is
set by the window and parameter range; the verifier measures and reports
those bands rather than pretending they vanish.

The profile is the closed-form connecting orbit or any monotone callable,
such as a sampled :class:`~phaselab.heteroclinic.Profile1D`, which evaluates
its piecewise-linear interpolant.  Every check runs on either kind.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .field import (
    ORDER_TOL,
    Ordering,
    PeriodicAxis,
    ScalarField,
    TranslationVector,
    _check_count,
    _check_same_grid,
    _check_tolerance,
    _difference,
    _integer_components,
    _is_integer,
    _Orbit,
    _point_of,
    compare,
    constant_field,
    field_from_values,
    sup_distance,
)
from .heteroclinic import logistic_profile
from .orbit import (
    DEFAULT_RADIUS,
    ENVELOPE_STEPS,
    InvariantExtractionError,
    InvariantSystem,
    LatticeEnumerationError,
    _lattice_contains,
    envelope,
    extract_invariants,
)


#: Default budget of the foliation checks: member ordering, coverage levels
#: and envelope distances.
FOLIATION_TOL = 1e-6
#: Coverage sampling of ``verify_foliation``: grid points per axis, and
#: levels bisected at each point.
COVERAGE_POINTS_PER_AXIS = 7
COVERAGE_LEVELS_PER_POINT = 5
#: Cap on bisection steps when locating a family parameter.
BISECTION_STEPS = 200
#: Halvings the one-point solve of ``rigidity_check`` takes per profile call.
_TREE_DEPTH = 4
#: ``rigidity_check`` searches b this far beyond the family's parameter grid.
B_PAD = 1.0


class GridCompatibilityError(ValueError):
    pass


class NonMonotoneFamilyError(RuntimeError):
    """Member values do not decrease along the parameter grid."""


class FoliationFamily:
    """One-parameter family b -> v_b over the slab between two bounding fields.

    Every member samples ``profile(omega . x - b)`` on the grid, with the
    logistic connecting orbit as the default profile; the projection
    ``omega . x`` of the grid nodes is computed once, and each member costs
    one profile evaluation on it.  A sampled ``Profile1D`` is evaluated by
    its piecewise-linear interpolant, so any ``b`` gives a member and every
    check applies, at an O(h^2) interpolation error.  ``center`` is the node
    index at the middle of the window, where the phase gaps are measured and
    ``rigidity_check`` pins a field's parameter.  The direction is zero
    along periodic axes, since a member that varies along one is not
    periodic and jumps across the wrap.
    """

    def __init__(self, direction, b_grid, axes, profile=None):
        direction = _integer_components(direction, "direction components")
        if not any(direction):
            raise GridCompatibilityError("direction must be nonzero")
        axes = tuple(axes)
        if len(direction) != len(axes):
            raise GridCompatibilityError("direction dimension does not match the grid")
        if any(d and isinstance(ax, PeriodicAxis) for ax, d in zip(axes, direction)):
            raise GridCompatibilityError(
                "direction must be zero along periodic axes: a member would "
                "jump across the wrap"
            )
        active_m = {ax.m for ax, d in zip(axes, direction) if d != 0}
        if len(active_m) > 1:
            raise GridCompatibilityError(
                "axes carrying the direction must share one spacing so that "
                "lattice translations stay grid-exact along it"
            )
        b_grid = np.asarray(b_grid, dtype=float)
        if not np.all(np.isfinite(b_grid)):
            raise ValueError("parameter grid must be finite")
        if b_grid.size < 2 or np.any(np.diff(b_grid) <= 0):
            raise ValueError("parameter grid must be strictly increasing with >= 2 entries")
        omega = np.asarray(direction, dtype=float)
        self.omega = omega / np.linalg.norm(omega)
        self.direction = direction
        self.axes = axes
        self.b_grid = b_grid
        self._profile = logistic_profile if profile is None else profile
        grids = np.meshgrid(*[ax.coords() for ax in axes], indexing="ij")
        self._proj = np.stack(grids, axis=-1) @ self.omega
        self.lower = constant_field(axes, 0.0)
        self.upper = constant_field(axes, 1.0)
        self.center = tuple(ax.nodes // 2 for ax in axes)
        self._invariants: dict[tuple[int, float], InvariantSystem] = {}

    @cached_property
    def members(self) -> _Members:
        """The members on ``b_grid``, a read-only sequence that builds
        each member on first access and keeps it."""
        return _Members(self.axes, self._proj, self._profile, self.b_grid)

    def member_at(self, b: float) -> ScalarField:
        return _member(self.axes, self._proj, self._profile, b)

    def invariants(self, radius: int = DEFAULT_RADIUS, tol: float = ORDER_TOL) -> InvariantSystem:
        """Invariant chain of the family's members (computed once per
        ``(radius, tol)``)."""
        key = (radius, tol)
        if key not in self._invariants:
            mid = self.member_at(self.b_grid[self.b_grid.size // 2])
            self._invariants[key] = extract_invariants(mid, radius, tol)
        return self._invariants[key]


def _member(axes, proj, profile, b) -> ScalarField:
    return field_from_values(axes, profile(proj - float(b)))


class _Members(Sequence):
    """The members of a family on its parameter grid, built on demand.

    Each slot holds a parameter until its member is first read, and the
    member from then on.  It holds the family's axes, projection, profile
    and parameters, never the family, so a family is freed as soon as it
    is dropped and forms no reference cycle.
    """

    def __init__(self, axes, proj, profile, b_grid):
        self._axes, self._proj, self._profile = axes, proj, profile
        self._slots = list(b_grid)

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        slot = self._slots[i]
        if not isinstance(slot, ScalarField):
            slot = self._slots[i] = _member(self._axes, self._proj, self._profile, slot)
        return slot


def build_family(
    direction,
    b_min: float,
    b_max: float,
    count: int,
    axes,
    profile=None,
) -> FoliationFamily:
    """Sample the family v_b(x) = profile(omega . x - b) on ``count`` parameters.

    The default profile is the closed-form connecting orbit; any member then
    satisfies the discrete Euler-Lagrange equations to O(h^2) and passes
    minimality spot checks.
    """
    _check_count("count", count, 2)
    # FoliationFamily rejects the grid a non-finite end gives
    with np.errstate(invalid="ignore"):
        b_grid = np.linspace(b_min, b_max, count)
    return FoliationFamily(direction, b_grid, axes, profile)


@dataclass
class FoliationReport:
    passed: bool
    disjointness_passed: bool
    coverage_passed: bool
    members: int
    coverage_samples: int
    phase_gap_lower: float
    phase_gap_upper: float
    violations: list

    def to_json_dict(self) -> dict:
        return {"kind": "foliation", **asdict(self)}


def verify_foliation(fam: FoliationFamily, tol: float = FOLIATION_TOL) -> FoliationReport:
    """Check pairwise disjointness and interior coverage of the family.

    Disjointness: member values never increase along b beyond ``tol`` at any
    grid point (a violation raises :class:`NonMonotoneFamilyError`), and every
    consecutive pair is strictly ordered -- equal members fail.  Coverage: at
    sampled points, every level strictly inside the family's own span is hit
    by bisection over b to within ``tol``; the residual bands between the
    span and the pure phases are reported as the phase gaps.  Both checks
    run on every family, a sampled profile's included.  ``tol`` must be
    finite and >= 0.
    """
    _check_tolerance("tol", tol)
    # one consecutive pair at a time, so two members' totals are held at once.
    # Once no step rises above tol, a pair is LESS where its step falls below
    # -tol somewhere and EQUAL where it does not
    first = last = fam.members[0].total_values()
    increase, equal = -np.inf, []
    for i, member in enumerate(fam.members[1:]):
        nxt = member.total_values()
        step = nxt - last
        increase = max(increase, float(step.max()))
        if step.min() >= -tol:
            equal.append(i)
        last = nxt
    if increase > tol:
        raise NonMonotoneFamilyError(
            f"member values increase by {increase:.3e} along the parameter grid"
        )
    violations = [
        {"check": "disjointness", "pair": [i, i + 1], "relation": Ordering.EQUAL.value}
        for i in equal
    ]
    # uncovered levels form two bands adjacent to the bounding fields; their
    # width is smallest at the window center and saturates toward the edges,
    # where the truncated parameter range runs out -- report the center width
    c = fam.center
    phase_gap_lower = float(last[c] - fam.lower.total_values()[c])
    phase_gap_upper = float(fam.upper.total_values()[c] - first[c])

    coverage_ok = True
    sample_idx = [
        np.unique(np.linspace(0, n - 1, min(COVERAGE_POINTS_PER_AXIS, n)).astype(int))
        for n in first.shape
    ]
    cols = np.ix_(*sample_idx)
    span_hi, span_lo = first[cols].ravel(), last[cols].ravel()
    # a saturated tail has nothing strictly inside its span
    inside = span_hi - span_lo > 2 * tol
    coords = [ax.coords()[i] for ax, i in zip(fam.axes, sample_idx)]
    at = np.stack([g.ravel() for g in np.meshgrid(*coords, indexing="ij")], axis=-1)[inside]
    points = np.repeat(at, COVERAGE_LEVELS_PER_POINT, axis=0)
    proj = np.repeat(fam._proj[cols].ravel()[inside], COVERAGE_LEVELS_PER_POINT)
    levels = np.linspace(
        span_lo[inside] + tol, span_hi[inside] - tol, COVERAGE_LEVELS_PER_POINT, axis=-1
    ).ravel()
    samples = levels.size
    if samples:
        found, errors = _bisect_parameter(fam, proj, levels)
        for point, y, b_found, err in zip(points, levels, found, errors):
            if err > tol:
                coverage_ok = False
                violations.append(
                    {
                        "check": "coverage",
                        "point": point.tolist(),
                        "level": float(y),
                        "b": None if np.isnan(b_found) else float(b_found),
                        "error": float(err),
                    }
                )
    return FoliationReport(
        passed=not equal and coverage_ok,
        disjointness_passed=not equal,
        coverage_passed=coverage_ok,
        members=len(fam.members),
        coverage_samples=samples,
        phase_gap_lower=phase_gap_lower,
        phase_gap_upper=phase_gap_upper,
        violations=violations,
    )


def _bisect_parameter(fam: FoliationFamily, proj, levels, stop=1e-14):
    """Solve profile(proj[i] - b) = levels[i] for b by bisection (v_b
    decreasing in b), bracketed by the ends of the family's parameter grid,
    all entries at once.  ``proj`` holds projections ``omega . x``, read
    from the family's own ``_proj`` at grid nodes, so a solved b gives the
    member's value there.  Each entry halves its own bracket until it is
    narrower than ``stop`` or :data:`BISECTION_STEPS` halvings are spent,
    and then stops while the others go on.  Returns the arrays
    (b, |profile(proj - b) - level|); an entry whose level the grid does
    not bracket gets (nan, inf).  This loop serves the many points of
    ``verify_foliation``; for one point :func:`_bisect_point` takes the
    same halvings with fewer profile calls.
    """
    proj = np.asarray(proj, dtype=float)
    y = np.asarray(levels, dtype=float)

    def excess(b, sel=slice(None)):
        return fam._profile(proj[sel] - b) - y[sel]

    blo = np.full(y.size, float(fam.b_grid[0]))
    bhi = np.full(y.size, float(fam.b_grid[-1]))
    bracketed = ~((excess(blo) < 0) | (excess(bhi) > 0))
    active = np.flatnonzero(bracketed)
    for _ in range(BISECTION_STEPS):
        if not active.size:
            break
        mid = 0.5 * (blo[active] + bhi[active])
        above = excess(mid, active) >= 0
        blo[active[above]] = mid[above]
        bhi[active[~above]] = mid[~above]
        active = active[bhi[active] - blo[active] >= stop]
    b = np.full(y.size, np.nan)
    err = np.full(y.size, np.inf)
    hit = np.flatnonzero(bracketed)
    if hit.size:
        b[hit] = 0.5 * (blo[hit] + bhi[hit])
        err[hit] = np.abs(excess(b[hit], hit))
    return b, err


def _bisect_point(fam: FoliationFamily, proj, level, window, stop):
    """:func:`_bisect_parameter` for one projection on the bracket
    ``window``, as floats (b, error).

    The same halvings of the same bracket, in Python floats, with the
    profile called once per :data:`_TREE_DEPTH` halvings.  Each call
    evaluates every midpoint those halvings can reach, 2**depth - 1 of
    them, and the first call the window's ends too; each halving then reads
    the sign of its own midpoint's excess.  The final b is the midpoint of
    the last bracket, which the tree already holds unless the halvings end
    at its bottom level.  A profile acts on each point alone, so every
    excess, and hence b and the error, is bitwise the loop's.
    """
    proj = float(proj)
    y = float(level)
    lo, hi = float(window[0]), float(window[1])
    ends = [lo, hi]
    steps = 0
    while True:
        # breadth first: node i's children are 2i + 1 (above) and 2i + 2
        brackets, mids = [(lo, hi)], []
        for left, right in brackets:
            mid = 0.5 * (left + right)
            mids.append(mid)
            if len(brackets) < 2**_TREE_DEPTH - 1:
                brackets += [(mid, right), (left, mid)]
        excess = (fam._profile(proj - np.array(ends + mids)) - y).tolist()
        if ends:
            if excess[0] < 0 or excess[1] > 0:
                return math.nan, math.inf
            del excess[:2]
            ends = []
        node = 0
        for _ in range(_TREE_DEPTH):
            # above the level: the parameter lies beyond the midpoint
            if excess[node] >= 0:
                lo, node = mids[node], 2 * node + 1
            else:
                hi, node = mids[node], 2 * node + 2
            steps += 1
            if steps == BISECTION_STEPS or not hi - lo >= stop:
                b = 0.5 * (lo + hi)
                if node < len(mids):
                    return b, abs(excess[node])
                return b, abs(float(fam._profile(proj - np.array([b]))[0]) - y)


def _family_chain(fam: FoliationFamily, radius: int, tol: float):
    """The family's invariant chain as ``(chain, None)``, or ``(None,
    failed_hypothesis)`` when it cannot be extracted: the middle member may
    cross its own translates."""
    try:
        return fam.invariants(radius, tol), None
    except (InvariantExtractionError, LatticeEnumerationError) as exc:
        return None, f"family's invariant extraction failed: {exc}"


@dataclass
class MatchResult:
    """Outcome of matching a field against the family."""

    matched: bool
    status: str  # "matched" | "unmatched" | "not-applicable"
    b0: float | None = None
    sup_error: float | None = None
    failed_hypothesis: str | None = None
    witness: tuple | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": "rigidity",
            "passed": self.matched,
            "status": self.status,
            "b0": self.b0,
            "sup_error": self.sup_error,
            "failed_hypothesis": self.failed_hypothesis,
            "witness": None if self.witness is None else list(self.witness),
        }


def rigidity_check(
    u: ScalarField,
    fam: FoliationFamily,
    tol: float = 1e-3,
    order_tol: float = ORDER_TOL,
    radius: int = DEFAULT_RADIUS,
) -> MatchResult:
    """Match a sandwiched field against the foliation.

    Hypotheses checked first: the field must lie strictly between the
    bounding fields, its invariant chain must reproduce the family's chain
    below the last level, and its last direction must agree with the
    family's -- otherwise NOT_APPLICABLE with the failed hypothesis named.
    So does a chain that cannot be extracted, the field's or the family's
    (its middle member's, which may cross its own translates); the failed
    hypothesis then says whose it was.
    The family's profile may be closed-form or sampled.  The parameter is then
    located by bisection at the window's center node, on the family's own
    projection ``omega . x`` there (one-point agreement pins a leaf of a
    totally ordered family), and the global sup distance to that leaf
    decides the match.  ``tol`` and ``order_tol`` must be finite
    and >= 0.

    The field's chain usually comes from its scan plan's memo (see
    :func:`~phaselab.orbit.extract_invariants`), and the bisection is
    :func:`_bisect_point`, 12 profile calls for the 47 halvings down to
    ``1e-13`` on the README window; both give the bits of a fresh
    extraction and of :func:`_bisect_parameter`'s loop.
    """
    _check_tolerance("tol", tol)
    _check_tolerance("order_tol", order_tol)
    _check_count("radius", radius, 1)
    if compare(fam.lower, u, order_tol).kind is not Ordering.LESS or (
        compare(u, fam.upper, order_tol).kind is not Ordering.LESS
    ):
        return MatchResult(
            False, "not-applicable", failed_hypothesis="not strictly between the bounding fields"
        )
    fam_sys, failed = _family_chain(fam, radius, order_tol)
    if failed is not None:
        return MatchResult(False, "not-applicable", failed_hypothesis=failed)
    try:
        sys_u = extract_invariants(u, radius, order_tol)
    except (InvariantExtractionError, LatticeEnumerationError) as exc:
        return MatchResult(
            False, "not-applicable", failed_hypothesis=f"invariant extraction failed: {exc}"
        )
    t = fam_sys.t
    if sys_u.t < t - 1 or not np.allclose(sys_u.a[: t - 1], fam_sys.a[: t - 1], atol=1e-8):
        return MatchResult(
            False,
            "not-applicable",
            failed_hypothesis="invariant chain below the last level differs",
        )
    if sys_u.t < t or not np.allclose(sys_u.a[t - 1], fam_sys.a[t - 1], atol=1e-8):
        return MatchResult(
            False,
            "not-applicable",
            failed_hypothesis="last invariant direction differs from the family's",
        )
    target = float(u.total_values()[fam.center])
    window = (float(fam.b_grid[0]) - B_PAD, float(fam.b_grid[-1]) + B_PAD)
    b0, _ = _bisect_point(fam, fam._proj[fam.center], target, window, stop=1e-13)
    if math.isnan(b0):
        return MatchResult(
            False,
            "unmatched",
            failed_hypothesis="center value is outside the family's parameter window",
        )
    diff = np.abs(_difference(u, fam.member_at(b0)))
    sup_err = float(diff.max())
    witness = _point_of(u, int(diff.argmax()))
    if sup_err <= tol:
        return MatchResult(True, "matched", b0=b0, sup_error=sup_err, witness=witness)
    return MatchResult(False, "unmatched", b0=b0, sup_error=sup_err, witness=witness)


@dataclass
class EnvelopeIdentityReport:
    passed: bool
    worst_lower: float | None
    worst_upper: float | None
    per_member: list
    failed_hypothesis: str | None = None

    def to_json_dict(self) -> dict:
        out = {"kind": "envelope-identity", **asdict(self)}
        if self.failed_hypothesis is None:
            del out["failed_hypothesis"]
        return out


def envelope_identity_check(
    fam: FoliationFamily,
    tol: float = FOLIATION_TOL,
    steps: int = ENVELOPE_STEPS,
    sample=None,
    radius: int = DEFAULT_RADIUS,
    order_tol: float = ORDER_TOL,
) -> EnvelopeIdentityReport:
    """Envelopes of every sampled member must be the family's bounding fields.

    The envelopes are parameter-independent, so the per-member results should
    agree; the report records the worst sup distances seen.  Every member
    shares the family's invariant chain, which is extracted once.  A family
    whose chain cannot be extracted, or has length below 2, breaks the
    hypothesis of the identity: the report then fails with no member
    checked, no worst distances and the failed hypothesis named.  ``tol``
    must be finite and positive, ``order_tol`` finite and >= 0, and a
    ``sample`` a nonempty list of member indices.
    """
    _check_tolerance("tol", tol, positive=True)
    _check_tolerance("order_tol", order_tol)
    _check_count("steps", steps, 1)
    _check_count("radius", radius, 1)
    count = len(fam.members)
    idx = range(count) if sample is None else list(sample)
    if not idx:
        raise ValueError("envelope sample is empty")
    for i in idx:
        if not (_is_integer(i) and 0 <= i < count):
            raise ValueError(f"envelope sample index {i} is not a member index 0..{count - 1}")
    chain, failed = _family_chain(fam, radius, order_tol)
    if chain is not None and chain.t < 2:
        failed = f"family's invariant chain has length {chain.t}; envelopes need length >= 2"
    if failed is not None:
        return EnvelopeIdentityReport(False, None, None, [], failed_hypothesis=failed)
    per_member = []
    worst_lo = 0.0
    worst_hi = 0.0
    ok = True
    # drive the envelope iteration an order tighter than the comparison
    # budget: the limit is only resolved to the geometric tail of the
    # successive gaps
    inner_tol = tol / 10.0
    for i in idx:
        member = fam.members[i]
        up = envelope(member, chain, +1, steps, inner_tol)
        dn = envelope(member, chain, -1, steps, inner_tol)
        e_hi = sup_distance(up, fam.upper)
        e_lo = sup_distance(dn, fam.lower)
        worst_hi = max(worst_hi, e_hi)
        worst_lo = max(worst_lo, e_lo)
        good = e_hi <= tol and e_lo <= tol
        ok = ok and good
        per_member.append(
            {"member": int(i), "upper_error": e_hi, "lower_error": e_lo, "passed": good}
        )
    return EnvelopeIdentityReport(
        passed=ok, worst_lower=worst_lo, worst_upper=worst_hi, per_member=per_member
    )


@dataclass
class AsymptoticResult:
    classification: str  # "lower" | "upper" | "member" | "unclassified"
    limit: ScalarField | None
    b0: float | None
    steps_used: int
    cauchy_gap: float
    cluster: tuple | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": "asymptote",
            "passed": self.classification != "unclassified",
            "classification": self.classification,
            "b0": self.b0,
            "steps_used": self.steps_used,
            "cauchy_gap": self.cauchy_gap,
            "cluster": None if self.cluster is None else list(self.cluster),
        }


def asymptotic_limit(
    u: ScalarField,
    fam: FoliationFamily,
    gamma2_basis,
    direction,
    steps: int = 80,
    tol: float = 1e-7,
    classify_tol: float = 1e-5,
    radius: int = DEFAULT_RADIUS,
    order_tol: float = ORDER_TOL,
) -> AsymptoticResult:
    """Iterate a lattice translation and classify the limit field.

    Convergence is a successive-iterate Cauchy test in sup norm on values and
    central-difference gradients (the compact window stands in for local C^1
    convergence).  The limit is classified as the lower bound or the upper
    bound (within ``classify_tol`` in sup norm), a family member (matched
    through :func:`rigidity_check` at its own default ``tol``), or reported
    UNCLASSIFIED with the closest pair of iterates found.  A negative search
    is inconclusive: it says "not found", never "does not exist".

    ``u`` must share the family's grid and slope; that is checked before
    any iterate is taken, so the verdict does not depend on ``steps``.  The
    direction's components must be integers, ``tol`` and ``classify_tol``
    finite and positive, ``order_tol`` finite and >= 0.  Iterate j is
    ``translate(u, step.scaled(j))``, read as a window of one extended
    values array (see ``field._Orbit``).  Every step's value gap comes
    from whole-array reductions; the gradient gaps
    (``node_gradients`` of two iterates, about 0.3 ms on the README grid)
    are added only at steps whose value gap is below ``tol`` and at the
    last step, since no other step can pass; an orbit whose values settle
    before its gradients pays them at every such step.  ``steps_used`` is
    the first step whose full gap is below ``tol``, and only that limit
    becomes a field.  Gaps, limit and closest pair are bitwise those of
    translating one step at a time.
    """
    _check_same_grid(u, fam.lower)
    _check_tolerance("tol", tol, positive=True)
    _check_tolerance("classify_tol", classify_tol, positive=True)
    _check_tolerance("order_tol", order_tol)
    _check_count("radius", radius, 1)
    gamma2_basis = np.asarray(gamma2_basis, dtype=np.int64).reshape(-1, u.n + 1)
    dir_vec = list(direction)
    if len(dir_vec) != u.n + 1:
        raise ValueError("direction must have one component per lattice dimension")
    step = TranslationVector.from_components(dir_vec)
    if not any(dir_vec):
        raise ValueError("translation direction must be nonzero")
    if not _lattice_contains(gamma2_basis, dir_vec):
        raise ValueError("direction does not lie in the given sublattice")
    orbit = _Orbit(u, step, steps)
    for used, gap in enumerate(orbit.gaps(), start=1):
        if gap < tol or used == steps:
            gap = orbit.cauchy_gap(used)
            if gap < tol:
                break
    else:
        return AsymptoticResult(
            "unclassified", None, None, used, float(gap), cluster=orbit.closest_pair()
        )
    limit = orbit.field(used)
    if sup_distance(limit, fam.lower) <= classify_tol:
        return AsymptoticResult("lower", limit, None, used, float(gap))
    if sup_distance(limit, fam.upper) <= classify_tol:
        return AsymptoticResult("upper", limit, None, used, float(gap))
    match = rigidity_check(limit, fam, order_tol=order_tol, radius=radius)
    if match.matched:
        return AsymptoticResult("member", limit, match.b0, used, float(gap))
    return AsymptoticResult("unclassified", limit, None, used, float(gap))
