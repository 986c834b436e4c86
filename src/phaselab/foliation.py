"""Explicit minimal foliations of the slab between the pure phases.

A family member is the 1-D connecting profile ridden along a rational
direction: v_b(x) = profile(omega . x - b).  The family decreases strictly
in b, its graphs are pairwise disjoint, and between consecutive members any
intermediate level is reached by bisection in b, so the family foliates the
open region between its bounding fields.  On a truncated window the family
covers everything except two bands hugging the pure phases whose width is
set by the window and parameter range; the verifier measures and reports
those bands rather than pretending they vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (
    ORDER_TOL,
    Ordering,
    ScalarField,
    TranslationVector,
    compare,
    constant_field,
    field_from_function,
    node_gradients,
    sup_distance,
    translate,
)
from .heteroclinic import Profile1D, logistic_profile
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
#: ``rigidity_check`` searches b this far beyond the family's parameter grid.
B_PAD = 1.0


class GridCompatibilityError(ValueError):
    pass


class NonMonotoneFamilyError(RuntimeError):
    """Member values do not decrease along the parameter grid."""


def _profile_callable(profile):
    if profile is None:
        return logistic_profile, True
    if isinstance(profile, Profile1D):
        grid = profile.grid()
        vals = profile.values
        lo, hi = grid[0], grid[-1]
        inv_h = 1.0 / profile.h

        def lookup(t):
            t = np.asarray(t, dtype=float)
            clipped = np.clip(t, lo, hi)
            idx_f = (clipped - lo) * inv_h
            idx = np.round(idx_f).astype(int)
            if np.abs(idx_f - idx).max() > 1e-9:
                raise GridCompatibilityError(
                    "sampled profile does not align with the requested grid"
                )
            return vals[idx]

        return lookup, False
    return profile, True


class FoliationFamily:
    """One-parameter family b -> v_b over the slab between two bounding fields."""

    def __init__(self, direction, b_grid, axes, profile=None):
        direction = tuple(int(d) for d in direction)
        if not any(direction):
            raise GridCompatibilityError("direction must be nonzero")
        axes = tuple(axes)
        if len(direction) != len(axes):
            raise GridCompatibilityError("direction dimension does not match the grid")
        active_m = {ax.m for ax, d in zip(axes, direction) if d != 0}
        if len(active_m) > 1:
            raise GridCompatibilityError(
                "axes carrying the direction must share one spacing so that "
                "lattice translations stay grid-exact along it"
            )
        b_grid = np.asarray(b_grid, dtype=float)
        if b_grid.size < 2 or np.any(np.diff(b_grid) <= 0):
            raise ValueError("parameter grid must be strictly increasing with >= 2 entries")
        omega = np.asarray(direction, dtype=float)
        self.omega = omega / np.linalg.norm(omega)
        self.direction = direction
        self.axes = axes
        self.b_grid = b_grid
        self._profile, self.continuous = _profile_callable(profile)
        self.members = [self._build(b) for b in b_grid]
        self.lower = constant_field(axes, 0.0)
        self.upper = constant_field(axes, 1.0)
        self._invariants: InvariantSystem | None = None

    def _build(self, b: float) -> ScalarField:
        prof = self._profile
        om = self.omega
        return field_from_function(self.axes, lambda pts: prof(pts @ om - b))

    def member_at(self, b: float) -> ScalarField:
        return self._build(float(b))

    def value_at(self, b: float, point) -> float:
        t = float(np.dot(self.omega, np.asarray(point, dtype=float)) - b)
        return float(self._profile(np.array([t]))[0])

    def center_point(self) -> tuple[float, ...]:
        pts = []
        for ax in self.axes:
            c = ax.coords()
            pts.append(float(c[c.size // 2]))
        return tuple(pts)

    def invariants(self, radius: int = DEFAULT_RADIUS, tol: float = ORDER_TOL) -> InvariantSystem:
        """Invariant chain of the family's members (computed once)."""
        if self._invariants is None:
            mid = self.members[len(self.members) // 2]
            self._invariants = extract_invariants(mid, radius, tol)
        return self._invariants


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
    if count < 2:
        raise ValueError("a family needs at least two members")
    return FoliationFamily(direction, np.linspace(b_min, b_max, count), axes, profile)


@dataclass
class FoliationReport:
    passed: bool
    disjointness_passed: bool
    coverage_passed: bool
    coverage_supported: bool
    members: int
    coverage_samples: int
    phase_gap_lower: float
    phase_gap_upper: float
    violations: list

    def to_json_dict(self) -> dict:
        return {
            "kind": "foliation",
            "passed": self.passed,
            "disjointness_passed": self.disjointness_passed,
            "coverage_passed": self.coverage_passed,
            "coverage_supported": self.coverage_supported,
            "members": self.members,
            "coverage_samples": self.coverage_samples,
            "phase_gap_lower": self.phase_gap_lower,
            "phase_gap_upper": self.phase_gap_upper,
            "violations": self.violations,
        }


def verify_foliation(fam: FoliationFamily, tol: float = FOLIATION_TOL) -> FoliationReport:
    """Check pairwise disjointness and interior coverage of the family.

    Disjointness: member values never increase along b beyond ``tol`` at any
    grid point (a violation raises :class:`NonMonotoneFamilyError`), and every
    consecutive pair is strictly ordered -- equal members fail.  Coverage: at
    sampled points, every level strictly inside the family's own span is hit
    by bisection over b to within ``tol``; the residual bands between the
    span and the pure phases are reported as the phase gaps.
    """
    stack = np.stack([m.total_values() for m in fam.members])
    increase = float(np.diff(stack, axis=0).max(initial=-np.inf))
    if increase > tol:
        raise NonMonotoneFamilyError(
            f"member values increase by {increase:.3e} along the parameter grid"
        )
    violations = []
    disjoint = True
    for i in range(len(fam.members) - 1):
        rel = compare(fam.members[i + 1], fam.members[i], tol)
        if rel.kind is not Ordering.LESS:
            disjoint = False
            violations.append(
                {"check": "disjointness", "pair": [i, i + 1], "relation": rel.kind.value}
            )
    # uncovered levels form two bands adjacent to the bounding fields; their
    # width is smallest at the window center and saturates toward the edges,
    # where the truncated parameter range runs out -- report the center width
    lower_vals = fam.lower.total_values()
    upper_vals = fam.upper.total_values()
    center = tuple(ax.nodes // 2 for ax in fam.axes)
    phase_gap_lower = float(stack[-1][center] - lower_vals[center])
    phase_gap_upper = float(upper_vals[center] - stack[0][center])

    coverage_ok = True
    samples = 0
    if fam.continuous:
        sample_idx = []
        for ax in fam.axes:
            k = min(COVERAGE_POINTS_PER_AXIS, ax.nodes)
            sample_idx.append(np.unique(np.linspace(0, ax.nodes - 1, k).astype(int)))
        mesh = np.meshgrid(*sample_idx, indexing="ij")
        flat_pts = np.stack([g.ravel() for g in mesh], axis=-1)
        coords = [ax.coords() for ax in fam.axes]
        for idx in flat_pts:
            idx = tuple(int(i) for i in idx)
            col = stack[(slice(None),) + idx]
            span_hi, span_lo = float(col[0]), float(col[-1])
            if span_hi - span_lo <= 2 * tol:
                continue  # saturated tail: nothing strictly inside the span here
            point = tuple(coords[i][j] for i, j in enumerate(idx))
            for y in np.linspace(span_lo + tol, span_hi - tol, COVERAGE_LEVELS_PER_POINT):
                samples += 1
                b_found, err = _bisect_parameter(fam, point, float(y))
                if err > tol:
                    coverage_ok = False
                    violations.append(
                        {
                            "check": "coverage",
                            "point": list(point),
                            "level": float(y),
                            "b": b_found,
                            "error": err,
                        }
                    )
    return FoliationReport(
        passed=disjoint and coverage_ok,
        disjointness_passed=disjoint,
        coverage_passed=coverage_ok,
        coverage_supported=fam.continuous,
        members=len(fam.members),
        coverage_samples=samples,
        phase_gap_lower=phase_gap_lower,
        phase_gap_upper=phase_gap_upper,
        violations=violations,
    )


def _bisect_parameter(fam: FoliationFamily, point, y: float, window=None, stop=1e-14):
    """Solve v_b(point) = y for b by bisection (v_b decreasing in b) on
    ``window`` (default: the family's parameter grid), down to a bracket
    narrower than ``stop``.  Returns (b, |v_b(point) - y|), or (None, inf)
    when the window does not bracket y."""
    if window is None:
        window = (fam.b_grid[0], fam.b_grid[-1])
    blo, bhi = float(window[0]), float(window[1])
    flo = fam.value_at(blo, point) - y
    fhi = fam.value_at(bhi, point) - y
    if flo < 0 or fhi > 0:
        return None, np.inf
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (blo + bhi)
        fm = fam.value_at(mid, point) - y
        if fm >= 0:
            blo = mid
        else:
            bhi = mid
        if bhi - blo < stop:
            break
    mid = 0.5 * (blo + bhi)
    return mid, abs(fam.value_at(mid, point) - y)


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
    The parameter is then located by bisection at the window's center point
    (one-point agreement pins a leaf of a totally ordered family) and the
    global sup distance to that leaf decides the match.
    """
    if compare(fam.lower, u, order_tol).kind is not Ordering.LESS or (
        compare(u, fam.upper, order_tol).kind is not Ordering.LESS
    ):
        return MatchResult(
            False, "not-applicable", failed_hypothesis="not strictly between the bounding fields"
        )
    fam_sys = fam.invariants(radius, order_tol)
    try:
        sys_u = extract_invariants(u, radius, order_tol)
    except (InvariantExtractionError, LatticeEnumerationError) as exc:
        return MatchResult(
            False,
            "not-applicable",
            failed_hypothesis=f"invariant extraction failed: {exc}",
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
    x_star = fam.center_point()
    center_idx = tuple(ax.nodes // 2 for ax in fam.axes)
    target = float(u.total_values()[center_idx])
    window = (float(fam.b_grid[0]) - B_PAD, float(fam.b_grid[-1]) + B_PAD)
    b0, _ = _bisect_parameter(fam, x_star, target, window, stop=1e-13)
    if b0 is None:
        return MatchResult(
            False,
            "unmatched",
            failed_hypothesis="center value is outside the family's parameter window",
        )
    leaf = fam.member_at(b0)
    diff = np.abs(
        (u.values - leaf.values) + float(u.offset - leaf.offset)
    )
    sup_err = float(diff.max())
    wit_idx = np.unravel_index(int(diff.argmax()), diff.shape)
    coords = [ax.coords() for ax in fam.axes]
    witness = tuple(float(coords[i][j]) for i, j in enumerate(wit_idx))
    if sup_err <= tol:
        return MatchResult(True, "matched", b0=b0, sup_error=sup_err, witness=witness)
    return MatchResult(False, "unmatched", b0=b0, sup_error=sup_err, witness=witness)


@dataclass
class EnvelopeIdentityReport:
    passed: bool
    worst_lower: float
    worst_upper: float
    per_member: list

    def to_json_dict(self) -> dict:
        return {
            "kind": "envelope-identity",
            "passed": self.passed,
            "worst_lower": self.worst_lower,
            "worst_upper": self.worst_upper,
            "per_member": self.per_member,
        }


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
    agree; the report records the worst sup distances seen.
    """
    idx = range(len(fam.members)) if sample is None else sample
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
        sys_m = extract_invariants(member, radius, order_tol)
        up = envelope(member, sys_m, +1, steps, inner_tol, verify=False)
        dn = envelope(member, sys_m, -1, steps, inner_tol, verify=False)
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


def _c1_gap(cur: ScalarField, prev: ScalarField) -> float:
    gap = sup_distance(cur, prev)
    for gc, gp in zip(node_gradients(cur), node_gradients(prev)):
        gap += float(np.abs(gc - gp).max())
    return gap


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
    convergence).  The limit is classified as the lower bound, the upper
    bound, a family member (matched through the rigidity check), or reported
    UNCLASSIFIED with the closest pair of iterates found.  A negative search
    is inconclusive: it says "not found", never "does not exist".
    """
    gamma2_basis = np.asarray(gamma2_basis, dtype=np.int64).reshape(-1, u.n + 1)
    dir_vec = [int(x) for x in direction]
    if len(dir_vec) != u.n + 1:
        raise ValueError("direction must have one component per lattice dimension")
    if not _lattice_contains(gamma2_basis, dir_vec):
        raise ValueError("direction does not lie in the given sublattice")
    step_vec = TranslationVector.from_components(dir_vec)
    prev = u
    history = [u]
    limit = None
    gap = np.inf
    used = 0
    for m in range(1, steps + 1):
        cur = translate(u, step_vec.scaled(m))
        gap = _c1_gap(cur, prev)
        history.append(cur)
        used = m
        if gap < tol:
            limit = cur
            break
        prev = cur
    if limit is None:
        best = None
        for i in range(len(history)):
            for j in range(i + 1, len(history)):
                d = sup_distance(history[i], history[j])
                if best is None or d < best[2]:
                    best = (i, j, d)
        return AsymptoticResult(
            "unclassified", None, None, used, float(gap), cluster=best
        )
    if sup_distance(limit, fam.lower) <= classify_tol:
        return AsymptoticResult("lower", limit, None, used, float(gap))
    if sup_distance(limit, fam.upper) <= classify_tol:
        return AsymptoticResult("upper", limit, None, used, float(gap))
    match = rigidity_check(limit, fam, tol=classify_tol, order_tol=order_tol, radius=radius)
    if match.matched:
        return AsymptoticResult("member", limit, match.b0, used, float(gap))
    return AsymptoticResult("unclassified", limit, None, used, float(gap))
