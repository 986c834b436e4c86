import gc
import json
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from phaselab import foliation, orbit
from phaselab.field import (
    ORDER_TOL,
    BoxAxis,
    GridError,
    Ordering,
    PeriodicAxis,
    SlopeMismatchError,
    TranslationVector,
    _Orbit,
    compare,
    constant_field,
    field_from_function,
    node_gradients,
    sup_distance,
    translate,
)
from phaselab.foliation import (
    AsymptoticResult,
    FoliationFamily,
    GridCompatibilityError,
    NonMonotoneFamilyError,
    asymptotic_limit,
    build_family,
    envelope_identity_check,
    rigidity_check,
    verify_foliation,
)
from phaselab.heteroclinic import (
    closed_form_profile,
    logistic_profile,
    solve_heteroclinic_bvp,
)
from phaselab.integrand import allen_cahn
from phaselab.minimize import RelaxOptions, energy_gradient, minimality_spot_check, relax
from phaselab.minimize import _bump
from phaselab.orbit import (
    InvariantSystem,
    envelope,
    extract_invariants,
    lattice_in_orthocomplement,
    self_intersection_scan,
    total_order_check,
)

AXES = (BoxAxis(-20, 20, 25), PeriodicAxis(1, 4))
#: An oblique family: its projections, taken by one matmul over the grid,
#: differ from per-node dot products at 1,396 of its 4,753 nodes
OBLIQUE = ((2, 1), (BoxAxis(-6, 6, 8), BoxAxis(-3, 3, 8)), False)
AC2 = allen_cahn(2)
GAMMA2 = lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3)


TWISTED = (PeriodicAxis(3, 8), PeriodicAxis(2, 4))
OSCILLATING = (BoxAxis(-8, 8, 8), PeriodicAxis(2, 4))
BOX2 = (BoxAxis(-4, 4, 8), BoxAxis(-4, 4, 8))


def _layer(p):
    return logistic_profile(p[..., 0] - 0.3)


def _twisted(p):
    return (
        2 * p[..., 0] / 3
        + 0.05 * np.sin(2 * np.pi * p[..., 0] / 3)
        + 0.05 * np.sin(np.pi * p[..., 1])
    )


def _wavy_layer(p):
    return logistic_profile(p[..., 0]) + 0.05 * np.sin(np.pi * p[..., 1])


def _oscillating(p):
    return 0.3 + 0.05 * np.sin(np.pi * p[..., 1])


def _steep_top(p):
    return np.exp(p[..., 0] - 8) + 0.05 * np.sin(np.pi * p[..., 1])


def _steep_bottom(p):
    return np.exp(-p[..., 0] - 8) + 0.05 * np.sin(np.pi * p[..., 1])


def _ripple(p):
    # values move by under 1e-7 a step along the box axis, gradients by more
    return 0.3 + 4e-8 * np.sin(2.5 * p[..., 0]) + 0.05 * np.sin(np.pi * p[..., 1])


def _diagonal_layer(p):
    return logistic_profile((p[..., 0] + p[..., 1]) / np.sqrt(2.0) - 0.3) + 0.02 * np.sin(
        np.pi * p[..., 0]
    )


# (axes, function, rises, direction, steps) of translation orbits: box steps
# both ways, cut short and run to convergence; a twisted axis moved by less
# than a period; a whole-period step; a vertical step; a step along a box
# axis and a period-2 axis at once; a period-2 oscillation; box steps
# whose gradient gap peaks at the window's top or bottom edge row; a step
# along two box axes at once; a box step that climbs one well per step,
# so the orbit never converges and its closest pair is searched over every
# lag; and a ripple along the box axis whose value gaps pass at every step
# while its gradient gaps fail, until the clamped window is constant
ORBIT_CASES = [
    (AXES, _layer, None, (-1, 0, 0), 12),
    (AXES, _layer, None, (1, 0, 0), 12),
    (TWISTED, _twisted, (2, 0), (1, 1, 0), 12),
    (AXES, _layer, None, (-1, 0, 0), 80),
    (AXES, _layer, None, (0, 1, 0), 12),
    (AXES, _layer, None, (0, 0, 1), 12),
    (OSCILLATING, _wavy_layer, None, (1, 1, 0), 20),
    (OSCILLATING, _oscillating, None, (0, 1, 0), 12),
    (OSCILLATING, _steep_top, None, (1, 0, 0), 6),
    (OSCILLATING, _steep_bottom, None, (-1, 0, 0), 6),
    (BOX2, _diagonal_layer, None, (1, 1, 0), 12),
    (AXES, _layer, None, (-1, 0, 1), 80),
    (OSCILLATING, _ripple, None, (1, 0, 0), 20),
]
ORBIT_IDS = [
    "box-to-upper",
    "box-to-lower",
    "twisted-periodic",
    "box-converged",
    "full-period",
    "vertical",
    "box-and-period-2",
    "oscillation",
    "steep-top-edge",
    "steep-bottom-edge",
    "two-box-axes",
    "box-and-vertical-unconverged",
    "gradient-ripple",
]
# the orbits an asymptote runs on: every one but the twisted, whose slope
# no family shares
ASYMPTOTE_CASES = [c for c, name in zip(ORBIT_CASES, ORBIT_IDS) if name != "twisted-periodic"]
ASYMPTOTE_IDS = [name for name in ORBIT_IDS if name != "twisted-periodic"]


def _reference_orbit(u, direction, steps):
    """The per-step loop an orbit must reproduce: one translate and one
    ``node_gradients`` per step.  Returns the iterates and the Cauchy gap of
    each step, values and gradients summed."""
    step = TranslationVector.from_components(direction)
    history, grads, gaps = [u], [node_gradients(u)], []
    for _ in range(steps):
        history.append(translate(history[-1], step))
        grads.append(node_gradients(history[-1]))
        gap = sup_distance(history[-1], history[-2])
        for gc, gp in zip(grads[-1], grads[-2]):
            gap += float(np.abs(gc - gp).max())
        gaps.append(gap)
    return history, gaps


def _reference_closest_pair(history):
    """The first pair of iterates at the least distance, from every pair."""
    best = None
    for i in range(len(history)):
        for j in range(i + 1, len(history)):
            d = sup_distance(history[i], history[j])
            if best is None or d < best[2]:
                best = (i, j, d)
    return best


def _reference_asymptote(u, fam, direction, steps, tol=1e-7, classify_tol=1e-5):
    """The classification ``asymptotic_limit`` must reproduce: the limit is
    the first iterate within ``tol`` of the one before, and an orbit that
    does not converge reports its closest pair."""
    history, gaps = _reference_orbit(u, direction, steps)
    used = next((j for j, gap in enumerate(gaps, start=1) if gap < tol), None)
    if used is None:
        cluster = _reference_closest_pair(history)
        return AsymptoticResult("unclassified", None, None, steps, float(gaps[-1]), cluster=cluster)
    limit, gap = history[used], gaps[used - 1]
    if sup_distance(limit, fam.lower) <= classify_tol:
        return AsymptoticResult("lower", limit, None, used, float(gap))
    if sup_distance(limit, fam.upper) <= classify_tol:
        return AsymptoticResult("upper", limit, None, used, float(gap))
    match = rigidity_check(limit, fam)
    kind = "member" if match.matched else "unclassified"
    return AsymptoticResult(kind, limit, match.b0 if match.matched else None, used, float(gap))


def _reference_envelope(u, chain, sign, steps, tol):
    """The per-step loop ``envelope`` must reproduce: translate the last
    iterate by the generator until two iterates are within ``tol``."""
    basis, a_t = chain.gamma_bases[chain.t - 1], chain.a[chain.t - 1]
    dots = basis @ a_t
    i = int(np.argmax(np.abs(dots)))
    step = TranslationVector.from_components(basis[i] if dots[i] * sign > 0 else -basis[i])
    limit = u
    for _ in range(steps):
        prev, limit = limit, translate(limit, step)
        if sup_distance(limit, prev) < tol:
            return limit
    raise AssertionError("the reference envelope did not converge")


def _steep_layer():
    # twice as steep as every member: sandwiched, same chain, no leaf fits
    return field_from_function(AXES, lambda p: logistic_profile(2.0 * p[..., 0]))


def _reference_bisect(fam, proj, levels, window=None, stop=1e-14):
    """The vectorized bisection the one-point solve must reproduce: every
    entry, a projection ``omega . x`` and a level, halves its own bracket
    until it is narrower than ``stop`` or the step cap is spent; an
    unbracketed level gives (nan, inf)."""
    if window is None:
        window = (fam.b_grid[0], fam.b_grid[-1])
    proj = np.asarray(proj, dtype=float)
    y = np.asarray(levels, dtype=float)

    def excess(b, sel=slice(None)):
        return fam._profile(proj[sel] - b) - y[sel]

    blo = np.full(y.size, float(window[0]))
    bhi = np.full(y.size, float(window[1]))
    bracketed = ~((excess(blo) < 0) | (excess(bhi) > 0))
    active = np.flatnonzero(bracketed)
    for _ in range(foliation.BISECTION_STEPS):
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


def _counting_profile(fam):
    """Count the family's profile calls, and the points of each."""
    calls = []
    real = fam._profile

    def counted(t):
        calls.append(np.size(t))
        return real(t)

    fam._profile = counted
    return calls


@pytest.fixture(scope="module")
def family():
    return build_family((1, 0), -5.0, 5.0, 11, AXES)


class TestBuildFamily:
    def test_member_is_profile_ridden_along_direction(self, family):
        member = family.member_at(0.0)
        col = member.total_values()[:, 0]
        expected = logistic_profile(AXES[0].coords())
        assert np.abs(col - expected).max() < 1e-15
        # constant across the transverse axis
        assert np.abs(np.diff(member.total_values(), axis=1)).max() == 0.0

    def test_non_integral_direction_rejected(self):
        # a truncated (1, 0) would be a different family
        with pytest.raises(ValueError) as err:
            FoliationFamily((1.5, 0), np.linspace(-2.0, 2.0, 5), AXES)
        assert str(err.value) == "direction components must be integers, got (1.5, 0)"

    def test_parameter_shift_is_lattice_translation(self, family):
        shifted = translate(family.member_at(0.0), TranslationVector((1, 0), 0))
        direct = family.member_at(1.0)
        # clamped tail contributes ~e^{-20}
        assert sup_distance(shifted, direct) < 2e-9

    def test_member_criticality(self, family):
        h = AXES[0].h
        for member in family.members[:: 5]:
            res = energy_gradient(member, AC2)
            sup = np.abs(res.values).max()
            assert sup <= 1e-3
            assert sup <= 0.2 * h * h  # frozen regression bound on C in C h^2

    def test_member_minimality(self, family):
        member = family.member_at(0.2)
        report = minimality_spot_check(member, AC2, trials=40, max_radius=2.0, seed=5)
        assert report.passed

    def test_member_invariants(self, family):
        sys = family.invariants()
        assert sys.t == 2
        assert np.allclose(sys.a[0], [0, 0, 1], atol=1e-12)
        assert np.allclose(sys.a[1], [-1, 0, 0], atol=1e-12)

    def test_invariants_cached_per_radius_and_tol(self):
        fam = build_family((1, 0), -5.0, 5.0, 11, AXES)
        mid = fam.members[len(fam.members) // 2]
        tight = fam.invariants(3, 1e-8)
        # a 10.0 budget swallows the layer's own translates: depth one
        loose = fam.invariants(3, 10.0)
        assert tight.t == 2
        assert loose.t == extract_invariants(mid, 3, 10.0).t == 1
        assert fam.invariants(3, 1e-8) is tight
        assert fam.invariants(3, 10.0) is loose

    def test_members_built_on_first_use(self):
        fam = build_family((1, 0), -5.0, 5.0, 11, AXES)
        chain = fam.invariants()
        assert rigidity_check(fam.member_at(0.3), fam, tol=1e-3).matched
        assert "members" not in vars(fam)
        mid = fam.members[len(fam.members) // 2]
        again = extract_invariants(mid)
        assert again.t == chain.t and again.a.tobytes() == chain.a.tobytes()
        for b, member in zip(fam.b_grid, fam.members):
            assert member.values.tobytes() == fam.member_at(b).values.tobytes()
        assert fam.members is fam.members

    def test_direction_must_match_grid(self):
        axes = (BoxAxis(-4, 4, 8), BoxAxis(-4, 4, 4))
        with pytest.raises(GridCompatibilityError):
            build_family((1, 1), -1.0, 1.0, 3, axes)
        with pytest.raises(GridCompatibilityError):
            build_family((0, 0), -1.0, 1.0, 3, AXES)

    @pytest.mark.parametrize(
        "direction, axes",
        [((2, 1), (BoxAxis(-20, 20, 8), PeriodicAxis(1, 8))), ((0, 1), AXES)],
        ids=["oblique", "periodic-only"],
    )
    def test_direction_along_periodic_axis_rejected(self, direction, axes):
        # a member varying along a periodic axis jumps across the wrap: on
        # the oblique grid by 0.097, against steps of at most 0.014 between
        # neighbours inside the period
        with pytest.raises(GridCompatibilityError, match="zero along periodic axes"):
            build_family(direction, -2.0, 2.0, 5, axes)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            build_family((1, 0), -1.0, 1.0, 1, AXES)

    @pytest.mark.parametrize(
        "b_min, b_max", [(-2.0, np.inf), (np.nan, 2.0), (-np.inf, 2.0)]
    )
    def test_parameter_grid_must_be_finite(self, b_min, b_max):
        with warnings.catch_warnings():
            # no numpy warning ahead of the error
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="parameter grid must be finite"):
                build_family((1, 0), b_min, b_max, 7, AXES)
        with pytest.raises(ValueError, match="parameter grid must be finite"):
            FoliationFamily((1, 0), [np.inf, np.inf], AXES)


class TestVerifyFoliation:
    def test_family_passes(self, family):
        report = verify_foliation(family, 1e-6)
        assert report.passed
        assert report.disjointness_passed
        assert report.coverage_passed
        # the uncovered bands hug the phases; at the window center their
        # width is the profile tail at the parameter range
        assert abs(report.phase_gap_lower - logistic_profile(-5.0)) < 1e-6

    def test_member_deletion_still_covers(self, family):
        thinned = build_family((1, 0), -5.0, 5.0, 11, AXES)
        thinned.members = [m for i, m in enumerate(thinned.members) if i != 5]
        thinned.b_grid = np.delete(thinned.b_grid, 5)
        report = verify_foliation(thinned, 1e-6)
        assert report.passed  # bisection refines between the neighbors

    def test_duplicate_member_fails_disjointness(self, family):
        dup = build_family((1, 0), -5.0, 5.0, 11, AXES)
        members = list(dup.members)
        members[4] = members[3]
        dup.members = members
        report = verify_foliation(dup, 1e-6)
        assert not report.passed
        assert not report.disjointness_passed

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    def test_disjointness_matches_pairwise_compare(self, tol):
        # the verdict per consecutive pair is the one compare gives
        fam = build_family((1, 0), -5.0, 5.0, 11, AXES)
        members = list(fam.members)
        members[4] = members[3]
        members[8] = fam.member_at(fam.b_grid[7] + 0.5 * tol)
        fam.members = members
        expected = []
        for i in range(len(fam.members) - 1):
            rel = compare(fam.members[i + 1], fam.members[i], tol)
            if rel.kind is not Ordering.LESS:
                expected.append(
                    {"check": "disjointness", "pair": [i, i + 1], "relation": rel.kind.value}
                )
        report = verify_foliation(fam, tol)
        found = [v for v in report.violations if v["check"] == "disjointness"]
        assert found == expected
        assert [v["pair"] for v in found] == [[3, 4], [7, 8]]
        assert report.disjointness_passed is False

    def test_unbracketed_levels_are_coverage_violations(self):
        # members moved three units beyond the parameter grid: levels near
        # the upper member are no longer bracketed by the window
        fam = build_family((1, 0), -5.0, 5.0, 11, AXES)
        fam.members = [fam.member_at(b + 3.0) for b in fam.b_grid]
        report = verify_foliation(fam, 1e-6)
        assert report.disjointness_passed and not report.coverage_passed
        misses = report.violations
        assert misses and all(v["check"] == "coverage" for v in misses)
        assert any(v["b"] is None and v["error"] == float("inf") for v in misses)
        # 7 x 4 sample points, less the four at x = -20 where the span is
        # below 2 tol; five levels each
        assert report.coverage_samples == 6 * 4 * 5
        json.dumps(report.to_json_dict())

    def test_report_json_is_fields_plus_kind(self, family):
        report = verify_foliation(family, 1e-6)
        payload = report.to_json_dict()
        assert payload.pop("kind") == "foliation"
        assert payload == vars(report)

    def test_shuffled_parameters_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FoliationFamily((1, 0), [0.0, -1.0, 1.0], AXES)

    def test_swapped_members_raise(self, family):
        bad = build_family((1, 0), -5.0, 5.0, 11, AXES)
        members = list(bad.members)
        members[2], members[7] = members[7], members[2]
        bad.members = members
        with pytest.raises(NonMonotoneFamilyError):
            verify_foliation(bad, 1e-6)


class TestBisectParameter:
    def test_bracketed_entries_meet_tolerance(self, family):
        rng = np.random.default_rng(3)
        coords = AXES[0].coords()
        x = rng.choice(coords[(coords > -4) & (coords < 4)], size=40)
        levels = rng.uniform(0.05, 0.95, size=40)
        b, err = foliation._bisect_parameter(family, x, levels)
        # the closed form puts level y at b = x - log(y / (1 - y))
        inside = np.abs(x - np.log(levels / (1.0 - levels))) < 5.0
        assert 0 < inside.sum() < inside.size
        assert np.array_equal(np.isfinite(b), inside)
        assert np.all(err[~inside] == np.inf)
        reached = logistic_profile(x[inside] - b[inside])
        assert np.array_equal(err[inside], np.abs(reached - levels[inside]))
        assert err[inside].max() <= 1e-12

    def test_entries_keep_their_own_brackets(self, family):
        # near b = 4.9 no bracket gets narrower than the spacing of doubles
        # there, so that entry runs to the step cap; near b = 0 the width
        # test stops it early; level 1/2 at x = 20 needs b = 20, outside
        # the window
        proj = [4.9, 0.001, 20.0, -3.0]
        levels = [0.5, 0.5, 0.5, float(logistic_profile(-1.0))]
        b, err = foliation._bisect_parameter(family, proj, levels, stop=5e-16)
        assert np.isnan(b[2]) and err[2] == np.inf
        for i, (x, level) in enumerate(zip(proj, levels)):
            b_one, err_one = foliation._bisect_parameter(family, [x], [level], stop=5e-16)
            assert b_one.tobytes() == b[i : i + 1].tobytes()
            assert err_one.tobytes() == err[i : i + 1].tobytes()
        assert abs(b[0] - 4.9) < 1e-14 and abs(b[1] - 0.001) < 1e-15
        assert abs(b[3] - -2.0) < 1e-14

    def test_unbracketed_levels_report_none_and_inf(self):
        # members beyond the parameter window widen the span at each point,
        # so its outer levels are not bracketed by the window
        wide = build_family((1, 0), -5.0, 5.0, 11, AXES)
        members = list(wide.members)
        members[0] = wide.member_at(-8.0)
        members[-1] = wide.member_at(9.0)
        wide.members = members
        report = verify_foliation(wide, 1e-6)
        assert not report.coverage_passed
        coverage = [v for v in report.violations if v["check"] == "coverage"]
        unbracketed = [v for v in coverage if v["b"] is None]
        assert unbracketed and all(v["error"] == np.inf for v in unbracketed)
        text = json.dumps(report.to_json_dict())
        assert '"b": null' in text and '"error": Infinity' in text


    @pytest.mark.parametrize(
        "direction, axes, sampled",
        [((1, 0), AXES, False), ((1, 0), AXES, True), OBLIQUE],
        ids=["closed-form", "profile1d", "oblique"],
    )
    def test_one_point_solve_is_the_loop(self, direction, axes, sampled):
        profile = closed_form_profile(20, 0.04) if sampled else None
        fam = build_family(direction, -5.0, 5.0, 11, axes, profile=profile)
        rng = np.random.default_rng(26)
        # projections of grid nodes, as the family's checks pass them
        nodes = fam._proj.ravel()
        nodes = nodes[np.abs(nodes) <= 12.0]
        stops = [0.0, 5e-16, 1e-14, 1e-13, 1e-3]
        # the step-cap case first: near b = 4.9 no bracket gets narrower
        # than the spacing of doubles there
        cases = [(4.9, 0.5, (-5.0, 5.0), stop) for stop in stops]
        # and a window too wide for 200 halvings to narrow
        cases.append((0.0, 0.5, (-1e300, 1e300), 1e-13))
        for i in range(1200):
            proj = float(rng.choice(nodes))
            # levels outside (0, 1), and windows missing the level's b,
            # are unbracketed
            level = float(rng.uniform(-0.05, 1.05))
            lo = float(rng.uniform(-9.0, 5.0))
            window = (lo, lo + float(rng.choice([1e-12, rng.uniform(0.0, 10.0)])))
            cases.append((proj, level, window, stops[i % len(stops)]))
        unbracketed = 0
        for proj, level, window, stop in cases:
            b_ref, err_ref = _reference_bisect(fam, [proj], [level], window, stop)
            b, err = foliation._bisect_point(fam, proj, level, window, stop)
            assert np.float64(b).tobytes() == b_ref.tobytes()
            assert np.float64(err).tobytes() == err_ref.tobytes()
            unbracketed += math.isnan(b) and err == math.inf
        assert 100 < unbracketed < len(cases) - 100

    def test_coverage_bisects_the_family_projection(self, monkeypatch):
        # on an oblique grid a dot product per node rounds omega . x
        # otherwise than the family's projection, which its members read
        direction, axes, _ = OBLIQUE
        fam = build_family(direction, -5.0, 5.0, 11, axes)
        real, seen = foliation._bisect_parameter, []

        def spy(f, proj, levels, *args):
            b, err = real(f, proj, levels, *args)
            seen.append((proj, levels, b, err))
            return b, err

        monkeypatch.setattr(foliation, "_bisect_parameter", spy)
        report = verify_foliation(fam, 1e-6)
        assert report.passed
        ((proj, levels, b, err),) = seen
        # the sampled nodes whose span holds levels, five levels each
        cols = np.ix_(*[np.unique(np.linspace(0, ax.nodes - 1, 7).astype(int)) for ax in axes])
        span = fam.members[0].total_values()[cols] - fam.members[-1].total_values()[cols]
        sampled = fam._proj[cols][span > 2e-6]
        nodes = np.repeat(sampled, foliation.COVERAGE_LEVELS_PER_POINT)
        assert proj.tobytes() == nodes.tobytes() and proj.size == report.coverage_samples
        grids = np.meshgrid(*[ax.coords() for ax in axes], indexing="ij")
        points = np.stack([g[cols][span > 2e-6] for g in grids], axis=-1)
        assert any(np.dot(fam.omega, x) != y for x, y in zip(points, sampled))
        for x, y, b_i, e_i in zip(proj, levels, b, err):
            reached = fam._profile(np.array([x - b_i]))[0]
            assert np.float64(abs(reached - y)).tobytes() == e_i.tobytes()

    def test_one_point_solve_calls_the_profile_once_per_four_halvings(self, family):
        # the rigidity window around level 1/2 at the center: 47 halvings
        # down to 1e-13, then the error at the last midpoint
        fam = build_family((1, 0), -5.0, 5.0, 11, AXES)
        calls = _counting_profile(fam)
        proj, window = fam._proj[fam.center], (-6.0, 6.0)
        b_ref, _ = _reference_bisect(fam, [proj], [0.25], window, 1e-13)
        assert len(calls) == 2 + 47 + 1
        calls.clear()
        b, _ = foliation._bisect_point(fam, proj, 0.25, window, 1e-13)
        assert np.float64(b).tobytes() == b_ref.tobytes()
        assert calls == [17] + [15] * 11


class TestMembers:
    def test_members_built_on_demand(self):
        fam = build_family((1, 0), -5.0, 5.0, 11, AXES)
        calls = _counting_profile(fam)
        members = fam.members
        assert len(members) == 11 and not calls
        third = members[3]
        assert len(calls) == 1 and members[3] is third
        assert third.values.tobytes() == fam.member_at(fam.b_grid[3]).values.tobytes()
        calls.clear()
        # members 10, 2 and 4 are built, 3 is kept
        assert members[-1] is members[10]
        assert [m is n for m, n in zip(members[2:5], (members[2], third, members[4]))] == [
            True
        ] * 3
        assert len(calls) == 3
        # iteration builds the other seven
        assert [m.values.tobytes() for m in members] == [
            fam.member_at(b).values.tobytes() for b in fam.b_grid
        ]
        assert len(calls) == 3 + 7 + 11

    def test_members_are_read_only(self):
        # a caller that needs other members assigns a list of its own
        fam = build_family((1, 0), -5.0, 5.0, 11, AXES)
        with pytest.raises(TypeError):
            fam.members[4] = fam.member_at(7.0)
        with pytest.raises(TypeError):
            del fam.members[0]
        assert not hasattr(fam.members, "insert")
        other = [fam.member_at(7.0)]
        fam.members = other
        assert fam.members is other

    def test_members_hold_no_reference_to_the_family(self):
        # a cycle through the family would keep every family alive until
        # the cyclic collector runs
        fam = build_family((1, 0), -5.0, 5.0, 11, AXES)
        members = fam.members
        members[3]
        alive = weakref.ref(fam)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del fam
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
        again = build_family((1, 0), -5.0, 5.0, 11, AXES).member_at(-1.0)
        assert members[4].values.tobytes() == again.values.tobytes()

    @pytest.mark.parametrize(
        "direction, axes, sampled",
        [
            ((1, 0), AXES, False),
            ((2, 1), (BoxAxis(-6, 6, 8), BoxAxis(-3, 3, 8)), False),
            ((1, 0), AXES, True),
        ],
        ids=["closed-form", "closed-form-diagonal", "profile1d"],
    )
    def test_members_match_sampled_function(self, direction, axes, sampled):
        profile = closed_form_profile(20, 0.04) if sampled else None
        fam = build_family(direction, -2.0, 2.0, 5, axes, profile=profile)
        prof = fam._profile
        for b, member in zip(fam.b_grid, fam.members):
            ref = field_from_function(axes, lambda p: prof(p @ fam.omega - b))
            assert member.values.tobytes() == ref.values.tobytes()
            assert member.rises == ref.rises and member.offset == ref.offset


class TestEnvelopeIdentity:
    def test_envelopes_are_phase_constants_for_all_members(self, family):
        report = envelope_identity_check(family, 1e-6, steps=60)
        assert report.passed
        assert report.worst_lower < 1e-6
        assert report.worst_upper < 1e-6

    def test_every_member_has_the_cached_chain(self, family):
        cached = family.invariants()
        for member in family.members:
            chain = extract_invariants(member)
            assert chain.t == cached.t
            assert chain.a.tobytes() == cached.a.tobytes()
            assert len(chain.gamma_bases) == len(cached.gamma_bases)
            for b, c in zip(chain.gamma_bases, cached.gamma_bases):
                assert b.tobytes() == c.tobytes()

    @pytest.mark.parametrize(
        "sample, message",
        [
            ([99], "envelope sample index 99 is not a member index 0..10"),
            ([0, -1], "envelope sample index -1 is not a member index 0..10"),
            ([2.5], "envelope sample index 2.5 is not a member index 0..10"),
            ([], "envelope sample is empty"),
            ([True], "envelope sample index True is not a member index 0..10"),
        ],
        ids=["past-the-end", "negative", "non-integral", "empty", "bool"],
    )
    def test_sample_outside_the_family_rejected(self, sample, message):
        # [99] used to be a bare IndexError, [-1] checked the last member
        # under the name -1, and [] passed with nothing checked
        fam = build_family((1, 0), -5.0, 5.0, 11, AXES)
        with pytest.raises(ValueError) as err:
            envelope_identity_check(fam, 1e-6, steps=60, sample=sample)
        assert str(err.value) == message

    def test_one_extraction_per_family(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return extract_invariants(*args, **kwargs)

        monkeypatch.setattr(foliation, "extract_invariants", counting)
        fam = build_family((1, 0), -5.0, 5.0, 11, AXES)
        assert envelope_identity_check(fam, 1e-6, steps=60).passed
        assert len(calls) == 1
        envelope_identity_check(fam, 1e-6, steps=60)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "direction, axes, order_tol, hypothesis",
        [
            # the middle member crosses 18 of its translates: no chain
            (
                *OBLIQUE[:2],
                ORDER_TOL,
                "family's invariant extraction failed: "
                "field has 18 crossing translates within radius 3",
            ),
            # every translate compares equal: a chain of length 1
            (
                (1, 0),
                AXES,
                10.0,
                "family's invariant chain has length 1; envelopes need length >= 2",
            ),
        ],
        ids=["oblique", "axis"],
    )
    def test_family_without_a_usable_chain_names_the_failed_hypothesis(
        self, direction, axes, order_tol, hypothesis
    ):
        fam = build_family(direction, -3, 3, 13, axes)
        report = envelope_identity_check(fam, order_tol=order_tol)
        assert report.passed is False and report.per_member == []
        assert report.worst_lower is None and report.worst_upper is None
        assert report.failed_hypothesis == hypothesis

    def test_report_of_a_family_with_a_chain_has_no_hypothesis_key(self):
        fam = build_family((1, 0), -5, 5, 11, AXES)
        report = envelope_identity_check(fam, sample=[0, 5])
        assert report.passed and report.failed_hypothesis is None
        assert set(report.to_json_dict()) == {
            "kind", "passed", "worst_lower", "worst_upper", "per_member"
        }

    def test_subinterval_family_has_same_envelopes(self):
        # the envelopes do not depend on the parameter window
        narrow = build_family((1, 0), -1.0, 1.0, 5, AXES)
        report = envelope_identity_check(narrow, 1e-6, steps=60)
        assert report.passed

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("case", ["member", "twisted-vertical"])
    def test_envelope_matches_reference_loop(self, family, case, sign):
        if case == "member":
            u, chain = family.member_at(0.3), family.invariants()
        else:
            # a generator that moves a twisted axis by a whole period and
            # climbs back by its rise, while the box axis clamps
            axes = (BoxAxis(-8, 8, 4), PeriodicAxis(3, 4))
            u = field_from_function(
                axes,
                lambda p: logistic_profile(p[..., 0]) + 2 * p[..., 1] / 3
                + 0.05 * np.sin(2 * np.pi * p[..., 1] / 3),
                (0, 2),
            )
            basis = np.array([[1, 3, 2]])
            chain = InvariantSystem(
                2, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], (np.eye(3), basis, basis[:0])
            )
        limit = envelope(u, chain, sign, steps=60, tol=1e-7)
        ref = _reference_envelope(u, chain, sign, steps=60, tol=1e-7)
        assert limit.values.tobytes() == ref.values.tobytes() and limit.offset == ref.offset


class TestRigidity:
    def test_member_matches_itself(self, family):
        m = rigidity_check(family.member_at(0.37), family, tol=1e-3)
        assert m.matched
        assert abs(m.b0 - 0.37) < 1e-10
        assert m.sup_error <= 1e-10

    def test_perturbed_member_relaxes_back(self, family):
        member = family.member_at(-0.8)
        phi = _bump(member, (0.0, 0.5), (2.0, 5.0), 0.01, 1)
        u0 = member.with_values(member.values + phi)
        res = relax(
            u0,
            AC2,
            RelaxOptions(max_iterations=25_000, gradient_tolerance=1e-5, initial_step=1e-4, log_every=10**9),
        )
        m = rigidity_check(res.field, family, tol=1e-3)
        assert m.matched
        assert m.sup_error < 1e-3
        assert abs(m.b0 - (-0.8)) < 0.5

    def test_criterion_08_bump_relaxes_in_seven_iterations(self, readme_family):
        # rigidity2d's start: the README member at b = 0 plus a 0.01 bump half
        # a unit above the layer (the halving descent took 11 iterations)
        member = readme_family.members[50]
        u0 = member.with_values(member.values + _bump(member, (0.5, 0.5), (2.0, 1.0), 0.01, 1))
        opts = RelaxOptions(
            max_iterations=30_000, gradient_tolerance=1e-5, initial_step=1e-4, log_every=10**9
        )
        res = relax(u0, AC2, opts)
        assert res.converged and res.iterations <= 7
        m = rigidity_check(res.field, readme_family, tol=1e-3)
        assert m.matched and abs(m.b0) <= 0.1
        # the last row is the closing step: the stop test passed just before
        assert list(res.history["iteration"]) == [0, res.iterations]
        before = relax(u0, AC2, replace(opts, max_iterations=res.iterations - 1))
        assert before.final_gradient_norm <= 1e-5

    def test_not_between_is_not_applicable(self, family):
        high = constant_field(AXES, 1.5)
        m = rigidity_check(high, family)
        assert m.status == "not-applicable"
        assert "between" in m.failed_hypothesis

    def test_opposite_orientation_is_not_applicable(self, family):
        # decreasing layer: same chain length, opposite last direction --
        # exactly the hypothesis the matching is conditioned on
        u = field_from_function(AXES, lambda p: logistic_profile(-p[..., 0]))
        m = rigidity_check(u, family)
        assert m.status == "not-applicable"
        assert "last invariant" in m.failed_hypothesis

    def test_steep_layer_is_unmatched_by_sup_error(self, family):
        m = rigidity_check(_steep_layer(), family, tol=1e-3)
        assert m.status == "unmatched" and not m.matched
        assert m.failed_hypothesis is None
        assert abs(m.b0) < 1e-12  # both cross 1/2 at the window center
        assert abs(m.sup_error - 0.150) < 1e-3
        assert m.witness is not None

    def test_member_beyond_window_is_unmatched(self, family):
        # b = 7.5 lies beyond the grid's end (5) and its pad (1)
        m = rigidity_check(family.member_at(7.5), family)
        assert m.status == "unmatched"
        assert m.failed_hypothesis == "center value is outside the family's parameter window"
        assert m.b0 is None and m.sup_error is None

    def test_crossing_input_is_not_applicable(self, family):
        u = field_from_function(
            AXES,
            lambda p: 0.5 + 0.2 * np.sin(np.pi * p[..., 0] / 20.0) * np.cos(2 * np.pi * p[..., 1]),
        )
        m = rigidity_check(u, family)
        assert m.status == "not-applicable"

    def test_self_intersecting_family_is_not_applicable(self):
        # the clamped box ends of an oblique family make its middle member
        # cross 18 translates within radius 3: the family has no chain to
        # match against, which is a failed hypothesis, not an error
        direction, axes, _ = OBLIQUE
        fam = build_family(direction, -3, 3, 13, axes)
        u = fam.member_at(0.3)
        m = rigidity_check(u, fam)
        assert m.status == "not-applicable" and not m.matched
        assert m.failed_hypothesis == (
            "family's invariant extraction failed: "
            "field has 18 crossing translates within radius 3"
        )
        assert m.b0 is None and m.sup_error is None
        # so an asymptote whose limit reaches the member branch is
        # unclassified, not raised
        gamma2 = lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3)
        for step, used in (((0, 1, 0), 7), ((1, 0, 0), 13)):
            res = asymptotic_limit(u, fam, gamma2, step)
            assert res.classification == "unclassified" and res.steps_used == used
            assert res.limit is not None and res.cluster is None

    @pytest.mark.parametrize("which", [13, 50, 87, "relaxed"])
    def test_matches_reference_solve(self, which, readme_family, monkeypatch):
        # the reference: the vectorized loop, and a chain solved afresh
        fam = readme_family
        u = fam.members[30 if which == "relaxed" else which]
        if which == "relaxed":
            bump = _bump(u, (-1.5, 0.5), (2.0, 1.0), 0.01, 1)
            opts = RelaxOptions(
                max_iterations=30_000, gradient_tolerance=1e-5, initial_step=1e-4, log_every=10**9
            )
            u = relax(u.with_values(u.values + bump), AC2, opts).field

        def run():
            match = rigidity_check(u, fam, tol=1e-3)
            # a whole-period step: the limit is u, classified by rigidity
            limit = asymptotic_limit(u, fam, GAMMA2, (0, 1, 0))
            assert limit.classification == "member"
            return repr(match), repr(limit), limit.limit.values.tobytes()

        with monkeypatch.context() as patch:
            patch.setattr(
                foliation,
                "_bisect_point",
                lambda f, p, y, w, stop: tuple(
                    float(x[0]) for x in _reference_bisect(f, [p], [y], w, stop)
                ),
            )
            patch.setattr(orbit, "_CHAINS_PER_PLAN", 0)
            orbit._scan_plan.cache_clear()
            ref = run()
        run()
        assert orbit._scan_table(u, 3, 1e-8).plan.chains
        assert run() == ref


@pytest.fixture(scope="module")
def readme_family():
    return build_family((1, 0), -5.0, 5.0, 101, AXES)


class TestAsymptotics:
    def test_translation_toward_upper_phase(self, family):
        gamma2 = lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3)
        r = asymptotic_limit(family.member_at(0.3), family, gamma2, (-1, 0, 0))
        assert r.classification == "upper"

    def test_translation_toward_lower_phase(self, family):
        gamma2 = lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3)
        r = asymptotic_limit(family.member_at(0.3), family, gamma2, (1, 0, 0))
        assert r.classification == "lower"

    def test_transverse_translation_recovers_the_member(self, family):
        gamma2 = lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3)
        r = asymptotic_limit(family.member_at(0.3), family, gamma2, (0, 1, 0))
        assert r.classification == "member"
        assert abs(r.b0 - 0.3) < 1e-6

    def test_relaxed_leaf_is_a_member_at_the_defaults(self, readme_family):
        # classify_tol is the distance to the phases only: a field that
        # rigidity_check matches at its defaults is a member asymptote too
        # (at the README's relax tolerance 3e-4 the field stays 3e-5 off the
        # member, outside classify_tol)
        u = readme_family.members[30]
        bump = _bump(u, (-1.5, 0.5), (2.0, 1.0), 0.01, 1)
        opts = RelaxOptions(
            max_iterations=30_000, gradient_tolerance=3e-4, initial_step=1e-4, log_every=10**9
        )
        u = relax(u.with_values(u.values + bump), AC2, opts).field
        match = rigidity_check(u, readme_family)
        assert match.matched and match.sup_error > 1e-5
        r = asymptotic_limit(u, readme_family, GAMMA2, (0, 1, 0))
        assert r.classification == "member" and r.steps_used == 1
        assert r.b0 == match.b0

    def test_constant_is_the_lower_bound(self, family):
        gamma2 = lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3)
        r = asymptotic_limit(constant_field(AXES, 0.0), family, gamma2, (1, 0, 0))
        assert r.classification == "lower"

    def test_zero_direction_rejected_before_iterating(self, family, monkeypatch):
        # the zero vector lies in every sublattice but moves nothing
        monkeypatch.setattr(foliation, "_Orbit", None)
        gamma2 = lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3)
        with pytest.raises(ValueError, match="^translation direction must be nonzero$"):
            asymptotic_limit(family.member_at(0.3), family, gamma2, (0, 0, 0))

    @pytest.mark.parametrize(
        "direction, shown", [((-1.7, 0, 0), "-1.7, 0, 0"), ((-0.5, 0, 0), "-0.5, 0, 0")]
    )
    def test_non_integral_direction_rejected(self, family, monkeypatch, direction, shown):
        # truncated, -1.7 would iterate (-1, 0, 0) and -0.5 read as the zero vector
        monkeypatch.setattr(foliation, "_Orbit", None)
        with pytest.raises(ValueError) as err:
            asymptotic_limit(family.member_at(0.3), family, GAMMA2, direction)
        assert str(err.value) == f"translation components must be integers, got ({shown})"

    @pytest.mark.parametrize(
        "key, value",
        [("tol", float("nan")), ("tol", -1.0), ("tol", float("inf")), ("tol", 0.0),
         ("classify_tol", float("nan")), ("classify_tol", -1.0)],
    )
    def test_bad_tolerance_rejected(self, family, monkeypatch, key, value):
        # no gap is below a NaN or negative tolerance: every step would run
        # into "unclassified"
        monkeypatch.setattr(foliation, "_Orbit", None)
        with pytest.raises(ValueError) as err:
            asymptotic_limit(family.member_at(0.3), family, GAMMA2, (-1, 0, 0), **{key: value})
        assert str(err.value) == f"{key} must be finite and positive, got {value}"

    def test_gradients_only_where_the_value_gap_passes(self, monkeypatch):
        # the README member toward the upper phase: the Cauchy gap, gradients
        # included, is taken at every step whose value gap is below tol and
        # at the last step, up to the first that passes, and at no other
        fam = build_family((1, 0), -5.0, 5.0, 101, AXES)
        value_gaps, calls = [], []
        gaps, cauchy_gap = _Orbit.gaps, _Orbit.cauchy_gap

        def recorded_gaps(orbit):
            value_gaps.extend(gaps(orbit))
            return value_gaps

        def recorded_cauchy_gap(orbit, j):
            calls.append(j)
            return cauchy_gap(orbit, j)

        monkeypatch.setattr(_Orbit, "gaps", recorded_gaps)
        monkeypatch.setattr(_Orbit, "cauchy_gap", recorded_cauchy_gap)
        r = asymptotic_limit(fam.members[50], fam, GAMMA2, (-1, 0, 0), steps=80, tol=1e-7)
        assert r.classification == "upper" and len(value_gaps) == 80
        candidates = [j for j, gap in enumerate(value_gaps, start=1) if gap < 1e-7 or j == 80]
        assert calls and calls == candidates[: len(calls)]
        assert calls[-1] == r.steps_used and r.cauchy_gap < 1e-7

    @pytest.mark.parametrize("steps", [0, -2])
    def test_steps_below_one_rejected(self, family, steps):
        # no iterate means no Cauchy test, so no "unclassified" verdict either
        gamma2 = lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3)
        with pytest.raises(ValueError, match=f"^steps must be at least 1, got {steps}$"):
            asymptotic_limit(family.member_at(0.3), family, gamma2, (-1, 0, 0), steps=steps)

    def test_two_state_oscillation_reports_cluster(self):
        axes = (BoxAxis(-8, 8, 8), PeriodicAxis(2, 4))
        fam = build_family((1, 0), -2.0, 2.0, 5, axes)
        u = field_from_function(axes, lambda p: 0.3 + 0.05 * np.sin(np.pi * p[..., 1]))
        gamma2 = lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3)
        r = asymptotic_limit(u, fam, gamma2, (0, 1, 0), steps=12)
        assert r.classification == "unclassified"
        assert r.cluster is not None
        i, j, dist = r.cluster
        assert dist < 1e-12  # period-2 orbit: every other iterate coincides

    def test_converged_limit_outside_the_family_is_unclassified(self, family):
        # the steep layer is invariant along the periodic axis: the first
        # iterate is the limit, but neither a phase nor a leaf
        r = asymptotic_limit(_steep_layer(), family, GAMMA2, (0, 1, 0))
        assert r.classification == "unclassified"
        assert r.limit is not None and r.cluster is None
        assert r.steps_used == 1 and r.cauchy_gap == 0.0
        assert r.to_json_dict()["passed"] is False

    @pytest.mark.parametrize("axes, fn, rises, direction, steps", ORBIT_CASES, ids=ORBIT_IDS)
    def test_iterates_equal_scaled_translates(self, axes, fn, rises, direction, steps):
        # iterate j is a window of one extended array, bitwise the start
        # translated by the step times j: rolls and clamped gathers compose
        # exactly, and so do the rational offsets
        u = field_from_function(axes, fn, rises)
        step = TranslationVector.from_components(direction)
        orbit = _Orbit(u, step, steps)
        for j in range(steps + 1):
            it, ref = orbit.field(j), translate(u, step.scaled(j))
            assert it.values.tobytes() == ref.values.tobytes() and it.offset == ref.offset

    @pytest.mark.parametrize("axes, fn, rises, direction, steps", ORBIT_CASES, ids=ORBIT_IDS)
    def test_orbit_matches_reference_loop(self, axes, fn, rises, direction, steps):
        # every step's value gap, every step's Cauchy gap (gradients
        # included) and the closest pair are bitwise those of translating
        # one step at a time, on every orbit, the twisted one and the
        # vertical step included
        u = field_from_function(axes, fn, rises)
        orbit = _Orbit(u, TranslationVector.from_components(direction), steps)
        history, gaps = _reference_orbit(u, direction, steps)
        value_gaps = [sup_distance(b, a) for a, b in zip(history, history[1:])]
        assert repr(orbit.gaps()) == repr(value_gaps)
        assert repr([orbit.cauchy_gap(j) for j in range(1, steps + 1)]) == repr(gaps)
        assert repr(orbit.closest_pair()) == repr(_reference_closest_pair(history))

    @pytest.mark.parametrize(
        "axes, fn, rises, direction, steps", ASYMPTOTE_CASES, ids=ASYMPTOTE_IDS
    )
    def test_matches_reference_loop(self, axes, fn, rises, direction, steps):
        u = field_from_function(axes, fn, rises)
        fam = build_family((1, 0), -2.0, 2.0, 5, axes)
        gamma2 = np.eye(3, dtype=int)
        r = asymptotic_limit(u, fam, gamma2, direction, steps=steps)
        ref = _reference_asymptote(u, fam, direction, steps)
        assert r.classification == ref.classification
        assert repr(r.b0) == repr(ref.b0)
        assert r.steps_used == ref.steps_used
        assert repr(r.cauchy_gap) == repr(ref.cauchy_gap)
        assert repr(r.cluster) == repr(ref.cluster)
        assert (r.limit is None) == (ref.limit is None)
        if r.limit is not None:
            assert r.limit.values.tobytes() == ref.limit.values.tobytes()
            assert r.limit.offset == ref.limit.offset

    @pytest.mark.parametrize("steps", [5, 80])
    @pytest.mark.parametrize("case", ["twisted", "other-grid"])
    def test_mismatched_field_rejected_before_iterating(self, family, monkeypatch, case, steps):
        # the verdict on a field of another slope or grid cannot depend on
        # how far the orbit runs: it is an error before any iterate
        monkeypatch.setattr(foliation, "_Orbit", None)
        if case == "twisted":
            axes, error = AXES, SlopeMismatchError
            u = field_from_function(axes, lambda p: _layer(p) + p[..., 1], (0, 1))
        else:
            axes, error = OSCILLATING, GridError
            u = field_from_function(axes, _layer)
        with pytest.raises(error):
            asymptotic_limit(u, family, GAMMA2, (-1, 0, 0), steps=steps)

    def test_direction_outside_sublattice_rejected(self, family):
        gamma2 = lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3)
        with pytest.raises(ValueError):
            asymptotic_limit(family.member_at(0.0), family, gamma2, (0, 0, 1))

    @pytest.mark.parametrize("direction", [(-1, 0, 0), (1, 0, 0), (0, 1, 0)])
    def test_any_basis_of_the_sublattice_serves(self, family, direction):
        # membership reads the lattice, not the order of its basis rows:
        # the rows swapped, or mixed, are the same sublattice
        u = family.member_at(0.3)
        ref = asymptotic_limit(u, family, GAMMA2, direction)
        for basis in (GAMMA2[::-1], [[1, 1, 0], [1, 2, 0]]):
            res = asymptotic_limit(u, family, basis, direction)
            assert repr(res) == repr(ref)
            assert res.limit.values.tobytes() == ref.limit.values.tobytes()


#: Library calls with one tolerance argument, named as its error names it,
#: and whether it must be positive (else >= 0).
TOLERANCE_CALLS = {
    "compare": (lambda fam, v: compare(fam.members[3], fam.members[4], v), "tol", False),
    "self_intersection_scan": (
        lambda fam, v: self_intersection_scan(fam.members[5], 3, v), "tol", False
    ),
    "extract_invariants": (lambda fam, v: extract_invariants(fam.members[5], 3, v), "tol", False),
    "total_order_check": (
        lambda fam, v: total_order_check(fam.members[:3], v), "order tolerance", False
    ),
    "verify_foliation": (lambda fam, v: verify_foliation(fam, v), "tol", False),
    "rigidity_check-tol": (
        lambda fam, v: rigidity_check(fam.member_at(0.3), fam, tol=v), "tol", False
    ),
    "rigidity_check-order_tol": (
        lambda fam, v: rigidity_check(fam.member_at(0.3), fam, order_tol=v), "order_tol", False
    ),
    "envelope_identity_check-tol": (
        lambda fam, v: envelope_identity_check(fam, tol=v, sample=[5]), "tol", True
    ),
    "envelope_identity_check-order_tol": (
        lambda fam, v: envelope_identity_check(fam, order_tol=v, sample=[5]), "order_tol", False
    ),
    "asymptotic_limit-order_tol": (
        lambda fam, v: asymptotic_limit(fam.member_at(0.3), fam, GAMMA2, (0, 1, 0), order_tol=v),
        "order_tol",
        False,
    ),
}


class TestToleranceArguments:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0])
    @pytest.mark.parametrize("call", TOLERANCE_CALLS)
    def test_non_finite_or_negative_rejected(self, family, call, value):
        # a NaN fails every "<= tol": verify_foliation passed, rigidity said
        # "unmatched", extraction saw 244 crossings and compare CROSSING
        fn, name, positive = TOLERANCE_CALLS[call]
        with pytest.raises(ValueError) as err:
            fn(family, value)
        bound = "positive" if positive else ">= 0"
        assert str(err.value) == f"{name} must be finite and {bound}, got {value}"

    @pytest.mark.parametrize(
        "call", [c for c, (_, _, positive) in TOLERANCE_CALLS.items() if not positive]
    )
    def test_zero_accepted(self, family, call):
        fn, _, _ = TOLERANCE_CALLS[call]
        fn(family, 0.0)


#: Every integer parameter of the analysis API: call -> (call with the value,
#: the parameter's name, a valid value)
INTEGER_CALLS = {
    "build_family-count": (lambda fam, v: build_family((1, 0), -5.0, 5.0, v, AXES), "count", 3),
    "extract_invariants-radius": (
        lambda fam, v: extract_invariants(fam.members[5], v), "radius", 3
    ),
    "self_intersection_scan-radius": (
        lambda fam, v: self_intersection_scan(fam.members[5], v), "radius", 3
    ),
    "lattice_in_orthocomplement-radius": (
        lambda fam, v: lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], v), "radius", 3
    ),
    "rigidity_check-radius": (
        lambda fam, v: rigidity_check(fam.member_at(0.3), fam, radius=v), "radius", 3
    ),
    "envelope_identity_check-steps": (
        lambda fam, v: envelope_identity_check(fam, steps=v, sample=[5]), "steps", 60
    ),
    "envelope_identity_check-radius": (
        lambda fam, v: envelope_identity_check(fam, radius=v, sample=[5]), "radius", 3
    ),
    "asymptotic_limit-steps": (
        lambda fam, v: asymptotic_limit(fam.member_at(0.3), fam, GAMMA2, (0, 1, 0), steps=v),
        "steps",
        3,
    ),
    "asymptotic_limit-radius": (
        lambda fam, v: asymptotic_limit(fam.member_at(0.3), fam, GAMMA2, (0, 1, 0), radius=v),
        "radius",
        3,
    ),
    "envelope-steps": (
        lambda fam, v: envelope(fam.members[5], fam.invariants(), 1, steps=v), "steps", 60
    ),
}


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "value", [2.5, 3.0, np.float64(3.0), True, "3"], ids=["2.5", "3.0", "np-3.0", "True", "str"]
    )
    @pytest.mark.parametrize("call", INTEGER_CALLS)
    def test_non_integer_rejected(self, family, call, value):
        # 2.5 ended in a TypeError deep inside the work, and True ran as 1
        fn, name, _ = INTEGER_CALLS[call]
        with pytest.raises(ValueError) as err:
            fn(family, value)
        assert str(err.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("call", INTEGER_CALLS)
    def test_numpy_integer_accepted(self, family, call):
        fn, _, valid = INTEGER_CALLS[call]
        fn(family, np.int64(valid))


class TestProfileBackedFamily:
    @pytest.mark.parametrize("h", [0.04, 0.02])
    def test_closed_form_samples_within_error(self, h):
        # linear interpolation errs by at most h^2 max|P''| / 8, and
        # max|P''| = 1/(6 sqrt 3) for the logistic P; beyond [-20, 20] the
        # interpolant holds its end values, which adds the clamped tail P(-20)
        eps = h * h / (6.0 * np.sqrt(3.0)) / 8.0 + float(logistic_profile(-20.0))
        closed = build_family((1, 0), -5.0, 5.0, 101, AXES)
        fam = build_family((1, 0), -5.0, 5.0, 101, AXES, profile=closed_form_profile(20, h))
        pairs = list(zip(fam.members, closed.members))
        pairs.append((fam.member_at(0.37), closed.member_at(0.37)))
        assert max(sup_distance(u, v) for u, v in pairs) <= eps + 1e-12
        report = verify_foliation(fam, 1e-6)
        assert report.passed and report.coverage_samples > 0
        m = rigidity_check(closed.member_at(0.37), fam)
        assert m.matched
        assert abs(m.b0 - 0.37) <= 5 * eps and m.sup_error <= 3 * eps

    def test_family_from_bvp_profile(self):
        # h = 0.05 puts the profile's nodes off the grid's 1/25 spacing
        profile = solve_heteroclinic_bvp(20, 0.05)
        fam = build_family((1, 0), -2.0, 2.0, 5, AXES, profile=profile)
        report = verify_foliation(fam, 1e-6)
        assert report.passed and report.coverage_passed and report.coverage_samples > 0
        # members agree with the closed-form family to the scheme error
        closed = build_family((1, 0), -2.0, 2.0, 5, AXES)
        assert sup_distance(fam.member_at(0.33), closed.member_at(0.33)) < 1e-3

    def test_misaligned_profile_accepted(self):
        # the in-memory BVP profile at h = 0.05, whose nodes miss the grid's
        # 1/25 spacing, gives members between the grid parameters
        profile = solve_heteroclinic_bvp(20, 0.05)
        fam = build_family((1, 0), -2.0, 2.0, 5, AXES, profile=profile)
        closed = build_family((1, 0), -2.0, 2.0, 5, AXES)
        member = fam.member_at(0.33)
        assert np.all(np.isfinite(member.values))
        assert sup_distance(member, closed.member_at(0.33)) < 1e-3
        assert np.all(fam.member_at(0.2).values >= member.values)
        assert np.all(member.values >= fam.member_at(0.5).values)

    def test_member_limit_is_a_member(self):
        # the member is invariant along the periodic axis: it is its own
        # limit, which the rigidity check places in the family
        profile = solve_heteroclinic_bvp(20, 0.05)
        fam = build_family((1, 0), -2.0, 2.0, 5, AXES, profile=profile)
        r = asymptotic_limit(fam.member_at(0.33), fam, GAMMA2, (0, 1, 0))
        assert r.classification == "member"
        assert r.limit is not None and r.steps_used == 1
        assert abs(r.b0 - 0.33) < 1e-9

