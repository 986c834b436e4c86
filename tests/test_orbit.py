import itertools
import json

import numpy as np
import pytest
from fractions import Fraction

from phaselab import orbit
from phaselab.field import (
    BoxAxis,
    GridError,
    OrderRelation,
    Ordering,
    PeriodicAxis,
    ScalarField,
    SlopeMismatchError,
    TranslationVector,
    compare,
    constant_field,
    field_from_function,
    sup_distance,
    translate,
)
from phaselab.heteroclinic import logistic_profile
from phaselab.integrand import allen_cahn
from phaselab.orbit import (
    InvariantExtractionError,
    InvariantSystem,
    LatticeEnumerationError,
    classify_translation,
    envelope,
    extract_invariants,
    gap_check,
    is_admissible,
    lattice_in_orthocomplement,
    self_intersection_scan,
    total_order_check,
)

E3 = np.array([0.0, 0.0, 1.0])

_MIRROR = {
    Ordering.LESS: Ordering.GREATER,
    Ordering.GREATER: Ordering.LESS,
    Ordering.EQUAL: Ordering.EQUAL,
    Ordering.CROSSING: Ordering.CROSSING,
}
_SIGN = {Ordering.GREATER: 1.0, Ordering.LESS: -1.0, Ordering.EQUAL: 0.0}


def _relations(scan):
    """The scan as a dict from each translation to its relation, in order."""
    return {tuple(int(x) for x in key): scan.relation(k) for k, key in enumerate(scan.keys)}

LAYER_AXES = (BoxAxis(-20, 20, 25), PeriodicAxis(1, 4))


def layer_member(b):
    return field_from_function(LAYER_AXES, lambda p: logistic_profile(p[..., 0] - b))


def hull_field():
    # average slope 1/2 with a periodic wiggle: the classic sheared example
    return field_from_function(
        (PeriodicAxis(2, 8),),
        lambda p: 0.5 * p[..., 0] + 0.1 * np.sin(2 * np.pi * p[..., 0]),
        rises=(1,),
    )


def crossing_field():
    # genuinely 2-D oscillation with period 2: it crosses its own translate
    axes = (PeriodicAxis(2, 8), PeriodicAxis(2, 8))
    return field_from_function(
        axes,
        lambda p: 0.5
        + 0.2 * np.sin(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1] + np.pi / 4),
    )


class TestFirstDirection:
    def test_zero_slope_chain_has_no_negative_zero(self):
        # a_1 = (-slope, 1) / norm flips the sign of the zero slope: without
        # the flush invariants.json would print -0.0
        sys = extract_invariants(layer_member(0.3), 3)
        assert np.array_equal(sys.a[0], E3)
        assert not np.signbit(sys.a[0]).any()
        assert "-0.0" not in json.dumps(sys.to_json_dict())

    def test_sheared_field(self):
        a1 = extract_invariants(hull_field(), 3).a[0]
        expected = np.array([-0.5, 1.0]) / np.sqrt(1.25)
        assert np.abs(a1 - expected).max() < 1e-14


class TestClassifyTranslation:
    def test_zero_translation_equal(self):
        u = layer_member(0.0)
        rel = classify_translation(u, TranslationVector((0, 0), 0))
        assert rel.kind is Ordering.EQUAL

    def test_layer_shift_along_profile(self):
        u = layer_member(0.0)
        assert classify_translation(u, TranslationVector((1, 0), 0)).kind is Ordering.LESS
        assert classify_translation(u, TranslationVector((-1, 0), 0)).kind is Ordering.GREATER

    def test_layer_invariant_transverse(self):
        u = layer_member(0.0)
        assert classify_translation(u, TranslationVector((0, 1), 0)).kind is Ordering.EQUAL

    def test_sign_observation(self):
        # a translation with positive inner product against the rotation
        # direction always lands above the field, and below for negative
        for u in (layer_member(0.4), hull_field(), constant_field((PeriodicAxis(1, 4),), 0.2)):
            a1 = extract_invariants(u).a[0]
            n = u.n
            for k in np.ndindex(*(5,) * (n + 1)):
                kbar = tuple(int(x) - 2 for x in k)
                dot = float(np.dot(kbar, a1))
                if abs(dot) < 1e-9:
                    continue
                kind = classify_translation(
                    u, TranslationVector(kbar[:-1], kbar[-1])
                ).kind
                assert kind is (Ordering.GREATER if dot > 0 else Ordering.LESS)


class TestSelfIntersectionScan:
    def test_layer_is_clean(self):
        assert self_intersection_scan(layer_member(0.3), 3) == []

    def test_constant_is_clean(self):
        assert self_intersection_scan(constant_field((PeriodicAxis(1, 4),), 0.25), 3) == []

    def test_genuinely_2d_oscillation_crosses(self):
        wits = self_intersection_scan(crossing_field(), 3)
        assert wits
        assert any(w.kbar.vertical == 0 for w in wits)

    def test_witness_reproduces_crossing(self):
        wits = self_intersection_scan(crossing_field(), 2)
        w = wits[0]
        again = classify_translation(crossing_field(), w.kbar)
        assert again.kind is Ordering.CROSSING

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            self_intersection_scan(layer_member(0.0), 0)


def _random_grid_field(rng, axes, rises):
    shape = tuple(ax.nodes for ax in axes)
    return ScalarField(
        axes,
        0.3 * rng.standard_normal(shape),
        rises,
        Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))),
    )


class TestScanTable:
    GRIDS = (
        ((BoxAxis(-2, 2, 4),), (0,)),
        ((BoxAxis(-1, 1, 4), BoxAxis(0, 2, 4)), (0, 0)),
        ((PeriodicAxis(2, 4),), (0,)),
        ((PeriodicAxis(1, 4), PeriodicAxis(2, 4)), (0, 0)),
        ((PeriodicAxis(2, 4),), (3,)),
        ((PeriodicAxis(2, 4), BoxAxis(-1, 1, 4)), (-1, 0)),
        ((PeriodicAxis(3, 4), PeriodicAxis(1, 8)), (2, -1)),
    )

    def test_compare_mirror_sweep(self):
        # swapping the arguments negates the difference exactly, so the
        # kind mirrors and the margin is bitwise the same
        rng = np.random.default_rng(11)
        seen = set()
        for axes, rises in self.GRIDS:
            for _ in range(12):
                u = _random_grid_field(rng, axes, rises)
                shift = rng.choice([0.0, 1e-9, 2.0, -2.0, float(rng.uniform(-0.5, 0.5))])
                v = (
                    _random_grid_field(rng, axes, rises)
                    if rng.random() < 0.3
                    else u.with_values(u.values + shift)
                )
                kbar = TranslationVector(
                    tuple(int(k) for k in rng.integers(-2, 3, size=len(axes))),
                    int(rng.integers(-2, 3)),
                )
                for a, b in ((u, v), (u, translate(u, kbar)), (translate(v, kbar), u)):
                    r_ab = compare(a, b)
                    r_ba = compare(b, a)
                    assert r_ba.kind is _MIRROR[r_ab.kind]
                    assert r_ba.margin == r_ab.margin
                    seen.add(r_ab.kind)
        assert seen == set(Ordering)

    @pytest.mark.parametrize(
        "make, periodic",
        [
            (lambda: layer_member(0.3), False),
            (hull_field, True),
            (crossing_field, True),
            (
                lambda: field_from_function(
                    (BoxAxis(-4, 4, 8), PeriodicAxis(1, 8)),
                    lambda p: logistic_profile(p[..., 0] + 0.3 * np.sin(2 * np.pi * p[..., 1])),
                ),
                False,
            ),
        ],
        ids=["layer", "sheared", "crossing", "wavy"],
    )
    def test_entries_match_direct_classification(self, make, periodic):
        # mirrored entries are only claimed to agree in kind: on box axes
        # clamping makes T_k u - u and T_-k u - u differ near the ends
        u = make()
        table = _relations(orbit._scan_table(u, 3, 1e-8))
        assert table
        for key, rel in table.items():
            direct = classify_translation(u, TranslationVector.from_components(key))
            assert rel.kind is direct.kind, key
            if periodic:
                assert rel.margin == direct.margin, key


def _reference_scan(u, keys, tol):
    """The scan as one translate-and-compare per translation, with the same
    mirror rule; ``keys`` in the scan's order."""
    ref = {}
    for key in keys:
        mirror = ref.get(tuple(-x for x in key))
        if mirror is not None and mirror.kind is not Ordering.CROSSING:
            ref[key] = OrderRelation(_MIRROR[mirror.kind], mirror.margin)
        else:
            ref[key] = compare(translate(u, TranslationVector.from_components(key)), u, tol)
    return ref


def _bits(rel):
    return (
        rel.kind,
        float(rel.margin).hex(),
        tuple((tuple(float(x).hex() for x in w.point), float(w.delta).hex()) for w in rel.witnesses),
    )


def _twisted_periodic2():
    # slopes 1/2 and 2 on a periodic^2 grid, with a rational offset; the
    # wiggle crosses the translates by an odd first component, whose
    # vertical shift is a half-integer
    u = field_from_function(
        (PeriodicAxis(2, 8), PeriodicAxis(1, 8)),
        lambda p: 0.5 * p[..., 0]
        + 2.0 * p[..., 1]
        + 0.3 * np.sin(np.pi * p[..., 0]) * np.cos(2 * np.pi * p[..., 1]),
        rises=(1, 2),
    )
    return ScalarField(u.axes, u.values, u.rises, Fraction(-7, 3))


def _diagonal_box2_layer():
    return field_from_function(
        (BoxAxis(-4, 4, 8), BoxAxis(-4, 4, 8)),
        lambda p: logistic_profile((p[..., 0] + p[..., 1]) / np.sqrt(2.0) - 0.3),
    )


def _twisted_layer3():
    # a wavy layer on a box axis with slopes 1 and 1/2 on two periodic axes:
    # every shift along the period-1 axis moves no node yet shifts the
    # values by its rise, so translates of one node move differ in offset
    return field_from_function(
        (BoxAxis(-2, 2, 4), PeriodicAxis(1, 4), PeriodicAxis(2, 4)),
        lambda p: logistic_profile(p[..., 0] + 0.3 * np.sin(2 * np.pi * p[..., 1]))
        + p[..., 1]
        + 0.5 * p[..., 2]
        + 0.05 * np.sin(np.pi * p[..., 2]),
        rises=(0, 1, 1),
    )


SCAN_FIELDS = {
    "layer": lambda: layer_member(0.3),
    "twisted-periodic2": _twisted_periodic2,
    "crossing": crossing_field,
    "diagonal-box2": _diagonal_box2_layer,
    "twisted-layer3": _twisted_layer3,
}


class TestScanAgainstCompare:
    @pytest.mark.parametrize("tol", [1e-8, 0.05])
    @pytest.mark.parametrize("name", list(SCAN_FIELDS))
    def test_table_is_bitwise_translate_and_compare(self, name, tol):
        # kinds, margins and crossing witnesses, bit for bit and in order
        u = SCAN_FIELDS[name]()
        table = _relations(orbit._scan_table(u, 3, tol))
        ref = _reference_scan(u, list(table), tol)
        assert list(table) == list(ref)
        for key, rel in table.items():
            assert _bits(rel) == _bits(ref[key]), key

    def test_fixtures_reach_every_kind(self):
        kinds = set()
        for make in SCAN_FIELDS.values():
            kinds |= {rel.kind for rel in _relations(orbit._scan_table(make(), 3, 1e-8)).values()}
        assert kinds == set(Ordering)


class TestLattice:
    def test_hermite_form_is_canonical(self):
        # each entry above a pivot lies in [0, pivot), so the basis depends
        # on the lattice alone, not on which vectors span it or their order
        basis = lattice_in_orthocomplement([[-2.0, -1.0, 1.0, 3.0]], 1)
        assert basis.tolist() == [[1, 0, 2, 0], [0, 1, 1, 0], [0, 0, 3, -1]]
        rng = np.random.default_rng(5)
        for _ in range(60):
            vecs = rng.integers(-4, 5, size=(int(rng.integers(1, 7)), 4))
            basis = orbit._hermite_basis(vecs, 4)
            for i, row in enumerate(basis):
                pivot = int(np.flatnonzero(row)[0])
                assert row[pivot] > 0
                assert all(0 <= basis[k][pivot] < row[pivot] for k in range(i))
            flipped = vecs[::-1] * rng.choice([-1, 1], size=(len(vecs), 1))
            assert orbit._hermite_basis(flipped, 4).tolist() == basis.tolist()

    def test_coordinate_complement(self):
        basis = lattice_in_orthocomplement([E3], 3)
        assert basis.tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_two_directions(self):
        basis = lattice_in_orthocomplement([E3, np.array([-1.0, 0.0, 0.0])], 3)
        assert basis.tolist() == [[0, 1, 0]]

    def test_diagonal_direction(self):
        d = np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0)
        basis = lattice_in_orthocomplement([d], 3)
        assert basis.tolist() == [[1, 1, 0], [0, 0, 1]]

    def test_rows_orthogonal_and_integer(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.integers(-2, 3, size=3)
            if not np.any(v):
                continue
            d = v / np.linalg.norm(v)
            basis = lattice_in_orthocomplement([d], 3)
            assert basis.dtype == np.int64
            assert np.abs(basis @ d).max() < 1e-10
            assert np.linalg.matrix_rank(basis) == basis.shape[0]

    def test_radius_too_small_reported(self):
        d = np.array([3.0, -1.0]) / np.sqrt(10.0)
        with pytest.raises(LatticeEnumerationError):
            lattice_in_orthocomplement([d], 1)
        basis = lattice_in_orthocomplement([d], 3)
        assert basis.tolist() == [[1, 3]]

    def test_dependent_directions_rejected(self):
        with pytest.raises(ValueError):
            lattice_in_orthocomplement([E3, 2.0 * E3], 3)


class TestExtractInvariants:
    def test_transition_layer_family_member(self):
        sys = extract_invariants(layer_member(0.3), 3)
        assert sys.t == 2
        assert np.allclose(sys.a[0], E3, atol=1e-12)
        assert np.allclose(sys.a[1], [-1.0, 0.0, 0.0], atol=1e-12)
        assert sys.gamma_bases[2].tolist() == [[0, 1, 0]]
        assert is_admissible(sys)

    def test_constant_field(self):
        sys = extract_invariants(constant_field((PeriodicAxis(1, 4), PeriodicAxis(1, 4)), 0.0), 3)
        assert sys.t == 1
        assert np.allclose(sys.a[0], E3, atol=0)
        assert sys.gamma_bases[1].tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_exactly_linear_field(self):
        axes = (PeriodicAxis(1, 4), PeriodicAxis(1, 4))
        u = field_from_function(axes, lambda p: p[..., 0], rises=(1, 0))
        sys = extract_invariants(u, 3)
        assert sys.t == 1
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert np.abs(sys.a[0] - expected).max() < 1e-12
        assert sys.gamma_bases[1].tolist() == [[1, 0, 1], [0, 1, 0]]

    def test_sheared_field(self):
        sys = extract_invariants(hull_field(), 3)
        assert sys.t == 1
        assert sys.gamma_bases[1].tolist() == [[2, 1]]

    def test_translation_invariance(self):
        u = layer_member(0.2)
        s0 = extract_invariants(u, 3)
        s1 = extract_invariants(translate(u, TranslationVector((2, 1), 1)), 3)
        assert s0.t == s1.t
        assert np.array_equal(s0.a, s1.a)
        assert all(
            np.array_equal(a, b) for a, b in zip(s0.gamma_bases, s1.gamma_bases)
        )

    def test_uniqueness_across_scan_radii(self):
        u = layer_member(0.2)
        s3 = extract_invariants(u, 3)
        s4 = extract_invariants(u, 4)
        assert s3.t == s4.t
        assert np.abs(s3.a - s4.a).max() < 1e-10
        assert all(
            np.array_equal(a, b) for a, b in zip(s3.gamma_bases, s4.gamma_bases)
        )

    def test_crossing_field_rejected_with_witnesses(self):
        with pytest.raises(InvariantExtractionError) as err:
            extract_invariants(crossing_field(), 3)
        assert err.value.witnesses

    def test_crossings_raise_self_intersection_error(self):
        # a subclass, so handlers of InvariantExtractionError still catch it
        with pytest.raises(orbit.SelfIntersectionError) as err:
            extract_invariants(crossing_field(), 2)
        scan = self_intersection_scan(crossing_field(), 2)
        assert str(err.value) == f"field has {len(scan)} crossing translates within radius 2"
        assert [w.kbar for w in err.value.witnesses] == [w.kbar for w in scan]
        assert isinstance(err.value, InvariantExtractionError)

    def test_one_classification_per_translation(self, monkeypatch):
        # the scan shifts the field once per node move, and extraction
        # builds the scan table once
        calls = []
        real = orbit._shifted

        def counting(u, spatial):
            calls.append(tuple(spatial))
            return real(u, spatial)

        monkeypatch.setattr(orbit, "_shifted", counting)
        u = layer_member(0.3)
        self_intersection_scan(u, 3)
        scan_calls = len(calls)
        calls.clear()
        extract_invariants(u, 3)
        assert scan_calls and len(calls) == scan_calls
        assert len(set(calls)) == len(calls)

    def test_json_round_trip(self):
        sys = extract_invariants(layer_member(0.1), 3)
        d = sys.to_json_dict()
        back = InvariantSystem(d["t"], d["a"], d["gamma_bases"])
        assert back.t == sys.t
        assert np.array_equal(back.a, sys.a)
        assert d["gamma_bases"][2] == [[0, 1, 0]]


def _crafted_table(n, radius, classify):
    """A scan table over the whole ball, each key classified by ``classify``;
    no grid gives it, so it has no plan."""
    keys = [k for k in itertools.product(range(-radius, radius + 1), repeat=n + 1) if any(k)]
    signs = [_SIGN[classify(k)] for k in keys]
    return orbit._Scan(np.array(keys), np.array(signs), np.full(len(keys), 0.1), {}, None)


def _side(x):
    return Ordering.GREATER if x > 0 else Ordering.LESS if x < 0 else Ordering.EQUAL


class TestCraftedScanTables:
    """The chain solve on scan tables no test field produces: slope 0, so
    a_1 = e_last, with every translation classified by a rule."""

    def _extract(self, n, radius, classify):
        return orbit._chain(_crafted_table(n, radius, classify), (0,) * n, radius)

    def test_sign_inconsistent_level_names_its_witness(self):
        # (1, 0) and (-1, 0) both above the field: no direction separates them
        with pytest.raises(InvariantExtractionError) as err:
            self._extract(1, 1, lambda k: _side(k[-1]) if k[-1] else Ordering.GREATER)
        assert str(err.value) == "classifications are inconsistent with a separating direction"
        assert [w.kbar for w in err.value.witnesses] == [TranslationVector((1,), 0)]

    @staticmethod
    def _tilted(weight):
        return lambda k: _side(k[-1]) if k[-1] else _side(k[0] + weight * k[1])

    def test_equal_line_fixes_the_second_direction(self):
        # (1, -2, 0) fixes the field, so a_2 is the unit normal to it in the
        # horizontal plane, oriented toward the translations above the field
        sys = self._extract(2, 2, self._tilted(0.5))
        assert sys.t == 2
        assert sys.a[1].tolist() == [0.8944271909999159, 0.447213595499958, 0.0]
        assert sys.gamma_bases[2].tolist() == [[1, -2, 0]]

    def test_least_squares_direction_with_no_fixed_translation(self):
        # no short translation fixes the field, so a_2 is fitted to the signs
        # and nothing in the ball is orthogonal to it
        with pytest.raises(LatticeEnumerationError) as err:
            self._extract(2, 2, self._tilted(0.3))
        assert str(err.value) == "radius 2 is too small to span sublattice level 3 (rank 0 of 1)"


def _chain_bits(sys):
    return sys.t, sys.a.tobytes(), [b.tobytes() for b in sys.gamma_bases]


class TestScanPlan:
    """One scan plan per grid, slope, radius and vertical reach, and one
    chain per classification that extracted."""

    def test_second_member_hits_the_chain_memo(self):
        orbit._scan_plan.cache_clear()
        first, second = layer_member(0.1), layer_member(-1.3)
        chain = extract_invariants(first, 3)
        plan = orbit._scan_table(first, 3, 1e-8).plan
        assert plan is orbit._scan_table(second, 3, 1e-8).plan
        assert [c is chain for c in plan.chains.values()] == [True]
        assert extract_invariants(second, 3) is chain
        assert len(plan.chains) == 1
        # the decreasing layer shares the plan, not the classification
        falling = field_from_function(LAYER_AXES, lambda p: logistic_profile(-p[..., 0]))
        assert orbit._scan_table(falling, 3, 1e-8).plan is plan
        assert extract_invariants(falling, 3).a[1].tolist() == [1.0, 0.0, 0.0]
        assert len(plan.chains) == 2

    def test_fresh_extraction_equals_memoized(self):
        u = layer_member(0.4)
        extract_invariants(u, 3)
        memoized = extract_invariants(u, 3)
        orbit._scan_plan.cache_clear()
        fresh = extract_invariants(u, 3)
        assert fresh is not memoized
        assert _chain_bits(fresh) == _chain_bits(memoized)
        assert fresh.to_json_dict() == memoized.to_json_dict()

    def test_plan_is_bitwise_the_per_field_table(self):
        # a field of another grid or slope gets its own plan, and the table
        # of a field scanned after others is the one a fresh plan gives
        fields = [layer_member(0.2), hull_field(), crossing_field(), layer_member(2.0)]
        tables = [orbit._scan_table(u, 2, 1e-8) for u in fields]
        assert len({id(t.plan) for t in tables}) == 3
        for u, table in zip(fields, tables):
            orbit._scan_plan.cache_clear()
            fresh = orbit._scan_table(u, 2, 1e-8)
            assert fresh.keys.tobytes() == table.keys.tobytes()
            assert fresh.signs.tobytes() == table.signs.tobytes()
            assert fresh.margins.tobytes() == table.margins.tobytes()
            assert repr(fresh.crossings) == repr(table.crossings)

    def test_failures_carry_their_own_margins(self):
        # at budget 0.3 a one-unit shift of the layer is EQUAL and a
        # two-unit shift is not: no direction fits.  The two layers share
        # the signs of every translate, not the margins
        steep = field_from_function(LAYER_AXES, lambda p: logistic_profile(p[..., 0]))
        flat = field_from_function(LAYER_AXES, lambda p: logistic_profile(0.9 * p[..., 0]))
        tables = [orbit._scan_table(u, 3, 0.3) for u in (steep, flat)]
        assert tables[0].plan is tables[1].plan
        assert tables[0].signs.tobytes() == tables[1].signs.tobytes()
        margins = []
        for u, table in zip((steep, flat), tables):
            with pytest.raises(InvariantExtractionError) as err:
                extract_invariants(u, 3, 0.3)
            assert str(err.value) == (
                "translations fix the whole sublattice span yet are not all EQUAL"
            )
            own = _relations(table)
            for w in err.value.witnesses:
                key = tuple(w.kbar.spatial) + (w.kbar.vertical,)
                assert w.relation == own[key]
                assert w.relation == classify_translation(u, w.kbar, 0.3)
            margins.append([w.relation.margin for w in err.value.witnesses])
        assert margins[0] != margins[1]
        assert not tables[0].plan.chains


class TestAdmissibility:
    def test_layer_chain_admissible(self):
        sys = InvariantSystem(
            2,
            np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]),
            (
                np.eye(3, dtype=np.int64),
                np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64),
                np.array([[0, 1, 0]], dtype=np.int64),
            ),
        )
        assert is_admissible(sys)

    def test_downward_first_direction_inadmissible(self):
        sys = InvariantSystem(
            1,
            np.array([[0.0, 0.0, -1.0]]),
            (
                np.eye(3, dtype=np.int64),
                np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64),
            ),
        )
        assert not is_admissible(sys)

    def test_direction_outside_sublattice_span_inadmissible(self):
        sys = InvariantSystem(
            2,
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
            (
                np.eye(3, dtype=np.int64),
                np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64),
                np.array([[0, 1, 0]], dtype=np.int64),
            ),
        )
        assert not is_admissible(sys)


class TestEnvelope:
    def test_layer_envelopes_are_pure_phases(self):
        u = layer_member(0.3)
        sys = extract_invariants(u, 3)
        up = envelope(u, sys, +1, steps=60, tol=1e-7)
        dn = envelope(u, sys, -1, steps=60, tol=1e-7)
        assert sup_distance(up, constant_field(LAYER_AXES, 1.0)) < 1e-6
        assert sup_distance(dn, constant_field(LAYER_AXES, 0.0)) < 1e-6
        # each limit carries the chain with its last direction dropped; the
        # limit is resolved to ~1.6 tol, so its translates are classified
        # with a slack of 4 tol
        for limit in (up, dn):
            sys_w = extract_invariants(limit, 3, 4e-7)
            assert sys_w.t == sys.t - 1
            assert np.allclose(sys_w.a, sys.a[: sys.t - 1], atol=1e-8)

    def test_envelopes_sandwich_the_field(self):
        u = layer_member(0.0)
        sys = extract_invariants(u, 3)
        up = envelope(u, sys, +1, steps=60, tol=1e-7)
        dn = envelope(u, sys, -1, steps=60, tol=1e-7)
        from phaselab.field import compare

        assert compare(dn, u).kind is Ordering.LESS
        assert compare(u, up).kind is Ordering.LESS

    @pytest.mark.parametrize("sign", [1, -1])
    def test_limit_is_the_scaled_translate_it_stops_at(self, sign):
        # each iterate translates the previous one; the limit is bitwise the
        # start translated by the step times the iterations it took
        u = layer_member(0.3)
        sys = extract_invariants(u, 3)
        limit = envelope(u, sys, sign, steps=60, tol=1e-7)
        step = TranslationVector((-sign, 0), 0)
        m = 1
        while sup_distance(translate(u, step.scaled(m)), translate(u, step.scaled(m - 1))) >= 1e-7:
            m += 1
        ref = translate(u, step.scaled(m))
        assert m > 1
        assert np.array_equal(limit.values, ref.values) and limit.offset == ref.offset

    @pytest.mark.parametrize("steps", [0, -2])
    def test_steps_below_one_rejected(self, steps):
        u = layer_member(0.3)
        sys = extract_invariants(u, 3)
        with pytest.raises(ValueError, match=f"^steps must be at least 1, got {steps}$"):
            envelope(u, sys, +1, steps=steps)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        # no gap is below a NaN tolerance: every step would run and end in
        # a convergence error that blames the orbit
        u = layer_member(0.3)
        sys = extract_invariants(u, 3)
        with pytest.raises(ValueError) as err:
            envelope(u, sys, +1, tol=tol)
        assert str(err.value) == f"tol must be finite and positive, got {tol}"

    def test_depth_one_chain_rejected(self):
        u = constant_field((PeriodicAxis(1, 4),), 0.0)
        sys = extract_invariants(u, 3)
        with pytest.raises(ValueError):
            envelope(u, sys, +1)

    @pytest.mark.parametrize(
        "bases, sign, message",
        [
            ([[[1, 0, 0], [0, 1, 0]]], 1, "envelopes need an invariant chain of length >= 2"),
            ([[[1, 0, 0], [0, 1, 0]], [[0, 1, 0]]], 0, r"sign must be \+1 or -1"),
            ([[[0, 1, 0]], [[0, 1, 0]]], 1, "no sublattice generator moves along the last"),
            ([[], [[0, 1, 0]]], -1, "no sublattice generator moves along the last"),
        ],
        ids=["depth-one", "sign-zero", "orthogonal-basis", "empty-basis"],
    )
    def test_bad_requests_raise(self, bases, sign, message):
        a = [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]][: len(bases)]
        sys = InvariantSystem(len(bases), a, (np.eye(3, dtype=np.int64), *bases))
        with pytest.raises(ValueError, match=message):
            envelope(layer_member(0.3), sys, sign)


SWEEP_AXES = (BoxAxis(-8, 8, 4), PeriodicAxis(1, 4))
TWIST_AXES = (PeriodicAxis(1, 8), PeriodicAxis(1, 4))


def _pairwise_order(fields, tol):
    """The full pairwise loop that total_order_check must reproduce."""
    violations = []
    pairs = 0
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            pairs += 1
            rel = compare(fields[i], fields[j], tol)
            if rel.kind is Ordering.CROSSING:
                violations.append((i, j, rel))
    return orbit.TotalOrderReport(not violations, pairs, violations)


def _count_compare_calls(monkeypatch):
    calls = []

    def counting(u, v, tol):
        calls.append((u, v))
        return compare(u, v, tol)

    monkeypatch.setattr(orbit, "compare", counting)
    return calls


def _order_sweep_sets(seed):
    rng = np.random.default_rng(seed)
    family = [
        field_from_function(SWEEP_AXES, lambda p, b=b: logistic_profile(p[..., 0] - b))
        for b in np.linspace(-3.0, 3.0, 9)
    ]
    low = constant_field(SWEEP_AXES, 0.0)
    high = constant_field(SWEEP_AXES, 1.0)
    mid = family[4]
    wavy = mid.with_values(mid.values + 0.05 * np.sin(np.pi / 2 * np.arange(4)))
    twisted = [
        field_from_function(
            TWIST_AXES,
            lambda p, a=a: p[..., 0] + a * np.sin(2 * np.pi * p[..., 0]) + 0.01 * p[..., 1],
            rises=(1, 0),
        )
        for a in (-0.1, 0.0, 0.05, 0.1)
    ]

    def shuffled(fields):
        return [fields[k] for k in rng.permutation(len(fields))]

    def lifted(u, q):
        return ScalarField(u.axes, u.values, u.rises, u.offset + q)

    def noisy(u, eps):
        return u.with_values(u.values + eps * rng.standard_normal(u.shape))

    return {
        "family": shuffled(family + [low, high]),
        "duplicates": shuffled(family + family[::3] + [low, low, high]),
        "crossing": shuffled(family + [low, high, wavy, wavy]),
        "offsets": shuffled(
            [lifted(u, Fraction(k, 3)) for u in family[::2] for k in (-1, 0, 2)]
            + [lifted(low, Fraction(1, 3)), lifted(high, Fraction(-2, 3))]
        ),
        "random": [
            ScalarField(SWEEP_AXES, rng.random(low.shape), (0, 0)) for _ in range(8)
        ],
        "near-equal": shuffled(
            [noisy(mid, eps) for eps in (0.0, 1e-10, 1e-9, 1e-7, 1e-6)] + [mid, family[5]]
        ),
        "twisted": shuffled(twisted + [lifted(u, 1) for u in twisted] + twisted[:2]),
    }


class TestTotalOrder:
    def test_single_family_with_phases_is_ordered(self):
        fields = [layer_member(b) for b in (-1.0, 0.0, 0.5)] + [
            constant_field(LAYER_AXES, 0.0),
            constant_field(LAYER_AXES, 1.0),
        ]
        report = total_order_check(fields)
        assert report.passed
        assert report.pair_count == 10

    def test_transition_layers_in_different_directions_cross(self):
        axes = (BoxAxis(-8, 8, 4), BoxAxis(-8, 8, 4))
        v1 = field_from_function(axes, lambda p: logistic_profile(p[..., 0]))
        v2 = field_from_function(axes, lambda p: logistic_profile(p[..., 1]))
        report = total_order_check([v1, v2])
        assert not report.passed
        assert report.violations[0][2].kind is Ordering.CROSSING

    def test_singleton(self):
        assert total_order_check([layer_member(0.0)]).passed

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6, 0.05])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_pairwise_loop(self, seed, tol):
        for name, fields in _order_sweep_sets(seed).items():
            report = total_order_check(fields, tol)
            ref = _pairwise_order(fields, tol)
            assert report == ref, name
            assert json.dumps(report.to_json_dict()) == json.dumps(ref.to_json_dict()), name

    def test_readme_family_needs_no_comparison(self, monkeypatch):
        from phaselab.foliation import build_family

        fam = build_family((1, 0), -5.0, 5.0, 101, LAYER_AXES)
        calls = _count_compare_calls(monkeypatch)
        report = total_order_check(list(fam.members) + [fam.lower, fam.upper])
        assert report.passed and report.pair_count == 5253
        assert calls == []

    def test_wavy_member_compares_only_across_chains(self, monkeypatch):
        from phaselab.foliation import build_family

        fam = build_family((1, 0), -5.0, 5.0, 101, LAYER_AXES)
        member = fam.member_at(0.0)
        wavy = member.with_values(member.values + 0.05 * np.sin(np.pi / 2 * np.arange(4)))
        fields = list(fam.members) + [fam.lower, fam.upper, wavy]
        calls = _count_compare_calls(monkeypatch)
        report = total_order_check(fields)
        # the family is one pointwise chain; the wavy field crosses its
        # neighbours in the (offset, sum) order and splits it there, ties
        # keeping index order, in which the wavy field comes last
        w = len(fields) - 1
        sums = [float(f.values.sum()) for f in fields]
        below = {k for k in range(w) if sums[k] <= sums[w]}
        above = set(range(w)) - below
        expected = {(k, w) for k in range(w)}
        expected |= {(min(a, b), max(a, b)) for a in below for b in above}
        assert below and above
        index = {id(f): k for k, f in enumerate(fields)}
        pairs = [(index[id(u)], index[id(v)]) for u, v in calls]
        assert len(pairs) == len(set(pairs)) and set(pairs) == expected
        assert not report.passed and report.pair_count == w * (w + 1) // 2
        assert {(i, j) for i, j, _ in report.violations} <= expected

    @pytest.mark.parametrize(
        "order, error",
        [((0, 1, 3, 2), GridError), ((0, 1, 2, 3), SlopeMismatchError)],
        ids=["axes", "rises"],
    )
    def test_first_incompatible_field_raises_the_pairwise_error(self, order, error):
        axes = (PeriodicAxis(1, 4), PeriodicAxis(1, 4))
        values = np.zeros((4, 4))
        candidates = [
            ScalarField(axes, values, (0, 0)),
            ScalarField(axes, values + 0.5, (0, 0)),
            ScalarField(axes, values, (1, 0)),
            ScalarField((PeriodicAxis(2, 4), PeriodicAxis(1, 4)), np.zeros((8, 4)), (0, 0)),
        ]
        fields = [candidates[k] for k in order]
        with pytest.raises(error) as ref:
            _pairwise_order(fields, 1e-8)
        with pytest.raises(error) as got:
            total_order_check(fields)
        assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_negative_or_nan_tolerance_raises(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            total_order_check([layer_member(0.0), layer_member(1.0)], tol)


class TestGapCheck:
    def test_phases_are_not_strictly_inside(self):
        u = layer_member(0.0)
        sys = extract_invariants(u, 3)
        report = gap_check(
            u,
            sys,
            [constant_field(LAYER_AXES, 0.0), constant_field(LAYER_AXES, 1.0)],
            allen_cahn(2),
            trials=20,
            seed=3,
        )
        assert report.passed
        assert not any(c.strictly_between for c in report.candidates)

    def test_half_level_flagged_with_minimality_status(self):
        u = layer_member(0.0)
        sys = extract_invariants(u, 3)
        report = gap_check(
            u,
            sys,
            [constant_field(LAYER_AXES, 0.5)],
            allen_cahn(2),
            trials=60,
            max_radius=6.0,
            seed=3,
        )
        entry = report.candidates[0]
        assert entry.strictly_between
        assert entry.invariant_match
        assert not entry.minimality_passed  # rejected by the minimality filter
        assert not entry.anomaly
        assert report.passed

    def test_report_json_lists_candidate_fields(self):
        u = layer_member(0.0)
        sys = extract_invariants(u, 3)
        report = gap_check(u, sys, [constant_field(LAYER_AXES, 0.5)], allen_cahn(2), trials=5)
        entry = report.candidates[0]
        assert report.to_json_dict() == {
            "kind": "gap-check",
            "passed": report.passed,
            "candidates": [
                {
                    "index": 0,
                    "strictly_between": True,
                    "invariant_match": True,
                    "minimality_passed": entry.minimality_passed,
                    "anomaly": entry.anomaly,
                }
            ],
        }

    def test_empty_candidates_vacuous_pass(self):
        u = layer_member(0.0)
        sys = extract_invariants(u, 3)
        assert gap_check(u, sys, [], allen_cahn(2)).passed
