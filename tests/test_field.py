import itertools
import json

import numpy as np
import pytest
from fractions import Fraction

from phaselab.field import (
    BoxAxis,
    GridError,
    Ordering,
    PeriodicAxis,
    ScalarField,
    SlopeMismatchError,
    TranslationVector,
    compare,
    constant_field,
    dump_csv,
    field_from_function,
    field_from_values,
    load_csv,
    node_gradients,
    sup_distance,
    translate,
)
from phaselab.foliation import build_family
from phaselab.heteroclinic import logistic_profile


def _random_periodic_field(rng, n=None):
    n = n if n is not None else int(rng.integers(1, 3))
    axes = []
    rises = []
    for _ in range(n):
        q = int(rng.integers(1, 4))
        m = int(rng.choice([4, 8]))
        axes.append(PeriodicAxis(q, m))
        rises.append(int(rng.integers(-2, 3)))
    shape = tuple(ax.nodes for ax in axes)
    return ScalarField(
        tuple(axes),
        rng.standard_normal(shape),
        tuple(rises),
        Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))),
    )


def _with(key, value, axis=None):
    """A sidecar edit setting ``key`` (of axis ``axis``, if given) to ``value``."""

    def edit(meta):
        (meta if axis is None else meta["axes"][axis])[key] = value
        return meta

    return edit


def _random_kbar(rng, n):
    return TranslationVector(
        tuple(int(k) for k in rng.integers(-3, 4, size=n)), int(rng.integers(-3, 4))
    )


class TestAxes:
    def test_minimum_resolution_enforced(self):
        with pytest.raises(GridError):
            PeriodicAxis(1, 3)
        with pytest.raises(GridError):
            BoxAxis(0, 2, 2)

    def test_box_needs_positive_extent(self):
        with pytest.raises(GridError):
            BoxAxis(3, 3, 8)

    def test_coords(self):
        ax = BoxAxis(-2, 1, 4)
        assert ax.nodes == 13
        assert ax.coords()[0] == -2.0 and ax.coords()[-1] == 1.0

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PeriodicAxis(2.7, 4), "periodic axis period must be an integer, got 2.7"),
            (lambda: PeriodicAxis(1, 4.5), "periodic axis m must be an integer, got 4.5"),
            (lambda: PeriodicAxis(1, np.nan), "periodic axis m must be an integer, got nan"),
            (lambda: PeriodicAxis("2", 4), "periodic axis period must be an integer, got '2'"),
            (lambda: BoxAxis(-5.5, 5, 4), "box axis lo must be an integer, got -5.5"),
            (lambda: BoxAxis(-5, np.inf, 4), "box axis hi must be an integer, got inf"),
            (lambda: BoxAxis(-5, 5, 4.5), "box axis m must be an integer, got 4.5"),
        ],
        ids=["period", "periodic-m", "nan-m", "string", "lo", "inf-hi", "box-m"],
    )
    def test_non_integral_data_named(self, build, message):
        # such an axis used to construct and then fail later in a TypeError
        with pytest.raises(GridError) as err:
            build()
        assert str(err.value) == message

    def test_integral_floats_stored_as_ints(self):
        ax = BoxAxis(-2.0, np.float64(1), np.int64(4))
        assert ax == BoxAxis(-2, 1, 4)
        assert all(type(v) is int for v in (ax.lo, ax.hi, ax.m, ax.nodes))


class TestTranslate:
    def test_constant_shifts_by_vertical(self):
        u = constant_field((PeriodicAxis(1, 8),), 0.3)
        v = translate(u, TranslationVector((1,), 2))
        rel = compare(v, constant_field(u.axes, 2.3))
        assert rel.kind is Ordering.EQUAL
        assert rel.margin < 1e-15  # 0.3 + 2 vs the literal 2.3 differ by one ulp

    def test_transition_layer_shift_matches_definition(self):
        ax = BoxAxis(-20, 20, 25)
        u = field_from_function((ax,), lambda p: logistic_profile(p[..., 0]))
        shifted = translate(u, TranslationVector((1,), 0))
        expected = field_from_function(
            (ax,), lambda p: logistic_profile(p[..., 0] - 1.0)
        )
        # exact in the interior; the clamped tail contributes ~e^{-20}
        assert sup_distance(shifted, expected) < 2e-9

    def test_inverse_restores_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = _random_periodic_field(rng)
            k = _random_kbar(rng, u.n)
            w = translate(translate(u, k), -k)
            assert np.array_equal(w.values, u.values)
            assert w.offset == u.offset

    def test_group_action_composition_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            u = _random_periodic_field(rng)
            j = _random_kbar(rng, u.n)
            k = _random_kbar(rng, u.n)
            one = translate(translate(u, j), k)
            two = translate(u, j + k)
            assert np.array_equal(one.values, two.values)
            assert one.offset == two.offset

    def test_monotone_vertical_shift(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = _random_periodic_field(rng)
            up = translate(u, TranslationVector((0,) * u.n, 1))
            assert compare(u, up).kind is Ordering.LESS

    def test_dimension_mismatch(self):
        u = constant_field((PeriodicAxis(1, 8),), 0.0)
        with pytest.raises(GridError):
            translate(u, TranslationVector((1, 0), 0))


class TestCompare:
    def test_constants(self):
        axes = (PeriodicAxis(1, 8),)
        rel = compare(constant_field(axes, 0.0), constant_field(axes, 1.0))
        assert rel.kind is Ordering.LESS
        assert rel.margin == 1.0

    def test_self_equal(self):
        u = constant_field((PeriodicAxis(1, 8),), 0.4)
        assert compare(u, u).kind is Ordering.EQUAL

    def test_sub_tolerance_noise_is_equal(self):
        axes = (PeriodicAxis(1, 8),)
        u = constant_field(axes, 0.0)
        v = field_from_values(axes, np.full(8, 5e-9))
        assert compare(u, v, tol=1e-8).kind is Ordering.EQUAL

    def test_sine_crossing_witnesses(self):
        axes = (PeriodicAxis(1, 64),)
        u = field_from_function(axes, lambda p: np.sin(2 * np.pi * p[..., 0]))
        rel = compare(u, constant_field(axes, 0.0))
        assert rel.kind is Ordering.CROSSING
        sign_changes = [w.point[0] for w in rel.witnesses[2:]]
        assert any(abs(x - 0.5) < 0.05 for x in sign_changes)
        assert any(min(x, 1.0 - x) < 0.05 for x in sign_changes)

    def test_order_preserved_under_translation_with_exact_margin(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = _random_periodic_field(rng)
            v = u.with_values(u.values + rng.uniform(0.1, 1.0))
            k = _random_kbar(rng, u.n)
            r0 = compare(u, v)
            r1 = compare(translate(u, k), translate(v, k))
            assert r0.kind is Ordering.LESS
            assert r1.kind is Ordering.LESS
            assert r1.margin == r0.margin

    def test_slope_mismatch_rejected(self):
        axes = (PeriodicAxis(2, 4),)
        u = field_from_values(axes, np.zeros(8), rises=(1,))
        v = field_from_values(axes, np.zeros(8), rises=(0,))
        with pytest.raises(SlopeMismatchError):
            compare(u, v)
        with pytest.raises(SlopeMismatchError):
            sup_distance(u, v)

    def test_different_grids_rejected(self):
        u = constant_field((PeriodicAxis(1, 8),), 0.0)
        v = constant_field((PeriodicAxis(1, 4),), 0.0)
        with pytest.raises(GridError):
            compare(u, v)


class TestSupDistance:
    def test_constants(self):
        axes = (PeriodicAxis(1, 8),)
        assert sup_distance(constant_field(axes, 0.0), constant_field(axes, 1.0)) == 1.0
        u = constant_field(axes, 0.3)
        assert sup_distance(u, u) == 0.0

    def test_shifted_transition_layer(self):
        # max of u0(t + 0.05) - u0(t - 0.05) sits at t = 0 by symmetry
        ax = BoxAxis(-20, 20, 100)
        u = field_from_function((ax,), lambda p: logistic_profile(p[..., 0] + 0.05))
        v = field_from_function((ax,), lambda p: logistic_profile(p[..., 0] - 0.05))
        expected = 2.0 * (logistic_profile(0.05) - 0.5)
        assert abs(sup_distance(u, v) - expected) < 1e-12

    def test_metric_properties(self):
        rng = np.random.default_rng(9)
        axes = (PeriodicAxis(1, 8), PeriodicAxis(2, 4))
        shape = tuple(ax.nodes for ax in axes)
        for _ in range(10):
            u, v, w = (field_from_values(axes, rng.standard_normal(shape)) for _ in range(3))
            duv = sup_distance(u, v)
            assert duv == sup_distance(v, u)
            assert duv <= sup_distance(u, w) + sup_distance(w, v) + 1e-15


class TestFieldValidation:
    def test_values_shape_checked(self):
        with pytest.raises(GridError):
            ScalarField((PeriodicAxis(1, 8),), np.zeros(7), (0,))

    def test_nonfinite_rejected(self):
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            ScalarField((PeriodicAxis(1, 8),), vals, (0,))

    @pytest.mark.parametrize("rise", [1.5, 0.9, -0.5, np.nan, np.inf, "1"])
    def test_non_integral_rise_rejected(self, rise):
        # truncation used to give 1.5 the slope of a rise 1, and 0.9 none
        axes = (PeriodicAxis(2, 4),)
        with pytest.raises(GridError, match="^rises must be integers, got "):
            ScalarField(axes, np.zeros(8), (rise,))
        with pytest.raises(GridError, match="^rises must be integers, got "):
            field_from_values(axes, np.zeros(8), rises=(rise,))

    def test_box_axis_carries_no_slope(self):
        with pytest.raises(GridError):
            ScalarField((BoxAxis(0, 1, 8),), np.zeros(9), (1,))

    def test_values_immutable(self):
        u = constant_field((PeriodicAxis(1, 8),), 0.0)
        with pytest.raises(ValueError):
            u.values[0] = 1.0

    def test_twisted_periodicity_via_linear_part(self):
        axes = (PeriodicAxis(2, 4),)
        u = field_from_function(axes, lambda p: 0.5 * p[..., 0], rises=(1,))
        # the periodic part of an exactly linear field is constant
        assert np.allclose(u.values, u.values.flat[0])
        assert u.slope == (Fraction(1, 2),)


def _reference_csv(u):
    """The field CSV of ``u`` as a writer with one format call per cell
    prints it, rows in C order."""
    nodes = itertools.product(*(ax.coords().tolist() for ax in u.axes))
    values = u.total_values().ravel().tolist()
    rows = (",".join(f"{x:.17g}" for x in (*node, v)) + "\n" for node, v in zip(nodes, values))
    return ",".join(f"x{i + 1}" for i in range(u.n)) + ",u\n" + "".join(rows)


class TestCsvRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [
            # a last axis longer than 1,024 nodes: 2,001 rows
            lambda: field_from_values(
                (BoxAxis(-20, 20, 50),), np.random.default_rng(1).standard_normal(2001)
            ),
            # many short lines: the README member, 1,001 x 4 nodes
            lambda: build_family(
                (1, 0), -5.0, 5.0, 101, (BoxAxis(-20, 20, 25), PeriodicAxis(1, 4))
            ).member_at(0.0),
            lambda: ScalarField(
                (PeriodicAxis(2, 4), BoxAxis(-1, 1, 4), PeriodicAxis(1, 4)),
                np.random.default_rng(2).standard_normal((8, 9, 4)),
                (1, 0, -1),
                Fraction(1, 3),
            ),
        ],
        ids=["long-last-axis", "readme-member", "three-axes"],
    )
    def test_dump_matches_a_format_call_per_cell(self, tmp_path, make):
        u = make()
        path = tmp_path / "field.csv"
        dump_csv(u, path)
        assert path.read_text() == _reference_csv(u)
        loaded = load_csv(path)
        assert loaded.rises == u.rises
        assert np.array_equal(loaded.total_values(), u.total_values())

    def test_plain_field_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        axes = (BoxAxis(-2, 2, 4), PeriodicAxis(1, 4))
        u = field_from_values(axes, rng.standard_normal((17, 4)))
        path = tmp_path / "field.csv"
        dump_csv(u, path)
        loaded = load_csv(path)
        assert sup_distance(u, loaded) == 0.0
        first = path.read_bytes(), (tmp_path / "field.json").read_bytes()
        dump_csv(loaded, path)
        assert (path.read_bytes(), (tmp_path / "field.json").read_bytes()) == first

    def test_sloped_field_round_trip(self, tmp_path):
        axes = (PeriodicAxis(2, 8),)
        u = field_from_function(
            axes, lambda p: 0.5 * p[..., 0] + 0.1 * np.sin(2 * np.pi * p[..., 0]), rises=(1,)
        )
        path = tmp_path / "sloped.csv"
        dump_csv(u, path)
        loaded = load_csv(path)
        assert loaded.rises == u.rises
        assert sup_distance(u, loaded) < 1e-12

    @pytest.mark.parametrize(
        "axes, rises, offset",
        [
            ((BoxAxis(-3, 3, 8),), (0,), Fraction(0)),
            ((BoxAxis(-2, 2, 4), PeriodicAxis(2, 4)), (0, 1), Fraction(0)),
            ((PeriodicAxis(2, 4), PeriodicAxis(3, 8)), (1, -2), Fraction(-7, 3)),
            ((PeriodicAxis(2, 4), BoxAxis(-1, 1, 4), PeriodicAxis(1, 4)), (1, 0, -1), Fraction(1, 3)),
        ],
    )
    def test_total_values_round_trip_bitwise(self, tmp_path, axes, rises, offset):
        rng = np.random.default_rng(len(axes) + sum(rises))
        u = ScalarField(axes, rng.standard_normal(tuple(ax.nodes for ax in axes)), rises, offset)
        path = tmp_path / "field.csv"
        dump_csv(u, path)
        loaded = load_csv(path)
        assert loaded.rises == u.rises
        assert np.array_equal(loaded.total_values(), u.total_values())

    @pytest.mark.parametrize(
        "row", ["0.25", "", "-1,0.25,0.5,0.5"], ids=["no-comma", "blank", "extra-column"]
    )
    def test_malformed_row_rejected_with_line_number(self, tmp_path, row):
        u = constant_field((BoxAxis(-1, 1, 4), PeriodicAxis(1, 4)), 0.25)
        path = tmp_path / "f.csv"
        dump_csv(u, path)
        body = path.read_text().splitlines()
        body[6] = row
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(GridError, match="line 7 does not have 3 columns"):
            load_csv(path)

    def test_malformed_header_rejected(self, tmp_path):
        u = constant_field((PeriodicAxis(1, 4),), 0.0)
        path = tmp_path / "f.csv"
        dump_csv(u, path)
        body = path.read_text().splitlines()
        body[0] = "a,b,c"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(GridError):
            load_csv(path)

    def test_json_path_rejected_before_writing(self, tmp_path):
        # the sidecar of f.json is f.json itself, which would overwrite the CSV
        u = constant_field((PeriodicAxis(1, 4),), 0.0)
        path = tmp_path / "f.json"
        with pytest.raises(GridError, match="f.json"):
            dump_csv(u, path)
        assert list(tmp_path.iterdir()) == []

    def test_json_path_refused_on_load(self, tmp_path):
        u = constant_field((PeriodicAxis(1, 4),), 0.0)
        dump_csv(u, tmp_path / "f.csv")
        path = tmp_path / "f.json"
        with pytest.raises(GridError, match="is its own JSON sidecar"):
            load_csv(path)
        with pytest.raises(GridError) as dumped:
            dump_csv(u, path)
        with pytest.raises(GridError) as loaded:
            load_csv(path)
        assert str(loaded.value) == str(dumped.value)

    @pytest.mark.parametrize(
        "edit, detail",
        [
            pytest.param(lambda meta: [], "list indices", id="list"),
            pytest.param(lambda meta: {"axes": 5}, "not iterable", id="axes-int"),
            pytest.param(lambda meta: {"axes": [5]}, "not subscriptable", id="axis-int"),
            pytest.param(lambda meta: {}, "no key 'axes'", id="no-axes-key"),
            pytest.param(lambda meta: {"axes": []}, "no axes", id="no-axes"),
            pytest.param(_with("kind", "spiral", 0), "unknown axis kind 'spiral'", id="axis-kind"),
            pytest.param(_with("rises", 5), "not iterable", id="rises-int"),
            pytest.param(_with("rises", [1.5]), "rises must be integers, got (1.5,)", id="rise-1.5"),
            pytest.param(_with("rises", [0, 0]), "one rise per axis required", id="rise-count"),
            pytest.param(_with("offset", None), "Rational", id="offset-null"),
            pytest.param(_with("period", 2.7, 0), "period must be an integer, got 2.7", id="period-2.7"),
            pytest.param(_with("m", "4", 0), "m must be an integer, got '4'", id="m-string"),
        ],
    )
    def test_malformed_sidecar_named(self, tmp_path, edit, detail):
        # "period" 2.7 and "rises" [1.5] used to load as 2 and 1, since the
        # row count still matched; most others ended in a TypeError
        path = tmp_path / "f.csv"
        dump_csv(constant_field((PeriodicAxis(2, 4),), 0.25), path)
        sidecar = tmp_path / "f.json"
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        with pytest.raises(GridError) as err:
            load_csv(path)
        assert str(err.value).startswith(f"malformed field sidecar {str(sidecar)!r}: ")
        assert detail in str(err.value)


GOLDEN_CSV = """\
x1,x2,u
0,0,1.0000000000000001e-09
0,0.25,0.375
0,0.5,0.75
0,0.75,1.125
0.25,0,0.10000000000000001
0.25,0.25,0.875
0.25,0.5,1.25
0.25,0.75,1.625
0.5,0,-2.4999999999999999e-17
0.5,0.25,1.375
0.5,0.5,1.75
0.5,0.75,2.125
0.75,0,1e+22
0.75,0.25,1.875
0.75,0.5,2.25
0.75,0.75,2.625
1,0,0.33333333333333331
1,0.25,2.375
1,0.5,2.75
1,0.75,3.125
"""

GOLDEN_SIDECAR = """\
{
  "axes": [
    {
      "hi": 1,
      "kind": "box",
      "lo": 0,
      "m": 4
    },
    {
      "kind": "periodic",
      "m": 4,
      "period": 1
    }
  ],
  "cell": [
    [
      0,
      1
    ],
    1
  ],
  "h": [
    0.25,
    0.25
  ],
  "n": 2,
  "offset": "0",
  "rises": [
    0,
    1
  ],
  "slope": [
    "0",
    "1"
  ]
}
"""


def _golden_field():
    values = np.arange(20.0).reshape(5, 4) / 8
    values[:, 0] = [1e-9, 0.1, -2.5e-17, 1e22, 1 / 3]
    return ScalarField((BoxAxis(0, 1, 4), PeriodicAxis(1, 4)), values, (0, 1))


def _edit_rows(path, edit):
    """Rewrite the data rows of the field CSV at ``path`` with ``edit``."""
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n")


def _swapped(i, j):
    def edit(rows):
        rows[i], rows[j] = rows[j], rows[i]
        return rows

    return edit


def _set_value(rows, k, cell):
    """``rows`` with the value cell of row ``k`` replaced by ``cell``."""
    rows[k] = rows[k].rsplit(",", 1)[0] + "," + cell
    return rows


class TestCsvContract:
    def test_golden_dump(self, tmp_path):
        # 17 significant digits, exponent form included, for values and
        # coordinates alike; the sidecar restates the grid, cell and slope
        path = tmp_path / "g.csv"
        dump_csv(_golden_field(), path)
        assert path.read_text() == GOLDEN_CSV
        assert (tmp_path / "g.json").read_text() == GOLDEN_SIDECAR
        loaded = load_csv(path)
        assert np.array_equal(loaded.total_values(), _golden_field().total_values())

    @pytest.mark.parametrize(
        "axes, edit, line",
        [
            ((PeriodicAxis(2, 4),), lambda rows: rows[::-1], 2),
            ((PeriodicAxis(2, 4),), _swapped(2, 5), 4),
            ((BoxAxis(0, 1, 4), PeriodicAxis(1, 4)), lambda rows: rows[::-1], 2),
            # the two rows differ only along the periodic axis
            ((BoxAxis(0, 1, 4), PeriodicAxis(1, 4)), _swapped(9, 10), 11),
            ((BoxAxis(0, 1, 4), PeriodicAxis(1, 4)), _swapped(4, 16), 6),
        ],
        ids=["reversed-1d", "swapped-1d", "reversed-2d", "swapped-2d-periodic", "swapped-2d-box"],
    )
    def test_permuted_rows_name_first_wrong_line(self, tmp_path, axes, edit, line):
        # these used to load as a permuted field
        rng = np.random.default_rng(3)
        path = tmp_path / "f.csv"
        dump_csv(field_from_values(axes, rng.standard_normal(tuple(a.nodes for a in axes))), path)
        _edit_rows(path, edit)
        with pytest.raises(GridError, match=rf"^field CSV line {line} is not at its node \("):
            load_csv(path)

    @pytest.mark.parametrize(
        "axes, rises, offset, shown",
        [
            ((BoxAxis(-20, 20, 25),), (0,), Fraction(0), "\n-19.96,"),
            ((BoxAxis(-20, 20, 25), PeriodicAxis(1, 4)), (0, 1), Fraction(1, 3), "\n-19.96,"),
            ((PeriodicAxis(3, 7), BoxAxis(-1, 1, 6)), (-2, 0), Fraction(-5, 2), "\n0.142857,"),
        ],
    )
    def test_coordinates_in_other_text_load_bitwise(self, tmp_path, axes, rises, offset, shown):
        # hand-written coordinates such as -19.96 (printed -19.960000000000001)
        # name their node within a quarter of the spacing
        rng = np.random.default_rng(len(axes))
        u = ScalarField(axes, rng.standard_normal(tuple(a.nodes for a in axes)), rises, offset)
        path = tmp_path / "f.csv"
        dump_csv(u, path)

        def short(rows):
            cells = [row.split(",") for row in rows]
            return [",".join([*(f"{float(c):.6g}" for c in r[:-1]), r[-1]]) for r in cells]

        _edit_rows(path, short)
        assert shown in path.read_text()
        loaded = load_csv(path)
        assert loaded.rises == u.rises
        assert np.array_equal(loaded.total_values(), u.total_values())

    def test_extra_comma_in_value_is_a_column_fault(self, tmp_path):
        path = tmp_path / "f.csv"
        dump_csv(constant_field((BoxAxis(-1, 1, 4), PeriodicAxis(1, 4)), 0.25), path)

        def edit(rows):
            rows[5] += ",0.5"
            return rows

        _edit_rows(path, edit)
        with pytest.raises(GridError, match="line 7 does not have 3 columns"):
            load_csv(path)

    @pytest.mark.parametrize(
        "faults, message",
        [
            (("coordinate", "value"), "line 4 is not at its node"),
            (("value", "coordinate"), "line 4 has a cell that is not a number: '-1,0.5,abc'"),
            (("coordinate", "columns"), "line 4 is not at its node"),
            (("columns", "coordinate"), "line 4 does not have 3 columns"),
            (("value", "columns"), "line 4 has a cell that is not a number"),
            (("columns", "value"), "line 4 does not have 3 columns"),
            (("coordinate", "surplus"), "more rows than grid nodes"),
            (("coordinate", "missing"), "fewer rows than grid nodes"),
            (("value", "surplus"), "line 4 has a cell that is not a number"),
            (("value", "missing"), "line 4 has a cell that is not a number"),
        ],
        ids=lambda v: "-then-".join(v) if isinstance(v, tuple) else "",
    )
    def test_first_fault_in_file_order(self, tmp_path, faults, message):
        # a coordinate fault takes its row's place among the row faults; a
        # row count other than the node count says the rows are of another
        # grid, and their coordinates are not compared
        path = tmp_path / "f.csv"
        dump_csv(constant_field((BoxAxis(-1, 1, 4), PeriodicAxis(1, 4)), 0.25), path)

        def edit(rows):
            for k, fault in zip((2, 5), faults):
                x, y, v = rows[k].split(",")
                if fault == "coordinate":
                    rows[k] = f"{float(x) + 0.25},{y},{v}"
                elif fault == "value":
                    rows[k] = f"{x},{y},abc"
                elif fault == "columns":
                    rows[k] = v
            if "surplus" in faults:
                rows.append(rows[-1])
            if "missing" in faults:
                rows.pop()
            return rows

        _edit_rows(path, edit)
        with pytest.raises(GridError) as err:
            load_csv(path)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "edits, message",
        [
            # row k is at -20 + k / 50
            ({1500: "0,0.5"}, "line 1502 is not at its node (10): '0,0.5'"),
            ({1500: "10,abc"}, "line 1502 has a cell that is not a number: '10,abc'"),
            ({1200: "-7,0.5", 1500: "10,abc"}, "line 1202 is not at its node (4)"),
            ({1500: "10,abc", 1800: "0,0.5"}, "line 1502 has a cell that is not a number"),
        ],
        ids=["coordinate", "value", "coordinate-then-value", "value-then-coordinate"],
    )
    def test_faults_past_the_first_thousand_rows(self, tmp_path, edits, message):
        # every cell of a long table converts in one pass; the first fault in
        # file order is still the one named, however deep it lies
        path = tmp_path / "f.csv"
        dump_csv(constant_field((BoxAxis(-20, 20, 50),), 0.25), path)

        def edit(rows):
            for k, row in edits.items():
                rows[k] = row
            return rows

        _edit_rows(path, edit)
        with pytest.raises(GridError) as err:
            load_csv(path)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: [], "field CSV has fewer rows than grid nodes"),
            (lambda rows: ["abc,0.25", *rows[1:]], "line 2 has a cell that is not a number"),
            (lambda rows: ["-1,", *rows[1:]], "line 2 has a cell that is not a number: '-1,'"),
            (lambda rows: ["-1,abc"], "line 2 has a cell that is not a number"),
            (lambda rows: ["-1"], "line 2 does not have 2 columns"),
        ],
        ids=["no-rows", "first-row-coordinate", "first-row-empty-value", "only-row", "short-row"],
    )
    def test_faults_of_an_empty_table(self, tmp_path, edit, message):
        # no row, or none before the first fault, converts: the table is empty
        path = tmp_path / "f.csv"
        dump_csv(constant_field((BoxAxis(-1, 1, 4),), 0.25), path)
        _edit_rows(path, edit)
        with pytest.raises(GridError) as err:
            load_csv(path)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # numpy's parser would stop at a comment mark without comments=None
            (
                lambda rows: _set_value(rows, 3, "0.25#x"),
                "line 5 has a cell that is not a number: '-0.25,0.25#x'",
            ),
            # numpy skips a blank row, which leaves the table one row short
            (lambda rows: [*rows[:3], "", *rows[3:-1]], "line 5 does not have 2 columns: ''"),
        ],
        ids=["comment-mark", "blank-row"],
    )
    def test_faults_numpy_parses_otherwise_named(self, tmp_path, edit, message):
        path = tmp_path / "f.csv"
        dump_csv(constant_field((BoxAxis(-1, 1, 4),), 0.25), path)
        _edit_rows(path, edit)
        with pytest.raises(GridError) as err:
            load_csv(path)
        assert message in str(err.value)

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\u0661\u0662", 12.0)])
    def test_cells_numpy_refuses_load_as_float_reads_them(self, tmp_path, cell, value):
        # numpy's parser refuses these cells, Python's float reads them: the
        # row-by-row conversion loads them as before
        path = tmp_path / "f.csv"
        dump_csv(constant_field((BoxAxis(-1, 1, 4),), 0.25), path)
        _edit_rows(path, lambda rows: _set_value(rows, 3, cell))
        loaded = load_csv(path).total_values()
        assert loaded[3] == value
        assert np.all(np.delete(loaded, 3) == 0.25)

    @pytest.mark.parametrize(
        "key, value",
        [("slope", ["3/4"]), ("h", [0.5]), ("cell", [7]), ("n", 3)],
    )
    def test_sidecar_contradicting_its_axes_named(self, tmp_path, key, value):
        # each edit used to load, with slope 1/2
        path = tmp_path / "f.csv"
        dump_csv(field_from_function((PeriodicAxis(2, 4),), lambda p: 0.5 * p[..., 0], (1,)), path)
        sidecar = tmp_path / "f.json"
        sidecar.write_text(json.dumps(_with(key, value)(json.loads(sidecar.read_text()))))
        with pytest.raises(GridError) as err:
            load_csv(path)
        assert str(err.value).startswith(f"malformed field sidecar {str(sidecar)!r}: key {key!r}")

    def test_sidecar_without_restated_keys_loads(self, tmp_path):
        path = tmp_path / "f.csv"
        u = field_from_function((PeriodicAxis(2, 4),), lambda p: 0.5 * p[..., 0], (1,))
        dump_csv(u, path)
        sidecar = tmp_path / "f.json"
        meta = json.loads(sidecar.read_text())
        for key in ("n", "cell", "h", "slope"):
            del meta[key]
        sidecar.write_text(json.dumps(meta))
        assert load_csv(path).slope == (Fraction(1, 2),)
        assert np.array_equal(load_csv(path).total_values(), u.total_values())


class TestTranslationVector:
    @pytest.mark.parametrize(
        "comps, shown",
        [((1.9, 0, 0), "1.9, 0, 0"), ((0, -0.5, 0), "0, -0.5, 0"), ((0, 0, np.nan), "0, 0, nan")],
    )
    def test_non_integral_components_rejected(self, comps, shown):
        # truncating 1.9 to 1 would skip the constructor's integer check
        with pytest.raises(ValueError) as err:
            TranslationVector.from_components(comps)
        assert str(err.value) == f"translation components must be integers, got ({shown})"

    @pytest.mark.parametrize(
        "spatial, vertical, shown",
        [((0, 0), 2.5, "0, 0, 2.5"), ((1.5, 0), 0, "1.5, 0, 0")],
    )
    def test_direct_construction_rejects_non_integral(self, spatial, vertical, shown):
        # a vertical of 2.5 used to be truncated to 2
        with pytest.raises(ValueError) as err:
            TranslationVector(spatial, vertical)
        assert str(err.value) == f"translation components must be integers, got ({shown})"

    def test_direct_construction_accepts_integral_floats(self):
        k = TranslationVector((2.0, np.int64(-1)), 1.0)
        assert k == TranslationVector((2, -1), 1)
        assert all(type(c) is int for c in (*k.spatial, k.vertical))

    def test_integral_components_accepted(self):
        k = TranslationVector.from_components(np.array([2.0, -1.0, 0.0]))
        assert k == TranslationVector((2, -1), 0)
        assert all(type(c) is int for c in (*k.spatial, k.vertical))


class TestNodeGradients:
    @pytest.mark.parametrize(
        "axes, rises, fn, grads, third",
        [
            (
                (PeriodicAxis(2, 16),),
                (1,),
                lambda p: p[..., 0] / 2 + 0.1 * np.sin(np.pi * p[..., 0]),
                [lambda x: 0.5 + 0.1 * np.pi * np.cos(np.pi * x[0])],
                [0.1 * np.pi**3],
            ),
            (
                (PeriodicAxis(2, 16), PeriodicAxis(1, 8)),
                (1, -2),
                lambda p: p[..., 0] / 2
                - 2 * p[..., 1]
                + 0.1 * np.sin(np.pi * p[..., 0]) * np.cos(2 * np.pi * p[..., 1]),
                [
                    lambda x: 0.5 + 0.1 * np.pi * np.cos(np.pi * x[0]) * np.cos(2 * np.pi * x[1]),
                    lambda x: -2 - 0.2 * np.pi * np.sin(np.pi * x[0]) * np.sin(2 * np.pi * x[1]),
                ],
                [0.1 * np.pi**3, 0.8 * np.pi**3],
            ),
        ],
        ids=["twisted-1d", "twisted-periodic2"],
    )
    def test_twisted_axes_match_analytic_derivative(self, axes, rises, fn, grads, third):
        # every node, the two end slabs included, is a central difference of
        # the periodic part plus the axis's slope, within h^2/6 of the
        # derivative times the bound on the third derivative
        u = field_from_function(axes, fn, rises)
        x = np.meshgrid(*[ax.coords() for ax in axes], indexing="ij")
        for ax, g, exact, d3 in zip(axes, node_gradients(u), grads, third):
            assert np.abs(g - exact(x)).max() <= d3 * ax.h**2 / 6

    @pytest.mark.parametrize(
        "axes, rises",
        [
            ((BoxAxis(-3, 3, 7),), (0,)),
            ((PeriodicAxis(3, 5),), (0,)),
            ((BoxAxis(-20, 20, 25), PeriodicAxis(1, 4)), (0, 0)),
            ((PeriodicAxis(2, 7), PeriodicAxis(1, 5)), (1, -3)),
            ((BoxAxis(0, 1, 5), PeriodicAxis(1, 4), BoxAxis(-1, 1, 4)), (0, 1, 0)),
        ],
        ids=["box", "periodic", "box-periodic", "twisted", "mixed-3d"],
    )
    def test_bitwise_numpy_gradient_and_roll(self, axes, rises):
        # the slices are numpy.gradient's formulas (edge_order=2) along box
        # axes and the rolled central difference along periodic ones
        shape = tuple(ax.nodes for ax in axes)
        u = field_from_values(axes, np.random.default_rng(len(shape)).standard_normal(shape), rises)
        for i, (ax, s, g) in enumerate(zip(axes, u.slope, node_gradients(u))):
            if isinstance(ax, BoxAxis):
                ref = np.gradient(u.values, ax.h, axis=i, edge_order=2)
            else:
                ref = (np.roll(u.values, -1, axis=i) - np.roll(u.values, 1, axis=i)) / (2.0 * ax.h)
            if s:
                ref = ref + float(s)
            assert g.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k", [(1, 1, 0), (0, 0, 1), (2, 0, -3)])
    def test_translate_rolls_gradients_bitwise(self, k):
        # the gradients read the periodic part and the slope, never the
        # offset or the linear part: a translate's gradients are the rolled
        # gradients, bit for bit, whatever vertical shift it adds
        axes = (PeriodicAxis(3, 8), PeriodicAxis(2, 4))
        u = field_from_function(
            axes,
            lambda p: 2 * p[..., 0] / 3
            + 0.05 * np.sin(2 * np.pi * p[..., 0] / 3)
            + 0.05 * np.sin(np.pi * p[..., 1]),
            (2, 0),
        )
        kbar = TranslationVector.from_components(k)
        shifts = [s * ax.m for s, ax in zip(kbar.spatial, axes)]
        for g, moved in zip(node_gradients(u), node_gradients(translate(u, kbar))):
            assert moved.tobytes() == np.roll(g, shifts, axis=(0, 1)).tobytes()
