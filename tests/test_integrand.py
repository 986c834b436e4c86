import numpy as np
import pytest

from phaselab.field import BoxAxis, PeriodicAxis, constant_field, field_from_function, GridError
from phaselab.heteroclinic import logistic_profile
from phaselab.integrand import (
    Integrand,
    IntegrandEvaluationError,
    allen_cahn,
    allen_cahn_density,
    check_growth,
    double_well_derivative,
    eval_double_well,
    euler_lagrange_residual,
    get_integrand,
)
from phaselab.integrand import _row_norms
from phaselab.minimize import energy


class TestDoubleWell:
    def test_zeros_and_peak(self):
        assert eval_double_well(0.0) == 0.0
        assert eval_double_well(0.5) == 0.0625
        assert eval_double_well(1.5) == 0.0625

    def test_vanishes_at_integers(self):
        for m in range(-3, 4):
            assert eval_double_well(float(m)) == 0.0

    def test_range(self):
        u = np.linspace(-3, 3, 1201)
        w = eval_double_well(u)
        assert w.min() >= 0.0
        assert w.max() <= 0.0625

    def test_symmetry_exact(self):
        # W(u) == W(1 - u) bit for bit; 1 - u is float-exact for u in [1/2, 1]
        rng = np.random.default_rng(0)
        u = rng.uniform(0.5, 1.0, size=500)
        w1 = eval_double_well(u)
        w2 = eval_double_well(1.0 - u)
        assert np.array_equal(w1, w2)

    def test_periodicity_exact_on_representable_shifts(self):
        # dyadic samples stay exactly representable under integer shifts
        rng = np.random.default_rng(1)
        u = rng.integers(0, 64, size=300) / 64.0
        for shift in (-2, -1, 1, 3):
            assert np.array_equal(eval_double_well(u + shift), eval_double_well(u))


class TestDoubleWellDerivative:
    def test_matches_centred_difference(self):
        u = np.linspace(-2.0, 2.0, 801) + 1e-3
        s = 1e-5
        fd = (eval_double_well(u + s) - eval_double_well(u - s)) / (2 * s)
        assert np.abs(double_well_derivative(u) - fd).max() < 1e-7

    def test_periodicity_exact_on_representable_shifts(self):
        rng = np.random.default_rng(2)
        u = rng.integers(0, 64, size=300) / 64.0
        for shift in (-2, -1, 1, 3):
            assert np.array_equal(double_well_derivative(u + shift), double_well_derivative(u))

    def test_antisymmetry_exact(self):
        # W'(1 - u) == -W'(u) bit for bit; 1 - u is float-exact for u in [1/2, 1]
        rng = np.random.default_rng(3)
        u = rng.uniform(0.5, 1.0, size=500)
        assert np.array_equal(double_well_derivative(1.0 - u), -double_well_derivative(u))

    def test_scalar_in_scalar_out(self):
        assert double_well_derivative(0.25) == 2 * 0.25 * 0.75 * 0.5
        assert isinstance(double_well_derivative(0.25), float)


class TestAllenCahnDensity:
    def test_pure_phase_zero(self):
        assert allen_cahn_density(0.0, np.zeros(2)) == 0.0

    def test_well_plus_gradient(self):
        assert allen_cahn_density(0.5, np.array([1.0, 0.0])) == 1.0625

    def test_integer_level_is_pure_phase(self):
        assert allen_cahn_density(2.0, np.zeros(2)) == 0.0

    def test_density_periodic_in_x_and_u(self):
        ac = allen_cahn(2)
        rng = np.random.default_rng(2)
        x = rng.integers(-8, 8, size=(50, 2)) / 16.0
        u = rng.integers(0, 64, size=50) / 64.0
        p = rng.standard_normal((50, 2))
        base = ac.density(x, u, p)
        shifted = ac.density(x + np.array([2.0, -1.0]), u + 3.0, p)
        assert np.array_equal(base, shifted)

    def test_registry(self):
        ac = get_integrand("allen-cahn", 2)
        assert ac.dimension == 2
        assert ac.growth_constant == 2.0
        with pytest.raises(KeyError):
            get_integrand("unknown", 1)


class TestCheckGrowth:
    def test_allen_cahn_passes_with_quadratic_hessian(self):
        ac = allen_cahn(2)
        report = check_growth(ac, 1000, seed=0)
        assert report.passed
        # F is quadratic in p, so the probe sees the exact Hessian 2*Id
        assert abs(report.rayleigh_min - 2.0) < 1e-5
        assert abs(report.rayleigh_max - 2.0) < 1e-5

    def test_pure_gradient_density_passes(self):
        dirichlet = Integrand(
            name="dirichlet",
            dimension=2,
            density=lambda x, u, p: np.sum(np.asarray(p) ** 2, axis=-1),
            d_u=lambda x, u, p: np.zeros(np.shape(u)),
            d_p=lambda x, u, p: 2.0 * np.asarray(p),
            growth_constant=2.0,
            depends_on_x=False,
        )
        report = check_growth(dirichlet, 500, seed=1)
        assert report.passed
        assert abs(report.rayleigh_min - 2.0) < 1e-5

    def test_cubic_term_flagged(self):
        cubic = Integrand(
            name="cubic",
            dimension=1,
            density=lambda x, u, p: np.asarray(p)[..., 0] ** 3,
            d_u=lambda x, u, p: np.zeros(np.shape(u)),
            d_p=lambda x, u, p: 3.0 * np.asarray(p) ** 2,
            growth_constant=2.0,
            depends_on_x=False,
        )
        report = check_growth(cubic, 500, seed=2)
        assert not report.passed
        ray = [v for v in report.violations if v["kind"] == "rayleigh"]
        assert ray
        # each entry names the sample and the unit direction probed
        assert all(list(v) == ["kind", "value", "x", "u", "p", "direction"] for v in ray)
        assert all(abs(np.linalg.norm(v["direction"]) - 1.0) < 1e-12 for v in ray)

    def test_nonfinite_density_reported_with_point(self):
        bad = Integrand(
            name="bad",
            dimension=1,
            density=lambda x, u, p: np.where(
                np.asarray(p)[..., 0] > 0, np.inf, 0.0
            ),
            d_u=lambda x, u, p: np.zeros(np.shape(u)),
            d_p=lambda x, u, p: np.zeros_like(np.asarray(p)),
            growth_constant=2.0,
            depends_on_x=False,
        )
        with pytest.raises(IntegrandEvaluationError) as err:
            check_growth(bad, 100, seed=3)
        assert err.value.point is not None

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="^need at least one sample: an integer count, got 0$"):
            check_growth(allen_cahn(1), 0, seed=0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"sample_count": 1.5}, "^need at least one sample: an integer count, got 1.5$"),
            ({"sample_count": "10"}, "^need at least one sample: an integer count, got '10'$"),
            ({"p_range": float("nan")}, "^p range must be finite and >= 0, got nan$"),
            ({"p_range": float("inf")}, "^p range must be finite and >= 0, got inf$"),
            ({"p_range": -1.0}, "^p range must be finite and >= 0, got -1.0$"),
        ],
    )
    def test_bad_arguments_named(self, kwargs, match):
        args = {"sample_count": 10, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=match):
            check_growth(allen_cahn(1), **args)

    def test_integer_like_counts_accepted(self):
        a = check_growth(allen_cahn(2), 50, seed=4, p_range=0.0)
        b = check_growth(allen_cahn(2), np.int64(50), seed=4, p_range=0.0)
        assert repr(a) == repr(b)
        assert a.passed

    def test_callbacks_see_column_major_samples(self):
        seen = []

        def density(x, u, p):
            seen.append((x.flags.f_contiguous, p.flags.f_contiguous))
            return allen_cahn_density(u, p)

        ac = allen_cahn(2)
        spy = Integrand("spy", 2, density, ac.d_u, ac.d_p, growth_constant=2.0)
        report = check_growth(spy, 200, seed=5)
        assert seen and all(flags == (True, True) for flags in seen)
        assert repr(report) == repr(check_growth(ac, 200, seed=5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_row_norms_bitwise_linalg(self, n):
        # check_growth's norms come column by column from the column-major
        # draws; they must be the bits np.linalg.norm gives on the rows
        a = np.random.default_rng(n).normal(size=(4000, n))
        ref = np.linalg.norm(a, axis=1)
        assert np.array_equal(_row_norms(np.asfortranarray(a)), ref)


class TestIntegrandValidation:
    @pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.5, -float("inf")])
    def test_bad_growth_constant_named(self, c):
        ac = allen_cahn(1)
        with pytest.raises(ValueError, match="^growth constant must be finite and >= 1$"):
            Integrand("bad", 1, ac.density, ac.d_u, ac.d_p, growth_constant=c)


class TestEulerLagrangeResidual:
    def test_pure_phase_is_a_solution(self):
        ac = allen_cahn(2)
        u = constant_field((PeriodicAxis(1, 4), PeriodicAxis(1, 4)), 0.0)
        res = euler_lagrange_residual(u, ac)
        assert np.abs(res.values).max() == 0.0

    def test_unstable_equilibrium_has_zero_residual(self):
        # the well's derivative vanishes at 1/2
        ac = allen_cahn(1)
        u = constant_field((PeriodicAxis(1, 8),), 0.5)
        res = euler_lagrange_residual(u, ac)
        assert np.abs(res.values).max() == 0.0

    def test_transition_profile_residual_small(self):
        ac = allen_cahn(1)
        ax = BoxAxis(-20, 20, 100)
        u = field_from_function((ax,), lambda p: logistic_profile(p[..., 0]))
        res = euler_lagrange_residual(u, ac)
        assert np.abs(res.values).max() <= 1e-3

    def test_pairs_with_energy_as_first_variation(self):
        # <residual, delta> h^n must reproduce d/ds energy(u + s delta)
        ac = allen_cahn(1)
        axes = (PeriodicAxis(2, 16),)
        rng = np.random.default_rng(4)
        u = field_from_function(
            axes, lambda p: 0.4 + 0.2 * np.sin(np.pi * p[..., 0])
        )
        delta = rng.standard_normal(u.shape)
        res = euler_lagrange_residual(u, ac)
        inner = float(np.sum(res.values * delta)) * axes[0].h
        s = 1e-6
        fd = (
            energy(u.with_values(u.values + s * delta), ac)
            - energy(u.with_values(u.values - s * delta), ac)
        ) / (2 * s)
        assert abs(inner - fd) / abs(fd) < 1e-6

    def test_dimension_mismatch(self):
        ac = allen_cahn(2)
        u = constant_field((PeriodicAxis(1, 8),), 0.0)
        with pytest.raises(GridError):
            euler_lagrange_residual(u, ac)
