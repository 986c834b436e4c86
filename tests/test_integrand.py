import math
import tracemalloc

import numpy as np
import pytest

from phaselab import integrand
from phaselab.field import BoxAxis, PeriodicAxis, constant_field, field_from_function, GridError
from phaselab.heteroclinic import logistic_profile
from phaselab.integrand import (
    GROWTH_TOL,
    GROWTH_U_RANGE,
    GROWTH_X_RANGE,
    HESSIAN_PROBE_STEP,
    Integrand,
    IntegrandEvaluationError,
    allen_cahn,
    allen_cahn_density,
    check_growth,
    double_well_derivative,
    eval_double_well,
    get_integrand,
)
from phaselab.minimize import energy, energy_gradient


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
        with pytest.raises(ValueError, match=r"^unknown integrand 'unknown'; available: "):
            get_integrand("unknown", 1)


def _modulated_well(x, u, p):
    """The user density of the benchmark: |p|^2 + (1 + 0.3 cos 2 pi x1) W(u)."""
    a = 1.0 + 0.3 * np.cos(2.0 * np.pi * x[..., 0])
    return np.sum(p * p, axis=-1) + a * eval_double_well(u)


def _quadratic(x, u, p):
    """A quadratic whose six second derivatives in the probed (p, u, x)
    subspace are all nonzero."""
    return (
        np.sum(p * p, axis=-1) + 0.5 * p[..., 0] * p[..., 1] + 0.3 * u * p[..., 0]
        + 0.2 * x[..., 0] * p[..., 1] + 0.7 * u * u + 0.4 * u * x[..., 1]
        + 0.6 * x[..., 0] * x[..., 1]
    )


def _user_integrand(density, c):
    ac = allen_cahn(2)
    return Integrand("user", 2, density, ac.d_u, ac.d_p, growth_constant=c)


def _nineteen_point_reference(integrand, sample_count, seed, p_range):
    """The 19-point probe that check_growth made before its 13-point stencil,
    from the same draws: the quotients and the (kind, sample) of each of the
    first 20 violations of each kind."""
    rng = np.random.default_rng(seed)
    n, S = integrand.dimension, sample_count
    x = rng.uniform(-GROWTH_X_RANGE, GROWTH_X_RANGE, size=(S, n))
    u = rng.uniform(-GROWTH_U_RANGE, GROWTH_U_RANGE, size=S)
    p = rng.uniform(-p_range, p_range, size=(S, n))
    xi = rng.normal(size=(S, n))
    eta = rng.normal(size=(S, n))
    x, p, xi, eta = (np.asfortranarray(a) for a in (x, p, xi, eta))
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    eta /= np.linalg.norm(eta, axis=1)[:, None]
    pnorm = np.linalg.norm(p, axis=1)
    d = HESSIAN_PROBE_STEP

    def f(xx, uu, pp):
        return integrand.density(xx if integrand.depends_on_x else None, uu, pp)

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
    first = (np.abs(f_pu) + np.abs(f_px)) / (1.0 + pnorm)
    second = (np.abs(f_uu) + np.abs(f_ux) + np.abs(f_xx)) / (1.0 + pnorm * pnorm)

    c = integrand.growth_constant
    lo, hi = 1.0 / c - GROWTH_TOL, c + GROWTH_TOL
    flags = [
        (kind, int(i))
        for kind, bad in (
            ("rayleigh", (ray < lo) | (ray > hi)),
            ("first-order-growth", first > hi),
            ("second-order-growth", second > hi),
        )
        for i in np.flatnonzero(bad)[:20]
    ]
    return {"ray": ray, "first": first, "second": second, "u": u, "flags": flags}


def _block_cases():
    """Integrands for the block-size test, with their p ranges."""

    def skewed(x, u, p):
        a = 1.0 + 0.3 * np.cos(2 * np.pi * x[..., 0])
        coupling = 2.0 * np.sin(2 * np.pi * u) * p[..., 0]
        return np.sum(p * p + 0.2 * p**3, axis=-1) + coupling + a * eval_double_well(u)

    def overflow(x, u, p):
        # finite values, above half the largest float where p1 > 2.5 or so:
        # on few samples, and on none of the first blocks of 1 and 7
        return 1.7e308 * (0.5 + 0.5 * np.tanh(8.0 * (p[..., 0] - 2.5) + 0.1 * x[..., 0] + 0.1 * u))

    zero_u = lambda x, u, p: np.zeros(np.shape(u))
    zero_p = lambda x, u, p: np.zeros_like(p)

    def user(name, n, density, depends_on_x=True):
        return Integrand(name, n, density, zero_u, zero_p, 2.0, depends_on_x)

    cases = {
        "modulated-well": (_user_integrand(_modulated_well, 2.0), 1.0),
        "quadratic": (_user_integrand(_quadratic, 2.0), 1.0),
        "skewed-1d": (user("skewed", 1, skewed), 0.5),
        "skewed-3d": (user("skewed", 3, skewed), 0.5),
        "cubic-x-free": (user("cubic", 2, lambda x, u, p: np.sum(p**3, axis=-1), False), 3.0),
        "overflow": (user("overflow", 2, overflow), 3.0),
    }
    cases.update({f"allen-cahn-{n}d": (allen_cahn(n), 3.0) for n in (1, 2, 3)})
    return cases


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
            ({"sample_count": True}, "^need at least one sample: an integer count, got True$"),
            ({"p_range": float("nan")}, "^p range must be finite and >= 0, got nan$"),
            ({"p_range": float("inf")}, "^p range must be finite and >= 0, got inf$"),
            ({"p_range": -1.0}, "^p range must be finite and >= 0, got -1.0$"),
        ],
    )
    def test_bad_arguments_named(self, kwargs, match):
        args = {"sample_count": 10, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=match):
            check_growth(allen_cahn(1), **args)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_norms_bitwise_numpy_norm(self, n, monkeypatch):
        # a density with violations of every kind, so that the report's
        # flagged samples and directions are compared too
        def density(x, u, p):
            p = np.asarray(p)
            a = 1.0 + 0.3 * np.cos(2 * np.pi * np.asarray(x)[..., 0])
            coupling = 2.0 * np.sin(2 * np.pi * np.asarray(u)) * p[..., 0]
            return np.sum(p * p + 0.2 * p**3, axis=-1) + coupling + a * eval_double_well(u)

        skewed = Integrand(
            name="skewed",
            dimension=n,
            density=density,
            d_u=lambda x, u, p: np.zeros(np.shape(u)),
            d_p=lambda x, u, p: np.zeros_like(np.asarray(p)),
            growth_constant=2.0,
        )
        report = check_growth(skewed, 400, seed=n, p_range=0.5)
        assert {v["kind"] for v in report.violations} == {
            "rayleigh",
            "first-order-growth",
            "second-order-growth",
        }
        monkeypatch.setattr(integrand, "_row_norms", lambda a: np.linalg.norm(a, axis=1))
        assert repr(check_growth(skewed, 400, seed=n, p_range=0.5)) == repr(report)

    def test_integer_like_counts_accepted(self):
        a = check_growth(allen_cahn(2), 50, seed=4, p_range=0.0)
        b = check_growth(allen_cahn(2), np.int64(50), seed=4, p_range=0.0)
        assert repr(a) == repr(b)
        assert a.passed

    def test_callbacks_see_column_major_samples(self):
        # once per point of the 13-point stencil, or of its 7 points off the
        # x axis for a density that declares it ignores x, for each block of
        # at most _GROWTH_BLOCK samples in turn: here two full blocks and 100
        ac = allen_cahn(2)
        block = integrand._GROWTH_BLOCK
        samples = 2 * block + 100
        for depends_on_x, calls in ((True, 13), (False, 7)):
            seen = []

            def density(x, u, p):
                x_ok = x.flags.f_contiguous if depends_on_x else x is None
                seen.append((x_ok, p.flags.f_contiguous, len(u), len(p)))
                return allen_cahn_density(u, p)

            spy = Integrand("spy", 2, density, ac.d_u, ac.d_p, 2.0, depends_on_x)
            report = check_growth(spy, samples, seed=5)
            assert seen == [
                (True, True, rows, rows) for rows in (block, block, 100) for _ in range(calls)
            ]
            # a density that ignores x gets the x-free report either way
            assert repr(report) == repr(check_growth(ac, samples, seed=5))

    @pytest.mark.parametrize("case", list(_block_cases()))
    @pytest.mark.parametrize("block, samples", [(1, 60), (7, 150), (2000, 7000), (10**6, 7000)])
    def test_report_independent_of_block_size(self, case, block, samples, monkeypatch):
        # blocks of 1 and 7 put the first 20 violations of each kind in many
        # blocks; 2,000 splits 7,000 samples into three full blocks and a
        # partial one, and 10**6 holds them all; the report must be that of
        # one block of exactly the sample count, to the bit
        fn, p_range = _block_cases()[case]
        with np.errstate(over="ignore", invalid="ignore"):
            monkeypatch.setattr(integrand, "_GROWTH_BLOCK", samples)
            whole = check_growth(fn, samples, 3, p_range=p_range)
            monkeypatch.setattr(integrand, "_GROWTH_BLOCK", block)
            assert repr(check_growth(fn, samples, 3, p_range=p_range)) == repr(whole)
        if case == "quadratic":
            # more than 20 Rayleigh quotients flagged: only the first 20 kept
            assert [v["kind"] for v in whole.violations].count("rayleigh") == 20
        if case == "overflow":
            # there 2 g(0) and the diagonal sums overflow: the quotients hold
            # infinities and NaNs, and a NaN of any block is the maximum
            assert math.isinf(whole.rayleigh_min) and math.isnan(whole.first_order_max)

    def test_memory_does_not_grow_with_sample_count(self):
        # above the five draws, one check holds block-sized work arrays only;
        # in one block, those of 200,000 samples take three times the draws
        fn = _user_integrand(_modulated_well, 3.0)
        n = fn.dimension

        def peak_above_draws(samples):
            tracemalloc.start()
            try:
                assert check_growth(fn, samples, 1, p_range=1.0).passed
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - 8 * samples * (4 * n + 1)

        peak_above_draws(1000)
        small, large = peak_above_draws(50_000), peak_above_draws(200_000)
        # a quarter MiB, where the draws grow by 10.8 MB
        assert large - small <= 2**18

    @pytest.mark.parametrize("seed", [None, True, 1.5, -1, "3", np.bool_(True), np.float64(2.0)])
    def test_seed_validated_before_any_draw(self, seed, monkeypatch):
        # None would draw from OS entropy, so the check could not be repeated
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError) as err:
            check_growth(allen_cahn(1), 10, seed)
        assert str(err.value) == f"seed must be an integer >= 0, got {seed!r}"

    def test_numpy_integer_seed_reported_as_int(self):
        report = check_growth(allen_cahn(2), 50, np.int64(4))
        assert type(report.seed) is int
        assert repr(report) == repr(check_growth(allen_cahn(2), 50, 4))

    @pytest.mark.parametrize(
        "density, c, p_range",
        [
            ("allen-cahn", 2.0, 3.0),
            (_modulated_well, 2.0, 1.0),
            (_modulated_well, 3.0, 1.0),
            (_quadratic, 2.0, 1.0),
        ],
        ids=["allen-cahn", "modulated-well-c2", "modulated-well-c3", "quadratic"],
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_nineteen_point_reference(self, density, c, p_range, seed):
        # the 13-point stencil keeps the Rayleigh quotient, F_uu and F_xx to
        # the bit; only the three mixed differences change, by O(eps / d^2)
        fn = allen_cahn(2) if density == "allen-cahn" else _user_integrand(density, c)
        report = check_growth(fn, 3000, seed, p_range=p_range)
        ref = _nineteen_point_reference(fn, 3000, seed, p_range)
        assert report.rayleigh_min == float(ref["ray"].min())
        assert report.rayleigh_max == float(ref["ray"].max())
        assert abs(report.first_order_max - float(ref["first"].max())) <= 1e-6
        assert abs(report.second_order_max - float(ref["second"].max())) <= 1e-6
        assert report.passed == (not ref["flags"])
        sample = {float(v): i for i, v in enumerate(ref["u"])}
        assert [(v["kind"], sample[v["u"]]) for v in report.violations] == ref["flags"]
        for v in report.violations:
            arr = {"rayleigh": "ray", "first-order-growth": "first"}.get(v["kind"], "second")
            assert abs(v["value"] - ref[arr][sample[v["u"]]]) <= 1e-6

    def test_reference_cases_flag_every_kind_they_should(self):
        # the reference comparison above covers failing checks, not only
        # passing ones: the quadratic's p-Hessian has eigenvalues 1.5 and 2.5
        report = check_growth(_user_integrand(_quadratic, 2.0), 3000, 1, p_range=1.0)
        assert {v["kind"] for v in report.violations} == {"rayleigh", "second-order-growth"}
        assert not check_growth(_user_integrand(_modulated_well, 2.0), 3000, 1, p_range=1.0).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_row_norms_bitwise_linalg(self, n):
        # check_growth normalizes its column-major draws; each direction it
        # reports must be the bits np.linalg.norm gives on the C-ordered rows
        cubic = Integrand(
            name="cubic",
            dimension=n,
            density=lambda x, u, p: np.sum(np.asarray(p) ** 3, axis=-1),
            d_u=lambda x, u, p: np.zeros(np.shape(u)),
            d_p=lambda x, u, p: 3.0 * np.asarray(p) ** 2,
            growth_constant=2.0,
            depends_on_x=False,
        )
        report = check_growth(cubic, 4000, seed=n)
        rng = np.random.default_rng(n)
        rng.uniform(-GROWTH_X_RANGE, GROWTH_X_RANGE, size=(4000, n))
        u = rng.uniform(-GROWTH_U_RANGE, GROWTH_U_RANGE, size=4000)
        rng.uniform(-1.0, 1.0, size=(4000, n))
        xi = rng.normal(size=(4000, n))
        ref = xi / np.linalg.norm(xi, axis=1)[:, None]
        sample = {float(v): i for i, v in enumerate(u)}
        ray = [v for v in report.violations if v["kind"] == "rayleigh"]
        assert len(ray) == 20
        for v in ray:
            assert np.array_equal(v["direction"], ref[sample[v["u"]]])


class TestIntegrandValidation:
    @pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.5, -float("inf")])
    def test_bad_growth_constant_named(self, c):
        ac = allen_cahn(1)
        with pytest.raises(ValueError, match="^growth constant must be finite and >= 1$"):
            Integrand("bad", 1, ac.density, ac.d_u, ac.d_p, growth_constant=c)

    @pytest.mark.parametrize("dimension", [0, -1, 1.5, 2.0, True, "2"])
    def test_bad_dimension_named(self, dimension):
        # True would pass as 1 and fail later inside numpy's sampling
        ac = allen_cahn(1)
        with pytest.raises(ValueError) as err:
            Integrand("bad", dimension, ac.density, ac.d_u, ac.d_p)
        assert str(err.value) == f"dimension must be an integer >= 1, got {dimension!r}"

    def test_numpy_integer_dimension_accepted(self):
        ac = allen_cahn(2)
        fn = Integrand("np", np.int64(2), ac.density, ac.d_u, ac.d_p, 2.0, False)
        assert repr(check_growth(fn, 50, 1)) == repr(check_growth(ac, 50, 1))


class TestEulerLagrangeResidual:
    def test_pure_phase_is_a_solution(self):
        ac = allen_cahn(2)
        u = constant_field((PeriodicAxis(1, 4), PeriodicAxis(1, 4)), 0.0)
        res = energy_gradient(u, ac)
        assert np.abs(res.values).max() == 0.0

    def test_unstable_equilibrium_has_zero_residual(self):
        # the well's derivative vanishes at 1/2
        ac = allen_cahn(1)
        u = constant_field((PeriodicAxis(1, 8),), 0.5)
        res = energy_gradient(u, ac)
        assert np.abs(res.values).max() == 0.0

    def test_transition_profile_residual_small(self):
        ac = allen_cahn(1)
        ax = BoxAxis(-20, 20, 100)
        u = field_from_function((ax,), lambda p: logistic_profile(p[..., 0]))
        res = energy_gradient(u, ac)
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
        res = energy_gradient(u, ac)
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
            energy_gradient(u, ac)
