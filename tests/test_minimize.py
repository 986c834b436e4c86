import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from phaselab import minimize
from phaselab.field import (
    BoxAxis,
    GridError,
    Ordering,
    PeriodicAxis,
    ScalarField,
    TranslationVector,
    compare,
    constant_field,
    field_from_function,
    field_from_values,
    sup_distance,
    translate,
)
from phaselab.heteroclinic import (
    field_to_profile,
    logistic_profile,
    profile_to_field,
    solve_heteroclinic_bvp,
)
from phaselab.integrand import (
    Integrand,
    allen_cahn,
    double_well_derivative,
    eval_double_well,
)
from phaselab.minimize import (
    EnergyDivergedError,
    RelaxOptions,
    energy,
    energy_gradient,
    minimality_spot_check,
    relax,
)


AC1 = allen_cahn(1)
AC2 = allen_cahn(2)


def _wavy(n):
    """(2 + sin 2 pi x_1) |p|^2 + (1 + 0.3 cos 2 pi x_1) W(u)."""

    def a(x):
        return 2.0 + np.sin(2 * np.pi * x[..., 0])

    def b(x):
        return 1.0 + 0.3 * np.cos(2 * np.pi * x[..., 0])

    return Integrand(
        name="wavy",
        dimension=n,
        density=lambda x, u, p: a(x) * np.sum(np.asarray(p) ** 2, axis=-1)
        + b(x) * eval_double_well(u),
        d_u=lambda x, u, p: b(x) * double_well_derivative(u),
        d_p=lambda x, u, p: 2.0 * a(x)[..., None] * np.asarray(p),
        growth_constant=3.0,
    )


def _reference_spot_check(u, integrand, trials, max_radius, *, seed):
    """``minimality_spot_check`` with two :func:`energy` calls per trial."""
    amplitude = minimize.SPOT_AMPLITUDE
    rng = np.random.default_rng(seed)
    worst_delta, worst_trial, failures = np.inf, {}, []
    for trial in range(trials):
        radii, center = [], []
        for ax in u.axes:
            if isinstance(ax, PeriodicAxis):
                r = rng.uniform(minimize.SPOT_MIN_RADIUS, max_radius)
                c = rng.uniform(0.0, ax.period)
            else:
                cap = 0.5 * (ax.hi - ax.lo) - 2 * ax.h
                r = min(rng.uniform(minimize.SPOT_MIN_RADIUS, max_radius), max(cap, ax.h))
                c = rng.uniform(ax.lo + r + ax.h, ax.hi - r - ax.h)
            radii.append(r)
            center.append(c)
        amp = rng.uniform(0.1 * amplitude, amplitude) * rng.choice([-1.0, 1.0])
        power = int(rng.integers(1, 3))
        phi = minimize._bump(u, center, radii, amp, power)
        region = minimize._support_region(u, center, radii)
        e_base = energy(u, integrand, region)
        delta = energy(u.with_values(u.values + phi), integrand, region) - e_base
        tol = 1e-9 * (1.0 + abs(e_base))
        descriptor = {
            "trial": trial,
            "center": [float(c) for c in center],
            "radii": [float(r) for r in radii],
            "amplitude": float(amp),
            "power": power,
            "delta": float(delta),
            "tolerance": float(tol),
        }
        if delta < worst_delta:
            worst_delta, worst_trial = delta, descriptor
        if delta < -tol:
            failures.append(descriptor)
    return minimize.MinimalityReport(
        trials, not failures, float(worst_delta), worst_trial, failures, seed
    )


#: Grids, slopes, offsets, densities and spot-check radii
#: checked against ``_reference_spot_check``.
SPOT_CASES = [
    ((BoxAxis(-6, 6, 16),), (0,), Fraction(0), "ac", 2.0),
    ((BoxAxis(-6, 6, 8), PeriodicAxis(1, 5)), (0, 0), Fraction(3, 2), "ac", 3.0),
    ((PeriodicAxis(3, 6), PeriodicAxis(2, 5)), (1, -2), Fraction(-1, 3), "ac", 2.5),
    ((BoxAxis(-4, 4, 6), PeriodicAxis(2, 4)), (0, 1), Fraction(1, 7), "wavy", 2.0),
    ((PeriodicAxis(16, 8),), (1,), Fraction(2, 3), "ac", 2.0),
    (
        (BoxAxis(-3, 3, 4), PeriodicAxis(1, 4), PeriodicAxis(2, 4)),
        (0, 0, 1),
        Fraction(1, 3),
        "wavy",
        1.5,
    ),
]
SPOT_IDS = [
    "box", "box-periodic", "twisted-periodic2", "x-dependent", "partial-periodic", "box-periodic2"
]


def _assert_matches_reference(axes, rises, offset, density, max_radius, seed):
    shape = tuple(a.nodes for a in axes)
    rng = np.random.default_rng(seed + sum(shape))
    u = ScalarField(axes, 0.5 + 0.2 * rng.standard_normal(shape), rises, offset)
    ig = _wavy(len(axes)) if density == "wavy" else allen_cahn(len(axes))
    kw = dict(trials=25, max_radius=max_radius, seed=seed)
    assert minimality_spot_check(u, ig, **kw) == _reference_spot_check(u, ig, **kw)


class TestEnergy:
    def test_pure_phase_zero(self):
        u = constant_field((PeriodicAxis(1, 8), PeriodicAxis(1, 8)), 0.0)
        assert energy(u, AC2) == 0.0
        assert energy(u, AC2, region=((2, 6), (0, 8))) == 0.0

    def test_half_level_on_unit_cell(self):
        u = constant_field((PeriodicAxis(1, 4),), 0.5)
        assert abs(energy(u, AC1) - 0.0625) < 1e-15

    def test_transition_layer_energy_third(self):
        # closed form: twice the integral of u(1-u) over the unit range = 1/3
        ax = BoxAxis(-20, 20, 100)
        u = field_from_function((ax,), lambda p: logistic_profile(p[..., 0]))
        assert abs(energy(u, AC1) - 1.0 / 3.0) < 1e-3

    def test_region_additivity(self):
        rng = np.random.default_rng(0)
        ax = BoxAxis(0, 2, 8)
        u = field_from_values((ax,), rng.random(17))
        total = energy(u, AC1)
        left = energy(u, AC1, region=((0, 9),))
        right = energy(u, AC1, region=((8, 17),))
        assert abs(total - left - right) < 1e-14

    def test_empty_region_rejected(self):
        u = constant_field((PeriodicAxis(1, 8),), 0.0)
        with pytest.raises(GridError):
            energy(u, AC1, region=((3, 4),))

    def test_translation_equivariance_exact(self):
        # a translate that moves no twisted axis by a fraction of its period
        # has bitwise the same energy: on untwisted grids every lattice
        # translate, on twisted ones the vertical and whole-period shifts;
        # a sub-period shift along a rising axis agrees to rounding
        rng = np.random.default_rng(1)
        grids = [
            ((PeriodicAxis(2, 8),), AC1),
            ((PeriodicAxis(2, 8), PeriodicAxis(1, 4)), AC2),
            ((BoxAxis(-2, 2, 4), PeriodicAxis(2, 4)), AC2),
        ]
        for axes, integrand in grids:
            periodic = [isinstance(ax, PeriodicAxis) for ax in axes]
            for _ in range(20):
                rises = tuple(int(rng.integers(-1, 2)) if p else 0 for p in periodic)
                u = field_from_values(
                    axes, rng.random(tuple(a.nodes for a in axes)), rises=rises
                )
                spatial = tuple(int(rng.integers(-2, 3)) if p else 0 for p in periodic)
                k = TranslationVector(spatial, int(rng.integers(-2, 3)))
                e0 = energy(u, integrand)
                e1 = energy(translate(u, k), integrand)
                if all(r == 0 or s % ax.period == 0 for ax, r, s in zip(axes, rises, spatial)):
                    assert e1 == e0
                else:
                    assert abs(e1 - e0) <= 1e-14 * abs(e0)

    def test_sampled_x_periodic_integrand_equivariant_to_quadrature(self):
        wavy = Integrand(
            name="wavy",
            dimension=1,
            density=lambda x, u, p: (2.0 + np.sin(2 * np.pi * x[..., 0]))
            * np.sum(np.asarray(p) ** 2, axis=-1)
            + np.sin(np.pi * u) ** 2,
            d_u=lambda x, u, p: np.pi * np.sin(2 * np.pi * u),
            d_p=lambda x, u, p: 2.0
            * (2.0 + np.sin(2 * np.pi * x[..., 0]))[..., None]
            * np.asarray(p),
            growth_constant=3.0,
        )
        rng = np.random.default_rng(2)
        u = field_from_values((PeriodicAxis(2, 8),), rng.random(16))
        e0 = energy(u, wavy)
        e1 = energy(translate(u, TranslationVector((1,), 1)), wavy)
        assert abs(e1 - e0) < 1e-12

    # numpy warns on the inf - inf and overflowing sums before the pass raises
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "cells",
        [{3: np.nan}, {3: np.inf}, {3: np.inf, 9: -np.inf}, None],
        ids=["nan", "inf", "inf-and-minus-inf", "finite-sum-overflows"],
    )
    def test_non_finite_energy_raises(self, cells):
        def density(x, u, p):
            if cells is None:
                return np.full(u.shape, 1e308)
            out = np.sum(np.asarray(p) ** 2, axis=-1)
            for k, value in cells.items():
                out[k] = value
            return out

        user = Integrand(
            name="poisoned",
            dimension=1,
            density=density,
            d_u=lambda x, u, p: np.zeros_like(u),
            d_p=lambda x, u, p: 2.0 * np.asarray(p),
            depends_on_x=False,
        )
        u = field_from_values((PeriodicAxis(2, 8),), np.linspace(0.0, 1.0, 16))
        with pytest.raises(EnergyDivergedError):
            energy(u, user)
        with pytest.raises(EnergyDivergedError):
            energy_gradient(u, user)
        with pytest.raises(EnergyDivergedError):
            relax(u, user, RelaxOptions(max_iterations=5))

    def test_user_density_named_allen_cahn_uses_its_own_callbacks(self):
        # a user density named like the built-in must still be evaluated
        # through its own callbacks
        def user(name):
            return Integrand(
                name=name,
                dimension=1,
                density=lambda x, u, p: 5.0 * np.sum(np.asarray(p) ** 2, axis=-1),
                d_u=lambda x, u, p: np.zeros_like(u),
                d_p=lambda x, u, p: 10.0 * np.asarray(p),
                depends_on_x=False,
            )

        ax = BoxAxis(0, 2, 8)
        bent = field_from_values((ax,), ax.coords() ** 2 / 4.0)
        named, other = user("allen-cahn"), user("dirichlet")
        assert energy(bent, named) == energy(bent, other)
        assert energy(bent, named) != energy(bent, AC1)
        assert np.array_equal(
            energy_gradient(bent, named).values, energy_gradient(bent, other).values
        )
        opts = RelaxOptions(max_iterations=50, gradient_tolerance=1e-9)
        assert relax(bent, named, opts).final_energy == relax(bent, other, opts).final_energy
        assert allen_cahn(1) == AC1


class TestGradient:
    def test_critical_points(self):
        u0 = constant_field((PeriodicAxis(1, 8),), 0.0)
        uh = constant_field((PeriodicAxis(1, 8),), 0.5)
        assert np.abs(energy_gradient(u0, AC1).values).max() == 0.0
        assert np.abs(energy_gradient(uh, AC1).values).max() == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for k in range(20):
            n = 1 + (k % 2)
            axes = (
                (PeriodicAxis(2, 16),)
                if n == 1
                else (PeriodicAxis(1, 8), PeriodicAxis(2, 8))
            )
            ac = AC1 if n == 1 else AC2
            shape = tuple(a.nodes for a in axes)
            u = field_from_values(axes, 0.3 + 0.2 * rng.standard_normal(shape))
            delta = rng.standard_normal(shape)
            g = energy_gradient(u, ac)
            hn = float(np.prod([a.h for a in axes]))
            inner = float(np.sum(g.values * delta)) * hn
            s = 1e-6
            fd = (
                energy(u.with_values(u.values + s * delta), ac)
                - energy(u.with_values(u.values - s * delta), ac)
            ) / (2 * s)
            worst = max(worst, abs(inner - fd) / max(abs(fd), 1e-12))
        assert worst < 1e-6

    def test_twisted_mixed_grid_matches_finite_differences(self):
        # two twisted periodic axes around a box axis: corners wrap with the
        # rise, and a corner high on both periodic axes scatters back through
        # two rolls
        ac = allen_cahn(3)
        axes = (PeriodicAxis(1, 4), BoxAxis(0, 1, 4), PeriodicAxis(1, 5))
        rng = np.random.default_rng(6)
        shape = tuple(a.nodes for a in axes)
        u = field_from_values(axes, 0.3 * rng.standard_normal(shape), rises=(1, 0, -1))
        g = energy_gradient(u, ac).values
        delta = rng.standard_normal(shape)
        s = 1e-6
        fd = (
            energy(u.with_values(u.values + s * delta), ac)
            - energy(u.with_values(u.values - s * delta), ac)
        ) / (2 * s)
        inner = float(np.sum(g * delta)) * float(np.prod([a.h for a in axes]))
        assert abs(inner - fd) / abs(fd) < 1e-6

    @pytest.mark.parametrize(
        "axes, rises, region",
        [
            ((BoxAxis(-1, 1, 6),), (0,), ((2, 10),)),
            ((PeriodicAxis(2, 6),), (1,), ((3, 10),)),
            ((BoxAxis(-1, 1, 4), PeriodicAxis(1, 5)), (0, 0), ((1, 7), None)),
            ((PeriodicAxis(2, 4), PeriodicAxis(3, 4)), (1, -2), ((1, 7), (2, 9))),
        ],
        ids=["box", "twisted", "box-periodic", "twisted-periodic2"],
    )
    def test_x_dependent_density_matches_finite_differences(self, axes, rises, region):
        # the cell centers enter the callbacks, so a region must see the
        # coordinates of its own cells: a perturbation whose cells all lie
        # inside the region moves the region energy as it moves the whole
        ig = _wavy(len(axes))
        shape = tuple(a.nodes for a in axes)
        rng = np.random.default_rng(sum(shape))
        u = ScalarField(axes, 0.3 * rng.standard_normal(shape), rises, Fraction(1, 3))
        g = energy_gradient(u, ig).values
        hn = float(np.prod([a.h for a in axes]))
        inside = tuple(slice(None) if r is None else slice(r[0] + 1, r[1] - 1) for r in region)
        local = np.zeros(shape)
        local[inside] = rng.standard_normal(local[inside].shape)
        s = 1e-6
        for delta, reg in ((rng.standard_normal(shape), None), (local, region)):
            fd = (
                energy(u.with_values(u.values + s * delta), ig, reg)
                - energy(u.with_values(u.values - s * delta), ig, reg)
            ) / (2 * s)
            inner = float(np.sum(g * delta)) * hn
            assert abs(inner - fd) / abs(fd) < 1e-6

    def test_box_edges_included_in_first_variation(self):
        # perturbations at unpinned box edges must also be captured
        rng = np.random.default_rng(4)
        ax = BoxAxis(0, 1, 4)
        u = field_from_values((ax,), rng.random(5))
        g = energy_gradient(u, AC1)
        delta = np.zeros(5)
        delta[0] = 1.0
        s = 1e-6
        fd = (
            energy(u.with_values(u.values + s * delta), AC1)
            - energy(u.with_values(u.values - s * delta), AC1)
        ) / (2 * s)
        assert abs(g.values[0] * ax.h - fd) / abs(fd) < 1e-6


def _concatenate_wrap(arr, axis, k, rise):
    """The roll of ``minimize._wrap`` as two slices and one concatenation."""
    at = (slice(None),) * axis
    wrapped = arr[at + (slice(None, k),)]
    if rise:
        wrapped = wrapped + rise
    return np.concatenate((arr[at + (slice(k, None),)], wrapped), axis=axis)


def _roll_corners(total, plans, lead):
    """The cell corners of ``total`` in signature order, by ``np.roll``."""
    corners = []
    for sig in itertools.product((0, 1), repeat=len(plans)):
        corner = total
        for i, (plan, bit) in enumerate(zip(plans, sig), start=lead):
            at = (slice(None),) * i
            if not plan.wrap:
                corner = corner[at + (slice(plan.start + bit, plan.stop - 1 + bit),)]
            elif bit:
                corner = np.roll(corner, -1, axis=i)
                corner[at + (slice(-1, None),)] += plan.rise
        corners.append(corner)
    return corners


def _roll_gradient(kernel):
    """The scatter of ``_CellPass.gradient``, its contributions moved by
    ``np.roll``."""
    args = (kernel.x_cells, kernel.ub, kernel.p)
    fp = kernel.integrand.d_p(*args)
    parts = [kernel.integrand.d_u(*args) * kernel.inv2n]
    parts += [fp[..., i] * scale for i, scale in enumerate(kernel.slope_scale)]
    g = np.zeros(kernel.shape)
    for sig in kernel.sigs:
        contrib = parts[0] + parts[1] if sig[0] else parts[0] - parts[1]
        for bit, part in zip(sig[1:], parts[2:]):
            contrib = contrib + part if bit else contrib - part
        slot = []
        for i, (plan, bit) in enumerate(zip(kernel.plans, sig)):
            if plan.wrap:
                slot.append(slice(None))
                if bit:
                    contrib = np.roll(contrib, 1, axis=i)
            else:
                slot.append(slice(plan.start + bit, plan.stop - 1 + bit))
        g[tuple(slot)] += contrib
    return g


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCellPass:
    @pytest.mark.parametrize("view", ["contiguous", "transposed", "box-slice"])
    @pytest.mark.parametrize("shape", [(7,), (5, 4), (4, 3, 5)], ids=["1d", "2d", "3d"])
    def test_wrap_is_the_concatenation_bitwise(self, shape, view):
        rng = np.random.default_rng(len(shape))
        base = rng.standard_normal(shape)
        base.flat[::3] = -0.0
        arr = {"contiguous": base, "transposed": base.T, "box-slice": base[..., 1:-1]}[view]
        for axis in range(arr.ndim):
            for k in (1, -1, 2, -2):
                for rise in (0, 1, -2):
                    out = minimize._wrap(arr, axis, k, rise)
                    assert _same_bits(out, _concatenate_wrap(arr, axis, k, rise)), (axis, k, rise)

    @pytest.mark.parametrize(
        "axes, rises, region",
        [
            ((BoxAxis(-2, 2, 4), PeriodicAxis(1, 4)), (0, 0), ((2, 9), None)),
            ((PeriodicAxis(1, 4), BoxAxis(0, 1, 5)), (1, 0), None),
            ((PeriodicAxis(2, 4), PeriodicAxis(1, 5)), (1, -1), None),
            ((BoxAxis(0, 1, 4), PeriodicAxis(1, 4), PeriodicAxis(1, 5)), (0, 1, 0), None),
        ],
        ids=["box-periodic", "periodic-box", "twisted", "box-periodic2"],
    )
    def test_corners_and_gradient_match_roll_bitwise(self, axes, rises, region):
        n = len(axes)
        shape = tuple(a.nodes for a in axes)
        rng = np.random.default_rng(sum(shape))
        u = ScalarField(axes, 0.3 * rng.standard_normal(shape), rises, Fraction(1, 3))
        total = minimize._reduced_total(u)
        kernel = minimize._region_pass(u, allen_cahn(n), region)
        corners = kernel.corners(total)
        reference = _roll_corners(total, kernel.plans, 0)
        assert len(corners) == len(reference) == 2**n
        assert all(_same_bits(c, r) for c, r in zip(corners, reference))
        # a stacked pass, as minimality_spot_check builds it, wraps behind
        # the leading axis of its windows
        stacked = np.stack([total, -total, 2.0 * total])
        kernel3 = minimize._CellPass(allen_cahn(n), kernel.plans, None, count=3)
        corners = kernel3.corners(stacked)
        reference = _roll_corners(stacked, kernel.plans, 1)
        assert all(_same_bits(c, r) for c, r in zip(corners, reference))
        kernel.energy(total, False)
        assert _same_bits(kernel.gradient(), _roll_gradient(kernel))


class TestRelax:
    def test_critical_start_returns_unchanged(self):
        u = constant_field((PeriodicAxis(1, 8),), 0.0)
        res = relax(u, AC1, RelaxOptions())
        assert res.converged and res.iterations == 0
        assert np.array_equal(res.field.values, u.values)

    def test_ramp_relaxes_to_transition_layer(self):
        ax = BoxAxis(-12, 12, 25)
        x = ax.coords()
        ramp = field_from_values((ax,), (x + 12) / 24)
        res = relax(
            ramp,
            AC1,
            RelaxOptions(max_iterations=120_000, gradient_tolerance=1e-3, initial_step=1e-4),
        )
        assert res.converged
        target = field_from_function((ax,), lambda p: logistic_profile(p[..., 0]))
        assert sup_distance(res.field, target) < 2e-3
        # pinned ends kept their values
        assert res.field.values[0] == ramp.values[0]
        assert res.field.values[-1] == ramp.values[-1]

    def test_energy_history_non_increasing(self):
        rng = np.random.default_rng(5)
        u = field_from_values((PeriodicAxis(2, 16),), 0.5 + 0.3 * rng.standard_normal(32))
        res = relax(u, AC1, RelaxOptions(max_iterations=3000, gradient_tolerance=1e-8, log_every=1))
        e = res.history["energy"]
        assert np.all(np.diff(e) <= 1e-15)

    def test_slope_and_offset_preserved(self):
        rng = np.random.default_rng(6)
        axes = (PeriodicAxis(2, 8),)
        u = field_from_values(axes, 0.1 * rng.standard_normal(16), rises=(1,))
        u = u.with_values(u.values)
        res = relax(u, AC1, RelaxOptions(max_iterations=500, gradient_tolerance=1e-6))
        assert res.field.rises == (1,)
        assert res.field.offset == u.offset

    def test_criterion_01_ramp_takes_unit_steps(self):
        # the acceptance ramp (L = 20, h = 0.01): P majorizes the Hessian, so
        # the closing unit step along P^-1 g is not rejected; unit steps
        # along the L-BFGS direction may be
        ax = BoxAxis(-20, 20, 100)
        ramp = field_from_values((ax,), (ax.coords() + 20.0) / 40.0)
        opts = RelaxOptions(gradient_tolerance=3e-4, initial_step=1e-5, log_every=1)
        res = relax(ramp, AC1, opts)
        assert res.converged and res.iterations <= 20
        assert res.history["step"][0] == 0.0
        assert np.all(res.history["step"][1:] == minimize.STEP_MAX)
        # the stop test passed one iteration before the end: the closing
        # trial was accepted at once
        before = relax(ramp, AC1, replace(opts, max_iterations=res.iterations - 1))
        assert before.final_gradient_norm <= 3e-4
        assert list(res.history["iteration"][-2:]) == [res.iterations - 1, res.iterations]

    def test_every_logged_step_after_start_is_unit(self):
        rng = np.random.default_rng(5)
        u = field_from_values(
            (BoxAxis(-2, 2, 4), PeriodicAxis(1, 4)), 0.5 + 0.3 * rng.standard_normal((17, 4))
        )
        res = relax(u, AC2, RelaxOptions(gradient_tolerance=1e-8, initial_step=0.3, log_every=1))
        assert res.converged and res.iterations > 1
        assert list(res.history["iteration"]) == list(range(res.iterations + 1))
        assert np.all(res.history["step"][1:] == minimize.STEP_MAX)

    def test_halving_when_shift_is_below_curvature(self):
        # |p|^2 + 2 W(u) has sup F_uu = 4 > sigma = 1: P does not majorize
        # the Hessian, and unit steps are rejected and halved
        scaled = Integrand(
            name="allen-cahn-2w",
            dimension=1,
            density=lambda x, u, p: np.asarray(p)[..., 0] ** 2 + 2.0 * eval_double_well(u),
            d_u=lambda x, u, p: 2.0 * double_well_derivative(u),
            d_p=lambda x, u, p: 2.0 * np.asarray(p),
            growth_constant=1.0,
            depends_on_x=False,
        )
        ax = BoxAxis(-12, 12, 25)
        ramp = field_from_values((ax,), (ax.coords() + 12.0) / 24.0)
        res = relax(ramp, scaled, RelaxOptions(gradient_tolerance=1e-6, log_every=1))
        assert res.converged and res.rejected > 0
        assert np.all(np.diff(res.history["energy"]) <= 0.0)
        g = np.abs(energy_gradient(res.field, scaled).values[1:-1]).max()
        assert g <= 1e-6

    def test_fixed_step_divergence_raises(self):
        rng = np.random.default_rng(8)
        u = field_from_values((PeriodicAxis(1, 16),), rng.random(16))
        with pytest.raises(
            EnergyDivergedError, match=r"^energy diverged at iteration 1 \(step 100000\): "
        ):
            relax(
                u,
                AC1,
                RelaxOptions(max_iterations=10_000, gradient_tolerance=1e-12, initial_step=1e5),
            )

    def test_stall_detected_instead_of_spinning(self):
        # at O(1) energy the adaptive rule cannot resolve decreases below
        # eps * |E|, so an unreachable tolerance must stall, not spin
        u = profile_to_field(solve_heteroclinic_bvp(12, 0.02))
        res = relax(
            u, AC1, RelaxOptions(max_iterations=5_000, gradient_tolerance=1e-14)
        )
        assert res.status == "stalled"
        assert res.iterations < 5_000

    def test_options_validated(self):
        with pytest.raises(ValueError):
            RelaxOptions(gradient_tolerance=0.0)
        for bad in (
            {"gradient_tolerance": float("nan")},
            {"gradient_tolerance": float("inf")},
            {"max_iterations": -5},
            {"log_every": 0},
            {"initial_step": float("nan")},
            {"initial_step": float("inf")},
            {"initial_step": -1e-5},
        ):
            with pytest.raises(ValueError):
                RelaxOptions(**bad)
        RelaxOptions(max_iterations=0, log_every=1)

    def test_step_cap_keeps_tails_inside_the_wells(self):
        # steps past 1 along P^-1 g overshoot on long boxes and leave
        # interior tail values just below 0, which Profile1D rejects
        ax = BoxAxis(-20, 20, 25)
        x = ax.coords()
        ramp = field_from_values((ax,), (x + 20) / 40)
        for seed in range(1, 21):
            rng = np.random.default_rng(seed)
            pert = np.zeros(ax.nodes)
            for _ in range(3):
                center = [float(rng.uniform(2.0, 15.0))]
                radii = [float(rng.uniform(1.0, 4.0))]
                amp = 0.02 * float(rng.uniform(-1, 1))
                pert += minimize._bump(ramp, center, radii, amp, 1)
            u0 = ramp.with_values(ramp.values + pert - pert[::-1])
            res = relax(u0, AC1, RelaxOptions(gradient_tolerance=3e-4))
            assert res.converged, f"seed {seed}: {res.status}"
            field_to_profile(res.field)

    def test_closing_step_keeps_tails_inside_the_wells_at_benchmark_resolution(self):
        # layer1d's grid (h = 0.02): L-BFGS steps leave tail values below 0,
        # and the closing unit step along P^-1 g, the Hessian in the tails,
        # puts them back on their equilibrium
        ax = BoxAxis(-20, 20, 50)
        x = ax.coords()
        ramp = field_from_values((ax,), (x + 20) / 40)
        for seed in range(1, 21):
            rng = np.random.default_rng(seed)
            pert = np.zeros(ax.nodes)
            for _ in range(3):
                center = [float(rng.uniform(2.0, 15.0))]
                radii = [float(rng.uniform(1.0, 4.0))]
                amp = 0.02 * float(rng.uniform(-1, 1))
                pert += minimize._bump(ramp, center, radii, amp, 1)
            u0 = ramp.with_values(ramp.values + pert - pert[::-1])
            res = relax(u0, AC1, RelaxOptions(gradient_tolerance=3e-4))
            assert res.converged, f"seed {seed}: {res.status}"
            field_to_profile(res.field)

    def test_rounding_level_energy_drops_are_no_progress(self):
        # F = 1 + c u with c = 1e-8: each unit step lowers E = 2 (1 + c u)
        # by at most one ulp and leaves the gradient c in place, so the run
        # stalls after the patience instead of spinning to max-iterations
        c = 1e-8
        tilt = Integrand(
            name="tilt",
            dimension=1,
            density=lambda x, u, p: 1.0 + c * u,
            d_u=lambda x, u, p: np.full_like(u, c),
            d_p=lambda x, u, p: np.zeros_like(p),
            growth_constant=1.0,
            depends_on_x=False,
        )
        u = field_from_values((PeriodicAxis(2, 8),), np.full(16, 0.5))
        res = relax(u, tilt, RelaxOptions(max_iterations=3000, gradient_tolerance=1e-10, log_every=1))
        assert res.status == "stalled" and res.iterations == minimize._STALL_PATIENCE
        assert res.rejected == 0 and res.final_gradient_norm == c
        drops = -np.diff(res.history["energy"])
        assert np.all(drops <= math.ulp(res.final_energy)) and drops.sum() > 0.0

    @pytest.mark.parametrize(
        "axes, rises",
        [
            ((BoxAxis(-3, 3, 4),), (0,)),
            ((BoxAxis(-2, 2, 4), PeriodicAxis(1, 4)), (0, 0)),
            ((PeriodicAxis(2, 4), PeriodicAxis(1, 5)), (1, -1)),
            ((BoxAxis(0, 1, 4), PeriodicAxis(1, 4), PeriodicAxis(1, 5)), (0, 1, 0)),
        ],
        ids=["box", "box-periodic", "twisted-periodic", "mixed-3d"],
    )
    def test_property_sweep(self, axes, rises):
        ac = allen_cahn(len(axes))
        shape = tuple(a.nodes for a in axes)
        moved = tuple(slice(1, -1) if isinstance(a, BoxAxis) else slice(None) for a in axes)
        pinned = np.ones(shape, dtype=bool)
        pinned[moved] = False
        rng = np.random.default_rng(sum(shape))
        for _ in range(6):
            offset = Fraction(int(rng.integers(0, 4)), 4)
            u = ScalarField(axes, 0.5 + 0.3 * rng.standard_normal(shape), rises, offset)
            tol = float(rng.choice([1e-2, 1e-6, 1e-14]))
            opts = RelaxOptions(
                max_iterations=int(rng.choice([3, 40, 400])),
                gradient_tolerance=tol,
                log_every=1,
            )
            res = relax(u, ac, opts)
            assert np.all(np.diff(res.history["energy"]) <= 0.0)
            assert res.field.values[pinned].tobytes() == u.values[pinned].tobytes()
            assert res.field.rises == u.rises and res.field.offset == u.offset
            assert res.converged == (res.final_gradient_norm <= tol)
            assert res.converged == (res.status == "converged")
            g = np.abs(energy_gradient(res.field, ac).values[moved]).max()
            assert abs(g - res.final_gradient_norm) <= 1e-9 * (1.0 + g)


class TestPreconditioner:
    @pytest.mark.parametrize(
        "axes, rises",
        [
            ((BoxAxis(-2, 3, 4),), (0,)),
            ((BoxAxis(0, 2, 5), PeriodicAxis(1, 4)), (0, 0)),
            ((PeriodicAxis(2, 4), BoxAxis(0, 1, 6)), (1, 0)),
            ((BoxAxis(0, 1, 4), PeriodicAxis(1, 5), BoxAxis(-1, 1, 4)), (0, -1, 0)),
            ((PeriodicAxis(1, 5), PeriodicAxis(3, 5)), (1, 2)),
            ((PeriodicAxis(1, 4), PeriodicAxis(2, 4)), (0, 1)),
            ((BoxAxis(0, 1, 6), PeriodicAxis(2, 16)), (0, 1)),
            ((PeriodicAxis(16, 8), BoxAxis(-1, 1, 4)), (3, 0)),
        ],
        ids=[
            "box",
            "box-periodic",
            "twisted-first",
            "mixed-3d",
            "twisted-odd",
            "periodic2-even",
            "periodic-32",
            "periodic-128",
        ],
    )
    def test_inverts_hessian_of_gradient_term_plus_shift(self, axes, rises):
        # Q v from the first variation of a user |p|^2 density, which the
        # generic pass evaluates independently of the preconditioner
        n = len(axes)
        dirichlet = Integrand(
            name="dirichlet",
            dimension=n,
            density=lambda x, u, p: np.sum(np.asarray(p) ** 2, axis=-1),
            d_u=lambda x, u, p: np.zeros_like(u),
            d_p=lambda x, u, p: 2.0 * np.asarray(p),
            depends_on_x=False,
        )
        shape = tuple(a.nodes for a in axes)
        z = field_from_values(axes, np.zeros(shape), rises).with_values(np.zeros(shape))
        sigma = 2.0
        precond = minimize._SobolevPreconditioner(minimize._plan(z, None), sigma)
        inner = precond.interior
        rng = np.random.default_rng(n)
        v = np.zeros(shape)
        v[inner] = rng.standard_normal(v[inner].shape)
        qv = energy_gradient(z.with_values(v), dirichlet).values - energy_gradient(z, dirichlet).values
        back = precond.solve((qv + sigma * v)[inner])
        assert np.abs(back - v[inner]).max() <= 1e-12

    @pytest.mark.parametrize(
        "axes, rises",
        [
            ((BoxAxis(0, 4, 6), PeriodicAxis(1, 4)), (0, 1)),
            ((PeriodicAxis(1, 5), BoxAxis(0, 1, 4), PeriodicAxis(1, 4)), (1, 0, 0)),
        ],
        ids=["box-periodic", "periodic-box-periodic"],
    )
    def test_fourier_basis_in_blocks_of_lines(self, axes, rises, monkeypatch):
        # blocks of m lines, the fewest there are, each placed back along
        # its own axis
        monkeypatch.setattr(minimize, "_MATMUL_SIZE", 1)
        self.test_inverts_hessian_of_gradient_term_plus_shift(axes, rises)

    @pytest.mark.parametrize(
        "axes",
        [
            (BoxAxis(-2, 3, 4),),
            (BoxAxis(0, 8, 4), BoxAxis(0, 4, 4)),
            (BoxAxis(0, 2, 5), PeriodicAxis(1, 4)),
            (PeriodicAxis(1, 4), PeriodicAxis(2, 5)),
        ],
        ids=["box", "box-box", "box-periodic", "periodic2"],
    )
    def test_result_outlives_the_next_solve(self, axes):
        # a result must be its own array: a view of a work buffer that the
        # next solve reuses would change under the caller
        z = constant_field(axes, 0.0)
        plans = minimize._plan(z, None)
        precond = minimize._SobolevPreconditioner(plans, 2.0)
        rng = np.random.default_rng(len(axes))
        inner_shape = np.zeros(z.shape)[precond.interior].shape
        g1, g2 = rng.standard_normal(inner_shape), rng.standard_normal(inner_shape)
        first = precond.solve(g1)
        precond.solve(g2)
        fresh = minimize._SobolevPreconditioner(plans, 2.0).solve(g1)
        assert np.array_equal(first, fresh)

    def test_relax_keeps_a_field_uniform_along_four_nodes(self):
        # the four-node basis is exactly +-1/2, so a field constant along
        # the README's periodic axis stays so, bit for bit
        assert set(np.abs(minimize._fourier_basis(4)[0]).ravel()) == {0.5}
        axes = (BoxAxis(-5, 5, 10), PeriodicAxis(1, 4))
        ramp = field_from_function(axes, lambda p: (p[..., 0] + 5.0) / 10.0)
        res = relax(ramp, allen_cahn(2), RelaxOptions(gradient_tolerance=1e-8))
        assert res.converged
        assert np.array_equal(res.field.values, np.repeat(res.field.values[:, :1], 4, axis=1))

    @pytest.mark.parametrize("m", range(4, 10))
    def test_fourier_basis_diagonalizes_periodic_second_difference(self, m):
        basis, theta = minimize._fourier_basis(m)
        assert np.abs(basis.T @ basis - np.eye(m)).max() <= 1e-14
        eye = np.eye(m)
        second = 2.0 * eye - np.roll(eye, 1, axis=0) - np.roll(eye, -1, axis=0)
        assert np.abs(basis.T @ second @ basis - np.diag(4.0 * np.sin(0.5 * theta) ** 2)).max() <= 1e-14


class TestComparisonPrincipleProbe:
    def test_ordered_relaxed_fields_energy_lattice(self):
        # pointwise min/max of strictly ordered critical fields select the
        # fields themselves, so the energies agree bitwise
        ax = BoxAxis(-12, 12, 50)
        u = field_from_function((ax,), lambda p: logistic_profile(p[..., 0] - 1.0))
        v = field_from_function((ax,), lambda p: logistic_profile(p[..., 0]))
        assert compare(u, v).kind is Ordering.LESS
        lo = u.with_values(np.minimum(u.values, v.values))
        hi = u.with_values(np.maximum(u.values, v.values))
        assert energy(lo, AC1) == energy(u, AC1)
        assert energy(hi, AC1) == energy(v, AC1)


class TestMinimalitySpotCheck:
    def test_pure_phase_passes(self):
        u = constant_field((PeriodicAxis(16, 8),), 0.0)
        report = minimality_spot_check(u, AC1, trials=100, max_radius=6.0, seed=1)
        assert report.passed
        assert report.worst_delta >= 0.0

    def test_well_maximum_fails(self):
        # wide negative perturbations lower the well faster than the gradient
        # term costs, so the flat half-level state is not a minimizer
        u = constant_field((PeriodicAxis(16, 8),), 0.5)
        report = minimality_spot_check(u, AC1, trials=100, max_radius=6.0, seed=1)
        assert not report.passed
        assert report.worst_delta < -1e-3
        assert report.failures
        worst = report.worst_trial
        assert abs(worst["amplitude"]) >= 0.3

    def test_relaxed_transition_layer_passes(self):
        profile = solve_heteroclinic_bvp(12, 0.02)
        u = profile_to_field(profile)
        report = minimality_spot_check(u, AC1, trials=100, max_radius=2.0, seed=2)
        assert report.passed

    def test_trials_validated(self):
        u = constant_field((PeriodicAxis(1, 8),), 0.0)
        with pytest.raises(ValueError):
            minimality_spot_check(u, AC1, trials=0, max_radius=1.0, seed=0)

    @pytest.mark.parametrize("trials", [2.5, True, "3", 0, -1])
    def test_trials_validated_before_any_work(self, trials, monkeypatch):
        # a fractional count is no number of trials, and True would run one
        # trial reported as trials=True
        monkeypatch.setattr(minimize, "_CellPass", None)
        monkeypatch.setattr(minimize, "_draw_trial", None)
        u = constant_field((PeriodicAxis(4, 8),), 0.5)
        with pytest.raises(ValueError) as err:
            minimality_spot_check(u, AC1, trials=trials, max_radius=1.0, seed=0)
        assert str(err.value) == f"need at least one trial: an integer count, got {trials!r}"

    def test_numpy_integer_trials_reported_as_int(self):
        # the report goes to minimality.json as it stands
        u = constant_field((PeriodicAxis(4, 8),), 0.0)
        report = minimality_spot_check(u, AC1, trials=np.int64(5), max_radius=1.0, seed=0)
        assert type(report.trials) is int
        assert report == minimality_spot_check(u, AC1, trials=5, max_radius=1.0, seed=0)

    @pytest.mark.parametrize(
        "ax",
        [BoxAxis(-20, 20, 10), BoxAxis(3, 11, 8), PeriodicAxis(8, 8)],
        ids=["box-negative-lo", "box-positive-lo", "periodic"],
    )
    def test_window_holds_the_bump_with_a_zero_margin(self, ax):
        # one formula for box and periodic axes: node k sits at lo + k/m,
        # with lo = 0 on a periodic axis, and the window must hold every
        # node the bump touches and end on untouched nodes at both sides
        u = constant_field((ax,), 0.0)
        rng = np.random.default_rng(7)
        x = ax.coords()
        for _ in range(20):
            r = rng.uniform(minimize.SPOT_MIN_RADIUS, 1.5)
            c = rng.uniform(x[0] + r + 2 * ax.h, x[-1] - r - 2 * ax.h)
            start, stop = minimize._support_region(u, [c], [r])[0]
            touched = np.flatnonzero(minimize._bump(u, [c], [r], 1.0, 1))
            assert touched.size
            assert start < touched[0] and touched[-1] < stop - 1
            assert x[start] <= c - r and x[stop - 1] >= c + r

    def test_padding_repeats_the_window_edge(self):
        # callbacks never see a node outside a trial's window: a narrow
        # window padded to its batch's widest repeats its own last node.
        # A spike at a node that no window holds, but that lies within the
        # widest window's width past a narrow window's end, must not reach
        # the density, which refuses it
        ax = BoxAxis(-20, 20, 10)
        u = field_from_function((ax,), lambda p: logistic_profile(p[..., 0]))
        rng = np.random.default_rng(2)
        draws = [minimize._draw_trial(u, rng, 2.0) for _ in range(minimize._SPOT_BATCH)]
        windows = [minimize._support_region(u, c, r)[0] for c, r, _, _ in draws]
        width = max(stop - start for start, stop in windows)
        held = {k for start, stop in windows for k in range(start, stop)}
        reach = {k for start, stop in windows for k in range(stop, start + width)} - held
        assert reach
        values = u.values.copy()
        values[min(reach)] = 10.0
        spiked = u.with_values(values)

        def density(x, u, p):
            if np.any(u > 2.0):
                raise AssertionError("a cell outside its window reached the density")
            return AC1.density(x, u, p)

        ig = Integrand("no-spike", 1, density, AC1.d_u, AC1.d_p, growth_constant=2.0)
        kw = dict(trials=minimize._SPOT_BATCH, max_radius=2.0, seed=2)
        assert minimality_spot_check(spiked, ig, **kw) == _reference_spot_check(spiked, ig, **kw)

    def test_nan_density_in_a_window_raises(self):
        # NaN on the cells near x = 2 only: a trial whose window holds them
        # must raise, as its two region energies do
        def density(x, u, p):
            dens = eval_double_well(u) + np.sum(np.asarray(p) ** 2, axis=-1)
            return np.where(np.abs(x[..., 0] - 2.0) < 0.05, np.nan, dens)

        ig = Integrand("nan-patch", 1, density, AC1.d_u, AC1.d_p, growth_constant=2.0)
        ax = BoxAxis(-6, 6, 16)
        u = field_from_function((ax,), lambda p: logistic_profile(p[..., 0]))
        kw = dict(trials=25, max_radius=2.0, seed=0)
        with pytest.raises(EnergyDivergedError, match="^non-finite energy value$"):
            _reference_spot_check(u, ig, **kw)
        with pytest.raises(EnergyDivergedError, match="^non-finite energy value$"):
            minimality_spot_check(u, ig, **kw)

    @pytest.mark.parametrize("amplitude", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_amplitude_validated_before_any_work(self, amplitude, monkeypatch):
        # the bump amplitude is SPOT_AMPLITUDE, not a setting: an amplitude
        # passed in is refused before any trial is drawn or evaluated
        monkeypatch.setattr(minimize, "_CellPass", None)
        monkeypatch.setattr(minimize, "_bump", None)
        monkeypatch.setattr(minimize, "_draw_trial", None)
        u = constant_field((PeriodicAxis(4, 8),), 0.5)
        with pytest.raises(TypeError, match="unexpected keyword argument 'amplitude'"):
            minimality_spot_check(u, AC1, trials=5, max_radius=1.0, seed=0, amplitude=amplitude)

    @pytest.mark.parametrize("case", SPOT_CASES, ids=SPOT_IDS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_two_energy_reference(self, case, seed):
        # the trials of a batched cell pass get the bits of two region
        # energies each, one of them on the perturbed field built as a
        # ScalarField; windows wrap along some periodic axes for some trials
        # only (twisted-periodic2, x-dependent, partial-periodic,
        # box-periodic2), and those trials share no pass
        _assert_matches_reference(*case, seed)

    @pytest.mark.parametrize("case", SPOT_CASES, ids=SPOT_IDS)
    def test_matches_two_energy_reference_in_small_batches(self, case, monkeypatch):
        # batches of 3 spread the 25 trials of each wrapping group over
        # several cell passes
        monkeypatch.setattr(minimize, "_SPOT_BATCH", 3)
        _assert_matches_reference(*case, 5)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_two_energy_reference_on_the_layer(self, seed):
        # the layer1d benchmark's shape: 2,001 nodes, 50 trials of radius
        # up to 2, with windows of 50 to 200 nodes
        ax = BoxAxis(-20, 20, 50)
        u = field_from_function((ax,), lambda p: logistic_profile(p[..., 0]))
        kw = dict(trials=50, max_radius=2.0, seed=seed)
        assert minimality_spot_check(u, AC1, **kw) == _reference_spot_check(u, AC1, **kw)

    def test_deterministic_given_seed(self):
        u = constant_field((PeriodicAxis(4, 8),), 0.5)
        a = minimality_spot_check(u, AC1, trials=20, max_radius=1.5, seed=11)
        b = minimality_spot_check(u, AC1, trials=20, max_radius=1.5, seed=11)
        assert a.worst_delta == b.worst_delta
        assert a.worst_trial == b.worst_trial
