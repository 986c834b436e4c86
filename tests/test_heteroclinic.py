import numpy as np
import pytest

import phaselab.heteroclinic as heteroclinic
from phaselab.heteroclinic import (
    DAMPING_SHRINK,
    DAMPING_START,
    LEVENBERG,
    NEWTON_CAP,
    RESIDUAL_TOL,
    BvpConvergenceError,
    Profile1D,
    _solve_tridiagonal,
    _variation,
    closed_form_profile,
    equipartition_residual,
    field_to_profile,
    logistic_profile,
    profile_to_field,
    solve_heteroclinic_bvp,
)
from phaselab.integrand import allen_cahn, double_well_derivative
from phaselab.minimize import energy


def _reference_reduce(a, b, c, d):
    """Recursive odd-even cyclic reduction, re-eliminating on every call."""
    n = b.size
    if n == 1:
        return d / b
    ne, no = (n + 1) // 2, n // 2
    a_odd, b_odd, c_odd, d_odd = a[1::2], b[1::2], c[1::2], d[1::2]
    left = -a[2::2] / b_odd[: ne - 1]
    right = -c[0 : 2 * no : 2] / b_odd
    a2 = np.zeros(ne)
    b2 = b[0::2].copy()
    c2 = np.zeros(ne)
    d2 = d[0::2].copy()
    a2[1:] = left * a_odd[: ne - 1]
    b2[1:] += left * c_odd[: ne - 1]
    d2[1:] += left * d_odd[: ne - 1]
    b2[:no] += right * a_odd
    c2[:no] = right * c_odd
    d2[:no] += right * d_odd
    x = np.empty(n)
    x[0::2] = _reference_reduce(a2, b2, c2, d2)
    x_right = np.append(x[2::2], 0.0)[:no]
    x[1::2] = (d_odd - a_odd * x[0 : 2 * no : 2] - c_odd * x_right) / b_odd
    return x


def _reference_solve(sub, diag, sup, rhs):
    a = np.concatenate(([0.0], sub))
    c = np.concatenate((sup, [0.0]))
    return _reference_reduce(a, np.asarray(diag, dtype=float), c, np.asarray(rhs, dtype=float))


def _reference_start(L, h):
    m = int(round(1 / h))
    h = 1.0 / m
    count = int(round(2 * L * m)) + 1
    t = -L + np.arange(count) / m
    lo, hi = float(logistic_profile(-L)), float(logistic_profile(L))
    u = lo + (hi - lo) * (t + L) / (2.0 * L)
    return u, h, lo, hi


def _newton_matrix(u, h, shift):
    """(off, diag) of the Jacobian of the first variation, shifted by ``shift``."""
    av = 0.5 * (u[:-1] + u[1:])
    wpp = 2.0 - 12.0 * av + 12.0 * av * av
    diag = 4.0 / (h * h) + 0.25 * (wpp[:-1] + wpp[1:]) + shift
    off = -2.0 / (h * h) + 0.25 * wpp[1:-1]
    return off, diag


def _reference_bvp(L, h, mu=DAMPING_START):
    """The damped Newton loop with one full elimination per trial:
    (values, residual, rejected trials)."""
    u, h, _, _ = _reference_start(L, h)
    rejected = 0
    residual = float(np.abs(_variation(u, h)).max())
    for _ in range(NEWTON_CAP):
        if residual <= RESIDUAL_TOL:
            break
        off, diag = _newton_matrix(u, h, mu)
        trial = u.copy()
        trial[1:-1] += _reference_solve(off, diag, off, -_variation(u, h))
        r_trial = float(np.abs(_variation(trial, h)).max())
        if r_trial < residual:
            u, residual = trial, r_trial
            mu = max(mu * DAMPING_SHRINK, LEVENBERG)
        else:
            mu /= DAMPING_SHRINK
            rejected += 1
    return u, residual, rejected


def _warmup_reference_bvp(L, h, warmup_steps=80, tau=0.25):
    """The earlier solve: a semi-implicit gradient flow of ``warmup_steps``
    steps, then Newton corrections shifted by LEVENBERG: (values, residual)."""
    u, h, lo, hi = _reference_start(L, h)
    n_i = u.size - 2
    a = -2.0 * tau / (h * h)
    diag0 = np.full(n_i, 1.0 - 2.0 * a)
    off0 = np.full(n_i - 1, a)
    for _ in range(warmup_steps):
        rhs = u[1:-1] - tau * double_well_derivative(u[1:-1])
        rhs[0] -= a * lo
        rhs[-1] -= a * hi
        u[1:-1] = _reference_solve(off0, diag0, off0, rhs)
    residual = np.inf
    for _ in range(NEWTON_CAP):
        g = _variation(u, h)
        residual = float(np.abs(g).max())
        if residual <= RESIDUAL_TOL:
            break
        off, diag = _newton_matrix(u, h, LEVENBERG)
        u[1:-1] += _reference_solve(off, diag, off, -g)
    return u, residual


class TestClosedForm:
    def test_value_at_origin(self):
        assert logistic_profile(0.0) == 0.5

    def test_value_at_log_three(self):
        assert abs(logistic_profile(np.log(3.0)) - 0.75) < 1e-15

    def test_reflection_symmetry(self):
        t = np.linspace(-30, 30, 701)
        assert np.abs(logistic_profile(-t) - (1.0 - logistic_profile(t))).max() < 1e-15

    def test_overflow_safe(self):
        assert logistic_profile(-800.0) == 0.0
        assert logistic_profile(800.0) == 1.0

    @pytest.mark.parametrize(
        "t",
        [
            np.array([0.0, -0.0, 745.0, -745.0, np.inf, -np.inf]),
            np.random.default_rng(0).standard_normal(10**5),
            np.array(-3.0),
            np.array(2.5),
        ],
        ids=["edges", "normal-draws", "0-d-negative", "0-d-positive"],
    )
    def test_bitwise_the_two_branch_formula(self, t):
        # one exp(-|t|) for both signs; -|t| is t where t < 0
        pos = t >= 0
        want = np.empty_like(t)
        want[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        e = np.exp(t[~pos])
        want[~pos] = e / (1.0 + e)
        got = logistic_profile(t)
        assert type(got) is (float if t.ndim == 0 else np.ndarray)
        assert np.array_equal(got, want)

    def test_discrete_ode_residual_second_order(self):
        # u'' = u - 3u^2 + 2u^3 holds along the curve; the 3-point stencil
        # sees it to C h^2 with a small constant
        for h in (0.02, 0.01):
            m = int(round(1 / h))
            t = -12 + np.arange(2 * 12 * m + 1) / m
            u = logistic_profile(t)
            lap = (u[2:] - 2 * u[1:-1] + u[:-2]) / (h * h)
            f = u[1:-1] - 3 * u[1:-1] ** 2 + 2 * u[1:-1] ** 3
            c = np.abs(lap - f).max() / (h * h)
            assert c < 0.1

    def test_profile_invariants(self):
        p = closed_form_profile(20.0, 0.01)
        assert p.values[p.values.size // 2] == 0.5
        assert p.values[0] < 1e-8
        assert 1.0 - p.values[-1] < 1e-8
        assert np.all(np.diff(p.values) > 0)


class TestBvp:
    def test_matches_closed_form(self):
        p = solve_heteroclinic_bvp(12, 0.02)
        err = np.abs(p.values - logistic_profile(p.grid())).max()
        assert err <= 5e-4
        assert p.residual_sup <= 1e-8
        assert np.all(np.diff(p.values) > 0)

    def test_second_order_convergence(self):
        e = {}
        for h in (0.02, 0.01):
            p = solve_heteroclinic_bvp(12, h)
            e[h] = np.abs(p.values - logistic_profile(p.grid())).max()
        ratio = e[0.02] / e[0.01]
        assert 3.4 <= ratio <= 4.6

    def test_energy_is_one_third(self):
        p = solve_heteroclinic_bvp(12, 0.02)
        e = energy(profile_to_field(p), allen_cahn(1))
        assert abs(e - 1.0 / 3.0) <= 1e-3

    def test_preconditions(self):
        with pytest.raises(ValueError):
            solve_heteroclinic_bvp(5, 0.02)
        with pytest.raises(ValueError):
            solve_heteroclinic_bvp(12, 0.2)
        with pytest.raises(ValueError):
            solve_heteroclinic_bvp(12, 0.03)  # 1/h not an integer
        nan, inf = float("nan"), float("inf")
        for bad_h in (0.0, -0.02, nan, -inf):
            with pytest.raises(ValueError, match="^spacing must be finite and positive"):
                solve_heteroclinic_bvp(12, bad_h)
            with pytest.raises(ValueError, match="^spacing must be finite and positive"):
                closed_form_profile(20, bad_h)
        for bad_L in (nan, inf, -inf, 9.5):
            with pytest.raises(ValueError, match="^half-length must be finite and at least 10"):
                solve_heteroclinic_bvp(bad_L, 0.02)
        for bad_L in (nan, inf, -1.0, 0.0):
            with pytest.raises(ValueError, match="^half-length must be finite and positive"):
                closed_form_profile(bad_L, 0.02)
        with pytest.raises(ValueError, match="^spacing must be at most 0.1"):
            solve_heteroclinic_bvp(12, inf)

    @pytest.mark.parametrize("L, h", [(12, 0.02), (20, 0.05), (10, 0.1), (20, 0.02), (11, 0.04)])
    def test_matches_reference_elimination_bitwise(self, L, h):
        # the interior count of a symmetric grid is odd (1199, 799, 199, 1999,
        # 549); the levels below it are of both parities (1199 -> 600 -> 300
        # -> 150 -> 75 -> 38 ...).  Factoring each trial's matrix and solving
        # once gives the bits of the recursive elimination
        p = solve_heteroclinic_bvp(L, h)
        values, residual, rejected = _reference_bvp(L, h)
        assert p.values.tobytes() == values.tobytes()
        assert repr(p.residual_sup) == repr(residual)
        assert rejected == 0

    @pytest.mark.parametrize("L, h", [(20, 0.02), (10, 0.1)])
    def test_rejected_trials_stiffen_damping(self, monkeypatch, L, h):
        # from the ramp, a start at the Levenberg floor overshoots: rejected
        # trials must raise the damping and keep the iterate, bit for bit
        monkeypatch.setattr(heteroclinic, "DAMPING_START", LEVENBERG)
        p = solve_heteroclinic_bvp(L, h)
        values, residual, rejected = _reference_bvp(L, h, mu=LEVENBERG)
        assert rejected >= 2
        assert p.values.tobytes() == values.tobytes()
        assert repr(p.residual_sup) == repr(residual)

    @pytest.mark.parametrize("L, h", [(12, 0.02), (20, 0.05), (10, 0.1), (20, 0.02), (11, 0.04)])
    def test_agrees_with_warmup_flow(self, L, h):
        # the damped loop and the earlier warm-up flow reach the same root of
        # the discrete equations, each to a residual below RESIDUAL_TOL
        p = solve_heteroclinic_bvp(L, h)
        values, residual = _warmup_reference_bvp(L, h)
        assert residual <= RESIDUAL_TOL
        assert np.abs(p.values - values).max() <= 1e-9

    @pytest.mark.parametrize("L", [10, 20, 36])
    @pytest.mark.parametrize("h", [0.1, 0.02, 0.005])
    def test_few_factorizations(self, monkeypatch, L, h):
        solves = []

        def counting(*args):
            solves.append(1)
            return _solve_tridiagonal(*args)

        monkeypatch.setattr(heteroclinic, "_solve_tridiagonal", counting)
        p = solve_heteroclinic_bvp(L, h)
        assert p.residual_sup <= RESIDUAL_TOL
        assert 1 <= len(solves) <= 10

    def test_trial_cap_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(heteroclinic, "NEWTON_CAP", 2)
        match = r"^no convergence: residual \d\.\d{3}e[+-]\d+ after 2 damped Newton trials$"
        with pytest.raises(BvpConvergenceError, match=match):
            solve_heteroclinic_bvp(20, 0.02)


class TestTridiagonalSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 1999])
    def test_matches_dense_solve(self, n):
        # symmetric, diagonally dominant with a positive diagonal: SPD
        rng = np.random.default_rng(n)
        off = rng.standard_normal(n - 1)
        diag = rng.uniform(0.1, 1.0, n)
        diag[1:] += np.abs(off)
        diag[:-1] += np.abs(off)
        rhs = rng.standard_normal(n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        x = _solve_tridiagonal(off, diag, off, rhs)
        ref = np.linalg.solve(dense, rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 1999, 2001])
    def test_factor_reused_bitwise(self, n):
        # every solve, matrix and right-hand side reduced in one loop, gives
        # the bits of the recursive elimination, for several right-hand sides
        # of one matrix and for a new matrix each time
        rng = np.random.default_rng(100 + n)
        sub, sup = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        diag = 3.0 + rng.uniform(0.0, 1.0, n)
        for k in range(6):
            if k >= 3:
                sub, sup = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
                diag = 3.0 + rng.uniform(0.0, 1.0, n)
            rhs = rng.standard_normal(n)
            x = _solve_tridiagonal(sub, diag, sup, rhs)
            assert x.shape == (n,)
            assert x.tobytes() == _reference_solve(sub, diag, sup, rhs).tobytes()


class TestEquipartition:
    def test_closed_form_satisfies_first_integral(self):
        p = closed_form_profile(20.0, 0.01)
        assert equipartition_residual(p) <= 1e-3

    def test_ramp_violates_first_integral(self):
        # slope 1/40 gives u'^2 of about 6e-4 while the well peaks at 1/16,
        # so the residual sits near 0.0619
        m = 100
        t = -20 + np.arange(2 * 20 * m + 1) / m
        vals = np.clip((t + 20) / 40, 1e-12, 1 - 1e-12)
        ramp = Profile1D(20.0, 0.01, vals)
        res = equipartition_residual(ramp)
        assert res >= 0.05
        assert abs(res - (0.0625 - 1.0 / 1600.0)) < 1e-3

    def test_degenerate_profile_rejected(self):
        vals = np.full(2 * 20 * 100 + 1, 0.5)
        vals[0], vals[-1] = 0.4999, 0.5001  # keep construction legal-ish
        with pytest.raises(ValueError):
            Profile1D(20.0, 0.01, np.full(vals.size, 0.5))


class TestProfileRoundTrips:
    def test_field_round_trip(self):
        p = closed_form_profile(12.0, 0.02)
        u = profile_to_field(p)
        q = field_to_profile(u)
        assert np.array_equal(p.values, q.values)

    def test_samples_validated(self):
        with pytest.raises(ValueError):
            Profile1D(12.0, 0.02, np.linspace(0.01, 0.99, 100))

    @pytest.mark.parametrize("h", [float("nan"), 0.0, -0.02, float("inf")])
    def test_bad_spacing_named(self, h):
        vals = closed_form_profile(12.0, 0.02).values
        with pytest.raises(ValueError, match="^spacing must be finite and positive, got h="):
            Profile1D(12.0, h, vals)

    @pytest.mark.parametrize("half_length", [float("nan"), 0.0, -12.0, float("inf")])
    def test_bad_half_length_named(self, half_length):
        vals = closed_form_profile(12.0, 0.02).values
        with pytest.raises(ValueError, match="^half-length must be finite and positive, got "):
            Profile1D(half_length, 0.02, vals)

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.02])
    def test_saturating_half_length_named(self, h):
        # logistic_profile rounds to 1 from 53 ln 2 = 36.74 on; below that
        # both profiles are built, from there on both are refused up front
        assert closed_form_profile(36, h).values[-2] < 1.0
        assert solve_heteroclinic_bvp(36, h).values[-2] < 1.0
        match = r"^half-length 37 saturates the logistic, which rounds to 1 from 36\.7368 on"
        with pytest.raises(ValueError, match=match):
            closed_form_profile(37, h)
        with pytest.raises(ValueError, match=match):
            solve_heteroclinic_bvp(37, h)

    @pytest.mark.parametrize("half_length, samples", [(0.001, 1), (0.01, 2)])
    def test_too_short_profile_named(self, half_length, samples):
        # rejected before any reduction over the (empty) interior
        match = f"^half-length {half_length} gives {samples} samples at h=0.02"
        with pytest.raises(ValueError, match=match):
            closed_form_profile(half_length, 0.02)


class TestInterpolant:
    @pytest.mark.parametrize("h", [0.04, 0.05, 0.01])
    def test_samples_reproduced_bitwise(self, h):
        for p in (closed_form_profile(20.0, h), solve_heteroclinic_bvp(20, h)):
            assert p(p.grid()).tobytes() == p.values.tobytes()

    def test_constant_beyond_the_window(self):
        p = solve_heteroclinic_bvp(12, 0.05)
        beyond = np.array([12.0, 12.5, 40.0, 1e300, np.inf])
        assert np.all(p(beyond) == p.values[-1])
        assert np.all(p(-beyond) == p.values[0])

    @pytest.mark.parametrize("h", [0.04, 0.05])
    def test_non_decreasing(self, h):
        t = np.linspace(-21.0, 21.0, 200_001)
        for p in (closed_form_profile(20.0, h), solve_heteroclinic_bvp(20, h)):
            assert np.all(np.diff(p(t)) >= 0.0)
            # between two samples the interpolant stays between them
            mid = 0.5 * (p.grid()[:-1] + p.grid()[1:])
            assert np.all((p(mid) >= p.values[:-1]) & (p(mid) <= p.values[1:]))
