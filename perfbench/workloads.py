"""The four benchmark workloads and the layer probes of the traced run.

Each workload has a ``setup(lib, seed, work, tr)`` that turns the seed into
ready inputs and an ``op(lib, inp, tr, rec)`` that runs the layers on them
and checks every result against phaselab's own oracles.  ``lib`` is the
freshly imported ``phaselab`` package, ``tr`` a tracer from ``spans.py`` and
``rec`` the run's :class:`Record`.  Every call into a layer sits inside a span
named ``<layer>.<function>``; everything else in ``op`` is benchmark glue.

The workloads reuse the acceptance criteria's problem shapes at sizes that
take seconds, because each run repeats its op several times and a comparison
of two commits repeats whole runs many times.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

#: README 2-D family grid (criteria 05-10): 1,001 x 4 nodes.
FAMILY_AXES = ((-20, 20, 25), (1, 4))
#: tolerances of the acceptance gate, never looser
SUP_ERROR_MAX = 5e-4
ENERGY_GAP_MAX = 1e-3
EQUIPARTITION_MAX = 1e-3
BVP_RESIDUAL_MAX = 1e-9
MATCH_TOL = 1e-3
B0_DRIFT_MAX = 0.1
FOLIATION_TOL = 1e-6


@dataclass
class Record:
    """Oracle checks and solver counts of one run, summed over its ops."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    worst: dict = field(default_factory=dict)
    relax_calls: int = 0
    relax_converged: int = 0
    relax_iterations: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def accuracy(self, name: str, value: float) -> None:
        """Keep the worst value seen of an accuracy figure (larger is worse)."""
        self.worst[name] = max(self.worst.get(name, 0.0), float(value))

    def relaxed(self, res) -> None:
        self.relax_calls += 1
        self.relax_converged += int(res.converged)
        self.relax_iterations += res.iterations
        self.check("relax converged", res.converged, f"status {res.status} after {res.iterations} iterations")


def _family_axes(lib):
    (lo, hi, m), (period, mp) = FAMILY_AXES
    return (lib.BoxAxis(lo, hi, m), lib.PeriodicAxis(period, mp))


def _odd_bumps(lib, u, rng, count, amplitude, x_range, radius_range):
    """Seeded smooth bumps along the first axis, made odd about its center.

    ``u - 1/2`` odd in x1 is kept by the relaxation of an x1-even density, so
    the layer stays centred and the oracle (a centred profile) still applies.
    """
    pert = np.zeros(u.shape)
    for _ in range(count):
        center = [float(rng.uniform(*x_range))] + [0.5] * (u.n - 1)
        radii = [float(rng.uniform(*radius_range))] + [10.0] * (u.n - 1)
        pert += lib.minimize._bump(u, center, radii, amplitude * float(rng.uniform(-1, 1)), 1)
    return pert - pert[::-1]


# ---------------------------------------------------------------------------
# layer1d: criterion 01 at half the resolution


def layer1d_setup(lib, seed, work, tr):
    ax = lib.BoxAxis(-20, 20, 50)
    x = ax.coords()
    ramp = lib.field_from_values((ax,), (x + 20.0) / 40.0)
    rng = np.random.default_rng(seed)
    pert = _odd_bumps(lib, ramp, rng, 3, 0.02, (2.0, 15.0), (1.0, 4.0))
    return {
        "u0": ramp.with_values(ramp.values + pert),
        "target": lib.field_from_function((ax,), lambda p: lib.logistic_profile(p[..., 0])),
        "ac": lib.allen_cahn(1),
        "opts": lib.RelaxOptions(
            max_iterations=500_000, gradient_tolerance=3e-4, initial_step=1e-5, log_every=10**9
        ),
        "seed": seed,
        "csv": work / "layer1d.csv",
    }


def layer1d_op(lib, inp, tr, rec):
    ac = inp["ac"]
    with tr.span("minimize.relax"):
        res = lib.relax(inp["u0"], ac, inp["opts"])
    rec.relaxed(res)
    u = res.field
    with tr.span("field.sup_distance"):
        err = lib.sup_distance(u, inp["target"])
    with tr.span("minimize.energy"):
        gap = abs(lib.energy(u, ac) - 1.0 / 3.0)
    with tr.span("heteroclinic.equipartition_residual"):
        eq = lib.equipartition_residual(lib.field_to_profile(u))
    with tr.span("minimize.minimality_spot_check"):
        mini = lib.minimality_spot_check(u, ac, trials=50, max_radius=2.0, seed=inp["seed"])
    with tr.span("heteroclinic.solve_heteroclinic_bvp"):
        bvp = lib.solve_heteroclinic_bvp(20, 0.02)
    with tr.span("field.dump_csv"):
        lib.dump_csv(u, inp["csv"])
    with tr.span("field.load_csv"):
        back = lib.load_csv(inp["csv"])
    rec.check("sup error to the logistic", err < SUP_ERROR_MAX, f"{err:.3e}")
    rec.check("energy 1/3", gap <= ENERGY_GAP_MAX, f"gap {gap:.3e}")
    rec.check("equipartition", eq <= EQUIPARTITION_MAX, f"{eq:.3e}")
    rec.check("minimality", mini.passed, f"worst delta {mini.worst_delta:.3e}")
    rec.check("bvp residual", bvp.residual_sup <= BVP_RESIDUAL_MAX, f"{bvp.residual_sup:.3e}")
    rec.check(
        "csv round trip",
        back.axes == u.axes and back.total_values().tobytes() == u.total_values().tobytes(),
        "values differ after dump_csv/load_csv",
    )
    rec.accuracy("sup_error", err)
    rec.accuracy("energy_gap", gap)
    rec.accuracy("equipartition", eq)
    rec.accuracy("bvp_residual", bvp.residual_sup)


# ---------------------------------------------------------------------------
# rigidity2d: criterion 08


def rigidity2d_setup(lib, seed, work, tr):
    with tr.span("foliation.build_family"):
        fam = lib.build_family((1, 0), -5.0, 5.0, 101, _family_axes(lib))
    rng = np.random.default_rng(seed)
    i = int(rng.integers(10, 91))
    b = float(fam.b_grid[i])
    member = fam.members[i]
    # the bump sits half a unit above the layer with fixed radii, so by
    # translation invariance the descent work barely depends on the seed
    center = (b + 0.5, float(rng.uniform(0.0, 1.0)))
    bump = lib.minimize._bump(member, center, (2.0, 1.0), 0.01, 1)
    return {
        "fam": fam,
        "b": b,
        "u0": member.with_values(member.values + bump),
        "ac": lib.allen_cahn(2),
        "opts": lib.RelaxOptions(
            max_iterations=30_000, gradient_tolerance=1e-5, initial_step=1e-4, log_every=10**9
        ),
    }


def rigidity2d_op(lib, inp, tr, rec):
    with tr.span("minimize.relax"):
        res = lib.relax(inp["u0"], inp["ac"], inp["opts"])
    rec.relaxed(res)
    with tr.span("foliation.rigidity_check"):
        match = lib.rigidity_check(res.field, inp["fam"], tol=MATCH_TOL)
    rec.check("rigidity matched", match.matched, f"status {match.status}")
    if match.b0 is not None:
        drift = abs(match.b0 - inp["b"])
        rec.check("rigidity |b0 - b|", drift <= B0_DRIFT_MAX, f"{drift:.3e}")
        rec.accuracy("b0_drift", drift)
        rec.accuracy("sup_error", match.sup_error)


# ---------------------------------------------------------------------------
# foliate2d: criteria 05, 07, 09 and the CLI on README-shaped configs

CLI_CONFIG = """\
[experiment]
seed = {seed}

[grid]
n = 2
kind = box, periodic
lo = -20
hi = 20
period = 1
m = 25, 4

[foliate]
direction = 1, 0
b_min = -5
b_max = 5
count = 101
envelope_steps = 60
envelope_sample = 9

[asymptote]
direction = -1, 0, 0
steps = 80
"""

ASYMPTOTES = (((-1, 0, 0), "upper"), ((1, 0, 0), "lower"), ((0, 1, 0), "member"))


def foliate2d_setup(lib, seed, work, tr):
    with tr.span("foliation.build_family"):
        fam = lib.build_family((1, 0), -5.0, 5.0, 101, _family_axes(lib))
    rng = np.random.default_rng(seed)
    config = work / "foliate.ini"
    config.write_text(CLI_CONFIG.format(seed=seed), encoding="utf-8")
    return {
        "fam": fam,
        "members": sorted(int(i) for i in rng.choice(101, size=10, replace=False)),
        "envelope_sample": sorted(int(i) for i in rng.choice(101, size=9, replace=False)),
        "gamma2": lib.lattice_in_orthocomplement([np.array([0.0, 0.0, 1.0])], 3),
        "cli_member": fam.members[int(rng.integers(10, 91))],
        "config": config,
        "work": work,
    }


def _cli_pass(lib, inp, tr, rec, out: Path) -> None:
    if out.exists():
        shutil.rmtree(out)
    field_csv = inp["work"] / "member.csv"
    with tr.span("field.dump_csv"):
        lib.dump_csv(inp["cli_member"], field_csv)
    common = ["--config", str(inp["config"]), "--out", str(out)]
    commands = (
        ("foliate", common),
        ("classify", common + ["--field", str(field_csv)]),
        ("rigidity", common + ["--field", str(field_csv)]),
        ("asymptote", common + ["--field", str(field_csv)]),
        ("report", ["--out", str(out)]),
    )
    for name, args in commands:
        # ``report`` prints one line per report file; keep the benchmark's
        # own standard output for its result line
        with contextlib.redirect_stdout(io.StringIO()), tr.span(f"cli.{name}"):
            code = lib.cli.main([name] + args)
        rec.check(f"cli {name} exit code", code == 0, f"exit {code}")


def foliate2d_op(lib, inp, tr, rec):
    fam = inp["fam"]
    with tr.span("foliation.verify_foliation"):
        report = lib.verify_foliation(fam, FOLIATION_TOL)
    rec.check("foliation verified", report.passed, f"{len(report.violations)} violations")
    with tr.span("foliation.envelope_identity_check"):
        env = lib.envelope_identity_check(fam, FOLIATION_TOL, steps=60, sample=inp["envelope_sample"])
    rec.check("envelope identity", env.passed, f"worst {max(env.worst_lower, env.worst_upper):.3e}")
    with tr.span("orbit.total_order_check"):
        order = lib.total_order_check(list(fam.members) + [fam.lower, fam.upper])
    rec.check("total order", order.passed, f"{len(order.violations)} crossing pairs")
    for i in inp["members"]:
        member = fam.members[i]
        with tr.span("orbit.extract_invariants"):
            chain = lib.extract_invariants(member, 3)
        rec.check(
            "invariants t=2, a1=e3, a2=-e1",
            chain.t == 2
            and np.allclose(chain.a[0], [0.0, 0.0, 1.0], atol=1e-12)
            and np.allclose(chain.a[1], [-1.0, 0.0, 0.0], atol=1e-12),
            f"member {i}: t={chain.t}",
        )
        for direction, expected in ASYMPTOTES:
            with tr.span("foliation.asymptotic_limit"):
                res = lib.asymptotic_limit(member, fam, inp["gamma2"], direction)
            rec.check(
                f"asymptote {expected}",
                res.classification == expected,
                f"member {i} along {direction}: {res.classification}",
            )
            if res.b0 is not None:
                rec.accuracy("b0_drift", abs(res.b0 - float(fam.b_grid[i])))
    outs = [inp["work"] / "cli-a", inp["work"] / "cli-b"]
    for out in outs:
        _cli_pass(lib, inp, tr, rec, out)
    asym = json.loads((outs[0] / "asymptote_report.json").read_text(encoding="utf-8"))
    rec.check("cli asymptote upper", asym["classification"] == "upper", asym["classification"])
    names = sorted(p.name for p in outs[0].iterdir())
    same = names == sorted(p.name for p in outs[1].iterdir()) and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    rec.check("cli rerun byte-identical", same, f"artifacts {names}")


# ---------------------------------------------------------------------------
# generic2d: a user density through the generic pass

#: a(x) = 1 + A cos(2 pi x1): F_uu = a W'' reaches 2 (1 + A) = 2.6 at the
#: wells, so growth constant 2 is exceeded and 3 holds
MODULATION = 0.3


def _modulation(x):
    return 1.0 + MODULATION * np.cos(2.0 * np.pi * x[..., 0])


def generic2d_setup(lib, seed, work, tr):
    well = lib.eval_double_well
    well_du = lib.integrand.double_well_derivative
    callbacks = (
        lambda x, u, p: np.sum(p * p, axis=-1) + _modulation(x) * well(u),
        lambda x, u, p: _modulation(x) * well_du(u),
        lambda x, u, p: 2.0 * np.asarray(p, dtype=float),
    )
    axes = (lib.BoxAxis(-10, 10, 20), lib.PeriodicAxis(1, 4))
    x = axes[0].coords()
    ramp = lib.field_from_values(
        axes, np.broadcast_to(((x + 10.0) / 20.0)[:, None], (x.size, axes[1].nodes)).copy()
    )
    rng = np.random.default_rng(seed)
    pert = _odd_bumps(lib, ramp, rng, 3, 0.02, (1.0, 7.0), (0.5, 2.0))
    return {
        "callbacks": callbacks,
        "u0": ramp.with_values(ramp.values + pert),
        "opts": lib.RelaxOptions(
            max_iterations=200_000, gradient_tolerance=3e-4, initial_step=1e-4, log_every=1
        ),
        "seed": seed,
    }


def generic2d_op(lib, inp, tr, rec):
    density, d_u, d_p = (tr.wrap("integrand.callback", f) for f in inp["callbacks"])

    def integrand(c):
        return lib.Integrand("modulated-well", 2, density, d_u, d_p, growth_constant=c)

    for c, should_pass in ((2.0, False), (3.0, True)):
        with tr.span("integrand.check_growth"):
            growth = lib.check_growth(integrand(c), 20_000, inp["seed"], p_range=1.0)
        rec.check(
            f"growth constant {c:g} {'holds' if should_pass else 'is exceeded'}",
            growth.passed == should_pass,
            f"second-order max {growth.second_order_max:.3f}",
        )
    fn = integrand(3.0)
    with tr.span("minimize.relax"):
        res = lib.relax(inp["u0"], fn, inp["opts"])
    rec.relaxed(res)
    rec.check(
        "energy history non-increasing",
        bool(np.all(np.diff(res.history["energy"]) <= 0.0)),
        "energy rose between logged iterations",
    )
    with tr.span("minimize.minimality_spot_check"):
        mini = lib.minimality_spot_check(res.field, fn, trials=50, max_radius=2.0, seed=inp["seed"])
    rec.check("minimality", mini.passed, f"worst delta {mini.worst_delta:.3e}")
    with tr.span("orbit.self_intersection_scan"):
        crossings = lib.self_intersection_scan(res.field, 3)
    rec.check("no self-intersections", not crossings, f"{len(crossings)} crossing translates")


WORKLOADS = {
    "layer1d": (layer1d_setup, layer1d_op),
    "rigidity2d": (rigidity2d_setup, rigidity2d_op),
    "foliate2d": (foliate2d_setup, foliate2d_op),
    "generic2d": (generic2d_setup, generic2d_op),
}


# ---------------------------------------------------------------------------
# layer probes of the traced run


def _per_call_us(fn, calls=40, batches=7) -> float:
    """Median over batches of the wall time per call, in microseconds."""
    fn()
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return float(np.median(times)) * 1e6


def probes(lib) -> dict:
    """Per-call costs on the workloads' own grids, timed through public calls.

    The passes go through ``energy_gradient``, which reduces the cells in
    sorted order; ``relax`` sums them unsorted, so its per-iteration cost is
    a separate metric.  The generic pass gets the Allen-Cahn callables under
    another name, which bypasses the hand-fused pass.
    """
    ax1 = lib.BoxAxis(-20, 20, 50)
    layer = lib.field_from_function((ax1,), lambda p: lib.logistic_profile(p[..., 0]))
    fam = lib.build_family((1, 0), -5.0, 5.0, 11, _family_axes(lib))
    member, other = fam.member_at(0.3), fam.member_at(0.7)
    ac1, ac2 = lib.allen_cahn(1), lib.allen_cahn(2)
    generic = lib.Integrand(
        "allen-cahn-generic", 2, ac2.density, ac2.d_u, ac2.d_p,
        growth_constant=ac2.growth_constant, depends_on_x=False,
    )
    shift = lib.TranslationVector((1, 0), 0)
    out = {}
    for key, u, fn in (
        ("fused_1d", layer, ac1),
        ("fused_2d", member, ac2),
        ("generic_2d", member, generic),
    ):
        us = _per_call_us(lambda: lib.energy_gradient(u, fn))
        out[f"minimize.pass_{key}_us"] = us
        out[f"minimize.pass_{key}_ns_per_node"] = us * 1e3 / u.values.size
    out["field.translate_us"] = _per_call_us(lambda: lib.translate(member, shift), calls=200)
    out["field.compare_us"] = _per_call_us(lambda: lib.compare(member, other), calls=200)
    out["field.sup_distance_us"] = _per_call_us(lambda: lib.sup_distance(member, other), calls=200)
    return out
