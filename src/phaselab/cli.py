"""Batch front end: config parsing, experiment orchestration, report files.

Configs are flat ``key = value`` text with bracketed section headers
(INI style).  All randomness flows from a single seed recorded in the
reports, outputs carry no timestamps, and identical config + seed produces
byte-identical files.  Exit codes: 0 = pass, 2 = checked and failed
(anomaly), 1 = operational error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import foliation as _foliation
from . import heteroclinic as _het
from . import minimize as _minimize
from . import orbit as _orbit
from .field import (
    BoxAxis,
    GridError,
    PeriodicAxis,
    ScalarField,
    _write_json,
    constant_field,
    dump_csv,
    field_from_values,
    load_csv,
)
from .integrand import get_integrand

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


class ConfigError(ValueError):
    pass


def _split_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in _split_list(raw)]


def _positive(raw: str) -> float:
    val = float(raw)
    if not (np.isfinite(val) and val > 0):
        raise ValueError("must be finite and positive")
    return val


def _seed(raw: str) -> int:
    val = int(raw)
    if val < 0:
        raise ValueError("must be a non-negative integer")
    return val


def _count(raw: str) -> int:
    val = int(raw)
    if val < 1:
        raise ValueError("must be at least 1")
    return val


def _bool(raw: str) -> bool:
    raw = raw.lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


#: Every config key: ``(section, key) -> (parser, {library name: keyword})``.
#: A key the config sets is parsed and passed as that keyword to each listed
#: ``phaselab`` function or class; a key it omits passes nothing, so every
#: default is the library's.  Keys with no target describe the experiment
#: itself (grid, initial data, family, outputs) and are read where used.
KEYS = {
    ("experiment", "seed"): (_seed, {}),
    ("experiment", "out"): (str, {}),
    ("grid", "n"): (int, {}),
    ("grid", "kind"): (str, {}),
    ("grid", "m"): (str, {}),
    ("grid", "lo"): (str, {}),
    ("grid", "hi"): (str, {}),
    ("grid", "period"): (str, {}),
    ("integrand", "name"): (str, {}),
    ("initial", "kind"): (str, {}),
    ("initial", "value"): (float, {}),
    ("initial", "direction"): (_int_list, {}),
    ("initial", "b"): (float, {}),
    ("relax", "max_iterations"): (int, {"RelaxOptions": "max_iterations"}),
    ("relax", "gradient_tolerance"): (float, {"RelaxOptions": "gradient_tolerance"}),
    ("relax", "initial_step"): (float, {"RelaxOptions": "initial_step"}),
    ("relax", "log_every"): (int, {"RelaxOptions": "log_every"}),
    ("minimality", "trials"): (int, {"minimality_spot_check": "trials"}),
    ("minimality", "max_radius"): (float, {"minimality_spot_check": "max_radius"}),
    ("foliate", "direction"): (_int_list, {}),
    ("foliate", "b_min"): (float, {}),
    ("foliate", "b_max"): (float, {}),
    ("foliate", "count"): (int, {}),
    ("foliate", "envelope_steps"): (_count, {"envelope_identity_check": "steps"}),
    ("foliate", "envelope_sample"): (_count, {}),
    ("foliate", "extra_member_csv"): (str, {}),
    ("foliate", "write_members"): (_bool, {}),
    ("tolerances", "order"): (
        _positive,
        {
            "extract_invariants": "tol",
            "total_order_check": "tol",
            "rigidity_check": "order_tol",
            "envelope_identity_check": "order_tol",
            "asymptotic_limit": "order_tol",
        },
    ),
    ("tolerances", "foliation"): (
        _positive,
        {"verify_foliation": "tol", "envelope_identity_check": "tol"},
    ),
    ("tolerances", "match"): (_positive, {"rigidity_check": "tol"}),
    ("scan", "radius"): (
        int,
        {
            "extract_invariants": "radius",
            "lattice_in_orthocomplement": "radius",
            "rigidity_check": "radius",
            "envelope_identity_check": "radius",
            "asymptotic_limit": "radius",
        },
    ),
    ("asymptote", "direction"): (_int_list, {}),
    ("asymptote", "steps"): (_count, {"asymptotic_limit": "steps"}),
    ("asymptote", "tol"): (_positive, {"asymptotic_limit": "tol"}),
    ("asymptote", "classify_tol"): (_positive, {"asymptotic_limit": "classify_tol"}),
}
_SECTIONS = {section for section, _ in KEYS}


def _read_config(path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg.read(path)
    for section in cfg.sections():
        if section in _SECTIONS:
            for key in cfg[section]:
                if (section, key) not in KEYS:
                    raise ConfigError(f"unknown config key {section}.{key}")
    return cfg


def _value(cfg, section: str, key: str, default=None):
    """The parsed value of a config key; ``default`` if it is absent or empty."""
    raw = cfg.get(section, key, fallback="").strip()
    if not raw:
        return default
    try:
        return KEYS[(section, key)][0](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {exc}") from None


def _kwargs(cfg, target: str) -> dict:
    """Keyword arguments for the library callable ``target``, one for each
    config key that sets it and is present."""
    out = {}
    for (section, key), (_, targets) in KEYS.items():
        if target in targets:
            val = _value(cfg, section, key)
            if val is not None:
                out[targets[target]] = val
    return out


def _per_axis(raw: str, n: int, name: str) -> list[str]:
    toks = _split_list(raw)
    if len(toks) == 1:
        return toks * n
    if len(toks) != n:
        raise ConfigError(f"{name} needs 1 or {n} comma-separated entries, got {len(toks)}")
    return toks


def _build_axes(cfg) -> tuple:
    if not cfg.has_section("grid"):
        raise ConfigError("missing [grid] section")
    n = _value(cfg, "grid", "n", 1)
    kinds = _per_axis(_value(cfg, "grid", "kind", "box"), n, "grid.kind")
    raw_m = _value(cfg, "grid", "m")
    if not raw_m:
        raise ConfigError("grid needs m (points per unit)")
    ms = _per_axis(raw_m, n, "grid.m")
    los = _per_axis(_value(cfg, "grid", "lo", "0"), n, "grid.lo")
    his = _per_axis(_value(cfg, "grid", "hi", "1"), n, "grid.hi")
    periods = _per_axis(_value(cfg, "grid", "period", "1"), n, "grid.period")
    axes = []
    for i in range(n):
        try:
            if kinds[i] == "box":
                axes.append(BoxAxis(int(los[i]), int(his[i]), float(ms[i])))
            elif kinds[i] == "periodic":
                axes.append(PeriodicAxis(int(periods[i]), float(ms[i])))
            else:
                raise ConfigError(f"unknown axis kind {kinds[i]!r}")
        except (ValueError, GridError) as exc:
            raise ConfigError(f"bad grid axis {i + 1}: {exc}") from None
    return tuple(axes)


def _build_initial(cfg, axes) -> ScalarField:
    kind = _value(cfg, "initial", "kind", "constant")
    if kind == "constant":
        return constant_field(axes, _value(cfg, "initial", "value", 0.0))
    if kind == "ramp":
        ax0 = axes[0]
        if not isinstance(ax0, BoxAxis):
            raise ConfigError("ramp initial data needs a box first axis")
        x = ax0.coords()
        ramp = (x - ax0.lo) / (ax0.hi - ax0.lo)
        shape = [1] * len(axes)
        shape[0] = x.size
        samples = np.broadcast_to(
            ramp.reshape(shape), tuple(a.nodes for a in axes)
        ).copy()
        return field_from_values(axes, samples)
    if kind == "member":
        direction = _value(cfg, "initial", "direction", [1])
        b = _value(cfg, "initial", "b", 0.0)
        fam = _foliation.FoliationFamily(direction, [b - 1.0, b + 1.0], axes)
        return fam.member_at(b)
    raise ConfigError(f"unknown initial kind {kind!r}")


def _out_dir(cfg, override) -> Path:
    out = Path(override if override is not None else _value(cfg, "experiment", "out", "results"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _family_from_config(cfg, axes) -> _foliation.FoliationFamily:
    if not cfg.has_section("foliate"):
        raise ConfigError("missing [foliate] section")
    return _foliation.build_family(
        _value(cfg, "foliate", "direction", [1]),
        _value(cfg, "foliate", "b_min", -5.0),
        _value(cfg, "foliate", "b_max", 5.0),
        _value(cfg, "foliate", "count", 11),
        axes,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_relax(cfg, out: Path, seed: int) -> int:
    axes = _build_axes(cfg)
    integrand = get_integrand(_value(cfg, "integrand", "name", "allen-cahn"), len(axes))
    u0 = _build_initial(cfg, axes)
    relax_kwargs = _kwargs(cfg, "RelaxOptions")
    try:
        opts = _minimize.RelaxOptions(**relax_kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad relax options: {exc}") from None
    spot = _kwargs(cfg, "minimality_spot_check")
    _minimize._check_spot_args(**spot)
    result = _minimize.relax(u0, integrand, opts)
    dump_csv(result.field, out / "field.csv")
    hist = result.history
    with open(out / "iterations.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,energy,grad_norm,step\n")
        for it, e, g, s in zip(
            hist["iteration"], hist["energy"], hist["grad_norm"], hist["step"]
        ):
            fh.write(f"{int(it)},{e:.17g},{g:.17g},{s:.17g}\n")
    report = _minimize.minimality_spot_check(result.field, integrand, seed=seed, **spot)
    _write_json(
        out / "minimality.json",
        {
            "kind": "minimality",
            **asdict(report),
            "note": "sampled evidence of local minimality, not certification",
        },
    )
    _write_json(
        out / "relax_report.json",
        {
            "kind": "relax",
            "passed": result.converged,
            "status": result.status,
            "iterations": result.iterations,
            "final_energy": result.final_energy,
            "final_gradient_norm": result.final_gradient_norm,
            "seed": seed,
        },
    )
    return EXIT_PASS if result.converged else EXIT_FAIL


def cmd_classify(cfg, field_file, out: Path) -> int:
    u = load_csv(field_file)
    kwargs = _kwargs(cfg, "extract_invariants")
    witnesses, failure = (), None
    try:
        sys_u = _orbit.extract_invariants(u, **kwargs)
    except _orbit.SelfIntersectionError as exc:
        witnesses = exc.witnesses
    except (_orbit.InvariantExtractionError, _orbit.LatticeEnumerationError) as exc:
        failure = exc
    _write_json(
        out / "witnesses.json",
        {
            "kind": "self-intersection-scan",
            "passed": not witnesses,
            "radius": kwargs.get("radius", _orbit.DEFAULT_RADIUS),
            "witnesses": [
                {
                    "kbar": list(w.kbar.spatial) + [w.kbar.vertical],
                    "relation": w.relation.kind.value,
                    "points": [
                        {"point": list(p.point), "delta": p.delta}
                        for p in w.relation.witnesses
                    ],
                }
                for w in witnesses
            ],
        },
    )
    if witnesses:
        print(f"self-intersections detected: {len(witnesses)} crossing translates")
        return EXIT_FAIL
    if failure is not None:
        _write_json(
            out / "invariants.json",
            {"kind": "invariants", "passed": False, "error": str(failure)},
        )
        print(f"invariant extraction failed: {failure}")
        return EXIT_FAIL
    payload = sys_u.to_json_dict()
    payload.update({"kind": "invariants", "passed": True, "admissible": _orbit.is_admissible(sys_u)})
    _write_json(out / "invariants.json", payload)
    return EXIT_PASS


def cmd_foliate(cfg, out: Path) -> int:
    axes = _build_axes(cfg)
    fam = _family_from_config(cfg, axes)
    k = _value(cfg, "foliate", "envelope_sample")
    if k is not None:
        k = min(k, len(fam.members))
        sample = sorted(set(np.linspace(0, len(fam.members) - 1, k).astype(int).tolist()))
    else:
        sample = None
    report = _foliation.verify_foliation(fam, **_kwargs(cfg, "verify_foliation"))
    env_report = _foliation.envelope_identity_check(
        fam, sample=sample, **_kwargs(cfg, "envelope_identity_check")
    )
    order_fields = list(fam.members) + [fam.lower, fam.upper]
    extra = _value(cfg, "foliate", "extra_member_csv")
    if extra:
        order_fields.append(load_csv(extra))
    order_report = _orbit.total_order_check(order_fields, **_kwargs(cfg, "total_order_check"))
    manifest = {
        "kind": "family-manifest",
        "direction": list(fam.direction),
        "omega": [float(w) for w in fam.omega],
        "b_grid": [float(b) for b in fam.b_grid],
        "members": [f"member_{i:04d}.csv" for i in range(len(fam.members))],
        "written": _value(cfg, "foliate", "write_members", False),
    }
    if manifest["written"]:
        for i, member in enumerate(fam.members):
            dump_csv(member, out / manifest["members"][i])
    _write_json(out / "family_manifest.json", manifest)
    passed = report.passed and env_report.passed and order_report.passed
    _write_json(
        out / "foliation_report.json",
        {
            "kind": "foliate",
            "passed": passed,
            "foliation": report.to_json_dict(),
            "envelope_identity": env_report.to_json_dict(),
            "total_order": order_report.to_json_dict(),
        },
    )
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_rigidity(cfg, field_file, out: Path) -> int:
    axes = _build_axes(cfg)
    fam = _family_from_config(cfg, axes)
    u = load_csv(field_file)
    match = _foliation.rigidity_check(u, fam, **_kwargs(cfg, "rigidity_check"))
    _write_json(out / "rigidity_report.json", match.to_json_dict())
    return EXIT_PASS if match.matched else EXIT_FAIL


def cmd_asymptote(cfg, field_file, out: Path) -> int:
    axes = _build_axes(cfg)
    fam = _family_from_config(cfg, axes)
    u = load_csv(field_file)
    direction = _value(cfg, "asymptote", "direction")
    if not direction:
        raise ConfigError("missing [asymptote] direction")
    e_last = np.zeros(len(axes) + 1)
    e_last[-1] = 1.0
    gamma2 = _orbit.lattice_in_orthocomplement(
        [e_last], **_kwargs(cfg, "lattice_in_orthocomplement")
    )
    result = _foliation.asymptotic_limit(
        u, fam, gamma2, direction, **_kwargs(cfg, "asymptotic_limit")
    )
    _write_json(out / "asymptote_report.json", result.to_json_dict())
    return EXIT_PASS if result.classification != "unclassified" else EXIT_FAIL


def cmd_report(out: Path) -> int:
    reports = sorted(out.glob("*.json"))
    seen = 0
    failed = 0
    for path in reports:
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(obj, dict) or "passed" not in obj:
            continue
        seen += 1
        status = "PASS" if obj["passed"] else "FAIL"
        if not obj["passed"]:
            failed += 1
        print(f"{path.name}: {status} ({obj.get('kind', 'report')})")
    if seen == 0:
        print("no reports found", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_PASS if failed == 0 else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are operational errors (exit 1),
    not argparse's exit 2, which this CLI reserves for a failed check."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="phaselab",
        description="batch experiments for periodic variational problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("relax", "classify", "foliate", "rigidity", "asymptote"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name in ("classify", "rigidity", "asymptote"):
            p.add_argument("--field", required=True)
    p_rep = sub.add_parser("report")
    p_rep.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "report":
            return cmd_report(Path(args.out))
        cfg = _read_config(args.config)
        seed = args.seed if args.seed is not None else _value(cfg, "experiment", "seed", 0)
        if seed < 0:  # only the flag: the config key's parser rejects it
            raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
        out = _out_dir(cfg, args.out)
        if args.command == "relax":
            return cmd_relax(cfg, out, seed)
        if args.command == "classify":
            return cmd_classify(cfg, args.field, out)
        if args.command == "foliate":
            return cmd_foliate(cfg, out)
        if args.command == "rigidity":
            return cmd_rigidity(cfg, args.field, out)
        if args.command == "asymptote":
            return cmd_asymptote(cfg, args.field, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (
        ConfigError,
        configparser.Error,
        GridError,
        OSError,
        KeyError,
        ValueError,
        # analysis that cannot finish, such as an envelope that needs more
        # steps than the config allows
        _orbit.EnvelopeConvergenceError,
        _orbit.InvariantExtractionError,
        _orbit.LatticeEnumerationError,
    ) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR
    except (_minimize.EnergyDivergedError, _het.BvpConvergenceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def script_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_main()
