"""Batch front end: `sgk <command> --config <file> [--out] [--threads] [--seed]`.

Commands: run-scenario, curvature-map, chern-charge, ensemble, verify.
Configs are JSON documents checked against one key table per config
section. Each key maps to a value parser and a default (or REQUIRED); each
kind of a kinded section (scenario, field, index, chern source) maps to
its constructor and its own key table, so a kind accepts only its own
keys. One walker rejects every key outside the table and reports every
violation at once; rules that tie keys together are explicit code in the
commands. Results are written as versioned CSV (bulky grids and
trajectories) or JSON-lines (scalar results); all floats are printed with
17 significant digits so files round-trip and diff cleanly. Exit codes:
0 ok, 2 config error, 3 physics error, 4 adiabaticity breach, 5 internal
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import SchemaError, SgkError
from .fields import LinearField, LinearIndex, PolyField, RotatingField, \
    UniformField, UniformIndex
from .gauge import AdiabaticConnectionField, chern_charge, monopole_field, \
    plaquette_rows, split_curvature_rows
from .phase_space import PhasePoint, axis_labels
from .scenarios import (OpticalScenario, RashbaScenario, SpinOrbitScenario,
                        ZeemanScenario, magnus_ray)

# dynamics, transport and verify are imported by the parsers and commands
# that use them, so a command loads only the modules it runs

COMMANDS = ("run-scenario", "curvature-map", "chern-charge", "ensemble",
            "verify")


# ---------------------------------------------------------------------------
# Deterministic emission


def fmt_float(x: float) -> str:
    """17-significant-digit decimal, round-trip safe for doubles."""
    if x != x:
        return "nan"
    if x == 0.0:
        return "0"  # fold -0.0
    return "%.17g" % x


def _dumps(obj) -> str:
    """JSON with fixed float formatting (non-finite floats become null)."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return "null"
        return fmt_float(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _dumps(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_csv(path: str, kind: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# format=sgk.{kind}.v1\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, (float, np.floating)):
                    cells.append(fmt_float(float(cell)))
                else:
                    cells.append(str(cell))
            fh.write(",".join(cells) + "\n")


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", newline="") as fh:
        for rec in records:
            fh.write(_dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Config schema: one key table per section, walked by _section
#
# A key table maps each key a section accepts to (parser, default). A parser
# is called as parser(ctx, path, value); it records a violation in ctx and
# returns None when the value is unusable. The default _REQUIRED makes the
# key mandatory, None leaves an absent key None, and any other default is
# parsed as if the config had given it. A kinded section maps the value of
# its "kind" key to (constructor, key table); the constructor receives the
# parsed keys as keyword arguments.

_REQUIRED = object()


class _Ctx:
    """Violations found so far, and the spatial dimension d of the scenario.

    Every command table lists "scenario" first, so the p and r arrays
    walked after it are checked against that scenario's d.
    """

    def __init__(self):
        self.violations = []
        self.d = 3

    def err(self, path: str, msg: str) -> None:
        self.violations.append(f"{path}: {msg}")

    def raise_if_any(self) -> None:
        if self.violations:
            raise SchemaError(self.violations)


def _section(ctx, path, obj, keys, what=""):
    """Walk one config object against its key table.

    Reports every key outside the table, every missing required key and
    every bad value. Returns {key: parsed value} over the whole table, with
    None for values that failed, or None when obj is not an object.
    """
    if not isinstance(obj, dict):
        ctx.err(path, "must be an object")
        return None
    for key in obj:
        if key not in keys:
            ctx.err(f"{path}.{key}", f"unknown key for {what}" if what
                    else "unknown key")
    values = {}
    for key, (parse, default) in keys.items():
        if key in obj:
            values[key] = parse(ctx, f"{path}.{key}", obj[key])
        elif default is _REQUIRED:
            ctx.err(f"{path}.{key}", "missing required key")
            values[key] = None
        elif default is None:
            values[key] = None
        else:
            values[key] = parse(ctx, f"{path}.{key}", default)
    return values


def _build(ctx, path, obj, keys, build, what=""):
    """build(**values) of a section that has no violation, else None."""
    before = len(ctx.violations)
    values = _section(ctx, path, obj, keys, what)
    if len(ctx.violations) > before:
        return None
    try:
        return build(**values)
    except ValueError as exc:
        ctx.err(path, str(exc))
        return None


def _kinded(kinds, section):
    """Parser for a section whose "kind" picks (constructor, key table)."""
    def parse(ctx, path, obj):
        if not isinstance(obj, dict):
            ctx.err(path, "must be an object")
            return None
        if "kind" not in obj:
            ctx.err(f"{path}.kind", "missing required key")
            return None
        kind = _choice(ctx, f"{path}.kind", obj["kind"], tuple(kinds))
        if kind is None:
            return None
        build, keys = kinds[kind]
        rest = {key: val for key, val in obj.items() if key != "kind"}
        return _build(ctx, path, rest, keys, build, f"{kind} {section}")
    return parse


def _object(keys):
    """Parser for a nested section without a constructor."""
    return lambda ctx, path, obj: _section(ctx, path, obj, keys)


# Value parsers


def _number(ctx, path, val):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        ctx.err(path, "must be a number")
        return None
    try:
        x = float(val)
    except OverflowError:  # an integer literal beyond double range
        x = math.inf
    if not math.isfinite(x):
        ctx.err(path, "must be finite")
        return None
    return x


def _positive(ctx, path, val):
    x = _number(ctx, path, val)
    if x is not None and x <= 0:
        ctx.err(path, "must be positive")
        return None
    return x


def _positive_or_null(ctx, path, val):
    return None if val is None else _positive(ctx, path, val)


def _abort_bound(ctx, path, val):
    x = _positive(ctx, path, val)
    if x is not None and x > 1.0:
        ctx.err(path, "must lie in (0, 1]")
        return None
    return x


def _spin(ctx, path, val):
    S = _number(ctx, path, val)
    if S is not None and abs(2 * S - round(2 * S)) > 1e-9:
        ctx.err(path, "must be integer or half-integer")
        return None
    return S


def _bool(ctx, path, val):
    if not isinstance(val, bool):
        ctx.err(path, "must be a boolean")
        return None
    return val


def _choice(ctx, path, val, choices):
    """val if it is one of choices, all ints or all strings."""
    kind = type(choices[0])
    if type(val) is not kind:
        ctx.err(path, "must be an integer" if kind is int else "must be a string")
        return None
    if val not in choices:
        ctx.err(path, f"must be one of {sorted(choices)}")
        return None
    return val


def _one_of(*choices):
    return lambda ctx, path, val: _choice(ctx, path, val, choices)


def _axis(ctx, path, val):
    return _choice(ctx, path, val, axis_labels(ctx.d))


def _at_least(minimum, maximum=None):
    def parse(ctx, path, val):
        if isinstance(val, bool) or not isinstance(val, int):
            ctx.err(path, "must be an integer")
            return None
        if _number(ctx, path, val) is None:  # beyond double range
            return None
        if val < minimum:
            ctx.err(path, f"must be at least {minimum}")
            return None
        if maximum is not None and val > maximum:
            ctx.err(path, f"must be at most {maximum}")
            return None
        return val
    return parse


def _has_shape(val, shape):
    if not shape:
        return isinstance(val, (int, float)) and not isinstance(val, bool)
    return (isinstance(val, list) and len(val) == shape[0]
            and all(_has_shape(v, shape[1:]) for v in val))


def _numbers(ctx, path, val, shape):
    """Float array of a nested list of finite numbers of exactly this shape."""
    if not _has_shape(val, shape):
        what = (f"an array of {shape[0]} numbers" if len(shape) == 1 else
                "a " + "x".join(map(str, shape)) + " array of numbers")
        ctx.err(path, f"must be {what}")
        return None
    try:
        arr = np.asarray(val, dtype=float)
    except OverflowError:  # an integer literal beyond double range
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        ctx.err(path, "must be finite")
        return None
    return arr


def _array(*shape):
    return lambda ctx, path, val: _numbers(ctx, path, val, shape)


def _dvec(ctx, path, val):
    """A p- or r-length array: d numbers for the scenario's d."""
    return _numbers(ctx, path, val, (ctx.d,))


def _list_of(what, *parsers):
    """Parser for a fixed-length list whose items have their own parsers."""
    def parse(ctx, path, val):
        if not isinstance(val, list) or len(val) != len(parsers):
            ctx.err(path, f"must be {what}")
            return None
        before = len(ctx.violations)
        items = tuple(item(ctx, f"{path}[{i}]", v)
                      for i, (item, v) in enumerate(zip(parsers, val)))
        return items if len(ctx.violations) == before else None
    return parse


# Key tables

_LINEAR_KEYS = {"f0": (_array(3), _REQUIRED), "G": (_array(3, 3), None),
                "gt": (_array(3), None)}

_FIELDS = {
    "uniform": (lambda value: UniformField(value),
                {"value": (_array(3), _REQUIRED)}),
    "linear": (LinearField, _LINEAR_KEYS),
    "poly": (PolyField, {**_LINEAR_KEYS, "Q": (_array(3, 3, 3), None),
                         "C": (_array(3, 3), None), "qtt": (_array(3), None)}),
    "rotating": (RotatingField, {"magnitude": (_positive, _REQUIRED),
                                 "polar_angle": (_number, _REQUIRED),
                                 "omega": (_number, _REQUIRED),
                                 "phi0": (_number, 0.0)}),
}

_INDICES = {
    "uniform": (UniformIndex, {"n0": (_positive, 1.0)}),
    "linear": (LinearIndex, {"n0": (_positive, 1.0), "alpha": (_number, 0.1),
                             "axis": (_array(3), [0.0, 1.0, 0.0])}),
}
_field = _kinded(_FIELDS, "field")
_index = _kinded(_INDICES, "index")


def _rashba(e_inplane, **kw):
    return RashbaScenario(e_inplane=tuple(e_inplane), **kw)


_SPIN_KEYS = {"chi": (_number, 1.0), "m_star": (_positive, 1.0),
              "hbar": (_positive, 1.0)}
_SPIN_ORBIT_KEYS = {**_SPIN_KEYS, "rho": (_number, 1.0)}

_SCENARIOS = {
    "zeeman": (ZeemanScenario, {"b_field": (_field, _REQUIRED), **_SPIN_KEYS,
                                "d": (_one_of(2, 3), 3)}),
    "spin_orbit": (SpinOrbitScenario, {"e_field": (_field, _REQUIRED),
                                       "b_field": (_field, _REQUIRED),
                                       **_SPIN_ORBIT_KEYS}),
    "rashba": (_rashba, {**_SPIN_ORBIT_KEYS, "b_z": (_number, 1.0),
                         "e_inplane": (_array(2), [1.0, 0.0]),
                         "e_charge": (_number, 1.0),
                         "c_light": (_positive, 1.0)}),
    "optical": (OpticalScenario, {"index": (_index, _REQUIRED),
                                  "k0": (_positive, 100.0)}),
}
_scenario_kind = _kinded(_SCENARIOS, "scenario")


def _scenario(ctx, path, obj):
    scenario = _scenario_kind(ctx, path, obj)
    ctx.d = getattr(scenario, "d", 3)  # optical rays live in 3d
    return scenario


_SOURCES = {
    "monopole": (lambda S: {"source": "monopole", "S": S},
                 {"S": (_spin, _REQUIRED)}),
    "zeeman": (lambda chi, band: {"source": "zeeman", "chi": chi, "band": band},
               {"chi": (_number, 1.0), "band": (_one_of(0, 1), 1)}),
}
_source = _kinded(_SOURCES, "source")


_INTEGRATOR_KEYS = {
    "method": (_one_of("rk4", "rkf45"), "rk4"),
    "step": (_positive, 1e-3),
    "tolerance": (_positive_or_null, None),
    "t_end": (_number, 1.0),
    "max_steps": (_at_least(1), 100000),
    "epsilon_abort": (_abort_bound, 1.0),
    "mode": (_one_of("exact", "reduced"), "exact"),
    "spin_force": (_bool, True),
    "record_connection": (_bool, True),
    "delta_p": (_positive_or_null, None),
}


def _integrator(ctx, path, obj):
    before = len(ctx.violations)
    values = _section(ctx, path, obj, _INTEGRATOR_KEYS)
    if values is not None and values["method"] == "rkf45" \
            and values["tolerance"] is None:
        ctx.err(f"{path}.tolerance", "rkf45 requires a positive tolerance")
    if len(ctx.violations) > before:
        return None
    from .dynamics import IntegratorConfig
    return IntegratorConfig(**values)


_EM_KEYS = {"E": (_array(3), [0.0, 0.0, 0.0]), "B": (_array(3), [0.0, 0.0, 0.0])}


def _em(ctx, path, obj):
    from .dynamics import ExternalEMField
    return _build(ctx, path, obj, _EM_KEYS, ExternalEMField.uniform)


_INITIAL_KEYS = {"p": (_dvec, _REQUIRED), "r": (_dvec, _REQUIRED),
                 "t": (_number, 0.0)}

_RUN_KEYS = {
    "scenario": (_scenario, _REQUIRED),
    "initial": (_object(_INITIAL_KEYS), _REQUIRED),
    "band": (_one_of(0, 1), 1),
    "helicity": (_one_of(-1, 1), 1),
    "integrator": (_integrator, {}),
    "em": (_em, None),
}

# Size caps keep allocations bounded: Gauss-Legendre nodes build an n x n
# matrix, and every sample, grid point or sphere vertex is held in memory.
_range = _list_of("[low, high, count]", _number, _number, _at_least(1, 2**10))
_GRID_KEYS = {"axis_a": (_axis, _REQUIRED), "axis_b": (_axis, _REQUIRED),
              "a": (_range, _REQUIRED), "b": (_range, _REQUIRED)}
_BASE_KEYS = {"p": (_dvec, None), "r": (_dvec, None), "t": (_number, 0.0)}

_MAP_KEYS = {
    "scenario": (_scenario, _REQUIRED),
    "grid": (_object(_GRID_KEYS), _REQUIRED),
    "base": (_object(_BASE_KEYS), {}),
    "method": (_one_of("plaquette", "split"), "plaquette"),
    "richardson": (_bool, True),
}

_CHERN_KEYS = {
    "source": (_source, _REQUIRED),
    "center": (_array(3), [0.0, 0.0, 0.0]),
    "radius": (_positive, 1.0),
    "nodes": (_list_of("[n_polar, n_azimuthal]", _at_least(4, 2**10),
                       _at_least(4, 2**10)),
              [32, 64]),
}

# the "ensemble" section: the sampling box, handed to EnsembleSpec as is
_BOX_KEYS = {
    "count": (_at_least(1, 2**20), _REQUIRED),
    "p_center": (_dvec, _REQUIRED), "r_center": (_dvec, _REQUIRED),
    "p_spread": (_dvec, None), "r_spread": (_dvec, None),
    "t0": (_number, 0.0),
    "sampler": (_one_of("random", "grid"), "random"),
}

_ENSEMBLE_KEYS = {
    "scenario": (_scenario, _REQUIRED),
    "ensemble": (_object(_BOX_KEYS), _REQUIRED),
    "integrator": (_integrator, {}),
    "transverse_axis": (_array(3), None),
    "fractions": (_array(2), None),
    "seed": (_at_least(0), 0),
}


def _scenario_model_parts(scenario):
    """(model, em) for model-backed scenarios.

    Their models carry exact Jacobians, from which the integrator's point
    kernel takes the curvature, as it does for every model.
    """
    if isinstance(scenario, RashbaScenario):
        return scenario.model(), scenario.em()
    if isinstance(scenario, (ZeemanScenario, SpinOrbitScenario)):
        return scenario.model(), None
    raise ValueError("scenario has no Hamiltonian model")


# ---------------------------------------------------------------------------
# Commands


def _walk(config, keys):
    """(ctx, values) of the top-level config; raises at once if not an object."""
    ctx = _Ctx()
    values = _section(ctx, "config", config, keys)
    if values is None:
        ctx.raise_if_any()
    return ctx, values


def _cmd_run_scenario(config, out_dir, seed):
    ctx, cfg = _walk(config, _RUN_KEYS)
    scenario, initial, integ = cfg["scenario"], cfg["initial"], cfg["integrator"]
    optical = isinstance(scenario, OpticalScenario)
    if "em" in config:
        if optical:
            ctx.err("config.em", "not applicable to the optical scenario")
        elif isinstance(scenario, RashbaScenario):
            ctx.err("config.em", "rashba carries its own fields; do not set em")
    if optical and "band" in config:
        ctx.err("config.band", "optical runs select helicity, not band")
    if not optical and "helicity" in config:
        ctx.err("config.helicity", "only the optical scenario takes helicity")
    t0 = initial["t"] if initial is not None else None
    if integ is not None:
        if optical and integ.t_end <= 0:
            ctx.err("config.integrator.t_end", "must be positive for optical rays")
        elif not optical and t0 is not None and t0 >= integ.t_end:
            ctx.err("config.initial.t", "must be less than config.integrator.t_end")
    ctx.raise_if_any()

    p0, r0 = initial["p"], initial["r"]
    band, helicity, em = cfg["band"], cfg["helicity"], cfg["em"]
    labels = axis_labels(ctx.d)
    header = (["t"] + [lb for lb in labels[:-1]]
              + ["band", "energy", "epsilon", "berry_phase", "dynamic_phase"])
    if optical:
        ray = magnus_ray(scenario, p0, r0, helicity, s_end=integ.t_end,
                         step=integ.step, max_steps=integ.max_steps)
        rows = [[s, *p, *r, helicity, 0.5 * (float(p @ p) - scenario.index.n2(r)), 0.0, 0.0, 0.0]
                for s, p, r in zip(ray.s, ray.p, ray.r)]
        _write_csv(os.path.join(out_dir, "trajectory.csv"), "trajectory",
                   header, rows)
        summary = {"format": "sgk.run.v1", "status": ray.status,
                   "steps": int(ray.s.shape[0] - 1),
                   "constraint_drift": ray.constraint_drift}
        print(_dumps(summary))
        return 0

    from .dynamics import integrate
    model, auto_em = _scenario_model_parts(scenario)
    if em is None:
        em = auto_em
    traj = integrate(model, band, PhasePoint(p0, r0, initial["t"]), integ,
                     em=em)
    rows = []
    for st in traj.states:
        rows.append([st.m.t, *st.m.p, *st.m.r, band, st.energy, st.epsilon,
                     st.berry_phase, st.dynamic_phase])
    _write_csv(os.path.join(out_dir, "trajectory.csv"), "trajectory",
               header, rows)
    summary = {"format": "sgk.run.v1", "status": traj.status,
               "steps": len(traj.states) - 1,
               "final_energy": traj.final.energy,
               "final_epsilon": traj.final.epsilon}
    print(_dumps(summary))
    if traj.status == "adiabaticity_breach":
        _err_json("AdiabaticityBreach",
                  f"epsilon {traj.final.epsilon:.3e} exceeded the configured bound")
        return 4
    return 0


def _cmd_curvature_map(config, out_dir, seed):
    ctx, cfg = _walk(config, _MAP_KEYS)
    scenario, grid, base = cfg["scenario"], cfg["grid"], cfg["base"]
    if isinstance(scenario, OpticalScenario):
        ctx.err("config.scenario.kind", "curvature-map needs a two-band scenario")
    if grid is not None and grid["axis_a"] is not None \
            and grid["axis_a"] == grid["axis_b"]:
        ctx.err("config.grid.axis_b", "must differ from axis_a")
    ctx.raise_if_any()

    d = ctx.d
    labels = axis_labels(d)
    method = cfg["method"]
    model = scenario.model()
    D = 2 * d + 1
    la, lb = grid["axis_a"], grid["axis_b"]
    ia, ib = labels.index(la), labels.index(lb)
    pairs = [(i, j) for i in range(D) for j in range(i + 1, D)]
    header = [la, lb]
    for band in (0, 1):
        header += [f"F{band}_{labels[i]}_{labels[j]}" for i, j in pairs]
    a_vals, b_vals = np.meshgrid(np.linspace(*grid["a"]), np.linspace(*grid["b"]),
                                 indexing="ij")
    zero = np.zeros(d)
    base = PhasePoint(zero if base["p"] is None else base["p"],
                      zero if base["r"] is None else base["r"], base["t"])
    # the grid points in row-major order, as the rows of one coordinate stack
    X = np.tile(base.as_vector(), (a_vals.size, 1))
    X[:, ia], X[:, ib] = a_vals.ravel(), b_vals.ravel()
    if method == "split":
        F = split_curvature_rows(model, X)
    else:
        F = plaquette_rows(model, X, richardson=cfg["richardson"])
    rows = []
    for av, bv, Fk in zip(X[:, ia], X[:, ib], F):
        row = [av, bv]
        for band in (0, 1):
            row += [Fk[band, i, j] for i, j in pairs]
        rows.append(row)
    _write_csv(os.path.join(out_dir, "curvature_map.csv"), "curvature_map",
               header, rows)
    print(_dumps({"format": "sgk.curvature_map.v1",
                  "points": len(rows), "method": method}))
    return 0


def _cmd_chern_charge(config, out_dir, seed):
    ctx, cfg = _walk(config, _CHERN_KEYS)
    ctx.raise_if_any()
    meta, center, radius = cfg["source"], cfg["center"], cfg["radius"]
    if meta["source"] == "monopole":
        field = monopole_field(S=meta["S"], center=center)
    else:
        field = AdiabaticConnectionField(ZeemanScenario.hedgehog(chi=meta["chi"]).model(),
                                         PhasePoint(np.zeros(3), center, 0.0), axes=(3, 4, 5))
    q = chern_charge(field, center=center, radius=radius, nodes=cfg["nodes"],
                     band=meta.get("band"))
    rec = {"format": "sgk.chern.v1", "charge": q, "radius": radius,
           "center": list(center), **meta}
    _write_jsonl(os.path.join(out_dir, "chern.jsonl"), [rec])
    print(_dumps(rec))
    return 0


def _cmd_ensemble(config, out_dir, seed):
    ctx, cfg = _walk(config, _ENSEMBLE_KEYS)
    scenario, axis = cfg["scenario"], cfg["transverse_axis"]
    if "transverse_axis" not in config and scenario is not None:
        if isinstance(scenario, RashbaScenario) and np.any(scenario.e_vector()):
            axis = scenario.transverse_axis()
        else:
            ctx.err("config.transverse_axis", "missing required key (only "
                    "rashba with a nonzero e_inplane declares a default)")
    ctx.raise_if_any()

    from .transport import EnsembleSpec, polarization_current, run_ensemble
    use_seed = seed if seed is not None else cfg["seed"]
    if isinstance(scenario, OpticalScenario):
        parts = dict(optical=scenario)
    else:
        model, em = _scenario_model_parts(scenario)
        parts = dict(model=model, em=em)
    try:
        spec = EnsembleSpec(config=cfg["integrator"], seed=use_seed,
                            transverse_axis=axis, **cfg["ensemble"], **parts)
    except ValueError as exc:
        raise SchemaError([f"config.ensemble: {exc}"]) from exc
    report = run_ensemble(spec)
    rec = {
        "format": "sgk.ensemble.v1",
        "seed": use_seed,
        "count": report.count,
        "duration": report.duration,
        "band_disp": list(report.band_disp),
        "band_vel": list(report.band_vel),
        "band_v0": list(report.band_v0),
        "sem_disp": list(report.sem_disp),
        "sem_vel": list(report.sem_vel),
        "spin_current": report.spin_current,
        "splitting": report.splitting,
        "failures": len(report.failures),
    }
    if cfg["fractions"] is not None:
        rec["polarization_current"] = polarization_current(report,
                                                           cfg["fractions"])
    _write_jsonl(os.path.join(out_dir, "ensemble.jsonl"), [rec])
    print(_dumps(rec))
    return 0


def _cmd_verify(config, out_dir, seed):
    ctx, _ = _walk(config, {})
    ctx.raise_if_any()
    from .verify import run_battery
    results = run_battery()
    records = [{"format": "sgk.verify.v1", **r} for r in results]
    _write_jsonl(os.path.join(out_dir, "verify.jsonl"), records)
    for rec in records:
        print(_dumps(rec))
    if all(r["passed"] for r in results):
        return 0
    _err_json("VerificationFailure",
              "; ".join(r["check"] for r in results if not r["passed"]))
    return 3


# ---------------------------------------------------------------------------
# Entry point


_HANDLERS = {
    "run-scenario": _cmd_run_scenario,
    "curvature-map": _cmd_curvature_map,
    "chern-charge": _cmd_chern_charge,
    "ensemble": _cmd_ensemble,
    "verify": _cmd_verify,
}


def _err_json(kind: str, message: str) -> None:
    sys.stderr.write(_dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgk",
        description="Spin gauge kinematics batch runner")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect, "
                             "ensembles run serially")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, "r") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise SchemaError([f"config: cannot read file: {exc}"]) from exc
        except json.JSONDecodeError as exc:
            raise SchemaError([f"config: not valid JSON: {exc}"]) from exc
        if args.threads is not None and args.threads < 1:
            raise SchemaError(["--threads: must be at least 1"])
        if args.seed is not None and args.seed < 0:
            raise SchemaError(["--seed: must be nonnegative"])
        os.makedirs(args.out, exist_ok=True)
        handler = _HANDLERS[args.command]
        return handler(config, args.out, args.seed)
    except SchemaError as exc:
        for v in exc.violations:
            sys.stderr.write(f"config error: {v}\n")
        _err_json("SchemaError", "; ".join(exc.violations))
        return 2
    except SgkError as exc:
        _err_json(type(exc).__name__, str(exc))
        return 3
    except Exception as exc:  # pragma: no cover - internal faults
        _err_json(type(exc).__name__, str(exc))
        return 5


def run() -> None:
    """Process entry of `sgk` and `python -m sgk.cli`: main(), then exit.

    Flushes stdout and stderr and ends the process with os._exit, skipping
    the interpreter's teardown, which frees every object and module one by
    one. Output files are closed by then. If a flush raises, sys.exit ends
    the process the usual way instead. In-process callers use main().
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed or failing stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
