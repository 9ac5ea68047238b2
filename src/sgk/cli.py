"""Batch front end: `sgk <command> --config <file> [--out] [--threads] [--seed]`.

Commands: run-scenario, curvature-map, chern-charge, ensemble, verify.
Configs are JSON documents validated against hand-rolled schemas that
reject unknown keys and report every violation at once. Results are
written as versioned CSV (bulky grids and trajectories) or JSON-lines
(scalar results); all floats are printed with 17 significant digits so
files round-trip and diff cleanly. Exit codes: 0 ok, 2 config error,
3 physics error, 4 adiabaticity breach, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .dynamics import ExternalEMField, IntegratorConfig, integrate
from .errors import SchemaError, SgkError
from .fields import LinearField, LinearIndex, PolyField, RotatingField, \
    UniformField, UniformIndex
from .gauge import PlaquetteCurvatureField, adiabatic_curvature_numeric, \
    chern_charge, curvature_m_space, monopole_field
from .phase_space import PhasePoint, axis_labels
from .scenarios import (OpticalScenario, RashbaScenario, SpinOrbitScenario,
                        ZeemanScenario, magnus_ray)
from .transport import EnsembleSpec, polarization_current, run_ensemble
from .verify import run_battery

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
# Schema walking: collect every violation, reject unknown keys


class _Ctx:
    def __init__(self):
        self.violations = []

    def err(self, path: str, msg: str) -> None:
        self.violations.append(f"{path}: {msg}")

    def raise_if_any(self) -> None:
        if self.violations:
            raise SchemaError(self.violations)


def _obj(ctx, path, val, required=(), optional=()):
    if not isinstance(val, dict):
        ctx.err(path, "must be an object")
        return None
    allowed = set(required) | set(optional)
    for key in val:
        if key not in allowed:
            ctx.err(f"{path}.{key}", "unknown key")
    ok = True
    for key in required:
        if key not in val:
            ctx.err(f"{path}.{key}", "missing required key")
            ok = False
    return val if ok else None


def _num(ctx, path, val, positive=False, nonneg=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        ctx.err(path, "must be a number")
        return None
    x = float(val)
    if not np.isfinite(x):
        ctx.err(path, "must be finite")
        return None
    if positive and x <= 0:
        ctx.err(path, "must be positive")
        return None
    if nonneg and x < 0:
        ctx.err(path, "must be nonnegative")
        return None
    return x


def _int(ctx, path, val, minimum=None, choices=None):
    if isinstance(val, bool) or not isinstance(val, int):
        ctx.err(path, "must be an integer")
        return None
    if minimum is not None and val < minimum:
        ctx.err(path, f"must be at least {minimum}")
        return None
    if choices is not None and val not in choices:
        ctx.err(path, f"must be one of {sorted(choices)}")
        return None
    return val


def _bool(ctx, path, val):
    if not isinstance(val, bool):
        ctx.err(path, "must be a boolean")
        return None
    return val


def _str(ctx, path, val, choices=None):
    if not isinstance(val, str):
        ctx.err(path, "must be a string")
        return None
    if choices is not None and val not in choices:
        ctx.err(path, f"must be one of {sorted(choices)}")
        return None
    return val


def _vec(ctx, path, val, length=None):
    if not isinstance(val, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in val):
        ctx.err(path, "must be an array of numbers")
        return None
    if length is not None and len(val) != length:
        ctx.err(path, f"must have length {length}")
        return None
    arr = np.asarray(val, dtype=float)
    if not np.all(np.isfinite(arr)):
        ctx.err(path, "must be finite")
        return None
    return arr


def _mat(ctx, path, val, shape):
    if not isinstance(val, list) or len(val) != shape[0]:
        ctx.err(path, f"must be a {shape[0]}x{shape[1]} array")
        return None
    rows = []
    for i, row in enumerate(val):
        r = _vec(ctx, f"{path}[{i}]", row, length=shape[1])
        if r is None:
            return None
        rows.append(r)
    return np.stack(rows)


# ---------------------------------------------------------------------------
# Config builders


def _build_field(ctx, path, val):
    obj = _obj(ctx, path, val, required=("kind",),
               optional=("value", "f0", "G", "gt", "Q", "C", "qtt",
                         "magnitude", "polar_angle", "omega", "phi0"))
    if obj is None:
        return None
    kind = _str(ctx, f"{path}.kind", obj.get("kind"),
                choices=("uniform", "linear", "poly", "rotating"))
    if kind is None:
        return None
    if kind == "uniform":
        v = _vec(ctx, f"{path}.value", obj.get("value", "missing"), length=3) \
            if "value" in obj else ctx.err(f"{path}.value", "missing required key")
        return UniformField(v) if v is not None else None
    if kind in ("linear", "poly"):
        if "f0" not in obj:
            ctx.err(f"{path}.f0", "missing required key")
            return None
        f0 = _vec(ctx, f"{path}.f0", obj["f0"], length=3)
        G = _mat(ctx, f"{path}.G", obj["G"], (3, 3)) if "G" in obj else None
        gt = _vec(ctx, f"{path}.gt", obj["gt"], length=3) if "gt" in obj else None
        if f0 is None:
            return None
        if kind == "linear":
            for extra in ("Q", "C", "qtt"):
                if extra in obj:
                    ctx.err(f"{path}.{extra}", "unknown key for linear field")
            return LinearField(f0=f0, G=G, gt=gt)
        C = _mat(ctx, f"{path}.C", obj["C"], (3, 3)) if "C" in obj else None
        qtt = _vec(ctx, f"{path}.qtt", obj["qtt"], length=3) if "qtt" in obj else None
        Q = None
        if "Q" in obj:
            qv = obj["Q"]
            if not isinstance(qv, list) or len(qv) != 3:
                ctx.err(f"{path}.Q", "must be a 3x3x3 array")
            else:
                planes = [_mat(ctx, f"{path}.Q[{i}]", qv[i], (3, 3))
                          for i in range(3)]
                if all(p is not None for p in planes):
                    Q = np.stack(planes)
        return PolyField(f0=f0, G=G, gt=gt, Q=Q, C=C, qtt=qtt)
    # rotating
    mag = _num(ctx, f"{path}.magnitude", obj.get("magnitude"), positive=True) \
        if "magnitude" in obj else ctx.err(f"{path}.magnitude", "missing required key")
    ang = _num(ctx, f"{path}.polar_angle", obj.get("polar_angle")) \
        if "polar_angle" in obj else ctx.err(f"{path}.polar_angle", "missing required key")
    om = _num(ctx, f"{path}.omega", obj.get("omega")) \
        if "omega" in obj else ctx.err(f"{path}.omega", "missing required key")
    phi0 = _num(ctx, f"{path}.phi0", obj.get("phi0", 0.0))
    if None in (mag, ang, om, phi0):
        return None
    return RotatingField(magnitude=mag, polar_angle=ang, omega=om, phi0=phi0)


def _build_scenario(ctx, path, val):
    obj = _obj(ctx, path, val, required=("kind",),
               optional=("chi", "rho", "m_star", "hbar", "d", "b_field",
                         "e_field", "b_z", "e_inplane", "k0", "index",
                         "e_charge", "c_light"))
    if obj is None:
        return None
    kind = _str(ctx, f"{path}.kind", obj.get("kind"),
                choices=("zeeman", "spin_orbit", "rashba", "optical"))
    if kind is None:
        return None

    def num(key, default, **kw):
        if key in obj:
            return _num(ctx, f"{path}.{key}", obj[key], **kw)
        return default

    if kind == "zeeman":
        for bad in ("rho", "b_z", "e_inplane", "k0", "index", "e_field"):
            if bad in obj:
                ctx.err(f"{path}.{bad}", "unknown key for zeeman scenario")
        if "b_field" not in obj:
            ctx.err(f"{path}.b_field", "missing required key")
            return None
        bf = _build_field(ctx, f"{path}.b_field", obj["b_field"])
        chi = num("chi", 1.0)
        ms = num("m_star", 1.0, positive=True)
        hb = num("hbar", 1.0, positive=True)
        d = _int(ctx, f"{path}.d", obj.get("d", 3), choices=(2, 3))
        if None in (bf, chi, ms, hb, d):
            return None
        return ZeemanScenario(b_field=bf, chi=chi, m_star=ms, hbar=hb, d=d)
    if kind == "spin_orbit":
        for bad in ("b_z", "e_inplane", "k0", "index", "d"):
            if bad in obj:
                ctx.err(f"{path}.{bad}", "unknown key for spin_orbit scenario")
        missing = [k for k in ("e_field", "b_field") if k not in obj]
        for k in missing:
            ctx.err(f"{path}.{k}", "missing required key")
        if missing:
            return None
        ef = _build_field(ctx, f"{path}.e_field", obj["e_field"])
        bf = _build_field(ctx, f"{path}.b_field", obj["b_field"])
        chi = num("chi", 1.0)
        rho = num("rho", 1.0)
        ms = num("m_star", 1.0, positive=True)
        hb = num("hbar", 1.0, positive=True)
        if None in (ef, bf, chi, rho, ms, hb):
            return None
        return SpinOrbitScenario(e_field=ef, b_field=bf, chi=chi, rho=rho,
                                 m_star=ms, hbar=hb)
    if kind == "rashba":
        for bad in ("b_field", "e_field", "k0", "index", "d"):
            if bad in obj:
                ctx.err(f"{path}.{bad}", "unknown key for rashba scenario")
        chi = num("chi", 1.0)
        rho = num("rho", 1.0)
        ms = num("m_star", 1.0, positive=True)
        hb = num("hbar", 1.0, positive=True)
        bz = num("b_z", 1.0)
        ec = num("e_charge", 1.0)
        cl = num("c_light", 1.0, positive=True)
        ei = _vec(ctx, f"{path}.e_inplane", obj.get("e_inplane", [1.0, 0.0]),
                  length=2)
        if None in (chi, rho, ms, hb, bz, ec, cl) or ei is None:
            return None
        return RashbaScenario(b_z=bz, e_inplane=tuple(ei), chi=chi, rho=rho,
                              m_star=ms, hbar=hb, e_charge=ec, c_light=cl)
    # optical
    for bad in ("chi", "rho", "m_star", "hbar", "d", "b_field", "e_field",
                "b_z", "e_inplane", "e_charge", "c_light"):
        if bad in obj:
            ctx.err(f"{path}.{bad}", "unknown key for optical scenario")
    if "index" not in obj:
        ctx.err(f"{path}.index", "missing required key")
        return None
    iobj = _obj(ctx, f"{path}.index", obj["index"], required=("kind",),
                optional=("n0", "alpha", "axis"))
    if iobj is None:
        return None
    ikind = _str(ctx, f"{path}.index.kind", iobj.get("kind"),
                 choices=("uniform", "linear"))
    n0 = _num(ctx, f"{path}.index.n0", iobj.get("n0", 1.0), positive=True)
    k0 = num("k0", 100.0, positive=True)
    if ikind is None or n0 is None or k0 is None:
        return None
    if ikind == "uniform":
        for bad in ("alpha", "axis"):
            if bad in iobj:
                ctx.err(f"{path}.index.{bad}", "unknown key for uniform index")
        return OpticalScenario(index=UniformIndex(n0=n0), k0=k0)
    alpha = _num(ctx, f"{path}.index.alpha", iobj.get("alpha", 0.1))
    axis = _vec(ctx, f"{path}.index.axis", iobj.get("axis", [0.0, 1.0, 0.0]),
                length=3)
    if alpha is None or axis is None:
        return None
    return OpticalScenario(index=LinearIndex(n0=n0, alpha=alpha, axis=axis),
                           k0=k0)


def _build_integrator(ctx, path, val):
    obj = _obj(ctx, path, val, optional=(
        "method", "step", "tolerance", "t_end", "max_steps", "epsilon_abort",
        "mode", "spin_force", "record_connection", "delta_p"))
    if obj is None:
        return None
    method = _str(ctx, f"{path}.method", obj.get("method", "rk4"),
                  choices=("rk4", "rkf45"))
    step = _num(ctx, f"{path}.step", obj.get("step", 1e-3), positive=True)
    tol = None
    if obj.get("tolerance") is not None:
        tol = _num(ctx, f"{path}.tolerance", obj["tolerance"], positive=True)
    t_end = _num(ctx, f"{path}.t_end", obj.get("t_end", 1.0))
    max_steps = _int(ctx, f"{path}.max_steps", obj.get("max_steps", 100000),
                     minimum=1)
    eps = _num(ctx, f"{path}.epsilon_abort", obj.get("epsilon_abort", 1.0),
               positive=True)
    if eps is not None and eps > 1.0:
        ctx.err(f"{path}.epsilon_abort", "must lie in (0, 1]")
        eps = None
    mode = _str(ctx, f"{path}.mode", obj.get("mode", "exact"),
                choices=("exact", "reduced"))
    spin = _bool(ctx, f"{path}.spin_force", obj.get("spin_force", True))
    rec = _bool(ctx, f"{path}.record_connection",
                obj.get("record_connection", True))
    dp = None
    if obj.get("delta_p") is not None:
        dp = _num(ctx, f"{path}.delta_p", obj["delta_p"], positive=True)
    if method == "rkf45" and tol is None:
        ctx.err(f"{path}.tolerance", "rkf45 requires a positive tolerance")
    if None in (method, step, t_end, max_steps, eps, mode, spin, rec):
        return None
    return IntegratorConfig(method=method, step=step, tolerance=tol,
                            t_end=t_end, max_steps=max_steps,
                            epsilon_abort=eps, mode=mode, spin_force=spin,
                            record_connection=rec, delta_p=dp)


def _build_em(ctx, path, val):
    obj = _obj(ctx, path, val, optional=("E", "B"))
    if obj is None:
        return None
    E = _vec(ctx, f"{path}.E", obj.get("E", [0.0, 0.0, 0.0]), length=3)
    B = _vec(ctx, f"{path}.B", obj.get("B", [0.0, 0.0, 0.0]), length=3)
    if E is None or B is None:
        return None
    return ExternalEMField.uniform(E=E, B=B)


def _scenario_model_parts(scenario):
    """(model, em, curvature provider, d) for model-backed scenarios."""
    if isinstance(scenario, RashbaScenario):
        return scenario.model(), scenario.em(), scenario.curvature_provider(), 2
    if isinstance(scenario, (ZeemanScenario, SpinOrbitScenario)):
        return scenario.model(), None, scenario.curvature_blocks, scenario.d
    raise ValueError("scenario has no Hamiltonian model")


# ---------------------------------------------------------------------------
# Commands


def _cmd_run_scenario(config, out_dir, seed):
    ctx = _Ctx()
    obj = _obj(ctx, "config", config, required=("scenario", "initial"),
               optional=("band", "helicity", "integrator", "em"))
    if obj is None:
        ctx.raise_if_any()
    scenario = _build_scenario(ctx, "config.scenario", obj["scenario"])
    integ = _build_integrator(ctx, "config.integrator",
                              obj.get("integrator", {}))
    optical = isinstance(scenario, OpticalScenario)
    d = 3
    if scenario is not None and not optical:
        d = scenario.d
    iobj = _obj(ctx, "config.initial", obj["initial"], required=("p", "r"),
                optional=("t",))
    p0 = r0 = None
    t0 = 0.0
    if iobj is not None:
        p0 = _vec(ctx, "config.initial.p", iobj["p"], length=d)
        r0 = _vec(ctx, "config.initial.r", iobj["r"], length=d)
        t0 = _num(ctx, "config.initial.t", iobj.get("t", 0.0))
    em = None
    if "em" in obj:
        if optical:
            ctx.err("config.em", "not applicable to the optical scenario")
        elif isinstance(scenario, RashbaScenario):
            ctx.err("config.em", "rashba carries its own fields; do not set em")
        else:
            em = _build_em(ctx, "config.em", obj["em"])
    if optical:
        if "band" in obj:
            ctx.err("config.band", "optical runs select helicity, not band")
        helicity = _int(ctx, "config.helicity", obj.get("helicity", 1),
                        choices=(-1, 1))
    else:
        if "helicity" in obj:
            ctx.err("config.helicity", "only the optical scenario takes helicity")
        helicity = None
        band = _int(ctx, "config.band", obj.get("band", 1), choices=(0, 1))
    if integ is not None:
        if optical and integ.t_end <= 0:
            ctx.err("config.integrator.t_end", "must be positive for optical rays")
        elif not optical and t0 is not None and t0 >= integ.t_end:
            ctx.err("config.initial.t", "must be less than config.integrator.t_end")
    ctx.raise_if_any()

    labels = axis_labels(d)
    header = (["t"] + [lb for lb in labels[:-1]]
              + ["band", "energy", "epsilon", "berry_phase", "dynamic_phase"])
    if optical:
        ray = magnus_ray(scenario, p0, r0, helicity, s_end=integ.t_end,
                         step=integ.step, max_steps=integ.max_steps)
        rows = []
        for k in range(ray.s.shape[0]):
            e = 0.5 * (float(ray.p[k] @ ray.p[k])
                       - scenario.index.n2(ray.r[k]))
            rows.append([ray.s[k], *ray.p[k], *ray.r[k], helicity, e,
                         0.0, 0.0, 0.0])
        _write_csv(os.path.join(out_dir, "trajectory.csv"), "trajectory",
                   header, rows)
        summary = {"format": "sgk.run.v1", "status": "completed",
                   "steps": int(ray.s.shape[0] - 1),
                   "constraint_drift": ray.constraint_drift}
        print(_dumps(summary))
        return 0

    model, auto_em, curv, _ = _scenario_model_parts(scenario)
    if em is None:
        em = auto_em
    traj = integrate(model, band, PhasePoint(p0, r0, t0), integ, em=em,
                     curvature=curv)
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
    ctx = _Ctx()
    obj = _obj(ctx, "config", config, required=("scenario", "grid"),
               optional=("base", "method", "richardson"))
    if obj is None:
        ctx.raise_if_any()
    scenario = _build_scenario(ctx, "config.scenario", obj["scenario"])
    if isinstance(scenario, OpticalScenario):
        ctx.err("config.scenario.kind", "curvature-map needs a two-band scenario")
        ctx.raise_if_any()
    method = _str(ctx, "config.method", obj.get("method", "plaquette"),
                  choices=("plaquette", "split"))
    rich = _bool(ctx, "config.richardson", obj.get("richardson", True))
    d = scenario.d if scenario is not None else 3
    labels = axis_labels(d)
    gobj = _obj(ctx, "config.grid", obj["grid"],
                required=("axis_a", "axis_b", "a", "b"))
    la = lb = None
    a_spec = b_spec = None
    if gobj is not None:
        la = _str(ctx, "config.grid.axis_a", gobj["axis_a"], choices=labels)
        lb = _str(ctx, "config.grid.axis_b", gobj["axis_b"], choices=labels)
        if la is not None and lb is not None and la == lb:
            ctx.err("config.grid.axis_b", "must differ from axis_a")
        a_spec = _range_spec(ctx, "config.grid.a", gobj["a"])
        b_spec = _range_spec(ctx, "config.grid.b", gobj["b"])
    base_p = np.zeros(d)
    base_r = np.zeros(d)
    base_t = 0.0
    if "base" in obj:
        bobj = _obj(ctx, "config.base", obj["base"], optional=("p", "r", "t"))
        if bobj is not None:
            if "p" in bobj:
                base_p = _vec(ctx, "config.base.p", bobj["p"], length=d)
            if "r" in bobj:
                base_r = _vec(ctx, "config.base.r", bobj["r"], length=d)
            base_t = _num(ctx, "config.base.t", bobj.get("t", 0.0))
    ctx.raise_if_any()

    model = scenario.model()
    D = 2 * d + 1
    ia, ib = labels.index(la), labels.index(lb)
    pairs = [(i, j) for i in range(D) for j in range(i + 1, D)]
    header = [la, lb]
    for band in (0, 1):
        header += [f"F{band}_{labels[i]}_{labels[j]}" for i, j in pairs]
    a_vals = np.linspace(*a_spec)
    b_vals = np.linspace(*b_spec)
    base = PhasePoint(base_p, base_r, base_t)
    rows = []
    for av in a_vals:
        for bv in b_vals:
            vec = base.as_vector()
            vec[ia] = av
            vec[ib] = bv
            m = PhasePoint.from_vector(vec, d)
            if method == "split":
                ct = curvature_m_space(model, m)
            else:
                ct = adiabatic_curvature_numeric(model, m, richardson=rich)
            row = [av, bv]
            for band in (0, 1):
                row += [ct.F[band, i, j] for i, j in pairs]
            rows.append(row)
    _write_csv(os.path.join(out_dir, "curvature_map.csv"), "curvature_map",
               header, rows)
    print(_dumps({"format": "sgk.curvature_map.v1",
                  "points": len(rows), "method": method}))
    return 0


def _range_spec(ctx, path, val):
    if not isinstance(val, list) or len(val) != 3:
        ctx.err(path, "must be [low, high, count]")
        return None
    lo = _num(ctx, f"{path}[0]", val[0])
    hi = _num(ctx, f"{path}[1]", val[1])
    n = _int(ctx, f"{path}[2]", val[2], minimum=1)
    if None in (lo, hi, n):
        return None
    return (lo, hi, n)


def _cmd_chern_charge(config, out_dir, seed):
    ctx = _Ctx()
    obj = _obj(ctx, "config", config, required=("source",),
               optional=("center", "radius", "nodes"))
    if obj is None:
        ctx.raise_if_any()
    center = _vec(ctx, "config.center", obj.get("center", [0.0, 0.0, 0.0]),
                  length=3)
    radius = _num(ctx, "config.radius", obj.get("radius", 1.0), positive=True)
    nodes = obj.get("nodes", [32, 64])
    if not isinstance(nodes, list) or len(nodes) != 2:
        ctx.err("config.nodes", "must be [n_polar, n_azimuthal]")
        nodes = None
    else:
        nodes = (_int(ctx, "config.nodes[0]", nodes[0], minimum=4),
                 _int(ctx, "config.nodes[1]", nodes[1], minimum=4))
        if None in nodes:
            nodes = None
    sobj = _obj(ctx, "config.source", obj["source"], required=("kind",),
                optional=("S", "chi", "band"))
    field = None
    meta = {}
    if sobj is not None:
        kind = _str(ctx, "config.source.kind", sobj.get("kind"),
                    choices=("monopole", "zeeman"))
        if kind == "monopole":
            if "S" not in sobj:
                ctx.err("config.source.S", "missing required key")
            else:
                S = _num(ctx, "config.source.S", sobj["S"])
                if S is not None and abs(2 * S - round(2 * S)) > 1e-9:
                    ctx.err("config.source.S", "must be integer or half-integer")
                    S = None
                if S is not None and center is not None:
                    field = monopole_field(S=S, center=center)
                    meta = {"source": "monopole", "S": S}
            for bad in ("chi", "band"):
                if bad in sobj:
                    ctx.err(f"config.source.{bad}", "unknown key for monopole source")
        elif kind == "zeeman":
            if "S" in sobj:
                ctx.err("config.source.S", "unknown key for zeeman source")
            chi = _num(ctx, "config.source.chi", sobj.get("chi", 1.0))
            band = _int(ctx, "config.source.band", sobj.get("band", 1),
                        choices=(0, 1))
            if chi is not None and band is not None and center is not None:
                model = ZeemanScenario.hedgehog(chi=chi).model()
                base = PhasePoint(np.zeros(3), center, 0.0)
                field = PlaquetteCurvatureField(model, band, base,
                                                axes=(3, 4, 5))
                meta = {"source": "zeeman", "chi": chi, "band": band}
    ctx.raise_if_any()
    q = chern_charge(field, center=center, radius=radius, nodes=nodes)
    rec = {"format": "sgk.chern.v1", "charge": q, "radius": radius,
           "center": list(center), **meta}
    _write_jsonl(os.path.join(out_dir, "chern.jsonl"), [rec])
    print(_dumps(rec))
    return 0


def _cmd_ensemble(config, out_dir, seed):
    ctx = _Ctx()
    obj = _obj(ctx, "config", config, required=("scenario", "ensemble"),
               optional=("integrator", "transverse_axis", "fractions", "seed"))
    if obj is None:
        ctx.raise_if_any()
    scenario = _build_scenario(ctx, "config.scenario", obj["scenario"])
    integ = _build_integrator(ctx, "config.integrator",
                              obj.get("integrator", {}))
    optical = isinstance(scenario, OpticalScenario)
    d = 3 if optical else (scenario.d if scenario is not None else 3)
    eobj = _obj(ctx, "config.ensemble", obj["ensemble"],
                required=("count", "p_center", "r_center"),
                optional=("p_spread", "r_spread", "t0", "sampler"))
    count = pc = rc = ps = rs = None
    t0 = 0.0
    sampler = "random"
    if eobj is not None:
        count = _int(ctx, "config.ensemble.count", eobj["count"], minimum=1)
        pc = _vec(ctx, "config.ensemble.p_center", eobj["p_center"], length=d)
        rc = _vec(ctx, "config.ensemble.r_center", eobj["r_center"], length=d)
        if "p_spread" in eobj:
            ps = _vec(ctx, "config.ensemble.p_spread", eobj["p_spread"], length=d)
        if "r_spread" in eobj:
            rs = _vec(ctx, "config.ensemble.r_spread", eobj["r_spread"], length=d)
        t0 = _num(ctx, "config.ensemble.t0", eobj.get("t0", 0.0))
        sampler = _str(ctx, "config.ensemble.sampler",
                       eobj.get("sampler", "random"), choices=("random", "grid"))
    axis = None
    if "transverse_axis" in obj:
        axis = _vec(ctx, "config.transverse_axis", obj["transverse_axis"],
                    length=3)
    elif isinstance(scenario, RashbaScenario):
        axis = scenario.transverse_axis()
    elif scenario is not None:
        ctx.err("config.transverse_axis",
                "missing required key (only rashba declares a default)")
    fractions = None
    if "fractions" in obj:
        fractions = _vec(ctx, "config.fractions", obj["fractions"], length=2)
    cfg_seed = _int(ctx, "config.seed", obj.get("seed", 0), minimum=0)
    ctx.raise_if_any()

    use_seed = seed if seed is not None else cfg_seed
    if optical:
        parts = dict(optical=scenario)
    else:
        model, em, curv, _ = _scenario_model_parts(scenario)
        parts = dict(model=model, em=em, curvature=curv)
    try:
        spec = EnsembleSpec(count=count, config=integ, p_center=pc,
                            r_center=rc, p_spread=ps, r_spread=rs, t0=t0,
                            seed=use_seed, sampler=sampler,
                            transverse_axis=axis, **parts)
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
    if fractions is not None:
        rec["polarization_current"] = polarization_current(report, fractions)
    _write_jsonl(os.path.join(out_dir, "ensemble.jsonl"), [rec])
    print(_dumps(rec))
    return 0


def _cmd_verify(config, out_dir, seed):
    ctx = _Ctx()
    _obj(ctx, "config", config, optional=())
    ctx.raise_if_any()
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


if __name__ == "__main__":
    sys.exit(main())
