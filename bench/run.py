"""End-to-end and per-layer benchmark of the sgk command line.

    python3 bench/run.py --workload trajectory|ensemble|geometry \
        --seed N --seconds S --trace 0|1

Runs the workload's `sgk` invocations (`python -m sgk.cli` against this
checkout's src/, one fresh process each, as a user runs them) in whole
rounds until S seconds have passed, checks every output against the
closed forms in oracles.py and prints, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. One operation is one
invocation with its check.

--trace 0 reports the end-to-end metrics, medians over rounds. --trace 1
alternates untraced rounds with rounds run under tracer.py and reports
per-layer call counts and self times. See README.md for what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
INVOCATION_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0       # start no round that could end past this

# Per-layer metrics: spans with calls and self time, spans with self time
# only, and call counts per accepted step / per curvature-map point.
CALLS = ("models.h1_vector", "models.band_energy", "fields.value",
         "models.evaluate", "dynamics.band_gradients",
         "dynamics.adiabaticity_epsilon", "gauge.curvature_m_space",
         "dynamics.velocity_field", "spectral.diagonalize",
         "spectral.aligned_frame", "gauge.exact_connection",
         "gauge.adiabatic_curvature_numeric", "scenarios.curvature_provider",
         "dynamics.integrate")
SELF_ONLY = ("gauge.chern_charge", "transport.run_ensemble", "cli.main")
PER_STEP = ("models.h1_vector", "dynamics.band_gradients",
            "spectral.diagonalize")
PER_POINT = ("spectral.diagonalize",)


def _env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def _run_process(cmd, stdout_path: Path, env) -> tuple:
    """(exit code, wall seconds, peak RSS in MiB) of one child process."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _time_import(env, scratch: Path) -> float:
    code, wall, _ = _run_process([sys.executable, "-c", "import sgk.cli"],
                                 scratch / "import.out", env)
    if code != 0:
        raise RuntimeError("import sgk.cli failed")
    return wall


def _check_package(env, scratch: Path) -> None:
    """The children must import sgk from this checkout's src/."""
    code, _, _ = _run_process(
        [sys.executable, "-c", "import sgk.cli; print(sgk.cli.__file__)"],
        scratch / "origin.out", env)
    origin = (scratch / "origin.out").read_text().strip()
    if code != 0 or not Path(origin).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"sgk does not import from {SRC}: {origin!r}")


def _output_bytes(out_dir: Path, stdout_path: Path) -> int:
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files) + stdout_path.stat().st_size


class Runner:
    def __init__(self, workload: str, seed: int, scratch: Path):
        build, self.unit = WORKLOADS[workload]
        self.invocations = build(seed)
        self.scratch = scratch
        self.env = _env()
        for inv in self.invocations:
            (scratch / f"{inv.label}.json").write_text(json.dumps(inv.config))

    def invoke(self, inv, traced: bool) -> dict:
        out_dir = self.scratch / inv.label
        shutil.rmtree(out_dir, ignore_errors=True)
        sgk_args = [inv.command, "--config", str(self.scratch / f"{inv.label}.json"),
                    "--out", str(out_dir), *inv.args]
        spans = self.scratch / f"{inv.label}.spans.npz"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), *sgk_args]
        else:
            cmd = [sys.executable, "-m", "sgk.cli", *sgk_args]
        stdout_path = self.scratch / f"{inv.label}.out"
        code, wall, rss = _run_process(cmd, stdout_path, self.env)
        res = {"label": inv.label, "code": code, "wall": wall, "rss": rss,
               "units": {}, "checks": [], "check_error": None}
        if code != 0:
            return res
        try:
            lines = stdout_path.read_text().strip().splitlines()
            summary = json.loads(lines[-1])
            res["units"] = inv.units(summary)
            res["checks"] = inv.check(out_dir, summary)
        except Exception as exc:  # a malformed output is a failed check
            res["check_error"] = f"{type(exc).__name__}: {exc}"
        if traced:
            res["spans"] = _layer_totals(spans)
            res["output_bytes"] = _output_bytes(out_dir, stdout_path)
            keep = RUNS / "spans"
            keep.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(spans, keep / f"{inv.label}.npz")
        return res

    def round(self, traced: bool) -> list:
        return [self.invoke(inv, traced) for inv in self.invocations]


def _layer_totals(path: Path) -> dict:
    """{span name: (calls, self seconds)}; self time is taken per thread.

    A span's self time is its duration minus the durations of its direct
    children. Parents are recorded from the thread's own span stack, so a
    child always runs on its parent's thread.
    """
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        ids, name = z["id"], z["name"]
        dur = z["end"] - z["start"]
        parent = z["parent"]
    if ids.size == 0:
        return {}
    pos = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
    pos[ids] = np.arange(ids.size)
    child = np.zeros(ids.size)
    has = parent >= 0
    np.add.at(child, pos[parent[has]], dur[has])
    own = dur - child
    calls = np.bincount(name, minlength=len(names))
    selfs = np.bincount(name, weights=own, minlength=len(names))
    return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(names)}


def _failed(res) -> bool:
    return (res["code"] != 0 or res["check_error"] is not None
            or not all(c.ok for c in res["checks"]))


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(rounds, imports, unit) -> dict:
    walls = [sum(r["wall"] for r in rnd) for rnd in rounds]
    rss = [max(r["rss"] for r in rnd) for rnd in rounds]
    rates = []
    for rnd in rounds:
        work = [r for r in rnd if r["units"].get(unit)]
        if work:
            rates.append(sum(r["units"][unit] for r in work)
                         / sum(r["wall"] for r in work))
    return {
        "setup_s": _metric(statistics.median(imports), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MiB"),
        "throughput": _metric(statistics.median(rates) if rates else 0.0, "1/s"),
    }


def per_layer(plain, traced) -> tuple:
    """(metrics, whether call counts repeated exactly across traced rounds)."""
    def totals(rnd):
        out = {}
        for r in rnd:
            for name, (calls, own) in r.get("spans", {}).items():
                c, s = out.get(name, (0, 0.0))
                out[name] = (c + calls, s + own)
        return out

    per_round = [totals(rnd) for rnd in traced]
    counts = [{k: v[0] for k, v in t.items()} for t in per_round]
    repeat = all(c == counts[0] for c in counts)
    first = traced[0]

    def calls(name):
        return counts[0].get(name, 0)

    def calls_per(unit, name):
        """Calls made by the invocations that did `unit` work, per unit."""
        work = [r for r in first if r["units"].get(unit)]
        done = sum(r["units"][unit] for r in work)
        made = sum(r.get("spans", {}).get(name, (0, 0.0))[0] for r in work)
        return made / done if done else 0.0

    def self_s(name):
        return statistics.median(t.get(name, (0, 0.0))[1] for t in per_round)

    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = _metric(calls(name), "count")
        m[f"{name}.self_s"] = _metric(self_s(name), "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = _metric(self_s(name), "s")
    for name in PER_STEP:
        m[f"{name}.calls_per_step"] = _metric(calls_per("steps", name),
                                              "calls/step")
    for name in PER_POINT:
        m[f"{name}.calls_per_point"] = _metric(calls_per("points", name),
                                               "calls/point")
    m["cli.output_bytes"] = _metric(sum(r.get("output_bytes", 0) for r in first),
                                    "bytes")
    wall_traced = statistics.median(sum(r["wall"] for r in rnd) for rnd in traced)
    wall_plain = statistics.median(sum(r["wall"] for r in rnd) for rnd in plain)
    m["trace.overhead_s"] = _metric(wall_traced - wall_plain, "s")
    return m, repeat


def report_checks(rounds) -> None:
    """Worst residual/tolerance of each check over the run, to stdout."""
    worst = {}
    for rnd in rounds:
        for r in rnd:
            if r["code"] != 0 or r["check_error"]:
                print(f"FAILED {r['label']}: exit {r['code']} {r['check_error'] or ''}")
            for c in r["checks"]:
                ratio = c.residual / c.tolerance if c.tolerance else (
                    0.0 if c.residual == 0 else float("inf"))
                key = f"{r['label']}.{c.name}"
                if key not in worst or ratio > worst[key][0]:
                    worst[key] = (ratio, c)
    for key, (ratio, c) in sorted(worst.items()):
        print(f"check {key}: residual {c.residual:.3e} tolerance "
              f"{c.tolerance:.3e} ({'ok' if c.ok else 'FAIL'})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "sgk" / "cli.py").is_file():
        print(f"no sgk package under {SRC}", file=sys.stderr)
        return 2

    scratch = RUNS / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, scratch)
        _check_package(runner.env, scratch)
        _time_import(runner.env, scratch)   # fills the bytecode cache
        plain, traced, imports = [], [], []
        start = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            if args.trace and len(traced) < len(plain):
                traced.append(runner.round(traced=True))
            else:
                if not args.trace:
                    imports.append(_time_import(runner.env, scratch))
                plain.append(runner.round(traced=False))
            now = time.perf_counter()
            longest = max(longest, now - t0)
            done = now - start >= args.seconds and (
                not args.trace or len(traced) == len(plain))
            if done or now - start + 2.0 * longest > RUN_LIMIT_S:
                break
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rounds = plain + traced
    report_checks(rounds)
    results = [r for rnd in rounds for r in rnd]
    failed = sum(_failed(r) for r in results)
    correct = not any(r["code"] == 0 and _failed(r) for r in results)
    if args.trace:
        if not traced:
            print("no traced round fitted in the run", file=sys.stderr)
            return 2
        metrics, repeat = per_layer(plain, traced)
        correct = correct and repeat
        if not repeat:
            print("call counts differ between traced rounds")
    else:
        metrics = end_to_end(plain, imports, runner.unit)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": len(results),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
