"""The `sgk` process: its entry point and the modules each command loads.

`python -m sgk.cli` ends with os._exit after flushing its streams, so these
tests run it as a child process with stdout and stderr on pipes, where
Python buffers them in blocks, and compare it with main() in-process.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sgk.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python(*args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=cwd, timeout=120)


def files(out_dir: Path) -> dict:
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


ZEEMAN = {"kind": "zeeman", "b_field": {"kind": "uniform", "value": [0.0, 0.3, 1.0]}}
START = {"p": [0.1, 0.0, 0.0], "r": [0.0, 0.0, 0.0]}

CASES = {
    "ok": (0, {"scenario": ZEEMAN, "initial": START,
               "integrator": {"step": 1e-3, "t_end": 0.02}}),
    "config-error": (2, {"scenario": ZEEMAN, "initial": {"p": [0.1, 0.0, 0.0]},
                         "integrator": {"step": -1.0}, "extra": 1}),
    "degenerate-start": (3, {"scenario": {"kind": "zeeman",
                                          "b_field": {"kind": "uniform", "value": [0, 0, 0]}},
                             "initial": START}),
    # the ramp rate at t = 0 puts epsilon = 1.25 above the default bound
    "breach": (4, {"scenario": {"kind": "zeeman",
                                "b_field": {"kind": "linear", "f0": [0, 0, 1], "gt": [0, 0, 5]}},
                   "initial": START, "integrator": {"t_end": 0.5}}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_process_matches_main_in_process(case, tmp_path):
    code, config = CASES[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["run-scenario", "--config", str(cfg), "--out", str(tmp_path / "main")]) == code
    proc = python("-m", "sgk.cli", "run-scenario", "--config", str(cfg),
                  "--out", str(tmp_path / "process"), cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stdout == out.getvalue()
    assert proc.stderr == err.getvalue()
    if code:
        assert json.loads(proc.stderr.splitlines()[-1])["error"]
    if code in (0, 4):  # a summary line, and the (partial) trajectory
        assert json.loads(proc.stdout.splitlines()[-1])["format"] == "sgk.run.v1"
        assert files(tmp_path / "process") == files(tmp_path / "main") != {}


def test_import_sgk_loads_no_submodule(tmp_path):
    # a public name loads its own submodule (and what that imports) on first use
    proc = python("-c", "import json, sys, sgk\n"
                  "loaded = lambda: sorted(m for m in sys.modules if m.startswith('sgk.'))\n"
                  "before = loaded(); sgk.PhasePoint\n"
                  "print(json.dumps([before, loaded()]))", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], ["sgk.errors", "sgk.phase_space"]]


# the modules every command loads: the CLI, its config tables and the geometry
BASE = {"cli", "errors", "fields", "gauge", "models", "phase_space", "scenarios", "spectral"}

SCOPES = {
    "curvature-map": (BASE, {"scenario": ZEEMAN, "grid": {
        "axis_a": "p1", "axis_b": "r2", "a": [0.0, 0.1, 2], "b": [0.0, 0.1, 2]}}),
    "chern-charge": (BASE, {"source": {"kind": "zeeman"}, "nodes": [4, 8]}),
    "run-scenario": (BASE | {"dynamics"}, CASES["ok"][1]),
    "ensemble": (BASE | {"dynamics", "transport"}, {
        "scenario": {"kind": "rashba"}, "integrator": {"step": 0.01, "t_end": 0.02},
        "ensemble": {"count": 2, "p_center": [0.3, 0.0], "r_center": [0.0, 0.0]}}),
    "verify": (BASE | {"dynamics", "verify"}, {}),
}

LOADED = """
import json, sys
from sgk.cli import main
code = main(sys.argv[1:])
with open("modules.json", "w") as fh:
    json.dump([code, sorted(m[4:] for m in sys.modules if m.startswith("sgk."))], fh)
"""


@pytest.mark.parametrize("command", sorted(SCOPES))
def test_each_command_loads_only_what_it_runs(command, tmp_path):
    # a stray top-level import makes every call pay for a module it never runs
    modules, config = SCOPES[command]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    proc = python("-c", LOADED, command, "--config", str(cfg), "--out", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads((tmp_path / "modules.json").read_text())
    assert code == 0 and set(loaded) == modules
