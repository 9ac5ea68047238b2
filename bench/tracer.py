"""Run one `sgk` command in this process with a span around each traced function.

    python bench/tracer.py SPANS_FILE <sgk arguments...>

The package is imported from PYTHONPATH as usual. Before `sgk.cli.main`
runs, every function below is replaced, at every module attribute that
holds it, by a wrapper that records one span per call: name, start, end,
parent span and thread. Spans stay in per-thread memory buffers and are
written to SPANS_FILE (numpy .npz) when the command returns. Nothing
inside the package is changed on disk.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

# (module, attribute, span name). "Class.method" patches the class.
FUNCTIONS = (
    ("models", "SplitForm.h1_vector", "models.h1_vector"),
    ("models", "HamiltonianModel.band_energy", "models.band_energy"),
    ("models", "HamiltonianModel.evaluate", "models.evaluate"),
    ("dynamics", "band_gradients", "dynamics.band_gradients"),
    ("dynamics", "adiabaticity_epsilon", "dynamics.adiabaticity_epsilon"),
    ("dynamics", "velocity_field", "dynamics.velocity_field"),
    ("dynamics", "integrate", "dynamics.integrate"),
    ("gauge", "curvature_m_space", "gauge.curvature_m_space"),
    ("gauge", "exact_connection", "gauge.exact_connection"),
    ("gauge", "adiabatic_curvature_numeric", "gauge.adiabatic_curvature_numeric"),
    ("gauge", "chern_charge", "gauge.chern_charge"),
    ("spectral", "diagonalize", "spectral.diagonalize"),
    ("spectral", "aligned_frame", "spectral.aligned_frame"),
    ("transport", "run_ensemble", "transport.run_ensemble"),
    ("cli", "main", "cli.main"),
)
FIELD_VALUE = "fields.value"
PROVIDER = "scenarios.curvature_provider"


class _Buffer:
    """Spans finished on one thread, in columns."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack = []
        self.ids = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")


class Tracer:
    def __init__(self):
        self.names = []
        self.buffers = []
        self._local = threading.local()
        self._next_id = itertools.count()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(len(self.buffers))
            self._local.buf = buf
            self.buffers.append(buf)
        return buf

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        clock = time.perf_counter
        next_id = self._next_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            sid = next(next_id)
            parent = buf.stack[-1] if buf.stack else -1
            buf.stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                buf.stack.pop()
                buf.ids.append(sid)
                buf.names.append(code)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.parents.append(parent)

        return traced

    def save(self, path: str) -> None:
        import numpy as np
        cols = {"id": [], "name": [], "start": [], "end": [], "parent": [],
                "thread": []}
        for buf in self.buffers:
            n = len(buf.ids)
            cols["id"].append(np.frombuffer(buf.ids, dtype=np.int64))
            cols["name"].append(np.frombuffer(buf.names, dtype=np.uint16))
            cols["start"].append(np.frombuffer(buf.starts, dtype=np.float64))
            cols["end"].append(np.frombuffer(buf.ends, dtype=np.float64))
            cols["parent"].append(np.frombuffer(buf.parents, dtype=np.int64))
            cols["thread"].append(np.full(n, buf.thread, dtype=np.int32))
        arrays = {k: np.concatenate(v) if v else np.zeros(0)
                  for k, v in cols.items()}
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), **arrays)


def install(tracer: Tracer) -> None:
    """Wrap FUNCTIONS at every sgk module attribute bound to them."""
    import importlib
    import sgk.cli  # noqa: F401  (loads every submodule the CLI uses)
    from sgk import fields, scenarios

    modules = [m for k, m in sys.modules.items()
               if k == "sgk" or k.startswith("sgk.")]
    for mod_name, attr, span in FUNCTIONS:
        mod = importlib.import_module(f"sgk.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth)))
            continue
        original = getattr(mod, attr)
        wrapped = tracer.wrap(span, original)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapped)
    for cls in vars(fields).values():
        if (isinstance(cls, type) and issubclass(cls, fields.VectorField)
                and "value" in vars(cls)):
            cls.value = tracer.wrap(FIELD_VALUE, vars(cls)["value"])
    make_provider = scenarios.RashbaScenario.curvature_provider

    @functools.wraps(make_provider)
    def curvature_provider(self):
        return tracer.wrap(PROVIDER, make_provider(self))

    scenarios.RashbaScenario.curvature_provider = curvature_provider


def main(argv) -> int:
    spans_path, sgk_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import sgk.cli
    try:
        return sgk.cli.main(sgk_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
