"""Thread-safe span recorder and the wrappers that time lrchain's layers.

A span is one call into a layer.  Each thread keeps its own stack of open
spans, so a span's parent is the innermost span open on the same thread;
spans opened by pool workers are roots on their own threads.  A span's self
time is its duration minus the durations of its direct children, so nested
calls are never counted twice and the self times of one thread's spans add
up to the durations of its root spans.

Layers are timed from outside the library: `install` replaces each public
function with a timing wrapper in every lrchain module that binds it (the
attribute the caller looks up), and replaces the traced methods on their
classes.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

# span name -> (defining module, attribute).  The function is wrapped in every
# lrchain module that binds it under that attribute name.
FUNCTIONS = {
    "operators.operator_norm": ("operators", "operator_norm"),
    "operators.commutator": ("operators", "commutator"),
    "operators.embed_local": ("operators", "embed_local"),
    "operators.hermitian_spectral": ("operators", "hermitian_spectral"),
    "operators.local_commutator_epsilon": ("operators", "local_commutator_epsilon"),
    "operators.conditional_expectation": ("operators", "conditional_expectation"),
    "model.build_perturbed_hamiltonian": ("model", "build_perturbed_hamiltonian"),
    "model.build_other": [
        ("model", "build_nn_hamiltonian"),
        ("model", "perturbation_operator"),
        ("model", "build_decoupled_hamiltonian"),
        ("model", "decoupled_split"),
        ("model", "offdiagonal_block"),
    ],
    "model.load_model": ("model", "load_model"),
    "disorder.sample_couplings": ("disorder", "sample_couplings"),
    "disorder.realization": ("disorder", "_run_realization"),
    "bounds.evaluate": [
        ("bounds", "apriori_bound"),
        ("bounds", "main_bound"),
        ("bounds", "uniform_impurity_bound"),
        ("bounds", "single_impurity_bound"),
    ],
    "serialize.render": [("serialize", "render_csv"), ("serialize", "render_json")],
    "harness.write_report": ("harness", "write_report"),
}

# span name -> (module, class, attribute) for methods and classmethods
METHODS = {
    "dynamics.EvolutionContext.init": ("dynamics", "EvolutionContext", "__init__"),
    "dynamics.EvolutionContext.evolve": ("dynamics", "EvolutionContext", "evolve"),
    "dynamics.DecoupledDynamics.init": ("dynamics", "DecoupledDynamics", "__init__"),
    "dynamics.DecoupledDynamics.interpolant": ("dynamics", "DecoupledDynamics", "interpolant"),
    "dynamics.DecoupledDynamics.interpolant_derivative": (
        "dynamics", "DecoupledDynamics", "interpolant_derivative"),
    "dynamics.DecoupledDynamics.interpolant_derivative_fd": (
        "dynamics", "DecoupledDynamics", "interpolant_derivative_fd"),
    "bounds.LRParameters.compute": ("bounds", "LRParameters", "compute"),
    "harness.config_load": [
        ("harness", "ExperimentConfig", "from_json"),
        ("disorder", "DisorderConfig", "from_json"),
    ],
}

MODULES = ("operators", "model", "dynamics", "bounds", "disorder", "harness", "serialize")

# spans whose returned text is counted in bytes
BYTE_COUNTED = {"serialize.render"}


class SpanRecorder:
    """Aggregates calls, total and self time per span name, across threads."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stats = {}
        self._counters = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> None:
        # frame: [name, start, time covered by direct children]
        self._stack().append([name, self._clock(), 0.0])

    def close(self) -> None:
        end = self._clock()
        stack = self._stack()
        name, start, covered = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            entry = self._stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def wrap(self, fn, name: str):
        count_bytes = name in BYTE_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if count_bytes:
                self.count(name + ".bytes", len(out.encode()))
            return out

        return traced

    def snapshot(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} plus counters, copied under the lock."""
        with self._lock:
            out = {
                name: {"calls": c, "total_s": tot, "self_s": own}
                for name, (c, tot, own) in self._stats.items()
            }
            out["counters"] = dict(self._counters)
        return out


class _Span:
    __slots__ = ("_rec", "_name")

    def __init__(self, rec: SpanRecorder, name: str):
        self._rec = rec
        self._name = name

    def __enter__(self):
        self._rec.open(self._name)
        return self

    def __exit__(self, *exc):
        self._rec.close()
        return False


def _as_list(spec) -> list:
    return spec if isinstance(spec, list) else [spec]


def install(rec: SpanRecorder) -> list:
    """Wrap every traced lrchain layer; returns the undo list for `uninstall`."""
    mods = {name: importlib.import_module(f"lrchain.{name}") for name in MODULES}
    undo = []
    for span_name, specs in FUNCTIONS.items():
        for mod_name, attr in _as_list(specs):
            original = getattr(mods[mod_name], attr)
            wrapped = rec.wrap(original, span_name)
            for mod in mods.values():
                if mod.__dict__.get(attr) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
    for span_name, specs in METHODS.items():
        for mod_name, cls_name, attr in _as_list(specs):
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(rec.wrap(original.__func__, span_name))
            else:
                wrapped = rec.wrap(original, span_name)
            undo.append((cls, attr, original))
            setattr(cls, attr, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
