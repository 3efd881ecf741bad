"""Outside-in tracing of the martree package, from the benchmark's own files.

``Tracer.install`` wraps every public function and public method of each
``martree`` module, in every ``martree.*`` namespace where it is bound (a
``from .x import y`` copies the binding, so each copy is replaced).  Each
call records a span (name, start, end, parent) in flat arrays; layers are
the modules the functions are defined in.  Self time is a span's duration
minus the durations of its direct children.  A few hooks turn call
arguments and results into computed work counts, which repeat exactly for
the same inputs.
"""

from __future__ import annotations

import collections
import functools
import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "filtration",
    "norms",
    "spacew",
    "kappa",
    "riesz",
    "decomp",
    "dimension",
    "groupfourier",
    "trace",
    "fileio",
    "cli",
)
BENCH_LAYER = "bench"


def _tree_nodes(m: int, depth: int) -> int:
    """Nodes on levels 0..depth of the m-ary tree."""
    return (m ** (depth + 1) - 1) // (m - 1)


# Computed work counts: span name -> hook(counts, bound arguments, result).
HOOKS = {
    "decomp.classify_atoms": lambda c, a, r: c.update({"decomp.trees": len(r.trees)}),
    "kappa.rank_one_directions": lambda c, a, r: c.update(
        {"kappa.directions_found": len(r), "kappa.starts": a["n_starts"]}
    ),
    "filtration.evaluate": lambda c, a, r: c.update({"filtration.nodes": _tree_nodes(a["F"].spec.m, a["n"])}),
    "filtration.evaluate_all": lambda c, a, r: c.update(
        {"filtration.nodes": _tree_nodes(a["F"].spec.m, a["F"].spec.depth)}
    ),
    "dimension.frostman_certify": lambda c, a, r: c.update(
        {"dimension.dp_passes": a["lambda_grid_size"] * (a["mu"].spec.depth + 1)}
    ),
}
for _kind in ("measure", "martingale", "subspace", "fibers"):
    HOOKS[f"fileio.read_{_kind}"] = lambda c, a, r: c.update({"fileio.bytes_read": os.path.getsize(a["path"])})
    HOOKS[f"fileio.write_{_kind}"] = lambda c, a, r: c.update({"fileio.bytes_written": os.path.getsize(a["path"])})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: collections.Counter = collections.Counter()

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark itself (set-up or one step)."""
        idx = self._open(self._name_id(name, BENCH_LAYER))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counts, bound.arguments, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the package's public callables; returns how many were wrapped."""
        modules = [mod for key, mod in sys.modules.items() if key == "martree" or key.startswith("martree.")]
        wrappers: dict = {}
        classes: set = set()

        def wrapper_for(fn, qualname, layer):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, f"{layer}.{qualname}", layer)
            return wrappers[fn]

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                owner = getattr(value, "__module__", None) or ""
                if attr.startswith("_") or not owner.startswith("martree."):
                    continue
                layer = owner.split(".")[1]
                if inspect.isfunction(value):
                    setattr(mod, attr, wrapper_for(value, value.__qualname__, layer))
                elif inspect.isclass(value) and value not in classes:
                    classes.add(value)
                    for meth, raw in list(vars(value).items()):
                        if meth.startswith("_"):
                            continue
                        qualname = f"{value.__qualname__}.{meth}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            setattr(value, meth, type(raw)(wrapper_for(raw.__func__, qualname, layer)))
                        elif inspect.isfunction(raw):
                            setattr(value, meth, wrapper_for(raw, qualname, layer))
        return len(wrappers)

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per-name calls and inclusive seconds; per-layer calls and self seconds."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        calls = np.bincount(a["name_id"], minlength=n_names)
        inclusive = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        own_by_name = np.bincount(a["name_id"], weights=own, minlength=n_names)
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS + (BENCH_LAYER,)}
        for i, layer in enumerate(self.layers):
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls[i])
            entry["self_s"] += float(own_by_name[i])
        return {
            "spans": int(dur.size),
            "root_s": float(dur[~nested].sum()),
            "by_name": {
                name: {"calls": int(calls[i]), "s": float(inclusive[i]), "self_s": float(own_by_name[i])}
                for i, name in enumerate(self.names)
            },
            "by_layer": layers,
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layers), **self.arrays())


# Per-layer metrics of the traced run: name -> (unit, how it is computed).
def _s(name):
    return lambda summ, counts: summ["by_name"].get(name, {}).get("s", 0.0)


def _calls(name):
    return lambda summ, counts: summ["by_name"].get(name, {}).get("calls", 0)


def _count(key):
    return lambda summ, counts: counts.get(key, 0)


def _kept_ratio(summ, counts):
    starts = counts.get("kappa.starts", 0)
    return counts.get("kappa.directions_found", 0) / starts if starts else 0.0


PER_LAYER = {
    "decomp.classify_atoms.s": ("s", _s("decomp.classify_atoms")),
    "decomp.classify_atoms.calls": ("count", _calls("decomp.classify_atoms")),
    "decomp.verify_stepwise_identity.s": ("s", _s("decomp.verify_stepwise_identity")),
    "decomp.verify_convex_lemma.s": ("s", _s("decomp.verify_convex_lemma")),
    "decomp.verify_tree_summation.s": ("s", _s("decomp.verify_tree_summation")),
    "decomp.verify_flat_tree_growth.s": ("s", _s("decomp.verify_flat_tree_growth")),
    "decomp.trees": ("count", _count("decomp.trees")),
    "dimension.frostman_certify.s": ("s", _s("dimension.frostman_certify")),
    "dimension.build_sharpness_measure.s": ("s", _s("dimension.build_sharpness_measure")),
    "dimension.dp_passes": ("count", _count("dimension.dp_passes")),
    "spacew.SubspaceW.distance.calls": ("count", _calls("spacew.SubspaceW.distance")),
    "spacew.project.calls": ("count", _calls("spacew.project")),
    "spacew.check_first_condition.s": ("s", _s("spacew.check_first_condition")),
    "kappa.rank_one_directions.s": ("s", _s("kappa.rank_one_directions")),
    "kappa.kappa_of.calls": ("count", _calls("kappa.kappa_of")),
    "kappa.directions_kept_ratio": ("ratio", _kept_ratio),
    "filtration.evaluate.calls": ("count", _calls("filtration.evaluate")),
    "filtration.evaluate_all.calls": ("count", _calls("filtration.evaluate_all")),
    "filtration.nodes": ("count", _count("filtration.nodes")),
    "norms.lorentz_p1_from_distribution.calls": ("count", _calls("norms.lorentz_p1_from_distribution")),
    "riesz.main_inequality_experiment.s": ("s", _s("riesz.main_inequality_experiment")),
    "trace.trace_experiment_l1.s": ("s", _s("trace.trace_experiment_l1")),
    "trace.build_sharpness_trace_measure.s": ("s", _s("trace.build_sharpness_trace_measure")),
    "fileio.bytes_read": ("bytes", _count("fileio.bytes_read")),
    "fileio.bytes_written": ("bytes", _count("fileio.bytes_written")),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", lambda summ, counts, l=_layer: summ["by_layer"][l]["self_s"])
    PER_LAYER[f"{_layer}.calls"] = ("count", lambda summ, counts, l=_layer: summ["by_layer"][l]["calls"])
