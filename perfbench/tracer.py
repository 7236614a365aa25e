"""Span tracing of calls into squidcavity's modules, from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper wherever the original is bound, because ``dynamics``,
``model``, ``optimize``, ``cli`` and the package itself import these names
by value.  A call opens a span only when it enters a module from outside
it, so a layer's self time is the time spent in that layer and not in the
layers it calls.  Spans (name, start, end, parent, item) stay in memory
until ``write``.
"""

import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "optimize", "dynamics", "linalg", "model", "measurement", "_kernels")

SPECTRUM_CALLS = ("dynamics.evolve", "dynamics.sector_modes", "dynamics.trace")


def layer_of(module_name):
    """Metric prefix of a module: ``squidcavity._kernels`` -> ``kernels``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _scan_work(args, kwargs, result):
    """Samples a scan evaluates, and the bytes its arrays occupy (computed
    from array sizes: inputs read plus outputs written)."""
    w, lam, times = args
    return len(times), w.nbytes + lam.nbytes + times.nbytes + sum(r.nbytes for r in result)


def _sweep_work(args, kwargs, result):
    """Cells of a sweep; the span also counts cells x thresholds as solves."""
    cells = len(result[0].g_values) * len(result[0].gprime_values)
    return cells, cells * len(result)


# Span name -> function of (args, kwargs, result) giving (work, extra)
# counts recorded on the span.
WORK = {"kernels.scan_probs": _scan_work, "optimize.sweep": _sweep_work}


class Tracer:
    """Spans in parallel lists, one entry per span.  The caller sets
    ``item`` to the id of the item being run; spans record it."""

    def __init__(self):
        self.item = 0
        self.names = []
        self._name_ids = {}
        self.name_id = []
        self.layer_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.item_id = []
        self.work = []
        self.extra = []
        self._stack = []
        self._patched = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        work_of = WORK.get(name)
        stack = self._stack
        layers = self.layer_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and layers[stack[-1]] == layer:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            layers.append(layer)
            self.parent.append(stack[-1] if stack else -1)
            self.item_id.append(self.item)
            self.end.append(0.0)
            self.work.append(0)
            self.extra.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if work_of is not None:
                self.work[idx], self.extra[idx] = work_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, package):
        """Wrap the public functions of every layer module of ``package``."""
        prefix = package.__name__
        wrappers = {}
        for short in LAYERS:
            mod = sys.modules[f"{prefix}.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer_of(mod.__name__)}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -------------------------------------------------------------- results

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        selft = list(dur)
        for i, par in enumerate(self.parent):
            if par >= 0:
                selft[par] -= dur[i]
        return selft

    def summary(self, n_items, wall_s, overhead_ratio):
        """Per-layer metrics, counts and times per traced item.  ``wall_s``
        is the traced wall time and ``overhead_ratio`` traced / untraced
        time, both measured by the caller."""
        names = [self.names[i] for i in self.name_id]
        selft = self.self_times()
        calls = Counter(names)
        fn_self = defaultdict(float)
        layer_self = defaultdict(float)
        layer_calls = Counter()
        for name, layer, st in zip(names, self.layer_id, selft):
            fn_self[name] += st
            layer_self[layer] += st
            layer_calls[layer] += 1

        # Ancestry flags: a parent always precedes its children in the lists.
        under_opt = [False] * len(names)
        under_dyn = [False] * len(names)
        for i, par in enumerate(self.parent):
            if par >= 0:
                under_opt[i] = under_opt[par] or self.layer_id[par] == "optimize"
                under_dyn[i] = under_dyn[par] or self.layer_id[par] == "dynamics"
        scan_opt = [i for i, n in enumerate(names) if n == "kernels.scan_probs" and under_opt[i]]
        samples = sum(self.work[i] for i, n in enumerate(names) if n == "kernels.scan_probs")
        scan_bytes = sum(self.extra[i] for i, n in enumerate(names) if n == "kernels.scan_probs")
        sweep_cells = sum(self.work[i] for i, n in enumerate(names) if n == "optimize.sweep")
        solves = calls["optimize.find_t0"] + sum(
            self.extra[i] for i, n in enumerate(names) if n == "optimize.sweep"
        )
        eig_in_dyn = sum(1 for i, n in enumerate(names) if n == "linalg.hermitian_eig" and under_dyn[i])
        spectrum_calls = sum(calls[n] for n in SPECTRUM_CALLS)
        per = 1.0 / max(n_items, 1)
        scan_self = fn_self["kernels.scan_probs"]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "kernels.scan_probs.calls": calls["kernels.scan_probs"] * per,
            "kernels.scan_probs.samples": samples * per,
            "kernels.scan_probs.self_s": scan_self * per,
            "kernels.scan_probs.samples_per_s": ratio(samples, scan_self),
            "kernels.scan_probs.computed_bytes": scan_bytes * per,
            "kernels.jacobi_cyclic.calls": calls["kernels.jacobi_cyclic"] * per,
            "kernels.jacobi_cyclic.self_s": fn_self["kernels.jacobi_cyclic"] * per,
            "linalg.hermitian_eig.calls": calls["linalg.hermitian_eig"] * per,
            "linalg.self_s": layer_self["linalg"] * per,
            "linalg.propagator.calls": calls["linalg.propagator"] * per,
            "optimize.find_t0.calls": calls["optimize.find_t0"] * per,
            "optimize.sweep.cells": sweep_cells * per,
            "optimize.self_s": layer_self["optimize"] * per,
            "optimize.kernel_calls_per_solve": ratio(len(scan_opt), solves),
            "optimize.samples_per_solve": ratio(sum(self.work[i] for i in scan_opt), solves),
            "dynamics.sector_modes.calls": calls["dynamics.sector_modes"] * per,
            "dynamics.trace.calls": calls["dynamics.trace"] * per,
            "dynamics.evolve.calls": calls["dynamics.evolve"] * per,
            "dynamics.self_s": layer_self["dynamics"] * per,
            "dynamics.eig_reuse_ratio": 1.0 - ratio(eig_in_dyn, spectrum_calls) if spectrum_calls else 0.0,
            "cli.main.calls": calls["cli.main"] * per,
            "cli.main.self_s": fn_self["cli.main"] * per,
            "model.calls": layer_calls["model"] * per,
            "model.self_s": layer_self["model"] * per,
            "measurement.calls": layer_calls["measurement"] * per,
            "measurement.self_s": layer_self["measurement"] * per,
            "trace.overhead_ratio": overhead_ratio,
            "trace.coverage": ratio(sum(selft), wall_s),
        }

    def write(self, path, meta):
        """Write all spans, gzip-compressed JSON, with ``meta`` alongside."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        doc = {
            **meta,
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "item"],
            "spans": [
                [n, round(s - t0, 9), round(e - t0, 9), p, it]
                for n, s, e, p, it in zip(self.name_id, self.start, self.end, self.parent, self.item_id)
            ],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
