"""Per-layer tracing from outside the library, by wrapping its functions.

``Tracer.install`` replaces every public function of the hydrohist modules
with a timing wrapper, in every module namespace that binds it, including
names bound by ``from ... import`` (so nested calls such as
``propagator -> phase_space.moments`` are seen).  Classes are never wrapped:
the library dispatches on ``isinstance``.  ``Tracer.uninstall`` restores the
originals.

Each wrapped call records one span (name, start, end, parent, task) in
memory.  ``layer_metrics`` turns the spans and the counters recorded by the
hooks into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict

import numpy as np

#: the layers, named after the hydrohist modules
LAYERS = ("cli", "scenarios", "propagator", "phase_space", "ensemble",
          "histories", "local_equilibrium")

DH_PATHS = ("pure", "mixed-fast", "mixed-dense", "diagonal-dephased",
            "branch-pair")

SCENARIOS = ("diffusion", "maxwellization", "oracle-compare",
             "variance-scaling", "local-equilibrium-peaking",
             "histories-nscaling", "conserved-decoherence", "ehrenfest")

#: functions whose busy time is reported as ``<layer>.<function>.s``
TIMED = {
    "propagator": ("evolve_fokker_planck", "evolve_master_equation",
                   "propagate_analytic"),
    "phase_space": ("wigner_to_density", "density_to_wigner", "l1_distance",
                    "position_marginal", "gaussian_wigner"),
    "ensemble": ("occupation_distribution", "relative_fluctuation",
                 "constitutive_residual"),
    "histories": ("occupation_family", "consistency_epsilon",
                  "check_dh_bound", "gaussian_quasi_projector",
                  "lift_one_body"),
    "local_equilibrium": ("local_equilibrium_peaking", "gibbs_tensor_power",
                          "one_particle_gibbs", "evolve_free",
                          "hydro_averages"),
    "scenarios": ("validate_config",),
}

#: functions whose call count is reported as ``<layer>.<function>.calls``
COUNTED = (("propagator", "step_fokker_planck"),
           ("propagator", "master_equation_rhs"),
           ("phase_space", "position_marginal"))


def _catalog():
    out = []
    for layer, names in TIMED.items():
        out += [(f"{layer}.{n}.s", "s") for n in names]
    out += [(f"{layer}.{n}.calls", "count") for layer, n in COUNTED]
    out += [
        ("propagator.fp_cell_updates", "cells_computed"),
        ("propagator.fp_cell_updates_per_s", "cells/s"),
        ("propagator.me_cell_updates", "cells_computed"),
        ("histories.d_entries", "entries_computed"),
        ("histories.d_nonzero_frac", "ratio"),
        ("histories.projector_bytes", "bytes_computed"),
        ("histories.projector_fill", "ratio"),
        ("local_equilibrium.local_equilibrium_peaking.self_s", "s"),
        ("scenarios.run_scenario.self_s", "s"),
        ("scenarios.artifact_bytes", "bytes"),
    ]
    for path in DH_PATHS:
        out += [(f"histories.decoherence_functional.{path}.s", "s"),
                (f"histories.decoherence_functional.{path}.calls", "count")]
    out += [(f"cli.main.{name}.s", "s") for name in SCENARIOS]
    for layer in LAYERS:
        out += [(f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s"),
                (f"{layer}.errors", "count")]
    out += [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
            ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


#: every per-layer metric: (name, unit), in report order
PER_LAYER = _catalog()


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_fp_step(tracer, args, kwargs, result):
    w = _first_arg(args, kwargs, "w")
    tracer.counters["propagator.fp_cell_updates"] += w.n_q * w.n_p


def _count_me_rhs(tracer, args, kwargs, result):
    rho = _first_arg(args, kwargs, "rho")
    tracer.counters["propagator.me_cell_updates"] += rho.n_x ** 2


def _count_decoherence(tracer, args, kwargs, result):
    c = tracer.counters
    c["histories.d_entries"] += len(result.labels) ** 2
    c["histories.d_nonzero"] += int(np.count_nonzero(np.abs(result.matrix) > 0))
    history = args[1] if len(args) > 1 else kwargs["history"]
    seen = {}
    for slot in history.slots:
        for family in slot:
            for _, op in family.members:
                seen[id(op)] = op
    for op in seen.values():
        c["histories.projector_bytes"] += op.nbytes
        c["histories.projector_nonzero"] += int(np.count_nonzero(op))
        c["histories.projector_elements"] += op.size


#: work counters recorded after a wrapped call returns (outside its span)
HOOKS = {
    "propagator.step_fokker_planck": _count_fp_step,
    "propagator.master_equation_rhs": _count_me_rhs,
    "histories.decoherence_functional": _count_decoherence,
}


class Tracer:
    """Spans and counters for calls into the wrapped hydrohist functions."""

    def __init__(self, modules: dict):
        #: layer name -> module object
        self.modules = modules
        #: [name, start, end, parent index, task index, path label]
        self.spans = []
        self.counters = defaultdict(float)
        self.task_index = -1
        self.task = None
        self._stack = []
        self._saved = []

    def install(self):
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                package, _, owner = (fn.__module__ or "").rpartition(".")
                if package != "hydrohist" or owner not in self.modules:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(owner, name, fn)
                self._saved.append((mod, name, fn))
                setattr(mod, name, wrappers[fn])

    def uninstall(self):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def _path_label(self, args, kwargs):
        path = self.task.dh_path if self.task is not None else None
        if callable(path):
            path = path(_first_arg(args, kwargs, "rho"))
        return path

    def _wrap(self, layer, name, fn):
        label = f"{layer}.{name}"
        hook = HOOKS.get(label)
        is_dh = label == "histories.decoherence_functional"
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            path = self._path_label(args, kwargs) if is_dh else None
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1,
                    self.task_index, path]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[f"{layer}.errors"] += 1
                raise
            finally:
                span[1], span[2] = start, time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced


def layer_metrics(spans, counters, tasks, passes, untraced_wall, traced_wall):
    """Per-pass per-layer metrics from the spans of ``passes`` traced passes.

    ``tasks`` is the workload's task list (span task indices point into it).
    A span's self time is its duration minus its children's; a layer's busy
    time sums its spans that have no ancestor in the same layer.
    """
    n = len(spans)
    child = np.zeros(n)
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    outer = [True] * n
    ancestors = [frozenset()] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            ancestors[i] = ancestors[parent] | {layer_of[parent]}
            outer[i] = layer_of[i] not in ancestors[i]

    fn_s = defaultdict(float)
    fn_self = defaultdict(float)
    fn_calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for i, (name, start, end, parent, task, path) in enumerate(spans):
        dur = end - start
        key = name
        if path is not None:
            key = f"{name}.{path}"
        elif name == "cli.main" and task >= 0:
            key = f"cli.main.{tasks[task].scenario}"
        fn_s[key] += dur
        fn_self[key] += dur - child[i]
        fn_calls[key] += 1
        self_s[layer_of[i]] += dur - child[i]
        if outer[i]:
            busy[layer_of[i]] += dur

    c = counters
    # totals over the traced passes, reported per pass
    totals = {}
    for layer, names in TIMED.items():
        for fname in names:
            totals[f"{layer}.{fname}.s"] = fn_s[f"{layer}.{fname}"]
    for layer, fname in COUNTED:
        totals[f"{layer}.{fname}.calls"] = fn_calls[f"{layer}.{fname}"]
    for name in ("propagator.fp_cell_updates", "propagator.me_cell_updates",
                 "histories.d_entries", "histories.projector_bytes",
                 "scenarios.artifact_bytes"):
        totals[name] = c[name]
    for name in ("local_equilibrium.local_equilibrium_peaking",
                 "scenarios.run_scenario"):
        totals[f"{name}.self_s"] = fn_self[name]
    for path in DH_PATHS:
        key = f"histories.decoherence_functional.{path}"
        totals[f"{key}.s"] = fn_s[key]
        totals[f"{key}.calls"] = fn_calls[key]
    for name in SCENARIOS:
        totals[f"cli.main.{name}.s"] = fn_s[f"cli.main.{name}"]
    for layer in LAYERS:
        totals[f"{layer}.busy_s"] = busy[layer]
        totals[f"{layer}.self_s"] = self_s[layer]
        totals[f"{layer}.errors"] = c[f"{layer}.errors"]
    totals["trace.spans"] = n
    values = {k: v / passes for k, v in totals.items()}

    def ratio(num, den):
        return num / den if den else 0.0

    values["propagator.fp_cell_updates_per_s"] = ratio(
        c["propagator.fp_cell_updates"], fn_s["propagator.step_fokker_planck"])
    values["histories.d_nonzero_frac"] = ratio(
        c["histories.d_nonzero"], c["histories.d_entries"])
    values["histories.projector_fill"] = ratio(
        c["histories.projector_nonzero"], c["histories.projector_elements"])
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER}
