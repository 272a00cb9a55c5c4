"""In-memory span tracer around the public functions of specquad.

The program carries no tracing of its own.  ``instrument`` replaces the
traced functions of an imported specquad with timing wrappers, in every
module namespace that holds them, and returns a function that puts the
originals back.  A span records its name, start, end, parent span and op
id; spans stay in memory until ``write`` dumps them at the end of a run.

Self time is a span's duration minus the time its child spans cover.  A
call to a traced function directly inside a span of the same name is folded
into that span (``interior_residual`` calling ``op_norm`` is one
``operators.norm`` call), so call counts count entries into a layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

# span name of each traced function, by defining module of specquad;
# "Class.method" entries are patched on the class
SPAN_NAMES = {
    "operators": {
        "TruncatedOperator.__matmul__": "operators.matmul",
        "op_norm": "operators.norm",
        "interior_residual": "operators.norm",
        "antilinear_conjugate": "operators.antilinear",
        "AntilinearOperator.apply": "operators.antilinear",
        "AntilinearOperator.compose": "operators.antilinear",
        "AntilinearOperator.squared": "operators.antilinear",
        "AntilinearOperator.after": "operators.antilinear",
        "AntilinearOperator.before": "operators.antilinear",
    },
    "quadruple": {
        # the charge-conjugation checks multiply by C through this private
        # helper rather than through AntilinearOperator
        "_antilinear_intertwine_residual": "operators.antilinear",
        "check_time_vector": "quadruple.time_vector",
        "check_volume_element": "quadruple.volume",
        "check_symmetric_conditions": "quadruple.symmetric",
        "check_charge_conjugation": "quadruple.charge_conjugation",
        "check_first_order": "quadruple.first_order",
        "check_orientability": "quadruple.orientability",
        "check_spatial_triple": "quadruple.spatial_triple",
        "check_noncommutativity": "quadruple.noncommutativity",
        "verify_quadruple": "quadruple.verify",
    },
    "desitter": {"assemble_quadruple": "desitter.assemble"},
    "reconstruct": {
        "commutator_expansion": "reconstruct.expansion",
        "third_order_coefficient": "reconstruct.third_order",
        "extract_mass_scale": "reconstruct.mass_scale",
        "extract_adm": "reconstruct.adm",
        "massless_degeneracy_check": "reconstruct.massless",
    },
    "finite": {
        "connes_distance": "finite.distance",
        "validate_finite_triple": "finite.validate",
        "build_finite_triple": "finite.build",
    },
    "cli": {"run": "cli.run"},
}

# modules whose every public module-level function is one span name
WHOLE_MODULES = ("sl2", "geometry", "spinfields")

# span names reported as <name>.calls and as <name>.self_s
CALLS = ("operators.matmul", "operators.norm", "operators.antilinear",
         "desitter.assemble", "reconstruct.expansion", "finite.distance", "cli.run")
SELF = ("operators.matmul", "operators.norm", "operators.antilinear",
        "desitter.assemble",
        "quadruple.time_vector", "quadruple.volume", "quadruple.symmetric",
        "quadruple.charge_conjugation", "quadruple.first_order",
        "quadruple.orientability", "quadruple.spatial_triple",
        "quadruple.noncommutativity", "quadruple.verify",
        "reconstruct.expansion", "reconstruct.third_order", "reconstruct.mass_scale",
        "reconstruct.adm", "reconstruct.massless",
        "finite.distance", "finite.validate", "finite.build",
        "sl2", "geometry", "spinfields", "cli.run")


class Tracer:
    """Span store plus the counters the hooks fill in."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self._open: list[int] = []
        self.op = -1
        self.dim_max = 0
        self.checks = 0
        self.headroom_max = 0.0
        self.report_bytes = 0

    def next_op(self):
        self.op += 1

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self, batches: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced batch (maxima and medians over all)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        distance = []
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[k]
            if name == "finite.distance":
                distance.append(end - start)
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = (calls.get(name, 0) / batches, "count")
        for name in SELF:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0) / batches, "s")
        out["operators.dim_max"] = (float(self.dim_max), "count")
        out["quadruple.checks.count"] = (self.checks / batches, "count")
        out["quadruple.headroom_max"] = (self.headroom_max, "ratio")
        out["finite.distance.p50_s"] = (
            statistics.median(distance) if distance else 0.0, "s")
        out["cli.report_bytes"] = (self.report_bytes / batches, "bytes")
        out["trace.spans"] = (len(self.spans) / batches, "count")
        return out

    def write(self, path: str, header: dict):
        """One JSON header line, then one line per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


# -- hooks: counters read at the layer boundary --------------------------------

def _record_dim(tracer: Tracer, args, out):
    basis = getattr(args[0], "basis", None)
    dim = basis.dim if basis is not None else len(args[0])
    tracer.dim_max = max(tracer.dim_max, dim)


def _record_report(tracer: Tracer, args, report):
    for check in report:
        tracer.checks += 1
        if check.tolerance > 0.0:
            tracer.headroom_max = max(tracer.headroom_max,
                                      check.residual / check.tolerance)


def _record_report_bytes(tracer: Tracer, args, out):
    argv = list(args[0]) if args else []
    for flag in ("-o", "--output"):
        if flag in argv[:-1]:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                tracer.report_bytes += os.path.getsize(path)


HOOKS = {
    "operators.matmul": _record_dim,
    "operators.norm": _record_dim,
    "operators.antilinear": _record_dim,
    "quadruple.verify": _record_report,
    "cli.run": _record_report_bytes,
}


# -- instrumentation --------------------------------------------------------------

def _targets(package: str):
    """(owner object, attribute, span name) of every traced callable."""
    out = []
    for mod_name, table in SPAN_NAMES.items():
        mod = sys.modules[f"{package}.{mod_name}"]
        for attr, span in table.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                out.append((getattr(mod, cls_name), meth, span))
            else:
                out.append((mod, attr, span))
    for mod_name in WHOLE_MODULES:
        mod = sys.modules[f"{package}.{mod_name}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out.append((mod, attr, mod_name))
    return out


def instrument(tracer: Tracer, package: str = "specquad"):
    """Wrap every traced callable wherever the package's modules hold it.

    A function imported into several modules is wrapped in each of them.
    Returns a function that restores the originals.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    saved = []
    for owner, attr, span in _targets(package):
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span, original, HOOKS.get(span))
        if inspect.isclass(owner):
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    saved.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
