"""Span recorder that wraps qrflab's public functions from outside.

``Tracer.install`` replaces each target in every qrflab namespace that bound
it (``from .vnalg import commutant`` gives ``modular``, ``crossed`` and
``cli`` their own names), wraps methods on their class, and wraps a class's
``__init__`` for a class target. Each call records a span: name, start,
end, parent span and input shapes. A span's self time is its duration minus
the time its child spans cover; a function that is not wrapped counts
towards the span that called it.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

MODULES = (
    "opcore", "vnalg", "symmetry", "frames", "relativise",
    "crossed", "modular", "typecond", "scheme", "cli",
)

# Functions whose calls and self time are reported one by one.
REPORTED = {
    "opcore": ("hermitian_eig",),
    "vnalg": (
        "generate_algebra", "commutant", "centre", "span_intersection", "decompose",
        "span_distance",
    ),
    "symmetry": ("fixed_point_rows", "average_over_group", "tensor_rep", "FiniteRep"),
    "frames": ("covariant_dilate", "naimark_dilate", "phase_povm"),
    "relativise": ("GroupAction", "relativize", "expected_relative_outcome", "localization_defect"),
    "crossed": (
        "build_crossed_product", "verify_commutation_theorem", "invariant_joint_algebra",
        "verify_frame_compression", "compress_by_frame",
    ),
    "modular": (
        "gns_doubling", "modular_data", "ModularData.flow_defect",
        "ModularData.conjugation_defect", "kms_check",
    ),
    "typecond": ("evaluate_condition", "so3_partition_multiplicity"),
    "scheme": ("equivariance_defect",),
    "cli": ("build_context", "run_scenario"),
}

# Entry points the workloads or the CLI call that are not reported one by
# one. They are wrapped too, so that their time counts towards their module
# instead of towards the caller.
ACCOUNTED = {
    "cli": ("main",),
    "symmetry": ("fixed_point_algebra",),
    "modular": ("ModularData.vector_invariance_defect",),
    "typecond": ("desitter_condition", "trace_of_band", "kms_weight_on_step"),
}


def _commutant_mb(args) -> float:
    alg = args[0]
    return alg.dim * alg.ambient_dim**4 * 16 / 1.0e6


def _superop_mb(args) -> float:
    return args[0].dim**4 * 16 / 1.0e6


# Sizes computed from the inputs, not measured: the stacked Kronecker
# system of ``commutant`` and the D^2 x D^2 averaging superoperator.
COMPUTED = {
    "vnalg.commutant": ("vnalg.commutant.system_mb", _commutant_mb),
    "symmetry.fixed_point_rows": ("symmetry.fixed_point_rows.superop_mb", _superop_mb),
}


def _shape(x):
    if isinstance(x, np.ndarray):
        return list(x.shape)
    rows = getattr(x, "rows", None)
    if isinstance(rows, np.ndarray):
        return list(rows.shape)
    if hasattr(x, "unitaries"):
        return [len(x.unitaries), x.dim]
    if isinstance(x, (list, tuple)):
        return [len(x)]
    return None


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, shapes, child time, computed MB]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # Spans of the last pass that take_pass closed, for the trace file.
        self.last: list[dict] = []

    def _wrap(self, name: str, fn, skip_self: bool = False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        computed = COMPUTED.get(name, (None, None))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            shown = args[1:] if skip_self else args
            rec = [name, 0.0, 0.0, parent, [_shape(a) for a in shown], 0.0,
                   computed(args) if computed else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += rec[2] - rec[1]

        return wrapper

    def install(self) -> None:
        import qrflab

        mods = {m: importlib.import_module(f"qrflab.{m}") for m in MODULES}
        namespaces = [qrflab, *mods.values()]
        for table in (REPORTED, ACCOUNTED):
            for mod, names in table.items():
                for qual in names:
                    self._install_one(mods[mod], f"{mod}.{qual}", qual, namespaces)

    def _install_one(self, module, name: str, qual: str, namespaces) -> None:
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
            return
        orig = getattr(module, qual)
        if isinstance(orig, type):
            orig.__init__ = self._wrap(name, orig.__init__, skip_self=True)
            return
        wrapped = self._wrap(name, orig)
        for ns in namespaces:
            for attr in [a for a, v in vars(ns).items() if v is orig]:
                setattr(ns, attr, wrapped)

    def take_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call."""
        out: dict[str, float] = {}
        for mod in MODULES:
            out[f"{mod}.self_ms"] = 0.0
            for qual in REPORTED.get(mod, ()):
                out[f"{mod}.{qual}.calls"] = 0
                out[f"{mod}.{qual}.self_ms"] = 0.0
        for metric, _ in COMPUTED.values():
            out[metric] = 0.0
        for name, start, end, _, _, child, mb in self.spans:
            self_ms = (end - start - child) * 1000.0
            out[f"{name.split('.')[0]}.self_ms"] += self_ms
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_ms"] += self_ms
            if mb is not None:
                metric = COMPUTED[name][0]
                out[metric] = max(out[metric], mb)
        self.last = [
            {"name": n, "start": s, "end": e, "parent": p, "shapes": sh}
            for n, s, e, p, sh, _, _ in self.spans
        ]
        self.spans.clear()
        return out
