"""Spans around calls into tensorcat's layers, recorded from outside the program.

``install`` wraps each public function named in ``TARGETS`` and rebinds every
module attribute that refers to it, so names imported with ``from .x import f``
are traced too.  A target that no longer exists is skipped: it records
nothing and does not fail, so the benchmark keeps running after a refactor.

Spans are kept in memory (name, parent, start, end, per-call counts) and
summarised or written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

PACKAGE = "tensorcat"


def _size(value) -> int:
    return len(value.terms) if hasattr(value, "terms") else len(value)


# (module, attribute, span name, counts(owner, args, kwargs, result) or None)
# Attributes "Class.method" patch the class.  All public plethysm functions
# share one span name, so they report as one layer.
TARGETS = (
    ("diagrams", "partitions", "diagrams.partitions", lambda o, a, k, r: (len(r),)),
    ("symfunc", "lr_coefficient", "symfunc.lr_coefficient", lambda o, a, k, r: (1 if r else 0,)),
    ("symfunc", "schur_term_product", "symfunc.schur_term_product", lambda o, a, k, r: (_size(r),)),
    ("symfunc", "set_disk_cache", "cli.cache_load", lambda o, a, k, r: (len(getattr(o, "_memo", ())),)),
    ("plethysm", "cauchy_sym", "plethysm", None),
    ("plethysm", "cauchy_ext", "plethysm", None),
    ("plethysm", "power_of_sym2", "plethysm", None),
    ("plethysm", "power_of_ext2", "plethysm", None),
    ("plethysm", "even_partitions", "plethysm", None),
    ("plethysm", "special_partitions", "plethysm", None),
    ("grothendieck", "tensor_decomposition", "grothendieck.tensor_decomposition",
     lambda o, a, k, r: (_size(a[0]), _size(r))),
    ("grothendieck", "tensor_simple", "grothendieck.tensor_simple", None),
    ("grothendieck", "decompose_j", "grothendieck.decompose_j", lambda o, a, k, r: (_size(r),)),
    ("poset", "chains", "poset.chains", lambda o, a, k, r: (len(r),)),
    ("ext", "kernel_layer", "ext.kernel_layer", None),
    ("ext", "image_layer", "ext.image_layer", None),
    ("ext", "euler_shadow", "ext.euler_shadow", None),
    ("ext", "thick_target_socle", "ext.thick_target_socle", None),
    ("ext", "ext_to_thick", "ext.ext_to_thick", None),
    ("linalg", "rank_of_rows", "linalg.rank_of_rows", lambda o, a, k, r: (len(a[0]), len(a[1]), r)),
    ("oracle", "composite_orbit_rank", "oracle.composite_orbit_rank", None),
    ("oracle", "contract_orbit_rank", "oracle.contract_orbit_rank", None),
    ("symalg", "GroupAlgebraElement.__mul__", "symalg.ga_mul",
     lambda o, a, k, r: (len(a[0].coeffs) * len(a[1].coeffs),)),
    ("symalg", "quadratic_kernel_check", "symalg.quadratic_kernel_check", None),
    ("symalg", "corner_algebra_dimension", "symalg.corner_algebra_dimension", None),
    ("symalg", "young_symmetrizer", "symalg.young_symmetrizer", None),
    ("cli", "resolve_config", "cli.config", None),
    ("cli", "execute", "cli.execute", None),
    ("cli", "main", "cli.main", None),
)

LAYER_MODULES = tuple(dict.fromkeys(module for module, _, _, _ in TARGETS))

# per-layer metric -> (span name, statistic); see Trace.stats and finalize
METRICS = {
    "grothendieck.tensor_decomposition.calls": ("grothendieck.tensor_decomposition", "calls"),
    "grothendieck.tensor_decomposition.busy_s": ("grothendieck.tensor_decomposition", "busy"),
    "grothendieck.tensor_decomposition.self_s": ("grothendieck.tensor_decomposition", "self"),
    "grothendieck.tensor_decomposition.terms_in": ("grothendieck.tensor_decomposition", "c0"),
    "grothendieck.tensor_decomposition.terms_out": ("grothendieck.tensor_decomposition", "c1"),
    "grothendieck.tensor_simple.calls": ("grothendieck.tensor_simple", "calls"),
    "grothendieck.tensor_simple.busy_s": ("grothendieck.tensor_simple", "busy"),
    "grothendieck.decompose_j.calls": ("grothendieck.decompose_j", "calls"),
    "grothendieck.decompose_j.busy_s": ("grothendieck.decompose_j", "busy"),
    "grothendieck.decompose_j.factors_out": ("grothendieck.decompose_j", "c0"),
    "symfunc.lr_coefficient.calls": ("symfunc.lr_coefficient", "calls"),
    "symfunc.lr_coefficient.busy_s": ("symfunc.lr_coefficient", "busy"),
    "symfunc.lr_coefficient.nonzero_ratio": ("symfunc.lr_coefficient", "c0/calls"),
    "symfunc.schur_term_product.calls": ("symfunc.schur_term_product", "calls"),
    "symfunc.schur_term_product.busy_s": ("symfunc.schur_term_product", "busy"),
    "symfunc.schur_term_product.terms_out": ("symfunc.schur_term_product", "c0"),
    "diagrams.partitions.calls": ("diagrams.partitions", "calls"),
    "diagrams.partitions.busy_s": ("diagrams.partitions", "busy"),
    "diagrams.partitions.items": ("diagrams.partitions", "c0"),
    "ext.kernel_layer.calls": ("ext.kernel_layer", "calls"),
    "ext.kernel_layer.busy_s": ("ext.kernel_layer", "busy"),
    "ext.image_layer.calls": ("ext.image_layer", "calls"),
    "ext.image_layer.busy_s": ("ext.image_layer", "busy"),
    "ext.euler_shadow.calls": ("ext.euler_shadow", "calls"),
    "ext.euler_shadow.busy_s": ("ext.euler_shadow", "busy"),
    "ext.thick_target_socle.calls": ("ext.thick_target_socle", "calls"),
    "ext.thick_target_socle.busy_s": ("ext.thick_target_socle", "busy"),
    "ext.ext_to_thick.calls": ("ext.ext_to_thick", "calls"),
    "ext.ext_to_thick.busy_s": ("ext.ext_to_thick", "busy"),
    "plethysm.calls": ("plethysm", "calls"),
    "plethysm.busy_s": ("plethysm", "busy"),
    "linalg.rank_of_rows.calls": ("linalg.rank_of_rows", "calls"),
    "linalg.rank_of_rows.busy_s": ("linalg.rank_of_rows", "busy"),
    "linalg.rank_of_rows.cells": ("linalg.rank_of_rows", "c0*c1"),
    "linalg.rank_of_rows.rank_ratio": ("linalg.rank_of_rows", "c2/c0"),
    "linalg.rank_of_rows.max_rows": ("linalg.rank_of_rows", "max0"),
    "oracle.composite_orbit_rank.calls": ("oracle.composite_orbit_rank", "calls"),
    "oracle.composite_orbit_rank.busy_s": ("oracle.composite_orbit_rank", "busy"),
    "oracle.contract_orbit_rank.calls": ("oracle.contract_orbit_rank", "calls"),
    "oracle.contract_orbit_rank.busy_s": ("oracle.contract_orbit_rank", "busy"),
    "symalg.ga_mul.calls": ("symalg.ga_mul", "calls"),
    "symalg.ga_mul.busy_s": ("symalg.ga_mul", "busy"),
    "symalg.ga_mul.pairs": ("symalg.ga_mul", "c0"),
    "symalg.quadratic_kernel_check.calls": ("symalg.quadratic_kernel_check", "calls"),
    "symalg.quadratic_kernel_check.busy_s": ("symalg.quadratic_kernel_check", "busy"),
    "symalg.corner_algebra_dimension.calls": ("symalg.corner_algebra_dimension", "calls"),
    "symalg.corner_algebra_dimension.busy_s": ("symalg.corner_algebra_dimension", "busy"),
    "symalg.young_symmetrizer.calls": ("symalg.young_symmetrizer", "calls"),
    "symalg.young_symmetrizer.busy_s": ("symalg.young_symmetrizer", "busy"),
    "poset.chains.calls": ("poset.chains", "calls"),
    "poset.chains.busy_s": ("poset.chains", "busy"),
    "poset.chains.chains_out": ("poset.chains", "c0"),
    "cli.config.busy_s": ("cli.config", "busy"),
    "cli.execute.busy_s": ("cli.execute", "busy"),
    "cli.main.busy_s": ("cli.main", "busy"),
    "cli.cache_load.busy_s": ("cli.cache_load", "busy"),
    "cli.interpreter_ms": ("cli.process", "interpreter_ms"),
    "cli.import_ms": ("cli.process", "import_ms"),
    "symfunc.memo.new_entries": ("symfunc.memo", "new_entries"),
    "symfunc.memo.entries": ("symfunc.memo", "entries"),
    "symfunc.disk.records": ("symfunc.disk", "records"),
    "symfunc.disk.bytes": ("symfunc.disk", "bytes"),
}


class Trace:
    """In-memory span store; wrappers record only while ``enabled`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = bytearray()  # 1 when no enclosing span has the same name
        self.counts: list = []
        self._active: list[int] = []
        self._current = -1
        self.enabled = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str, counts=None, owner=None):
        nid = self.name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.name_of)
            parent = self._current
            self.name_of.append(nid)
            self.parent.append(parent)
            self.outer.append(0 if self._active[nid] else 1)
            self.counts.append(None)
            self.end.append(0.0)
            self._active[nid] += 1
            self._current = idx
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._active[nid] -= 1
                self._current = parent
            if counts is not None:
                self.counts[idx] = counts(owner, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def stats(self) -> dict:
        """Additive per-name totals: calls, busy, self, summed and max counts."""
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.name_of[i]], {"calls": 0, "busy": 0.0, "self": 0.0})
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["self"] += duration - child[i]
            if self.outer[i]:
                entry["busy"] += duration
            counts = self.counts[i]
            if counts:
                for j, value in enumerate(counts):
                    entry[f"c{j}"] = entry.get(f"c{j}", 0) + value
                    entry[f"max{j}"] = max(entry.get(f"max{j}", 0), value)
                if len(counts) > 1:
                    entry["c0*c1"] = entry.get("c0*c1", 0) + counts[0] * counts[1]
        return out

    def dump(self, path, process: int = 0) -> None:
        """Append spans to a gzipped TSV.

        Columns: process, span id, op (the root span, one per benchmark op),
        parent, name, start, end (perf_counter seconds) and the span's counts.
        """
        root = array("i", [0]) * len(self.name_of)
        with gzip.open(path, "at", compresslevel=1) as out:
            for i in range(len(self.name_of)):
                p = self.parent[i]
                root[i] = i if p < 0 else root[p]
                counts = ",".join(map(str, self.counts[i] or ()))
                out.write(
                    f"{process}\t{i}\t{root[i]}\t{p}\t{self.names[self.name_of[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{counts}\n"
                )


def merge(totals: dict, other: dict) -> dict:
    """Add the stats of one process to running totals (max fields take the max)."""
    for name, entry in other.items():
        into = totals.setdefault(name, {})
        for key, value in entry.items():
            if key.startswith("max"):
                into[key] = max(into.get(key, 0), value)
            else:
                into[key] = into.get(key, 0) + value
    return totals


def finalize(totals: dict) -> dict[str, float]:
    """Per-layer metric values from merged stats; absent spans read as 0."""
    out = {}
    for metric, (name, stat) in METRICS.items():
        entry = totals.get(name, {})
        if "/" in stat:
            num, den = stat.split("/")
            out[metric] = entry.get(num, 0) / entry[den] if entry.get(den) else 0.0
        else:
            out[metric] = entry.get(stat, 0)
    return out


def load_layers(package: str = PACKAGE) -> dict:
    return {name: importlib.import_module(f"{package}.{name}") for name in LAYER_MODULES}


def install(trace: Trace, package: str = PACKAGE) -> list[tuple]:
    """Wrap every target and rebind each module attribute that refers to it.

    Returns (holder, attribute, original) triples for ``uninstall``.
    """
    modules = load_layers(package)
    loaded = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
    patched = []
    for module_name, attr, name, counts in TARGETS:
        owner = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = cls.__dict__.get(method) if cls is not None else None
            if original is None:
                continue
            setattr(cls, method, trace.wrap(original, name, counts, owner))
            patched.append((cls, method, original))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapped = trace.wrap(original, name, counts, owner)
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    patched.append((module, key, original))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for holder, attr, original in reversed(patched):
        setattr(holder, attr, original)
