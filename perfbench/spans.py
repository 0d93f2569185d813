"""Span recorder that traces sphereframes' public functions from the outside.

The program is not edited: ``Tracer.install`` replaces each named function in
every ``sphereframes`` module namespace that holds it, so calls made through
``from .x import f`` and through ``module.f`` are both traced.  Spans stay in
memory as ``[name, parent, start, end]`` and are summarised per repetition.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# Functions recorded as spans, as "module.function" under sphereframes.
SPANNED = (
    "wavelet_spectra.build_beta_table",
    "wavelet_spectra.beta_numeric",
    "wavelet_spectra.degree_response_norms",
    "scale_grid.scale_grid_for_profile",
    "scale_grid.epsilon_report",
    "scale_grid.discrete_beta",
    "scale_grid.find_ratio",
    "rotation_grid.build_rotation_grid",
    "rotation_grid.rotation_matrix",
    "harmonics.build_sphere_grid",
    "harmonics.harmonic_basis",
    "harmonics.synthesize",
    "special_functions.gegenbauer_all",
    "transform.random_bandlimited",
    "transform.transform_energies",
    "transform.wavelet_analysis",
    "transform.energy_identity_oracle",
    "frame_verify.certify_frame",
    "cli.main",
)
# Called once per quadrature node, so only counted: a span each would cost
# more than the call itself.
COUNTED = ("wavelet_spectra.zonal_hat",)

# Grid objects seen in any traced call, by type name: metric and size.
_GRID_SIZES = {
    "ScaleGrid": ("scale_grid.scales", len),
    "RotationGrid": ("rotation_grid.rotations", len),
    "SphereGrid": ("harmonics.sphere_nodes", lambda g: g.size),
}
SIZE_METRICS = (
    "scale_grid.scales",
    "rotation_grid.rotations",
    "harmonics.sphere_nodes",
    "harmonics.basis_bytes",
    "transform.pairs",
    "transform.pairs_per_s",
    "frame_verify.trials",
    "cli.artifact_bytes",
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for qual in SPANNED:
        names += [f"{qual}.calls", f"{qual}.self_s"]
    names += [f"{qual}.calls" for qual in COUNTED]
    return names + list(SIZE_METRICS) + ["trace.overhead_s"]


def layer_unit(name: str) -> tuple[str, str]:
    """Unit and better direction of a per-layer metric."""
    if name.endswith("_bytes"):
        return "bytes", "lower"
    if name.endswith("per_s"):
        return "1/s", "higher"
    if name.endswith("_s"):
        return "s", "lower"
    return "count", "lower"


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, parent, t0, t1) in enumerate(spans):
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for i, (_, _, t0, t1) in enumerate(spans):
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children[i]):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((t1 - t0) - covered)
    return out


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(path)
        for f in files
    )


class Tracer:
    """Wraps functions once; records only while ``recording`` is true."""

    def __init__(self):
        self.recording = False
        # size metrics read from the arguments and results of these calls
        self._sizers = {
            "harmonics.harmonic_basis": self._basis_bytes,
            "transform.transform_energies": self._pairs,
            "transform.wavelet_analysis": self._pairs,
            "frame_verify.certify_frame": self._trials,
            "cli.main": self._artifact_bytes,
        }
        self._reset()

    def _reset(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.sizes = Counter()
        self.pair_seconds = 0.0
        self._grids = {}
        self._bases = {}

    def install(self):
        for qual in SPANNED:
            self._replace(qual, self._spanned)
        for qual in COUNTED:
            self._replace(qual, self._counted)

    def _replace(self, qual, make):
        module, name = qual.rsplit(".", 1)
        original = getattr(importlib.import_module(f"sphereframes.{module}"), name)
        wrapper = make(qual, original)
        for modname, mod in list(sys.modules.items()):
            if modname != "sphereframes" and not modname.startswith("sphereframes."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _counted(self, qual, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording:
                self.counts[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, qual, fn):
        sizer = self._sizers.get(qual)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            record = [qual, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            self._observe(args, kwargs.values(), (result,))
            if sizer is not None:
                sizer(signature.bind(*args, **kwargs).arguments, result, record)
            return result

        return wrapper

    def _observe(self, *groups):
        for group in groups:
            for value in group:
                if type(value).__name__ in _GRID_SIZES:
                    self._grids.setdefault(id(value), value)

    def _basis_bytes(self, arguments, result, record):
        self._bases.setdefault(id(result[1]), result[1])

    def _pairs(self, arguments, result, record):
        self.sizes["transform.pairs"] += (
            len(arguments["scales"])
            * len(arguments["rotations"])
            * arguments["sphere_grid"].size
        )
        self.pair_seconds += record[3] - record[2]

    def _trials(self, arguments, result, record):
        self.sizes["frame_verify.trials"] += arguments["trials"]

    def _artifact_bytes(self, arguments, result, record):
        argv = list(arguments.get("argv") or [])
        if "--out" in argv:
            self.sizes["cli.artifact_bytes"] += _dir_bytes(argv[argv.index("--out") + 1])

    def take(self) -> tuple[dict, list]:
        """Metrics of the spans recorded since the last call, and the spans."""
        metrics = {name: 0 for name in layer_metric_names() if name != "trace.overhead_s"}
        for (qual, *_), own in zip(self.spans, self_times(self.spans)):
            metrics[f"{qual}.calls"] += 1
            metrics[f"{qual}.self_s"] += own
        for qual, n in self.counts.items():
            metrics[f"{qual}.calls"] = n
        for grid in self._grids.values():
            name, size = _GRID_SIZES[type(grid).__name__]
            metrics[name] += size(grid)
        metrics["harmonics.basis_bytes"] = sum(b.nbytes for b in self._bases.values())
        metrics.update(self.sizes)
        if self.pair_seconds > 0:
            metrics["transform.pairs_per_s"] = self.sizes["transform.pairs"] / self.pair_seconds
        spans = self.spans
        self._reset()
        return metrics, spans
