"""Span recorder that wraps the package's public functions from outside.

``Recorder.install`` replaces each listed function in every
``twinfringes`` module namespace that binds it, because callers reach a
function through their own module's globals: ``cli`` calls
``render_pattern`` through the name it imported from ``analytics``, so
wrapping only the defining module would miss those calls.

A spanned function records (request, span id, parent id, name, start,
end); its self time is its duration minus the time covered by its child
spans. Functions that take only a few microseconds per call are counted
but not timed, since a span would cost about as much as the call.
Aggregates cover every call; the raw spans are kept in memory up to a
cap and written out once the run ends.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs timed with spans.
SPANNED = [
    ("cli", "main"),
    ("fileio", "parse_config"),
    ("fileio", "write_manifest"),
    ("fileio", "write_pgm"),
    ("fileio", "write_profile_csv"),
    ("special", "integrate_radial"),
    ("analytics", "counting_rate_partial_quadrature"),
    ("analytics", "render_pattern"),
    ("analytics", "radial_profile"),
    ("analytics", "visibility_closed_form"),
    ("analytics", "visibility_hwhm"),
    ("oracle", "counting_rate_reduced"),
    ("oracle", "sweep_visibility"),
    ("oracle", "visibility_scan"),
    ("state", "assemble_state"),
    ("state", "build_amplitudes"),
    ("inverse", "estimate_sigma_theta"),
    ("inverse", "estimate_sigma_theta_bisect"),
    ("inverse", "estimate_equivalent_wavelength"),
]

# (module, function) pairs counted only: each call is a few microseconds.
COUNTED = [
    ("special", "faddeeva"),
    ("config", "derive_constants"),
    ("config", "validate_config"),
    ("analytics", "central_visibility"),
]

# Output files whose size is recorded, by the index of the path argument.
_BYTES_ARG = {"fileio.write_pgm": 1, "fileio.write_profile_csv": 1}

SPAN_CAP = 100_000


class Recorder:
    """Aggregated and raw spans of the requests run while enabled."""

    def __init__(self):
        self.enabled = False
        self.request = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.bytes = defaultdict(int)
        self.amplitude_entries = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every listed function wherever a twinfringes module binds it."""
        wrappers = {}
        for mod_name, fn_name in SPANNED + COUNTED:
            original = getattr(sys.modules[f"twinfringes.{mod_name}"], fn_name)
            label = f"{mod_name}.{fn_name}"
            spanned = (mod_name, fn_name) in SPANNED
            wrappers[id(original)] = (original, self._span(label, original) if spanned
                                      else self._count(label, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "twinfringes" and not mod_name.startswith("twinfringes."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _count(self, label, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            if self.enabled:
                calls[label] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span(self, label, fn):
        byte_arg = _BYTES_ARG.get(label)
        is_build = label == "state.build_amplitudes"

        def spanned(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                self.calls[label] += 1
                self.self_s[label] += duration - frame[1]
                if not ok:
                    self.failed[label] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.request, span_id, parent, label, t0, t1))
                else:
                    self.dropped += 1
                if ok and byte_arg is not None:
                    self.bytes[label] += os.path.getsize(args[byte_arg])
                if ok and is_build:
                    self.amplitude_entries += result.amplitudes.size

        spanned.__wrapped__ = fn
        return spanned

    # -- output -------------------------------------------------------
    def write(self, path) -> None:
        """Write the aggregates and the raw spans as JSON lines."""
        with open(path, "w", encoding="ascii") as fh:
            head = {
                "fields": ["request", "span", "parent", "name", "start_s", "end_s"],
                "kept": len(self.spans),
                "dropped": self.dropped,
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "failed": dict(self.failed),
            }
            fh.write(json.dumps(head) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
