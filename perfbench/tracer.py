"""Outside-in span recorder for the gqla package.

The package is not edited. Instead, each listed public function is rebound,
in every loaded ``gqla`` module that binds it, to a thin wrapper that records
a span (name, start, end, parent) while recording is switched on. Rebinding
every binding, not only the defining one, is what makes internal calls such
as ``rope.apply_folded_rope`` -> ``rope.apply_rope`` or ``cli.cmd_verify`` ->
``model.forward_gqa_path`` show up as nested spans.

Spans stay in memory and are written out once, when the run ends. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Functions traced per module of src/gqla/ (the benchmark's layers).
TRACED = {
    "model": ("forward_gqa_path", "forward_absorb_path", "decode_gqa", "decode_absorb",
              "cache_compress", "cache_expand", "oracle_mha"),
    "rope": ("apply_rope", "apply_folded_rope"),
    "numerics": ("sym_eig", "accumulate", "pca_factor"),
    "convert_gqa": ("merge_heads", "rorope_align", "freqfold_compress",
                    "balance_and_joint_pca", "merged_forward", "merged_scores",
                    "forward_gqa_source", "convert"),
    "convert_mla": ("calibrate", "factor", "absorb_factors", "convert"),
    "sparse": ("stub_index_scores", "topk_select", "sparse_attention",
               "sparse_attention_absorbed", "masked_reference"),
    "io": ("write_checkpoint", "read_checkpoint"),
    "cli": ("cmd_convert", "cmd_verify", "cmd_sparse_check", "cmd_roofline"),
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Per-span quantities read from a call's arguments (and, for writes, the file
# the call produced).
_QUANTITIES = {
    "numerics.sym_eig": lambda a, k: np.shape(_arg(a, k, 0, "m"))[0],  # matrix order
    "io.write_checkpoint": lambda a, k: os.path.getsize(_arg(a, k, 0, "path")),  # bytes
    "io.read_checkpoint": lambda a, k: os.path.getsize(_arg(a, k, 0, "path")),  # bytes
    # k / L: selected positions over cached positions
    "sparse.sparse_attention": lambda a, k: (
        len(_arg(a, k, 4, "selected")) / len(_arg(a, k, 2, "cache"))),
    "sparse.sparse_attention_absorbed": lambda a, k: (
        len(_arg(a, k, 4, "selected")) / len(_arg(a, k, 2, "cache"))),
}


class Tracer:
    """Records spans of the traced functions while ``recording`` is on."""

    def __init__(self):
        self.names = []        # span name table; spans refer to it by index
        self._name_ids = {}
        self.spans = []        # [name_id, start_ns, end_ns, parent_index, quantity]
        self._stack = []
        self.recording = False
        self._bindings = []    # (module, attribute, original) to restore

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """Record one span around the block when recording is on; yields its record."""
        if not self.recording:
            yield None
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [self._name_id(name), 0, 0, parent, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        measure = _QUANTITIES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
            if measure is not None:
                record[4] = measure(args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a loaded gqla module binds it."""
        originals = {}
        for module_name, functions in TRACED.items():
            module = sys.modules[f"gqla.{module_name}"]
            for fn_name in functions:
                fn = getattr(module, fn_name)
                originals[id(fn)] = (fn, self._wrap(f"{module_name}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gqla" and not mod_name.startswith("gqla."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive ms, self ms and recorded quantities."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "quantities": []})
        for index, (name_id, start, end, _, quantity) in enumerate(self.spans):
            entry = stats[self.names[name_id]]
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[index]) / 1e6
            if quantity is not None:
                entry["quantities"].append(quantity)
        return dict(stats)

    def write(self, path: str) -> None:
        """Write every span as gzipped JSON: a name table and one row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_ns", "end_ns", "parent", "quantity"],
                       "spans": self.spans}, fh, separators=(",", ":"))

