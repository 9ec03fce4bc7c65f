"""Per-layer spans for one ``pmcode`` command, recorded from outside the package.

Run as a script, this file stands in for ``python -m pmcode.cli``::

    PERFBENCH_SPANS=spans.json PERFBENCH_LAUNCH=<time.time() at spawn> \
        python3 perfbench/tracing.py encode --descriptor ... --data ... --out-dir ...

Before calling ``pmcode.cli.main`` it wraps the public functions and public
methods of each layer module (:data:`LAYERS`) and rebinds every name that an
``from ... import`` copied into another ``pmcode`` module (for example
``pmcode.cli.apply_rows_bulk``) or into a module-level dict (the builders in
``pmcode.cli._BUILDERS``).  ``pmcode.field`` is not wrapped: its calls are
too fine for a wrapper, so their cost shows inside the ``linalg`` spans.

Spans stay in memory and are written to ``$PERFBENCH_SPANS`` as JSON when the
command ends.  :func:`op_metrics` turns one such dump into the per-layer
numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "construct", "core", "linalg", "systematic", "analysis")

_MIB = float(1 << 20)


class Tracer:
    """Wraps functions so each call records ``[name id, start, end, parent span]``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kernel_calls: list[dict] = []
        self.read_bytes = 0
        self.write_bytes = 0
        self._repair_matrices: list = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- counters taken at the same boundaries as the spans ------------------

    def _observer(self, name: str):
        if name == "analysis.apply_rows_bulk":
            return self._on_kernel
        if name == "cli.read_shard":
            return self._on_read
        if name == "cli.write_shard":
            return self._on_write
        if name.endswith(".repair_matrix"):
            return self._on_repair_matrix
        return None

    def _on_kernel(self, args, kwargs, result):
        _, mat, data = args[:3]
        skip_zeros = kwargs.get("skip_zeros", args[3] if len(args) > 3 else True)
        entries = [x for row in mat.data for x in row]
        self.kernel_calls.append(
            {
                "terms": sum(1 for x in entries if x) if skip_zeros else len(entries),
                "unit_terms": sum(1 for x in entries if x == 1),
                "rows_in": int(data.shape[0]),
                "stripes": int(data.shape[1]),
                "repair": any(mat is m for m in self._repair_matrices),
            }
        )

    def _on_read(self, args, kwargs, result):
        self.read_bytes += os.path.getsize(args[0])

    def _on_write(self, args, kwargs, result):
        self.write_bytes += os.path.getsize(args[0])

    def _on_repair_matrix(self, args, kwargs, result):
        self._repair_matrices.append(result)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "kernel_calls": self.kernel_calls,
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
        }


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(val, (staticmethod, classmethod)):
            setattr(cls, attr, type(val)(tracer.wrap(name, val.__func__)))
        elif inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(name, val))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and methods, then rebind copies."""
    wrapped: dict[int, object] = {}  # id(original) -> wrapper, which keeps the original alive
    for layer in LAYERS:
        mod = importlib.import_module(f"pmcode.{layer}")
        for attr, val in list(vars(mod).items()):
            if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(val):
                wrapped[id(val)] = tracer.wrap(f"{layer}.{attr}", val)
            elif inspect.isclass(val):
                _wrap_class(tracer, layer, val)
    for modname, mod in list(sys.modules.items()):
        if modname != "pmcode" and not modname.startswith("pmcode."):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped:
                setattr(mod, attr, wrapped[id(val)])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if id(item) in wrapped:
                        val[key] = wrapped[id(item)]


# ---------------------------------------------------------------------------
# turning one command's dump into per-layer metrics
# ---------------------------------------------------------------------------

def _outermost_seconds(names, spans, match) -> tuple[float, int]:
    """Total duration and count of matching spans not nested in another match."""
    inside = [False] * len(spans)
    total, calls = 0.0, 0
    for i, (nid, start, end, parent) in enumerate(spans):
        hit = match(names[nid])
        if hit:
            calls += 1
        enclosed = parent >= 0 and (inside[parent] or match(names[spans[parent][0]]))
        inside[i] = enclosed
        if hit and not enclosed:
            total += end - start
    return total, calls


def _self_seconds(names, spans, match) -> float:
    """Summed self time (duration minus child spans) of the matching spans."""
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return sum(
        (end - start) - child[i]
        for i, (nid, start, end, parent) in enumerate(spans)
        if match(names[nid])
    )


def op_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command, keyed ``<layer>.<metric>``."""
    names, spans = dump["names"], dump["spans"]

    def seconds(match):
        return _outermost_seconds(names, spans, match)[0]

    def exact(target):
        return lambda n: n == target

    rank_s, rank_calls = _outermost_seconds(names, spans, exact("linalg.Matrix.rank"))
    inverse_s, inverse_calls = _outermost_seconds(names, spans, exact("linalg.Matrix.inverse"))
    kernel_s = seconds(exact("analysis.apply_rows_bulk"))
    calls = dump["kernel_calls"]
    mib_terms = sum(c["terms"] * c["stripes"] for c in calls) / _MIB
    repair_rows = [c["rows_in"] for c in calls if c["repair"]]
    return {
        "cli.code_from_descriptor_s": seconds(exact("cli.code_from_descriptor")),
        "construct.build_s": seconds(lambda n: n.startswith("construct.build_")),
        "core.validate_properties_s": seconds(exact("core.validate_properties")),
        "linalg.rank_calls": rank_calls,
        "linalg.rank_s": rank_s,
        "systematic.remap_generic_s": seconds(exact("systematic.remap_generic")),
        "analysis.apply_rows_bulk_s": kernel_s,
        "analysis.kernel_terms": sum(c["terms"] for c in calls),
        "analysis.kernel_unit_terms": sum(c["unit_terms"] for c in calls),
        "analysis.kernel_ms_per_mib_term": kernel_s * 1e3 / mib_terms if mib_terms else 0.0,
        "analysis.kernel_rows_in": sum(c["rows_in"] for c in calls),
        "cli.read_shard_s": seconds(exact("cli.read_shard")),
        "cli.read_shard_mib": dump["read_bytes"] / _MIB,
        "cli.write_shard_s": seconds(exact("cli.write_shard")),
        "cli.write_shard_mib": dump["write_bytes"] / _MIB,
        "cli.load_descriptor_s": seconds(exact("cli.load_descriptor")),
        "cli.self_s": _self_seconds(names, spans, lambda n: n.startswith("cli.")),
        "linalg.inverse_calls": inverse_calls,
        "linalg.inverse_s": inverse_s,
        "proc.startup_s": dump["startup_s"],
        "repair.helper_symbols_per_stripe": sum(repair_rows),
    }


def main(argv: list[str]) -> int:
    launched = float(os.environ["PERFBENCH_LAUNCH"])
    out_path = os.environ["PERFBENCH_SPANS"]
    import pmcode.cli

    # interpreter start and imports, before the wrapping, which is not the program's
    startup_s = time.time() - launched
    tracer = Tracer()
    install(tracer)
    try:
        return pmcode.cli.main(argv)
    finally:
        dump = tracer.dump()
        dump["startup_s"] = startup_s
        with open(out_path, "w") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
