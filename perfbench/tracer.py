"""Spans around the library's layer functions, recorded from outside.

`Tracer.install(pkg)` replaces each function named in `LAYERS` by a timing
wrapper in every loaded `affinefloer` module that binds it, so calls made
inside the library (`index_range` -> `fractional_points`, `ring_product` ->
`mu2`, `wrapped` -> `expand_in_qbasis`) are seen as well.  The library itself
is not changed.  A layer is a module; its self time is the time spent in its
wrapped functions minus the time of the wrapped calls they made.

Spans are kept in memory as tuples
`(span_id, name, start_ns, end_ns, parent_span_id, query_id)`; the parent of
a top-level layer call is the query span, whose own parent is -1.
"""

from __future__ import annotations

import sys
import time

LAYERS = {
    "affine": ("fractional_points", "count_points"),
    "floer": ("mu2", "critical_cover", "ring_product"),
    "polyring": ("q_monomial", "multiply", "expand_in_qbasis"),
    "homotopy": ("homotopy_count", "enumerate_admissible", "brute_force_admissible"),
    "tropical": ("tropical_structure_constant", "partition_constant"),
    "wrapped": ("wrapped_product", "laurent_product_in_qbasis"),
    "numchecks": ("syz_coordinates", "critical_points"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
QUERY = "bench"  # the layer that owns query spans: the benchmark's own checks
COUNTERS = (
    "floer.mu2.terms_out",
    "floer.ring_product.term_pairs",
    "polyring.expand_in_qbasis.cold_calls",
    "polyring.expand_in_qbasis.cold_s",
)


def _term_count(x) -> int:
    """Terms of a formal sum; a single basis vector counts as one."""
    return len(x.coeffs()) if hasattr(x, "coeffs") else 1


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter_ns
        self.names: list[str] = list(FUNCTIONS)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.busy_ns = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span_id, name_index, parent, start_ns, child_ns]
        self._next_id = 0
        self._query_id = -1
        self._cold_degrees: set[int] = set()

    # -- spans -------------------------------------------------------------

    def _open(self, index: int) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, index, parent, self.clock(), 0])
        self._next_id += 1

    def _close(self) -> int:
        end = self.clock()
        span_id, index, parent, start, child_ns = self._stack.pop()
        duration = end - start
        self.calls[index] += 1
        self.busy_ns[index] += duration
        self.self_ns[index] += duration - child_ns
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, index, start, end, parent, self._query_id))
        return duration

    def open_query(self, phase: str, query_id: int) -> None:
        name = f"query.{phase}"
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.busy_ns, self.self_ns):
                column.append(0)
        self._query_id = query_id
        self._open(self._index[name])

    def close_query(self) -> None:
        self._close()

    # -- wrappers ----------------------------------------------------------

    def _count_mu2(self, args, result, duration) -> None:
        self.counters["floer.mu2.terms_out"] += _term_count(result)

    def _count_ring_product(self, args, result, duration) -> None:
        pairs = _term_count(args[0]) * _term_count(args[1])
        self.counters["floer.ring_product.term_pairs"] += pairs

    def _count_expand(self, args, result, duration) -> None:
        degree = args[0].degree
        if degree not in self._cold_degrees:
            self._cold_degrees.add(degree)
            self.counters["polyring.expand_in_qbasis.cold_calls"] += 1
            self.counters["polyring.expand_in_qbasis.cold_s"] += duration / 1e9

    def _wrapper(self, name: str, fn):
        index = self._index[name]
        count = {
            "floer.mu2": self._count_mu2,
            "floer.ring_product": self._count_ring_product,
            "polyring.expand_in_qbasis": self._count_expand,
        }.get(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close()
            if count is not None:
                count(args, result, duration)
            return result

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def install(self, pkg) -> None:
        """Wrap every layer function of this freshly imported package."""
        wrappers = {}
        for name in FUNCTIONS:
            mod, fn = name.split(".")
            original = getattr(getattr(pkg, mod), fn)
            wrappers[id(original)] = (original, self._wrapper(name, original))
        prefix = pkg.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    # -- results -----------------------------------------------------------

    def metrics(self, sweep_s: float) -> dict[str, float]:
        """Per-function calls and busy time, work counters, and each layer's
        self time with its share of the traced sweep."""
        out: dict[str, float] = {}
        layer_self: dict[str, int] = dict.fromkeys([*LAYERS, QUERY], 0)
        for index, name in enumerate(self.names):
            if name.startswith("query."):
                layer_self[QUERY] += self.self_ns[index]
                continue
            out[f"{name}.calls"] = self.calls[index]
            out[f"{name}.busy_s"] = self.busy_ns[index] / 1e9
            layer_self[name.split(".")[0]] += self.self_ns[index]
        out.update(self.counters)
        for layer, ns in layer_self.items():
            out[f"{layer}.self_s"] = ns / 1e9
            out[f"{layer}.self_share"] = 100.0 * ns / 1e9 / sweep_s
        return out

    def span_records(self) -> list[dict]:
        return [
            {
                "id": span_id,
                "name": self.names[index],
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
                "query": query_id,
            }
            for span_id, index, start, end, parent, query_id in sorted(self.spans)
        ]
