"""Count-and-time shims for the traced run.

The shims live here, in the benchmark, not in fvn: they wrap the public
entry points of each layer for the duration of one traced pass.

* bitstream: the ``UniformSource`` methods, as instance attributes, so a
  sampler's ``src.next_uniform()`` and ``run_test``'s bound
  ``src.next_uniform`` both go through them.
* comparison: ``samplers.run_test``, the name the samplers call.
* tables: ``tables.select_interval``.
* samplers: the four comparison-method sampler functions.
* wallace: ``wallace.refresh`` and ``wallace.next_normal``.

Every shim opens a span on a stack.  A layer's self time is the span's
duration minus the spans opened inside it; its inclusive time counts only
the outermost span of that layer.  Counts are kept per owning sampler: the
source among the call's arguments tells whose work it is.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("bitstream", "comparison", "tables", "samplers", "wallace")
SOURCE_METHODS = ("next_word", "next_uniform", "geometric_index",
                  "random_sign", "recycle_pair")
SAMPLER_FUNCTIONS = ("exp_vn", "exp_brent", "normal_forsythe", "normal_grand")
ENTRY_POINTS = {
    "bitstream": SOURCE_METHODS,
    "comparison": ("run_test",),
    "tables": ("select_interval",),
    "samplers": SAMPLER_FUNCTIONS,
    "wallace": ("refresh", "next_normal"),
}


class Tracer:
    def __init__(self):
        self._stack: list[list] = []          # open spans: [layer, child_ns]
        self._owners: dict[int, str] = {}     # id(source) -> sampler kind
        self._depth = {layer: [0] for layer in LAYERS}   # open spans
        self.incl_ns = {layer: [0] for layer in LAYERS}  # outermost spans
        self.self_ns = {layer: [0] for layer in LAYERS}  # minus children
        self.counts = defaultdict(int)        # (owner, event) -> count

    def wrap(self, layer: str, name: str, fn, owner: str | None = None,
             before=None, after=None):
        """Return ``fn`` wrapped in a span of ``layer``.  The owner is
        ``owner`` or the source passed as the first or last argument.
        ``after(result, parent_span, owner, before())`` runs once the span
        has closed."""
        stack, counts, owners = self._stack, self.counts, self._owners
        depth, incl, self_ = (self._depth[layer], self.incl_ns[layer],
                              self.self_ns[layer])
        event = f"{layer}.{name}"
        fixed = (owner, event)
        clock = perf_counter_ns

        def shim(*args):
            key = fixed if owner is not None else (
                owners.get(id(args[-1])) or owners.get(id(args[0])), event)
            parent = stack[-1] if stack else None
            state = before() if before is not None else None
            span = [layer, 0]
            stack.append(span)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[0] -= 1
                if not depth[0]:
                    incl[0] += dt
                self_[0] += dt - span[1]
                if parent is not None:
                    parent[1] += dt
                counts[key] += 1
            if after is not None:
                after(result, parent, key[0], state)
            return result

        return shim

    def wrap_source(self, src, kind: str) -> None:
        """Put shims on one source's methods; ``kind`` owns its counts."""
        self._owners[id(src)] = kind
        counts = self.counts
        recycled, position = (kind, "bitstream.recycled"), (kind, "samplers.position")

        def draws():
            return src.draws

        # Split fresh from recycled values, and count positions: values a
        # sampler draws directly, outside the run test and the selection.
        def after_next_uniform(u, parent, who, draws_before):
            if src.draws == draws_before:
                counts[recycled] += 1
            if parent is not None and parent[0] == "samplers":
                counts[position] += 1

        for name in SOURCE_METHODS:
            hooks = ((draws, after_next_uniform) if name == "next_uniform"
                     else (None, None))
            setattr(src, name, self.wrap("bitstream", name, getattr(src, name),
                                         kind, *hooks))

    @contextmanager
    def installed(self):
        """Patch the module-level entry points; restore them on exit."""
        from fvn import samplers, tables, wallace

        counts = self.counts

        def after_run_test(result, parent, who, _):
            counts[who, "comparison.accepted"] += int(result.accepted)
            counts[who, "comparison.run_length"] += result.n

        patches = [(samplers, "run_test", "comparison", after_run_test),
                   (tables, "select_interval", "tables", None),
                   (wallace, "refresh", "wallace", None),
                   (wallace, "next_normal", "wallace", None)]
        patches += [(samplers, name, "samplers", None)
                    for name in SAMPLER_FUNCTIONS]
        saved = [(module, name, getattr(module, name))
                 for module, name, _, _ in patches]
        try:
            for module, name, layer, after in patches:
                setattr(module, name,
                        self.wrap(layer, name, getattr(module, name),
                                  after=after))
            yield self
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def total(self, event: str) -> int:
        return sum(n for (_, ev), n in self.counts.items() if ev == event)

    def layer_calls(self, layer: str) -> int:
        return sum(self.total(f"{layer}.{name}") for name in ENTRY_POINTS[layer])

    def metrics(self, variates: int) -> dict[str, float]:
        """Per-layer figures of the traced pass, per variate delivered."""
        calls_nu = self.total("bitstream.next_uniform")
        recycled = self.total("bitstream.recycled")
        runs = self.total("comparison.run_test")
        out = {
            "bitstream.fresh_per_variate": (calls_nu - recycled) / variates,
            "bitstream.recycled_share": recycled / calls_nu if calls_nu else 0.0,
            "comparison.run_tests_per_variate": runs / variates,
            "comparison.accept_share":
                self.total("comparison.accepted") / runs if runs else 0.0,
            "comparison.mean_run_length":
                self.total("comparison.run_length") / runs if runs else 0.0,
            "samplers.positions_per_variate":
                self.total("samplers.position") / variates,
            "wallace.passes_per_variate":
                self.total("wallace.refresh") / variates,
        }
        for layer in LAYERS:
            out[f"{layer}.calls_per_variate"] = self.layer_calls(layer) / variates
            out[f"{layer}.incl_ns_per_variate"] = self.incl_ns[layer][0] / variates
            out[f"{layer}.self_ns_per_variate"] = self.self_ns[layer][0] / variates
        return out

    def per_sampler(self, kind: str, variates: int, words: int) -> dict:
        """Counts per variate of one sampler's own source and calls."""
        row = {ev: n / variates for (who, ev), n in sorted(self.counts.items())
               if who == kind}
        row["engine_words"] = words / variates
        return row

