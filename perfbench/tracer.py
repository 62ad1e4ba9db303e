"""Per-layer tracing from outside the package.

The tracer wraps the public functions of every package module, the
private `classify._rref` (it has its own per-layer count) and the ring
operations of `Polynomial`.  Each wrapped call is a span; a module is a
layer.  A span's self time is its duration minus the durations of its
direct child spans, which is the span tree's self time computed as the
calls return.  Time spent in calibration slices and in the tracer's own
bookkeeping hooks is removed from every open span, so spans measure only
program work.

Calls to the hot value-level functions (`Polynomial` methods, `bracket`,
`metric`, `apply`, the sampler, ...) are aggregated only; every other
span is also kept as a record (name, start, end, parent, run id) and
written out by the caller.  Methods of the value classes (`FrameVector`,
`Tensor02`, ...) are not wrapped: their time is part of the caller's self
time.
"""

import inspect
import time

# functions called tens of thousands of times per audit: counted and timed,
# but no span record is kept for them
_HOT = {
    "poly.mul", "poly.add", "poly.eval", "poly.substitute", "poly.parse",
    "poly.from_json", "liealg.bracket", "liealg.metric",
    "liealg.sample_constraint_point", "connection.apply", "connection.J",
    "connection.nabla_J", "classify._rref", "classify.expand_tokens",
}

_POLY_METHODS = (("mul", ("__mul__", "__rmul__")), ("add", ("__add__", "__radd__")),
                 ("eval", ("eval_at",)), ("substitute", ("substitute",)))


class Tracer:
    def __init__(self, gauge, run_id: int):
        self.gauge = gauge
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.stats = {}        # name -> [calls, inclusive s, self s]
        self.counts = {"eval_terms": 0, "sample_attempts": 0, "sample_accepted": 0}
        self.connections = set()
        self.systems = set()
        self.spans = []        # [name, start, end, parent index, run id]
        self._stack = []       # open frames: [child s, span index, name]
        self._hook_s = [0.0]   # time spent in hooks, removed like slices
        self._patches = []

    # -- install / uninstall -------------------------------------------

    def install(self, package_modules, polynomial_cls):
        """Wrap every public function of each module, in every module
        namespace that holds it, and the Polynomial ring operations."""
        hooks = {
            "connection.make_connection": self._on_connection,
            "classify.build_system": self._on_system,
            "classify.sample_necessity": self._on_sample,
        }
        for mod in package_modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr != "_rref":
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, hooks.get(name))
                for holder in package_modules:
                    for held, obj in list(vars(holder).items()):
                        if obj is fn:
                            self._patch(holder, held, wrapper)
        for short, attrs in _POLY_METHODS:
            fn = getattr(polynomial_cls, attrs[0])
            wrapper = self._wrap(f"poly.{short}", fn,
                                 self._on_eval if short == "eval" else None)
            for attr in attrs:
                self._patch(polynomial_cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, hook):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, gauge, hook_s = self._stack, self.spans, self.gauge, self._hook_s
        record = name not in _HOT
        clock = time.perf_counter
        counts = self.counts
        run_id = self.run_id
        t0 = self.t0
        is_sampler = name == "liealg.sample_constraint_point"

        def traced(*args, **kwargs):
            if is_sampler and stack and stack[-1][2] == "classify.sample_necessity":
                counts["sample_attempts"] += 1
            index = -1
            if record:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                index = len(spans)
                spans.append([name, clock() - t0, None, parent, run_id])
            frame = [0.0, index, name]
            stack.append(frame)
            excluded = gauge.total_s + hook_s[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start - (gauge.total_s + hook_s[0] - excluded)
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if record:
                    spans[index][2] = end - t0
            if hook is not None:
                h0 = clock()
                hook(args, kwargs, result)
                hook_s[0] += clock() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks: counts measured where the work happens ---------------------

    def _on_eval(self, args, kwargs, result):
        self.counts["eval_terms"] += len(args[0].terms)

    @staticmethod
    def _group_key(L):
        params = tuple(sorted(L.params.items())) if L.params else None
        return (L.family, L.eta, params)

    def _on_connection(self, args, kwargs, result):
        self.connections.add((self._group_key(args[0]), result.kind))

    def _on_system(self, args, kwargs, result):
        content = tuple(sorted((key, p.text()) for key, p in result.entries.items()))
        self.systems.add((self._group_key(args[0]), content))

    def _on_sample(self, args, kwargs, result):
        self.counts["sample_accepted"] += result.trials

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Raw counts and work seconds (not yet calibrated) per wrapped name."""
        return {
            "stats": {name: list(s) for name, s in sorted(self.stats.items()) if s[0]},
            "counts": dict(self.counts),
            "distinct_connections": len(self.connections),
            "distinct_systems": len(self.systems),
            "spans_kept": len(self.spans),
        }
