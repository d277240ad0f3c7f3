"""Span and call-count tracing for the traced benchmark run.

Wrappers are installed from the benchmark's own files, around calls into
nearvec's public functions; nothing in the package changes.  Each module
function is replaced wherever it is bound: `cli` binds `ege`, `lc_index`
and the rest at import, the package re-exports them, and
`seeds.verify_seed` imports `ege` inside the function, so every nearvec
module whose attribute *is* the original function gets the wrapper.

Nearfield scalar operations are counted, not spanned, by wrapping the
bound methods on each instance that `build_nearfield` returns.  The
counters and the EGE step counts are installed only with
`install(counting=True)`, for a pass whose times are not used; only
calls from outside the nearfield count.

Spans record (name, start, end, parent) and stay in memory until the run
writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped with a span; the span is named
# "<module>.<function>" after the module's last dotted component
SPAN_TARGETS = (
    ("nearvec.nearfield", "build_nearfield"),
    ("nearvec.vectors", "matrix_parse"),
    ("nearvec.vectors", "matrix_format"),
    ("nearvec.ege", "ege"),
    ("nearvec.ege", "replay"),
    ("nearvec.ege", "trace_to_text"),
    ("nearvec.ege", "trace_from_text"),
    ("nearvec.seeds", "build_seed"),
    ("nearvec.seeds", "verify_seed"),
    ("nearvec.closure", "lc_index"),
    ("nearvec.closure", "lc_step"),
    ("nearvec.closure", "gen_closure"),
    ("nearvec.linmaps", "classify"),
    ("nearvec.linmaps", "linear_violation"),
    ("nearvec.linmaps", "is_normal"),
    ("nearvec.linmaps", "is_bijective"),
    ("nearvec.linmaps", "count_maps"),
    ("nearvec.counting", "enumerate_canonical"),
    ("nearvec.counting", "count_subgroup_orbits"),
    ("nearvec.cli", "main"),
)

COUNTED_METHODS = ("mul", "add", "sub", "inv")


class Tracer:
    """Records spans and counts while `on`; installs and restores wrappers."""

    def __init__(self):
        self.on = False
        self.spans: list = []        # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.calls: Counter = Counter()         # (method, field order) -> calls
        self.steps: Counter = Counter()         # EGE trace step kinds
        self._patched: list = []                # (namespace, attribute, original)
        self.fields: list = []                  # nearfield instances seen
        self.counting = False   # off: scalar methods stay unwrapped
        self._in_scalar = False  # inside a counted call, whose own calls are not counted

    # -- recording -------------------------------------------------------------

    def span(self, name, fn, args, kwargs):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            spans[idx] = (name, t0, t1, parent)

    def op(self, name, fn, *args):
        """Run one benchmark op under a root span."""
        if not self.on:
            return fn(*args)
        return self.span(name, fn, args, {})

    # -- installing ------------------------------------------------------------

    def install(self, counting):
        """Wrap the span targets, and with `counting` the scalar methods too."""
        self.counting = counting
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nearvec" or name.startswith("nearvec."))]
        for modname, fname in SPAN_TARGETS:
            orig = getattr(sys.modules[modname], fname, None)
            if orig is None:
                print(f"warning: {modname}.{fname} not found, not traced", file=sys.stderr)
                continue
            wrapper = self._wrap_function(f"{modname.rsplit('.', 1)[-1]}.{fname}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        for nf in self.fields:
            self._wrap_field(nf)

    def restore(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        for nf in self.fields:
            for meth in COUNTED_METHODS + ("find_witness",):
                nf.__dict__.pop(meth, None)

    def _wrap_function(self, name, orig):
        tracer = self
        if name == "nearfield.build_nearfield":
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return orig(*args, **kwargs)
                nf = tracer.span(name, orig, args, kwargs)
                if "find_witness" not in nf.__dict__:
                    if nf not in tracer.fields:
                        tracer.fields.append(nf)
                    tracer._wrap_field(nf)
                return nf
        elif name == "ege.ege":
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return orig(*args, **kwargs)
                result = tracer.span(name, orig, args, kwargs)
                if tracer.counting:
                    tracer.steps.update(st.kind for st in result.trace)
                return result
        else:
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return orig(*args, **kwargs)
                return tracer.span(name, orig, args, kwargs)
        wrapper.__wrapped__ = orig
        return wrapper

    def _wrap_field(self, nf):
        tracer = self
        calls = self.calls
        for meth in COUNTED_METHODS if self.counting else ():
            bound = getattr(type(nf), meth).__get__(nf)
            key = (meth, nf.order)

            def counter(*args, _bound=bound, _key=key):
                # only calls from outside the nearfield count: sub calls add
                # and inv checks itself with mul, through the same wrappers
                if not tracer.on or tracer._in_scalar:
                    return _bound(*args)
                calls[_key] += 1
                tracer._in_scalar = True
                try:
                    return _bound(*args)
                finally:
                    tracer._in_scalar = False
            setattr(nf, meth, counter)
        witness = type(nf).find_witness.__get__(nf)

        def find_witness():
            if not tracer.on:
                return witness()
            return tracer.span("nearfield.find_witness", witness, (), {})
        nf.find_witness = find_witness


def summarize(spans):
    """Per span name: inclusive time, self time, inclusive time of root
    spans, inclusive time of the calls an op made directly (parent is a
    root span), and call count."""
    child = defaultdict(float)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total = defaultdict(float)
    self_time = defaultdict(float)
    root = defaultdict(float)
    direct = defaultdict(float)
    count = Counter()
    for i, (name, t0, t1, parent) in enumerate(spans):
        total[name] += t1 - t0
        self_time[name] += t1 - t0 - child[i]
        if parent < 0:
            root[name] += t1 - t0
        elif spans[parent][3] < 0:
            direct[name] += t1 - t0
        count[name] += 1
    return {"total": total, "self": self_time, "root": root, "direct": direct, "count": count}
