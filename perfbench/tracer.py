"""Spans and counters around the layers of cuspedzeta, from outside it.

`install()` wraps the public functions of every cuspedzeta module, the
public methods and arithmetic operators of the classes they define, and
`scipy.integrate.quad`.  Each wrapper is bound wherever callers look
the name up: the defining module, every module that imported the name,
and the class.  Predicates (`is_*`) and alternate constructors (class
and static methods) are left alone: they run about a million times a
round and each costs less than a wrapper.  A layer is one module; its self time is the time spent in
its wrapped calls minus the time of the wrapped calls made from them.

Every wrapped call is counted and timed.  A call that enters a layer
from another one is also kept as a span (name, start, end, parent
span), in memory, and `write_spans` writes the spans out when the run
ends; arithmetic operators are not kept as spans, as they run hundreds
of thousands of times a round.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import pkgutil
import time
import warnings
from array import array

ARITH = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__neg__", "__matmul__", "__mod__"})


# work counters read from a call's arguments or result:
# qualified name -> (counter, function of (args, result))
WORK = {
    "spectrum.enumerate_classes": ("spectrum.classes_kept", lambda a, r: len(r.classes)),
    "spectrum.load_spectrum": ("spectrum.rows_loaded", lambda a, r: len(r.classes)),
    "ruelle.euler_product": ("ruelle.class_terms", lambda a, r: r.terms_used),
    "ruelle.log_euler_product": ("ruelle.class_terms", lambda a, r: r.terms_used),
    "ruelle.y_series": ("ruelle.class_terms", lambda a, r: r.terms_used),
    "ruelle.s_log": ("ruelle.class_terms", lambda a, r: len(a[0].classes)),
    "ruelle.hyperbolic_heat": ("ruelle.class_terms", lambda a, r: len(a[0].classes)),
    "ruelle.counting_constant": ("ruelle.class_terms", lambda a, r: len(a[0].classes)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.records = array("q")   # 4 per span: name id, start, end, parent
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.entries: dict[str, int] = {}  # calls into a layer from another one
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []       # [layer, child ns, span index]

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name: str, layer: str, spans: bool = True):
        nid = len(self.names)
        self.names.append(name)
        for d in (self.calls, self.total_ns):
            d.setdefault(name, 0)
        self.self_ns.setdefault(layer, 0)
        self.entries.setdefault(layer, 0)
        calls, total_ns, self_ns, entries = (self.calls, self.total_ns,
                                             self.self_ns, self.entries)
        records, stack, clock = self.records, self._stack, time.perf_counter_ns
        work = WORK.get(name)
        tracer = self

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[0] != layer
            if boundary:
                entries[layer] += 1
            up = parent[2] if parent else -1
            store = spans and boundary
            t0 = clock()
            if store:
                idx = len(records) // 4
                records.extend((nid, t0, 0, up))
            else:
                idx = up
            frame = [layer, 0, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if store:
                    records[4 * idx + 2] = t1
                self_ns[layer] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                calls[name] += 1
                total_ns[name] += dur
            if work is not None:
                try:
                    tracer.count(work[0], work[1](args, result))
                except (AttributeError, TypeError, IndexError):
                    pass  # the program changed shape; the counter stays put
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    @contextlib.contextmanager
    def task(self):
        """Count DiscretenessSuspect warnings raised during one task."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
        self.count("spectrum.discreteness_warnings",
                   sum(w.category.__name__ == "DiscretenessSuspect" for w in caught))

    def summary(self) -> dict:
        return {"calls": self.calls, "total_ns": self.total_ns,
                "self_ns": self.self_ns, "entries": self.entries,
                "counters": self.counters, "spans": len(self.records) // 4}

    def write_spans(self, path: str):
        """JSON: the span name table and one [name index, start ns,
        end ns, parent span index or -1] row per span."""
        r = self.records
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [r[i:i + 4].tolist() for i in range(0, len(r), 4)]},
                      fh, separators=(",", ":"))


def install(package: str = "cuspedzeta") -> Tracer:
    """Import every module of `package` and scipy.integrate, wrap their
    public names, and return the Tracer that records the calls."""
    tr = Tracer()
    pkg = importlib.import_module(package)
    mods = [importlib.import_module(f"{package}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)]
    swap = {}
    for mod in mods:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                swap[obj] = tr.wrap(obj, f"{layer}.{name}", layer)
            elif isinstance(obj, type) and obj.__module__ == mod.__name__ \
                    and not issubclass(obj, BaseException):
                _wrap_class(tr, obj, layer)
    import scipy.integrate
    quad = scipy.integrate.quad
    swap[quad] = tr.wrap(quad, "scipy.quad", "scipy")
    scipy.integrate.quad = swap[quad]
    for mod in [pkg, *mods]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in swap:
                setattr(mod, name, swap[obj])
    return tr


def _wrap_class(tr: Tracer, cls: type, layer: str):
    for attr, val in list(vars(cls).items()):
        if attr in ARITH:
            setattr(cls, attr, tr.wrap(val, f"{layer}.{cls.__name__}.{attr}", layer,
                                       spans=False))
        elif inspect.isfunction(val) and not attr.startswith(("_", "is_")):
            setattr(cls, attr, tr.wrap(val, f"{layer}.{cls.__name__}.{attr}", layer))
