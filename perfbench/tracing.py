"""Spans around the library's layer functions, recorded from outside.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper
wherever a ``netident`` module binds it, so calls between modules are
seen too (``reconstruct`` imports ``derived_set`` by name, the CLI calls
through module attributes). ``uninstall`` puts the originals back.
Spans stay in memory: name, start, end, parent span, and whether the
call raised. Counters are summed per layer name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# (module, attribute, span name, counters before the call, counters after it)
LAYERS = [
    ("graph_core", "Graph.__init__", "graph_core.build", None, None),
    ("graph_core", "graph_from_json", "graph_core.build", None, None),
    ("zero_forcing", "derived_set", "zero_forcing.derived_set",
     None, lambda res: {"forces": len(res[1].forces)}),
    ("zero_forcing", "ForcingChronicle.replay", "zero_forcing.replay",
     lambda a, kw: {"forces": len(a[0].forces)}, None),
    ("zero_forcing", "zfs_heuristic", "zero_forcing.zfs_heuristic", None, None),
    ("zero_forcing", "minimum_zero_forcing_set", "zero_forcing.minimum_zero_forcing_set",
     None, None),
    ("identifiability", "certify", "identifiability.certify", None, None),
    ("netsim", "random_weights", "netsim.random_weights", None, None),
    ("netsim", "markov_sequence", "netsim.markov_sequence",
     lambda a, kw: {"order_sum": _arg(a, kw, 3, "order")}, None),
    ("reconstruct", "identify", "reconstruct.identify",
     lambda a, kw: {"order": _arg(a, kw, 0, "markov").order},
     lambda res: {"forces": len(res.diagnostics)}),
    ("higher_order", "lifted_markov", "higher_order.lifted_markov", None, None),
    ("higher_order", "deconvolve", "higher_order.deconvolve",
     lambda a, kw: {"orders": _arg(a, kw, 0, "lifted").order}, None),
    ("cli", "main", "cli.main", None, None),
]


class Tracer:
    def __init__(self):
        # Each span is [name, parent index or -1, start, end, raised].
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, **counts) -> None:
        self.counts[name].update(counts)

    def _wrap(self, name, fn, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                counts[name].update(before(args, kwargs))
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                counts[name].update(after(result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "netident" or key.startswith("netident.")]
        for mod_name, attr, name, before, after in LAYERS:
            owner = sys.modules[f"netident.{mod_name}"]
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, before, after))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- analysis -------------------------------------------------------------

    def layer_totals(self) -> dict[str, Counter]:
        """Per span name: calls, raised, and self time (duration minus children).

        A span inside another span of the same name is not a call of its
        own: ``graph_from_json`` builds through ``Graph.__init__``, and
        both are ``graph_core.build``.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, Counter] = defaultdict(Counter)
        for i, (name, _, start, end, raised) in enumerate(self.spans):
            stats = out[name]
            stats["calls"] += int(not self._below(i, name))
            stats["raised"] += int(raised)
            stats["self_s"] += (end - start) - child[i]
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, parent, start, end, _ in self.spans if parent < 0)

    def _below(self, i: int, ancestor: str) -> bool:
        """Whether span ``i`` has an ``ancestor`` span above it."""
        parent = self.spans[i][1]
        while parent >= 0 and self.spans[parent][0] != ancestor:
            parent = self.spans[parent][1]
        return parent >= 0

    def nested_calls(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        return sum(self._below(i, ancestor) for i, span in enumerate(self.spans)
                   if span[0] == name)
