"""Spans around rdyck's public functions, for the traced benchmark runs.

``install`` wraps each function in ``SPANS`` wherever it is imported: every
rdyck module namespace that holds the function gets the wrapper, so calls
between modules and calls inside one module both pass through it.
``DyckPath`` construction is wrapped on the class.

Spans are aggregated as they close rather than kept one by one, because a
traced ``verify`` opens millions of them.  For each span name the tracer
keeps the number of calls and the self time: the span's duration minus the
durations of the spans opened inside it.  Self times therefore add up to the
duration of the outermost spans, and the wrappers' own cost lands in the
self time of the caller.  For the two exponential layers (generation and
the oracle) it also keeps inclusive time per semilength ``n``.

A name missing from the library is skipped and reads as zero calls, so the
benchmark keeps running when a later version drops or renames a function.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name).  Both oracle functions report as one layer.
SPANS = (
    ("rdyck.core", "factorize", "core.factorize"),
    ("rdyck.core", "height", "core.height"),
    ("rdyck.classes", "member", "classes.member"),
    ("rdyck.classes", "generate", "classes.generate"),
    ("rdyck.classes", "oracle_generate", "classes.oracle"),
    ("rdyck.classes", "oracle_all_height2", "classes.oracle"),
    ("rdyck.counting", "count_recurrence", "counting.count_recurrence"),
    ("rdyck.counting", "series_coeffs", "counting.series_coeffs"),
    ("rdyck.counting", "count_enumeration", "counting.count_enumeration"),
    ("rdyck.compositions", "comp_to_path", "compositions.comp_to_path"),
    ("rdyck.compositions", "path_to_comp", "compositions.path_to_comp"),
    ("rdyck.compositions", "enumerate_compositions", "compositions.enumerate_compositions"),
    ("rdyck.bijection", "phi", "bijection.phi"),
    ("rdyck.bijection", "phi_inv", "bijection.phi_inv"),
    ("rdyck.bijection", "check_bijection", "bijection.check_bijection"),
    ("rdyck.cli", "run", "cli"),
)
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in SPANS] + ["core.DyckPath"]))
MODULES = ("rdyck", "rdyck.core", "rdyck.classes", "rdyck.counting", "rdyck.compositions", "rdyck.bijection", "rdyck.cli")
# lru_caches whose cache_info() is read at exit
CACHES = ("oracle_all_height2", "_family_strings")


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.per_n: dict[str, dict[int, float]] = {"classes.generate": {}, "classes.oracle": {}}
        self.counters = {"generate_paths": 0, "oracle_candidates": 0, "oracle_accepted": 0}
        self._inner = [0.0]  # per open span: summed duration of the spans it opened
        self._oracle_sizes: dict[int, int] = {}
        self._caches = []

    def wrap(self, name, fn, after=None):
        calls, self_s, inner, clock = self.calls, self.self_s, self._inner, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = inner.pop()
                inner[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - nested
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return span

    def _after_generate(self, args, kwargs, result, elapsed):
        n = _semilength_arg(args, kwargs)
        per_n = self.per_n["classes.generate"]
        per_n[n] = per_n.get(n, 0.0) + elapsed
        if hasattr(result, "__len__"):
            self.counters["generate_paths"] += len(result)

    def _after_oracle_all(self, args, kwargs, result, elapsed):
        self._oracle_sizes[args[0] if args else kwargs["n"]] = len(result)

    def _after_oracle_generate(self, args, kwargs, result, elapsed):
        n = _semilength_arg(args, kwargs)
        per_n = self.per_n["classes.oracle"]
        per_n[n] = per_n.get(n, 0.0) + elapsed
        self.counters["oracle_candidates"] += self._oracle_sizes.get(n, 0)
        self.counters["oracle_accepted"] += len(result)

    def install(self) -> None:
        """Import rdyck and replace every public function in SPANS by its span."""
        for module_name in MODULES:
            __import__(module_name)
        classes = sys.modules["rdyck.classes"]
        self._caches = [getattr(classes, attr) for attr in CACHES if hasattr(getattr(classes, attr, None), "cache_info")]
        hooks = {
            "generate": self._after_generate,
            "oracle_all_height2": self._after_oracle_all,
            "oracle_generate": self._after_oracle_generate,
        }
        wrappers = {}
        for module_name, attr, name in SPANS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is not None:
                wrappers[id(original)] = (original, self.wrap(name, original, hooks.get(attr)))
        for module_name in MODULES:
            namespace = vars(sys.modules[module_name])
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
        path_class = getattr(sys.modules["rdyck.core"], "DyckPath", None)
        if path_class is not None:
            path_class.__init__ = self.wrap("core.DyckPath", path_class.__init__)

    def summary(self) -> dict:
        """Totals for this process, as JSON-ready data."""
        cache = {"hits": 0, "misses": 0, "entries": 0}
        for cached in self._caches:
            stats = cached.cache_info()
            cache["hits"] += stats.hits
            cache["misses"] += stats.misses
            cache["entries"] += stats.currsize
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "per_n": {name: list(per_n.items()) for name, per_n in self.per_n.items()},
            "counters": self.counters,
            "cache": cache,
        }


def _semilength_arg(args, kwargs) -> int:
    return args[2] if len(args) > 2 else kwargs["n"]
