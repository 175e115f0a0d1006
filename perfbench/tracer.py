"""Span tracing of the quatbound layers, installed from outside the package.

`Tracer.install` wraps every public function of the traced modules and
rebinds each wrapper under every name that refers to the original in any
loaded `quatbound` module, so calls through `from .x import f` names are
traced too.  A span is (name, parent span, start, end, observation); the
spans of one request are kept in memory and folded into `LayerStats` when
the request ends.  A span's self time is its duration minus the durations
of its direct child spans.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

PACKAGE = "quatbound"
MODULES = ("cli", "bound", "classgroup", "quadfield", "weilsets", "arith", "mazur")

# Hot leaves left unwrapped: each runs thousands to hundreds of thousands
# of times per request for microseconds, so a span around it would time
# the wrapper.  Their cost counts as self time of the caller's span.
UNWRAPPED = frozenset({
    "kronecker", "is_prime", "prime_status", "splitting_type", "trace_power",
    "reduce_form", "principal_form", "form_to_ideal", "ideal_to_form",
})


def _observe_factor(args, result):
    cofactor = result.cofactor
    return abs(args[0]).bit_length(), cofactor.bit_length() if cofactor else 0


def _observe_mazur(args, result):
    return result.bound, len(result.members)


def _observe_cache_load(args, result):
    return len(result)


OBSERVERS = {
    "arith.factor": _observe_factor,
    "mazur.mazur_prime_set": _observe_mazur,
    "cli.cache_load": _observe_cache_load,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNWRAPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, fn, OBSERVERS.get(name))
                for m in loaded:
                    for alias, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, alias, fn))
                            setattr(m, alias, wrapper)

    def uninstall(self) -> None:
        for m, alias, fn in reversed(self._patched):
            setattr(m, alias, fn)
        self._patched.clear()

    def take(self) -> list[list]:
        """The spans recorded since the last call, oldest first."""
        spans = self.spans[:]
        del self.spans[:]
        return spans

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if observe is not None:
                rec[4] = observe(args, result)
            return result

        return traced


_MAZUR_CANDIDATES: dict[int, int] = {}


def mazur_candidates(bound: int) -> int:
    """Number of primes p = 1 (mod 4) with p <= bound, by an independent
    sieve (the program's own sieve is what is being measured)."""
    if bound not in _MAZUR_CANDIDATES:
        sieve = bytearray([1]) * (bound + 1)
        sieve[:2] = b"\x00\x00"
        for p in range(2, int(bound ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
        _MAZUR_CANDIDATES[bound] = sum(sieve[1::4])
    return _MAZUR_CANDIDATES[bound]


class LayerStats:
    """Per-layer totals over the traced requests."""

    def __init__(self):
        self.requests = 0
        self.spans = 0
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_s: Counter = Counter()
        self.module_self: Counter = Counter()
        self.module_incl: Counter = Counter()
        self.factor_hits = 0
        self.factor_incomplete = 0
        self.max_input_bits = 0
        self.max_cofactor_bits = 0
        self.mazur_members = 0
        self.mazur_candidates = 0
        self.cache_entries = 0

    def fold(self, spans: list[list], scale: float = 1.0) -> None:
        """Add one request's spans; times are multiplied by `scale`."""
        self.requests += 1
        self.spans += len(spans)
        child = [0.0] * len(spans)
        factored = set()
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += (end - start) * scale
                if name == "arith.factor":
                    factored.add(parent)
        for i, (name, parent, start, end, info) in enumerate(spans):
            dur = (end - start) * scale
            own = dur - child[i]
            module = name.split(".", 1)[0]
            self.calls[name] += 1
            self.incl[name] += dur
            self.self_s[name] += own
            self.module_self[module] += own
            if parent < 0 or not spans[parent][0].startswith(module + "."):
                self.module_incl[module] += dur
            if name == "weilsets.factor_cached" and i not in factored:
                self.factor_hits += 1
            if info is None:
                continue
            if name == "arith.factor":
                self.max_input_bits = max(self.max_input_bits, info[0])
                self.max_cofactor_bits = max(self.max_cofactor_bits, info[1])
                self.factor_incomplete += info[1] > 0
            elif name == "mazur.mazur_prime_set":
                self.mazur_candidates += mazur_candidates(info[0])
                self.mazur_members += info[1]
            elif name == "cli.cache_load":
                self.cache_entries += info

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, averaged per traced request."""
        n = max(self.requests, 1)
        c, incl, own = self.calls, self.incl, self.self_s
        families = ("weilsets.family_A1", "weilsets.family_A2", "weilsets.family_A3")
        fc_calls = c["weilsets.factor_cached"]
        return {
            "mazur.s": (self.module_incl["mazur"] / n, "s"),
            "mazur.calls": (c["mazur.mazur_prime_set"] / n, "count"),
            "mazur.survivor_ratio": (
                self.mazur_members / self.mazur_candidates if self.mazur_candidates else 0.0,
                "ratio"),
            "arith.sieve_s": (own["arith.primes_up_to"] / n, "s"),
            "arith.sieve_calls": (c["arith.primes_up_to"] / n, "count"),
            "arith.factor_s": (own["arith.factor"] / n, "s"),
            "arith.factor_calls": (c["arith.factor"] / n, "count"),
            "arith.factor_incomplete": (self.factor_incomplete / n, "count"),
            "arith.max_input_bits": (self.max_input_bits, "bits"),
            "arith.max_cofactor_bits": (self.max_cofactor_bits, "bits"),
            "weilsets.family_builds": (sum(c[f] for f in families) / n, "count"),
            "weilsets.family_build_s": (sum(incl[f] for f in families) / n, "s"),
            "weilsets.trace_set_s": (incl["weilsets.trace_set"] / n, "s"),
            "weilsets.factor_cached_calls": (fc_calls / n, "count"),
            "weilsets.cache_hit_ratio": (
                self.factor_hits / fc_calls if fc_calls else 0.0, "ratio"),
            "cli.cache_load_s": (incl["cli.cache_load"] / n, "s"),
            "cli.cache_store_s": (incl["cli.cache_store"] / n, "s"),
            "cli.cache_entries_loaded": (self.cache_entries / n, "count"),
            "cli.self_s": ((self.module_self["cli"] - own["cli.cache_load"]
                            - own["cli.cache_store"]) / n, "s"),
            "bound.assemble_self_s": (own["bound.assemble_bound"] / n, "s"),
            "bound.verify_s": (incl["bound.verify_prime_membership"] / n, "s"),
            "bound.verify_calls": (c["bound.verify_prime_membership"] / n, "count"),
            "classgroup.s": (self.module_incl["classgroup"] / n, "s"),
            "classgroup.compose_calls": (c["classgroup.compose"] / n, "count"),
            "quadfield.s": (self.module_incl["quadfield"] / n, "s"),
            "quadfield.ideal_pow_calls": (c["quadfield.ideal_pow"] / n, "count"),
            "trace.spans": (self.spans / n, "count"),
        }
