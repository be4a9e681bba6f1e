"""Span tracer that wraps latticeramsey's public functions from outside the package.

Installing a Tracer replaces module and class attributes of the package with
wrappers; uninstalling puts the original objects back.  Nothing under src/
knows about it.

* Spans: every public function and method of lattice, oracle, embedder,
  constructions, verifier and cli (plus oracle's scan loop) records
  (name, parent span index, job id, start, end) on each call.  Spans are kept
  in memory; the caller writes them out when the run ends.
* Counters: the hot lattice primitives run millions of times, so they only
  bump a counter, attributed to the innermost open span.
* A function imported by name into another module (``from .lattice import
  layer``) is a separate module attribute; every attribute that holds the
  original object is replaced by the same wrapper.

Generator functions never get spans (a span around creating a generator
measures nothing); the counted generators count the items they yield.
"""

from __future__ import annotations

import collections
import enum
import functools
import inspect
import itertools
import operator
import time

LAYERS = ("lattice", "oracle", "embedder", "constructions", "verifier", "cli")

# Hot lattice primitives: counted, never timed.  Other small lattice helpers
# (mask_of, is_subset, is_blue, ...) are left unwrapped, so their time is the
# self time of whatever span called them.
COUNTED_CALLS = {
    ("Coloring", "color_of"): "lattice.color_of.calls",
    ("Coloring", "dense_from_int"): "lattice.dense_from_int.calls",
    ("Chain", "__post_init__"): "lattice.chain.created",
    (None, "elements_of"): "lattice.elements_of.calls",
}
COUNTED_YIELDS = {
    (None, "iter_submasks"): "lattice.iter_submasks.yields",
    (None, "layer"): "lattice.layer.yields",
}
UNWRAPPED_LATTICE = {
    (None, "mask_of"),
    (None, "element_sum"),
    (None, "full_mask"),
    (None, "is_subset"),
    (None, "is_proper_subset"),
    (None, "sym_diff_size"),
    ("Coloring", "is_blue"),
    ("WeightedFamily", "contains"),
    ("Permutation", "prefix_mask"),
}
# Private functions that still deserve a span of their own.
EXTRA_SPANS = {"oracle": ("_scan_ground",)}

_first = operator.itemgetter(0)


def _package_modules():
    import latticeramsey
    from latticeramsey import cli, constructions, embedder, lattice, oracle, verifier

    mods = {
        "lattice": lattice,
        "oracle": oracle,
        "embedder": embedder,
        "constructions": constructions,
        "verifier": verifier,
        "cli": cli,
    }
    return latticeramsey, mods


def _targets(layer_name, module):
    """(owner, attribute, class name or None, raw attribute value) to wrap."""
    out = []
    for name, obj in list(vars(module).items()):
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if not name.startswith("_") or name in EXTRA_SPANS.get(layer_name, ()):
                out.append((module, name, None, obj))
        elif (
            inspect.isclass(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
            and not issubclass(obj, (BaseException, enum.Enum))
        ):
            for attr, raw in list(vars(obj).items()):
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if not inspect.isfunction(fn):
                    continue
                if attr.startswith("_") and (obj.__name__, attr) not in COUNTED_CALLS:
                    continue
                out.append((obj, attr, obj.__name__, raw))
    return out


class Tracer:
    """Records spans and counters while installed; single-threaded by design."""

    def __init__(self):
        self.spans: list = []  # (name, parent index or -1, job, start, end)
        self.counts: collections.Counter = collections.Counter()  # (span, counter)
        self.job = None
        self._open: list[int] = []
        self._names: list[str] = ["bench"]
        self._patches: list = []  # (owner, attribute, original raw value)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, open_, names, clock = self.spans, self._open, self._names, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            open_.append(idx)
            names.append(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.counts[(name, "raised:" + type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                open_.pop()
                names.pop()
                spans[idx] = (name, open_[-1] if open_ else -1, self.job, t0, t1)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def _counted_calls(self, key, fn):
        counts, names = self.counts, self._names

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(names[-1], key)] += 1
            return fn(*args, **kwargs)

        return counted

    def _counted_yields(self, key, fn):
        counts, names = self.counts, self._names

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            owner = names[-1]
            ticks = itertools.count()
            try:
                # zip advances `ticks` once per item handed out, all in C.
                yield from map(_first, zip(fn(*args, **kwargs), ticks))
            finally:
                counts[(owner, key)] += next(ticks)

        return counted

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package, mods = _package_modules()
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for layer_name, module in mods.items():
            for owner, attr, cls_name, raw in _targets(layer_name, module):
                is_cm = isinstance(raw, classmethod)
                is_sm = isinstance(raw, staticmethod)
                fn = raw.__func__ if (is_cm or is_sm) else raw
                key = (cls_name, attr)
                if layer_name == "lattice" and key in UNWRAPPED_LATTICE:
                    continue
                if layer_name == "lattice" and key in COUNTED_CALLS:
                    wrapper = self._counted_calls(COUNTED_CALLS[key], fn)
                elif layer_name == "lattice" and key in COUNTED_YIELDS:
                    wrapper = self._counted_yields(COUNTED_YIELDS[key], fn)
                elif inspect.isgeneratorfunction(fn):
                    continue
                else:
                    name = f"{layer_name}.{fn.__qualname__}"
                    wrapper = self._span(name, fn, OBSERVERS.get(name))
                replaced[id(fn)] = wrapper
                if is_cm:
                    wrapper = classmethod(wrapper)
                elif is_sm:
                    wrapper = staticmethod(wrapper)
                self._patch(owner, attr, raw, wrapper)
        # Names bound by `from .x import y` elsewhere in the package.
        for module in [package, *mods.values()]:
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj)) if inspect.isfunction(obj) else None
                if wrapper is not None and obj is not wrapper:
                    self._patch(module, attr, obj, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def patched_attributes(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._patches]


# -- observers: counts taken where the work happens --------------------------


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _obs_find_copy(counts, args, kwargs, result):
    family = _arg(args, kwargs, 0, "family")
    size = len(family) if hasattr(family, "__len__") else 0
    counts[("observed", "oracle.find_copy.pairs")] += size * size
    counts[("observed", "oracle.find_copy.hits")] += result is not None


def _obs_scan(counts, args, kwargs, result):
    counts[("observed", "oracle.scan.colorings")] += result.colorings_checked


def _obs_embed(counts, args, kwargs, result):
    counts[("observed", "embedder.embed.subsets")] += 1 << result.n
    counts[("observed", "embedder.embed.successes")] += result.succeeded


def _obs_sweep(counts, args, kwargs, result):
    counts[("observed", "embedder.sweep.perms")] += result.perms_run


def _obs_lll(counts, args, kwargs, result):
    counts[("observed", "constructions.lll_family.members")] += len(result.members)


def _obs_verify_embedding(counts, args, kwargs, result):
    rec = _arg(args, kwargs, 0, "rec")
    counts[("observed", "verifier.verify_embedding.pairs")] += 1 << (2 * rec.n)
    counts[("observed", "verifier.verify_embedding.rejects")] += not result.ok


OBSERVERS = {
    "oracle.find_copy": _obs_find_copy,
    "oracle.exhaustive_ramsey_number": _obs_scan,
    "embedder.embed_with_permutation": _obs_embed,
    "embedder.sweep_permutations": _obs_sweep,
    "constructions.lll_family": _obs_lll,
    "verifier.verify_embedding": _obs_verify_embedding,
}


# -- analysis -----------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its child spans.

    Spans open and close on one stack, so children are disjoint and lie
    inside their parent.
    """
    out = [t1 - t0 for name, parent, job, t0, t1 in spans]
    for name, parent, job, t0, t1 in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds (sum of durations), self seconds."""
    agg: dict[str, dict[str, float]] = {}
    for (name, parent, job, t0, t1), own in zip(spans, self_times(spans)):
        row = agg.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += t1 - t0
        row["self_s"] += own
    return agg


def root_busy(spans) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(t1 - t0 for name, parent, job, t0, t1 in spans if parent < 0)
