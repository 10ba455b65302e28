"""Spans and counters around the public functions of each hopla layer.

The benchmark wraps functions from its own code; nothing in `src/` knows it
is being traced.  A name imported with `from .module import name` is a
separate binding in every importing module, so `install` replaces the
function in every loaded hopla module that holds it, and methods on their
class.  Hot leaves get a counter only, because a span per call would cost
more than the leaf itself.

Spans stay in memory, each with its parent's id and the id of the job
(request) that caused it, and are written out once the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter, defaultdict
from math import factorial
from time import perf_counter


def _group_size(mode: str, n: int) -> int:
    """Permutations summed by precompose_symmetrized in the given mode."""
    if mode == "full":
        return factorial(n)
    if mode == "partial":
        return factorial(n - 1)
    return n if n > 1 else 1   # the (n-1, 1)-unshuffles


def _precompose_work(args, kwargs, result):
    op, _, mode = args
    return {"terms": len(op.table) * _group_size(mode, op.arity),
            "out_entries": len(result.table)}


def _compose_work(args, kwargs, result):
    outer, inner = args[0], args[1]
    return {"pairs": len(outer.table) * len(inner.table),
            "out_entries": len(result.table)}


def _circle_work(args, kwargs, result):
    f, g = args[0], args[1]
    return {"words": f.space.dim ** (f.arity + g.arity - 1),
            "out_entries": len(result.table)}


def _extend_work(args, kwargs, result):
    return {"entries": sum(len(c) for c in result.components.values())}


def _parse_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _serialize_bytes(args, kwargs, result):
    return {"bytes": len(result)}


# (module, attribute path, work counter or None)
SPANS = (
    ("cli", "main", None),
    ("drivers", "run_check", None),
    ("drivers", "run_coderive", None),
    ("drivers", "run_derive", None),
    ("drivers", "run_selftest", None),
    ("docio", "parse_document", _parse_bytes),
    ("docio", "serialize_document", _serialize_bytes),
    ("equations", "residual", None),
    ("equations", "nary_residual", None),
    ("equations", "circle_product", _circle_work),
    ("permutations", "precompose_symmetrized", _precompose_work),
    ("permutations", "failing_symmetry_generator", None),
    ("graded", "compose_insert", _compose_work),
    ("coalgebra", "extend_coderivation", _extend_work),
    ("coalgebra", "Coderivation.square_word", None),
    ("coalgebra", "check_coderivation", None),
    ("coalgebra", "square_cogenerator_component", None),
    ("functors", "commutator", None),
    ("functors", "suspend_family", None),
    ("functors", "nary_embed", None),
    ("verify", "graded_jacobi_witness", None),
    ("verify", "lemma_two_routes_witness", None),
    ("verify", "coderivation_correspondence_witness", None),
)

COUNTERS = (
    ("permutations", "koszul_sign"),
    ("graded", "Operation.evaluate"),
    ("coalgebra", "wedge_normalize"),
    ("coalgebra", "comultiply"),
)

SQUARE_WORD = "coalgebra.Coderivation.square_word"


def _metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    timed = ("calls", "count"), ("total_s", "s"), ("self_s", "s")
    ratios = {
        "permutations.precompose_symmetrized": ("terms", "out_entries"),
        "graded.compose_insert": ("pairs", "out_entries"),
        "equations.circle_product": ("words", "out_entries"),
    }
    for name, (work, produced) in ratios.items():
        out += [(f"{name}.{s}", u) for s, u in timed]
        out += [(f"{name}.{work}", "count"), (f"{name}.{produced}", "count"),
                (f"{name}.yield", "ratio")]
    for name in ("equations.residual", "equations.nary_residual",
                 "coalgebra.check_coderivation", "coalgebra.square_cogenerator_component",
                 "functors.commutator", "functors.suspend_family", "functors.nary_embed"):
        out += [(f"{name}.{s}", u) for s, u in timed]
    out += [(f"coalgebra.extend_coderivation.{s}", u) for s, u in timed]
    out.append(("coalgebra.extend_coderivation.entries", "count"))
    out += [(f"{SQUARE_WORD}.calls", "count"), (f"{SQUARE_WORD}.total_s", "s"),
            (f"{SQUARE_WORD}.distinct", "count"), (f"{SQUARE_WORD}.repeat", "ratio")]
    for name in ("docio.parse_document", "docio.serialize_document"):
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                (f"{name}.bytes", "bytes")]
    out += [("permutations.failing_symmetry_generator.calls", "count"),
            ("permutations.failing_symmetry_generator.total_s", "s")]
    out += [(f"{module}.{attr}.calls", "count") for module, attr in COUNTERS]
    out += [(f"drivers.{verb}.self_s", "s")
            for verb in ("run_check", "run_coderive", "run_derive", "run_selftest")]
    out.append(("cli.main.self_s", "s"))
    out += [(f"verify.{name}.total_s", "s")
            for name in ("graded_jacobi_witness", "lemma_two_routes_witness",
                         "coderivation_correspondence_witness")]
    out += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


METRICS = _metric_names()


class Tracer:
    """Collects spans and counters while installed; `take_round` turns
    one round's worth into the per-layer metrics."""

    def __init__(self):
        self.spans = []            # (id, parent, name, request, start, end)
        self._frames = []          # [span id, child time] of open spans
        self.request = None
        self.stats = defaultdict(float)
        self.counts = Counter()
        self._square_words = set()
        self._square_owners = {}   # keeps coderivations alive so ids stay unique
        self._ids = itertools.count()
        self._restore = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, work):
        frames, stats, spans, ids = self._frames, self.stats, self.spans, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = frames[-1][0] if frames else None
            frame = [sid, 0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][1] += duration
                spans.append((sid, parent, name, self.request, start, end))
                stats[name + ".calls"] += 1
                stats[name + ".total_s"] += duration
                stats[name + ".self_s"] += duration - frame[1]
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    stats[f"{name}.{key}"] += value
            if name == SQUARE_WORD:
                self._square_owners[id(args[0])] = args[0]
                self._square_words.add((id(args[0]), args[1]))
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "hopla" or name.startswith("hopla."))]
        by_name = {mod.__name__: mod for mod in modules}
        wraps = [(m, a, lambda name, fn, w=w: self._span(name, fn, w)) for m, a, w in SPANS]
        wraps += [(m, a, self._counter) for m, a in COUNTERS]
        for module, attr, make in wraps:
            owner = by_name[f"hopla.{module}"]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            wrapper = make(f"{module}.{attr}", original)
            if path:   # a method: patch it on its class
                holders = [(owner, last)]
            else:      # a function: patch every module that bound it
                holders = [(mod, key) for mod in modules
                           for key, value in list(vars(mod).items()) if value is original]
            for holder, key in holders:
                self._restore.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def end_request(self) -> None:
        self.stats[SQUARE_WORD + ".distinct"] += len(self._square_words)
        self._square_words.clear()
        self._square_owners.clear()

    # -- results ---------------------------------------------------------

    def take_round(self) -> dict:
        """Per-layer numbers accumulated since the last call, then reset."""
        stats = dict(self.stats)
        for name, count in self.counts.items():
            stats[name + ".calls"] = count
        self.stats.clear()
        self.counts.clear()
        for name, work in (("permutations.precompose_symmetrized", "terms"),
                           ("graded.compose_insert", "pairs"),
                           ("equations.circle_product", "words")):
            denominator = stats.get(f"{name}.{work}", 0)
            stats[f"{name}.yield"] = (stats.get(f"{name}.out_entries", 0) / denominator
                                      if denominator else 0.0)
        distinct = stats.get(SQUARE_WORD + ".distinct", 0)
        stats[SQUARE_WORD + ".repeat"] = (stats.get(SQUARE_WORD + ".calls", 0) / distinct
                                          if distinct else 0.0)
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, request, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "request": request, "start": start,
                                         "end": end}) + "\n")
