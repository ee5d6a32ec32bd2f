"""Outside-in tracing of posetkit: wraps the package's public functions and
records one span per call.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces every module
attribute that names a traced function, in every posetkit module, with a
wrapper, so a call is seen wherever the caller looks the name up
(``dilworth.restrict``, ``hall.perles_chain_cover``, ``cli.find_sdr``, a
module's own globals for its internal calls, and the package namespace).
``Tracer.remove`` puts the originals back.

A span is ``(span_id, parent_id, job_id, name, start, end, value)``.  Spans
of one job share ``job_id``; ``value`` is the number of antichains a call of
``oracle.iter_antichains_of_size`` yielded and the number of subsets a call of
``hall.hall_condition`` enumerated, 0 otherwise.  A call that raises still
records its span, with value 0, so its time stays its own.  A generator's span runs
from its first resume to its exhaustion or close, so the caller's work
between resumes counts as the generator's own time.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from math import comb
from types import ModuleType

# Sort-key helpers called once per comparison; a span each would swamp the
# trace with calls that have no layer of their own.
UNTRACED = {"core.id_key", "core.sorted_ids", "core.member_key", "cli.main"}

ENCODERS = {
    "formats.size_certificate",
    "formats.chain_cover_certificate",
    "formats.antichain_cover_certificate",
    "formats.report_certificate",
    "formats.matching_certificate",
    "formats.sdr_certificate",
    "formats.subsequence_certificate",
    "formats.canonical_json",
}

NO_PARENT = -1


def _hall_subsets(G, result: object) -> int:
    """Subsets ``hall_condition`` enumerated, from its argument and result.

    It scans left subsets by size, each size in lexicographic order of
    indices into ``G.left``, and stops at the first violation.
    """
    n = len(G.left)
    if result is None:
        return 2 ** n - 1
    index = {u: i for i, u in enumerate(G.left)}
    combo = sorted(index[u] for u in result.members)
    k = len(combo)
    rank, prev = 0, -1  # 0-based lexicographic rank among k-subsets
    for pos, c in enumerate(combo):
        for skipped in range(prev + 1, c):
            rank += comb(n - skipped - 1, k - pos - 1)
        prev = c
    return sum(comb(n, j) for j in range(1, k)) + rank + 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job = NO_PARENT
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[ModuleType, str, object]] = []

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        return sid, self._stack[-1] if self._stack else NO_PARENT

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                sid, parent = self._open()
                job = self.job
                inner = fn(*args, **kwargs)
                yielded = 0
                start = clock()
                try:
                    while True:
                        stack.append(sid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            stack.pop()
                        yielded += 1
                        yield item
                finally:
                    inner.close()
                    spans.append((sid, parent, job, name, start, clock(), yielded))
            return gen_wrapper

        counts_subsets = name == "hall.hall_condition"

        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            stack.append(sid)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                value = 0  # a call that raised enumerated an unknown number of subsets
                if counts_subsets and returned:
                    value = _hall_subsets(args[0] if args else kwargs["G"], result)
                spans.append((sid, parent, self.job, name, start, end, value))
        return wrapper

    def install(self, modules: list[ModuleType]) -> None:
        """Patch every traced function at every module attribute naming it."""
        wrappers: dict[object, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and f"{short}.{attr}" not in UNTRACED):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self) -> list[tuple]:
        """The spans recorded so far, which the tracer then forgets."""
        spans = list(self.spans)
        self.spans.clear()  # the wrappers hold this list object
        return spans


def summarize(spans: list[tuple]) -> dict[str, float]:
    """Per-function calls and self time, plus counts derived from the same
    spans.  Self time is a span's duration minus the time its children take."""
    child_time: dict[int, float] = defaultdict(float)
    by_id = {}
    for sid, parent, _job, name, start, end, _value in spans:
        by_id[sid] = (parent, name)
        if parent != NO_PARENT:
            child_time[parent] += end - start

    def under(sid: int, ancestor: str) -> bool:
        parent = by_id[sid][0]
        while parent != NO_PARENT:
            parent, name = by_id[parent]
            if name == ancestor:
                return True
        return False

    out: dict[str, float] = defaultdict(float)
    for sid, _parent, _job, name, start, end, value in spans:
        out[f"{name}.calls"] += 1
        self_ms = (end - start - child_time[sid]) * 1000.0
        out[f"{name}.self_ms"] += self_ms
        if name in ENCODERS:
            out["encode.self_ms"] += self_ms
        if name == "oracle.iter_antichains_of_size":
            out[f"{name}.yielded"] += value
            if under(sid, "dilworth.perles_chain_cover"):
                out["perles.frames"] += 1
        elif name == "hall.hall_condition":
            out[f"{name}.subsets"] += value
        elif name == "core.maximal_above" and under(sid, "dilworth.perles_chain_cover"):
            out["perles.case2"] += 1
        elif name == "oracle.max_antichain" and under(sid, "dilworth.perles_chain_cover"):
            out["perles.max_antichain_calls"] += 1
        elif name == "core.restrict" and under(sid, "mirsky.mirsky_antichain_cover"):
            out["mirsky.layers"] += 1
    return dict(out)


def is_time(key: str) -> bool:
    return key.endswith("self_ms")


def derived(values: dict[str, float]) -> dict[str, float]:
    """Ratios and differences of the counts ``summarize`` adds up."""
    frames = values.get("perles.frames", 0.0)
    case1 = frames - values.get("perles.case2", 0.0)
    yielded = values.get("oracle.iter_antichains_of_size.yielded", 0.0)
    covers = values.get("dilworth.perles_chain_cover.calls", 0.0)
    return {
        "perles.case1": case1,
        "oracle.iter_antichains_of_size.useful_ratio": case1 / yielded if yielded else 0.0,
        "perles.max_antichain_per_cover":
            values.get("perles.max_antichain_calls", 0.0) / covers if covers else 0.0,
    }


def write_spans(path, spans: list[tuple]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(["span_id", "parent_id", "job_id", "name", "start", "end", "value"]) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def posetkit_modules() -> list[ModuleType]:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "posetkit" or name.startswith("posetkit."))]
