"""Span recording for the spine benchmark's traced run.

The program under test carries no instrumentation yet, so the spans are
recorded here, by wrappers installed around its public entry points for the
duration of a traced run only.  A span is ``(id, parent, request, name,
start_ns, end_ns)``: ``parent`` comes from a thread-local stack, ``request``
is the id of the outermost span of the statement, and a layer's self time is
its spans' duration minus what their child spans cover.

Nothing here is touched by the untraced run that produces the end-to-end
metrics.  A wrap point that no longer resolves (renamed or moved by a later
change) is listed in :attr:`Tracer.unresolved` and simply records no spans.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict

# (span name, module, dotted attribute) of every class- or module-level wrap
# point.  ``parse_select`` is wrapped where the translator looks it up.
WRAP_POINTS = (
    ("sql.translate", "repro.languages.sql.translator", "SqlTranslator.translate"),
    ("sql.parse", "repro.languages.sql.translator", "parse_select"),
    ("facade.query", "repro.estocada", "Estocada.query"),
    ("facade.insert", "repro.estocada", "Estocada.insert"),
    ("facade.update", "repro.estocada", "Estocada.update"),
    ("facade.delete", "repro.estocada", "Estocada.delete"),
    ("facade.compact", "repro.estocada", "Estocada.compact"),
    ("rewrite.rewrite", "repro.core.rewriting", "Rewriter.rewrite"),
    ("plan.rank", "repro.cost.chooser", "PlanChooser.rank"),
    ("runtime.execute", "repro.runtime.engine", "ExecutionEngine.execute"),
    ("segment.log", "repro.stores.segment.backing", "DurableBacking.log"),
    ("segment.compact", "repro.stores.segment.backing", "DurableBacking.compact"),
    ("segment.attach", "repro.stores.segment.backing", "DurableBacking.attach"),
    ("maintenance.apply_write", "repro.catalog.maintenance", "MaintenanceEngine.apply_write"),
    ("maintenance.maintain", "repro.catalog.maintenance", "MaintenanceEngine.maintain"),
    ("service.execute", "repro.service.service", "QueryService.execute"),
    ("segment.fsync", "os", "fsync"),
)
# (span name, method) wrapped on the store *instances* the benchmark built;
# cached plans hold the instance and look the method up per execution.
STORE_WRAP_POINTS = (
    ("stores.scan", "execute_batches"),  # lazy: its stream is what gets timed
    ("stores.scan", "execute"),  # bind-join probes
    ("stores.apply_delta", "apply_delta"),
)
# Return values tallied at the wrap point, because a span carries no payload.
TALLIES = {
    "plan.rank": len,  # plans ranked per call
    "maintenance.maintain": int,  # store rows written by delta application
}

_DONE = object()


def _pull(iterator):
    return next(iterator, _DONE)


class _TimedStream:
    """Proxy of a lazy store stream: time inside ``next()`` becomes scan spans.

    ``execute_batches`` returns before any row is read, so wrapping the call
    would charge the stores nothing; the work happens while the runtime pulls
    batches.  Everything but iteration is forwarded to the real stream.
    """

    def __init__(self, inner, pull) -> None:
        self._inner = inner
        self._pull = pull

    def __iter__(self):
        iterator = iter(self._inner)
        pull = self._pull
        try:
            while True:
                batch = pull(iterator)
                if batch is _DONE:
                    return
                yield batch
        finally:
            iterator.close()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Records spans in memory; writes them out as JSONL when asked."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.tallies: Counter = Counter()
        self.unresolved: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # id(query object) -> (service span id, request): lets the facade span
        # that a service worker thread opens find the client's request.
        self._handoff: dict[int, tuple[int, int]] = {}
        # (owner, attribute, original); original None = drop the instance attribute.
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------------
    def _wrap(self, name: str, function):
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter_ns
        handoff = self._handoff
        hands_off = name == "service.execute"
        adopts = name == "facade.query"
        tally = TALLIES.get(name)
        tallies = self.tallies

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            # The query object's identity, where a request changes threads.
            query = id(args[1]) if (hands_off or adopts) and len(args) > 1 else None
            if stack:
                parent, request = stack[-1]
            elif adopts:
                parent, request = handoff.pop(query, (0, span_id))
            else:
                parent, request = 0, span_id
            if hands_off:
                handoff[query] = (span_id, request)
            stack.append((span_id, request))
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, request, name, start, end))
                if hands_off:
                    handoff.pop(query, None)
            if tally is not None:
                tallies[name] += tally(result)
            return result

        return traced

    # -- installation ------------------------------------------------------------------
    def install(self, stores=()) -> None:
        """Wrap every resolvable entry point, and the given store instances."""
        for name, module_name, path in WRAP_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.unresolved.append(name)
                continue
            self._replace(owner, attribute, self._wrap(name, original), original)
        pull = self._wrap("stores.scan", _pull)
        for store in stores:
            for name, method in STORE_WRAP_POINTS:
                original = getattr(store, method, None)
                if original is None:
                    self.unresolved.append(name)
                elif method == "execute_batches":
                    self._replace(store, method, _stream_wrapper(original, pull), None)
                else:
                    self._replace(store, method, self._wrap(name, original), None)

    def _replace(self, owner, attribute: str, wrapper, original) -> None:
        setattr(owner, attribute, wrapper)
        self._undo.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        for owner, attribute, original in reversed(self._undo):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------------------
    def by_name(self, since_ns: int = 0, until_ns: int | None = None) -> dict[str, dict[str, int]]:
        """Per span name: ``count``, ``total_ns`` (inclusive) and ``self_ns``.

        Only spans that started in ``[since_ns, until_ns)`` are counted.
        """
        covered: dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent:
                covered[parent] += end - start
        summary: dict[str, dict[str, int]] = defaultdict(
            lambda: {"count": 0, "total_ns": 0, "self_ns": 0}
        )
        for span_id, _, _, name, start, end in self.spans:
            if start < since_ns or (until_ns is not None and start >= until_ns):
                continue
            entry = summary[name]
            entry["count"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - covered.get(span_id, 0)
        return summary

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(
                    f'{{"id":{span_id},"parent":{parent},"request":{request},'
                    f'"name":"{name}","start_ns":{start},"end_ns":{end}}}\n'
                )


def _stream_wrapper(execute_batches, pull):
    def traced_execute_batches(*args, **kwargs):
        return _TimedStream(execute_batches(*args, **kwargs), pull)

    return traced_execute_batches
