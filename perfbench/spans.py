"""In-memory span recorder and the layer instrumentation of the traced pass.

The package itself carries no tracing.  Instead the traced pass rebinds
the public names that one ``rangecontrol`` module holds for another
(``control.tally``, ``harness.solve``, ``harness.gadget_*``,
``cli.fileio`` ...) to wrappers that record a span per call.  A span is
``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the id of the benchmark
operation that caused it.  A layer's self time is the span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import time
import types
from collections import Counter

SOLVE = "control.solve"
TALLY = "elections.tally"


class Recorder:
    """Keeps spans and counters in memory until :meth:`write` is called."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def wrap(self, name: str, fn, count: str | None = None):
        """``fn`` recording one span per call; ``count`` names a counter bumped per call."""

        def traced(*args, **kwargs):
            if count is not None:
                self.counts[count] += 1
            return self.span(name, fn, *args, **kwargs)

        return traced

    def wrap_generator(self, name: str, fn, count: str):
        """A generator function whose every ``next`` is one span."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                record = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(record)
                self.counts[count] += 1
                yield item

        return traced

    def write(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    out = [end - start for name, start, end, parent, op in spans]
    for name, start, end, parent, op in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _under_solve(spans, index: int) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(SOLVE):
            return True
        parent = spans[parent][3]
    return False


def layer_totals(recorder: Recorder, records: int) -> dict[str, float]:
    """Summable figures of one traced operation: ``<span>_s`` self seconds and
    ``<span>_calls`` per span name, the recorder's counters, the tallies made
    under ``control.solve`` and the audit records."""
    spans = recorder.spans
    totals: Counter = Counter(recorder.counts)
    for (name, *_), self_s in zip(spans, self_times(spans)):
        layer, _, detail = name.partition("/")
        for key in {name, layer}:
            totals[f"{key}_s"] += self_s
            totals[f"{key}_calls"] += 1
    totals["control.tallies_in_solve"] = sum(
        1 for i, span in enumerate(spans) if span[0] == TALLY and _under_solve(spans, i)
    )
    totals["records"] = records
    return dict(totals)


def layer_metrics(totals: dict[str, float], families) -> dict[str, float]:
    """The per-layer metrics from the summed totals of a pass's operations."""
    totals = Counter(totals)
    explored = totals["control.explored"]
    records = totals["records"]
    out = {
        name: totals[name] for name in (
            f"{TALLY}_s", f"{TALLY}_calls", "elections.project_s", "elections.project_calls",
            f"{SOLVE}_s", f"{SOLVE}_calls", "control.explored",
            "harness.enumerate_s", "harness.instances_enumerated",
            "gadgets.build_s", "gadgets.build_calls",
            "harness.identities_s", "harness.identity_evals",
            "harness.audit_s", "harness.render_s",
            "oracles.solve_s", "fileio.parse_s", "fileio.parse_calls", "cli.run_cli_s",
        )
    }
    out["oracles.calls"] = totals["oracles.solve_calls"]
    out["control.tallies_per_action"] = (
        totals["control.tallies_in_solve"] / explored if explored else 0.0)
    out["gadgets.builds_per_record"] = (
        totals["gadgets.build_calls"] / records if records else 0.0)
    for family in families:
        out[f"{SOLVE}_s.{family}"] = totals[f"{SOLVE}/{family}_s"]
    return out


class Instrumentation:
    """Rebinds cross-module names of the package to span-recording wrappers."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        from rangecontrol import cli, control, fileio, gadgets, harness

        rec = self.recorder
        for module in (control, harness, cli, gadgets):
            self._set(module, "tally", rec.wrap(TALLY, module.tally))
        for module in (control, harness):
            self._set(module, "project", rec.wrap("elections.project", module.project))

        def counted_solve(solve):
            def traced(instance, **kwargs):
                outcome = rec.span(f"{SOLVE}/{instance.family}", solve, instance, **kwargs)
                rec.counts["control.explored"] += outcome.explored
                return outcome

            return traced

        for module in (control, harness):
            self._set(module, "solve", counted_solve(module.solve))
        for attr in sorted(vars(harness)):
            if attr.startswith("gadget_"):
                self._set(harness, attr, rec.wrap("gadgets.build", getattr(harness, attr)))
        for attr in ("solve_hitting_set", "solve_x3c"):
            self._set(harness, attr, rec.wrap("oracles.solve", getattr(harness, attr)))
        self._set(
            harness, "check_score_identities",
            rec.wrap("harness.identities", harness.check_score_identities),
        )
        self._set(
            harness, "evaluate_identity",
            rec.wrap("harness.identities", harness.evaluate_identity,
                     count="harness.identity_evals"),
        )
        for attr in ("exhaustive_hs_instances", "exhaustive_x3c_instances"):
            self._set(harness, attr, rec.wrap_generator(
                "harness.enumerate", getattr(harness, attr), "harness.instances_enumerated"
            ))
        proxy = types.ModuleType(fileio.__name__)
        proxy.__dict__.update(vars(fileio))
        proxy.parse_election = rec.wrap("fileio.parse", fileio.parse_election)
        self._set(cli, "fileio", proxy)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
