"""Per-layer tracing from outside the program.

The benchmark never edits the code it measures. A :class:`Tracer` replaces
a layer's public function *at the name its caller looks up* (a module
attribute or a class attribute) with a wrapper that times the call, and
puts the original back on :meth:`Tracer.restore`. Calls nest: the time a
span spends inside another traced span is its *child* time, and

    self time = span duration - child time,

so the self times of all spans partition the traced part of the wall
clock. Whatever no span covers is the residual.

:data:`LAYERS` is the one table of wrapped names. Modules the program
imports lazily are imported here only in a traced run, after the
untraced import phase has been timed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict

#: (module, attribute path, layer name). A dotted attribute path names a
#: class attribute (``LinearProgram.solve``); a plain one a module-level
#: name, patched in the *calling* module because the caller imported it
#: by name (``from repro.core.paths import compute_paths``).
LAYERS = (
    ("repro.bench.registry", "get_benchmark", "bench.get_benchmark"),
    ("repro.experiments.common", "get_benchmark", "bench.get_benchmark"),
    ("repro.core.phase1", "kway_min_cut", "graphs.kway_min_cut"),
    ("repro.core.phase2", "kway_min_cut", "graphs.kway_min_cut"),
    ("repro.core.pipeline", "Pipeline.evaluate", "core.pipeline.evaluate"),
    ("repro.core.pipeline", "build_topology_skeleton",
     "core.build_topology_skeleton"),
    ("repro.core.pipeline", "compute_paths", "core.compute_paths"),
    ("repro.core.pipeline", "optimise_switch_positions",
     "core.optimise_switch_positions"),
    ("repro.lp.model", "LinearProgram.solve", "lp.solve"),
    ("repro.core.pipeline", "insert_components",
     "floorplan.insert_components"),
    ("repro.core.pipeline", "place_tsv_macros", "floorplan.place_tsv_macros"),
    ("repro.noc.simengine", "build_schedule", "noc.build_schedule"),
    ("repro.noc.batchengine", "build_schedule", "noc.build_schedule"),
    ("repro.noc.simengine", "simulate", "noc.simengine"),
    ("repro.noc.batchengine", "simulate_batch", "noc.batchengine"),
    ("repro.campaign.service", "CampaignService.submit", "campaign.submit"),
    ("repro.campaign.service", "CampaignService.step", "campaign.step"),
    ("repro.campaign.service", "compile_campaign", "campaign.compile"),
    ("repro.campaign.journal", "JobJournal.append", "campaign.journal_append"),
    ("repro.engine.executor", "run_tasks", "engine.run_tasks"),
    ("repro.engine.store", "ResultStore.get", "engine.store.get"),
    ("repro.engine.store", "ResultStore.put", "engine.store.put"),
)


def _scenario_name(kwargs) -> str:
    scenario = kwargs.get("scenario")
    return str(scenario).split(":")[0] if scenario is not None else "bernoulli"


class Tracer:
    """Span and counter accumulators, keyed by layer name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.failed: Dict[str, int] = defaultdict(int)
        self.first_call_s: Dict[str, float] = {}
        #: Counters the wrappers read off results (flits, hits, bytes...).
        self.counts: Dict[str, float] = defaultdict(float)
        self._children = []  # child-time accumulator per open span
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _enter(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> float:
        elapsed = time.perf_counter() - start
        child = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        self.self_s[name] += elapsed - child
        self.calls[name] += 1
        self.first_call_s.setdefault(name, elapsed)
        return elapsed

    @contextlib.contextmanager
    def block(self, name: str):
        """A span around a region of the benchmark's own code."""
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)

    def add(self, name: str, seconds: float) -> None:
        """Credit time measured before tracing could start (imports)."""
        self.self_s[name] += seconds
        self.calls[name] += 1

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn: Callable, name, on_result=None) -> Callable:
        """``fn`` timed under ``name`` (a string, or a function of the
        call's kwargs giving one); ``on_result(args, kwargs, result,
        elapsed)`` reads counters off each successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(kwargs)
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[span] += 1
                self._exit(span, start)
                raise
            elapsed = self._exit(span, start)
            if on_result is not None:
                on_result(args, kwargs, result, elapsed)
            return result

        return traced

    def patch(self, owner, attr: str, name, on_result=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, on_result))
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer of :data:`LAYERS`."""
        hooks = {
            "core.pipeline.evaluate": self._on_evaluate,
            "noc.simengine": self._on_simulate,
            "noc.batchengine": self._on_simulate_batch,
            "engine.run_tasks": self._on_run_tasks,
            "engine.store.get": self._on_store_get,
            "engine.store.put": self._on_store_put,
        }
        per_scenario = ("noc.simengine", "noc.batchengine")
        for module_name, path, name in LAYERS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            span = name
            if name in per_scenario:
                span = (lambda kwargs, base=name:
                        f"{base}.{_scenario_name(kwargs)}")
            self.patch(owner, attr, span, hooks.get(name))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- counters read off results --------------------------------------------

    def _on_evaluate(self, args, kwargs, state, elapsed) -> None:
        if state.point is not None:
            self.counts["core.pipeline.points"] += 1

    def _on_simulate(self, args, kwargs, stats, elapsed) -> None:
        self.counts["noc.simengine.flits"] += stats.flits_delivered
        self.counts["noc.simengine.incl_s"] += elapsed

    def _on_simulate_batch(self, args, kwargs, stats, elapsed) -> None:
        self.counts["noc.batchengine.flits"] += sum(
            s.flits_delivered for s in stats
        )
        self.counts["noc.batchengine.incl_s"] += elapsed

    def _on_run_tasks(self, args, kwargs, results, elapsed) -> None:
        self.counts["engine.task_s"] += sum(r.elapsed_s for r in results)
        self.counts["engine.run_tasks.incl_s"] += elapsed

    def _on_store_get(self, args, kwargs, entry, elapsed) -> None:
        if entry is not None:
            self.counts["engine.store.hits"] += 1

    def _on_store_put(self, args, kwargs, written, elapsed) -> None:
        self.counts["engine.store.bytes_written"] += int(written)


class NullTracer:
    """Tracing off: the benchmark's own spans cost nothing."""

    def block(self, name: str):
        return contextlib.nullcontext()

    def add(self, name: str, seconds: float) -> None:
        pass


def wrapper_cost_s() -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op against a bare
    one, on a tracer of its own."""
    calls = 200_000

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


def layer_table(tracer: Tracer, wall_s: float) -> str:
    """Self time per span, its share of ``wall_s``, and the residual."""
    rows = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    lines = [f"{'span':<36} {'self_s':>9} {'share':>7} {'calls':>7}"]
    for name, seconds in rows:
        if not tracer.calls[name]:
            continue
        lines.append(
            f"{name:<36} {seconds:9.3f} {seconds / wall_s:7.1%} "
            f"{tracer.calls[name]:7d}"
        )
    residual = wall_s - sum(tracer.self_s.values())
    lines.append(f"{'(residual)':<36} {residual:9.3f} {residual / wall_s:7.1%}")
    lines.append(f"{'(wall)':<36} {wall_s:9.3f}")
    return "\n".join(lines)


def span_total(prefix: str, table: Dict) -> float:
    """Sum of ``table`` over the spans named ``prefix`` or ``prefix.*``."""
    return sum(
        value for name, value in table.items()
        if name == prefix or name.startswith(prefix + ".")
    )
