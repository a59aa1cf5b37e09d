"""Per-layer spans for the traced benchmark run.

The benchmark wraps each simulator layer's public entry points from its
own code, at class or module level (``Bank`` has ``__slots__``, so
instances cannot be patched), and keeps one span stack.  A layer's self
time is the time of its spans minus the time of wrapped spans nested
inside them, so the layers' self times add up without double counting.
Nothing under ``src/repro`` changes.  An entry point that a refactor
moved or removed is listed in the record, and every metric of its layer
is left out of the report, so a missing wrapper cannot read as a
measured speed-up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from time import perf_counter

from child import rebind

LAYERS = ("trace", "trace.build", "cpu", "cache", "controller", "dram",
          "core", "energy", "sim", "sim.profile", "obs", "exec", "store",
          "ledger")

#: (layer, candidate modules, class name or None, attributes).  A class
#: or function is taken from the first candidate module that defines it;
#: ``repro.store`` is where a planned refactor moves the result store.
ENTRY_POINTS = (
    ("cpu", ("repro.cpu.core",), "Core", ("bound",)),
    ("cpu", ("repro.cpu.multicore",), "MultiCoreSimulator", ("run",)),
    ("cache", ("repro.cache.hierarchy",), "CacheHierarchy",
     ("access_tuple", "access")),
    ("controller", ("repro.controller.controller",), "MemorySystem",
     ("submit", "resolve", "flush")),
    ("dram", ("repro.dram.bank",), "Bank", ("schedule",)),
    ("energy", ("repro.energy.model",), "EnergyMeter", ("record_op",)),
    ("store", ("repro.service.store", "repro.store"), "ResultStore",
     ("load", "store")),
    ("ledger", ("repro.obs.ledger",), "RunLedger", ("record_run",)),
    ("sim", ("repro.sim.system",), None, ("simulate",)),
    ("obs", ("repro.sim.system",), None, ("collect_metrics",)),
    ("exec", ("repro.exec.plan",), None, ("plan_experiments",)),
    ("exec", ("repro.exec.pool",), None, ("execute",)),
    ("trace.build", ("repro.trace.spec2006",), None, ("build_trace",)),
    ("trace.build", ("repro.trace.multiprog",), None, ("build_mix_traces",)),
    ("trace.build", ("repro.trace.extras",), None, ("build_extra_trace",)),
    ("trace.build", ("repro.trace.library",), None,
     ("build_workload_traces",)),
)

# Slots of LayerTracer.useful.
ADVANCE_CALLS, ADVANCE_USEFUL, DRAIN_CALLS, DRAIN_USEFUL = range(4)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def _find(candidates, owner, attr):
    """(holder, value) of an entry point, or None when it is gone."""
    for name in candidates:
        module = _module(name)
        holder = module if owner is None else getattr(module, owner, None)
        if holder is None or (owner is not None
                              and not inspect.isclass(holder)):
            continue
        value = getattr(holder, attr, None)
        if callable(value):
            return holder, value
    return None


def _with_traced_traces(fn, wrap):
    """``fn`` with its ``traces`` argument replaced by traced iterators,
    or None if it takes no such argument."""
    signature = inspect.signature(fn)
    if "traces" not in signature.parameters:
        return None

    @functools.wraps(fn)
    def substituted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["traces"] = [wrap(trace)
                                     for trace in bound.arguments["traces"]]
        return fn(*bound.args, **bound.kwargs)

    return substituted


class _TracedTrace:
    """A per-core trace whose ``__next__`` is a ``trace`` span."""

    __slots__ = ("_next",)

    def __init__(self, trace) -> None:
        self._next = iter(trace).__next__

    def __iter__(self):
        return self


def _step(self):
    return self._next()


class LayerTracer:
    """Span stack and per-layer totals for one traced process."""

    def __init__(self) -> None:
        self.stack: list = []
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.useful = [0, 0, 0, 0]
        #: (layer, entry point) of every entry point that was not found.
        self.missing: list = []

    def on_probe(self, duration: float) -> None:
        """Keep a speed probe's time out of the span it interrupted."""
        if self.stack:
            self.stack[-1] += duration

    def timed(self, fn, layer: str, progress=None, slot: int = 0):
        """``fn`` wrapped in a span of ``layer``.

        With ``progress`` (a function of the first argument), also count
        the calls and the calls during which ``progress`` changed in
        ``useful[slot]`` and ``useful[slot + 1]``.
        """
        index = LAYERS.index(layer)
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = perf_counter

        if progress is None:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self_s[index] += elapsed - stack.pop()
                    calls[index] += 1
                    if stack:
                        stack[-1] += elapsed
            return span

        useful = self.useful

        @functools.wraps(fn)
        def counted_span(obj, *args, **kwargs):
            before = progress(obj)
            stack.append(0.0)
            start = clock()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[index] += elapsed - stack.pop()
                calls[index] += 1
                if stack:
                    stack[-1] += elapsed
                useful[slot] += 1
                if progress(obj) != before:
                    useful[slot + 1] += 1
        return counted_span

    def _wrap(self, layer, candidates, owner, attr, **options) -> None:
        found = _find(candidates, owner, attr)
        if found is None:
            self.missing.append((layer, f"{owner or candidates[0]}.{attr}"))
            return
        holder, value = found
        if owner is None:
            rebind(value, self.timed(value, layer, **options))
        else:
            setattr(holder, attr, self.timed(value, layer, **options))

    def install(self) -> None:
        """Wrap every layer's entry points (call once, before the run)."""
        for layer, candidates, owner, attrs in ENTRY_POINTS:
            for attr in attrs:
                self._wrap(layer, candidates, owner, attr)
        self._wrap("cpu", ("repro.cpu.core",), "Core", "advance",
                   progress=lambda core: core.references,
                   slot=ADVANCE_CALLS)
        dram_calls = self.calls
        dram = LAYERS.index("dram")
        self._wrap("controller", ("repro.controller.controller",),
                   "MemorySystem", "drain",
                   progress=lambda memory: dram_calls[dram],
                   slot=DRAIN_CALLS)
        self._install_management()
        self._install_traces()

    def _install_management(self) -> None:
        """DAS management: ``translate``/``on_scheduled`` on the policy
        interface and every subclass that overrides them."""
        found = _find(("repro.controller.controller",), "ManagementPolicy",
                      "translate")
        if found is None:
            self.missing.append(("core", "ManagementPolicy.translate"))
            return
        policy = found[0]
        package = _module("repro.core")
        for info in pkgutil.iter_modules(package.__path__):
            _module(f"repro.core.{info.name}")
        classes, pending = [], [policy]
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in classes:
            for attr in ("translate", "on_scheduled"):
                if attr in vars(cls):
                    setattr(cls, attr, self.timed(vars(cls)[attr], "core"))

    def _install_traces(self) -> None:
        """Per-core trace ``__next__`` spans, on the traces handed to the
        co-simulator and to the static designs' profiling pass."""
        traced = type("TracedTrace", (_TracedTrace,),
                      {"__slots__": (),
                       "__next__": self.timed(_step, "trace")})
        found = _find(("repro.cpu.multicore",), "MultiCoreSimulator",
                      "__init__")
        init = found and _with_traced_traces(found[1], traced)
        if init:
            found[0].__init__ = init
        else:
            self.missing.append(("trace", "MultiCoreSimulator(traces)"))
        found = _find(("repro.sim.system",), None, "profile_row_heat")
        profile = found and _with_traced_traces(found[1], traced)
        if not profile:
            self.missing.append(("trace", "profile_row_heat(traces)"))
        if found is None:
            self.missing.append(("sim.profile", "profile_row_heat"))
        else:
            rebind(found[1], self.timed(profile or found[1], "sim.profile"))

    def missing_entry_points(self) -> list:
        """Names of the entry points that were not found."""
        return [name for _, name in self.missing]

    def report(self, scale: float) -> dict:
        """Per-layer metrics; times are multiplied by ``scale``.

        A metric that depends on a layer with a missing entry point is
        left out: its value would understate that layer.
        """
        def self_s(layer):
            return self.self_s[LAYERS.index(layer)] * scale

        def calls(layer):
            return self.calls[LAYERS.index(layer)]

        def ratio(useful, total):
            return useful / total if total else 0.0

        useful = self.useful
        # name -> (layers the value depends on, value)
        metrics = {
            "trace.self_s": (("trace",), self_s("trace")),
            "trace.calls": (("trace",), calls("trace")),
            "trace.build_s": (("trace.build",), self_s("trace.build")),
            "cpu.self_s": (("cpu",), self_s("cpu")),
            "cpu.calls": (("cpu",), calls("cpu")),
            "cpu.useful_advance_ratio": (
                ("cpu",), ratio(useful[ADVANCE_USEFUL],
                                useful[ADVANCE_CALLS])),
            "cache.self_s": (("cache",), self_s("cache")),
            "cache.calls": (("cache",), calls("cache")),
            "controller.self_s": (("controller",), self_s("controller")),
            "controller.calls": (("controller",), calls("controller")),
            "controller.useful_drain_ratio": (
                ("controller", "dram"), ratio(useful[DRAIN_USEFUL],
                                              useful[DRAIN_CALLS])),
            "dram.self_s": (("dram",), self_s("dram")),
            "dram.calls": (("dram",), calls("dram")),
            "core.self_s": (("core",), self_s("core")),
            "core.calls": (("core",), calls("core")),
            "energy.self_s": (("energy",), self_s("energy")),
            "sim.self_s": (("sim", "sim.profile"),
                           self_s("sim") + self_s("sim.profile")),
            "sim.profile_s": (("sim.profile",), self_s("sim.profile")),
            "obs.self_s": (("obs",), self_s("obs")),
            "exec.self_s": (("exec",), self_s("exec")),
            "store.self_s": (("store",), self_s("store")),
            "store.calls": (("store",), calls("store")),
            "ledger.self_s": (("ledger",), self_s("ledger")),
            "ledger.calls": (("ledger",), calls("ledger")),
        }
        gone = {layer for layer, _ in self.missing}
        return {name: value for name, (layers, value) in metrics.items()
                if gone.isdisjoint(layers)}
