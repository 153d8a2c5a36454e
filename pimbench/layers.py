"""Layer attribution for the benchmark's traced run.

Two instruments, both installed from the benchmark's own files so the
program under test carries no tracing code:

* :func:`profile_seconds` takes a ``cProfile`` profile and groups each
  function's *self* time by the ``src/repro/<layer>/`` module it lives in.
  Standard-library and C functions are charged to ``builtins``; the
  benchmark's own functions to ``harness``.  The profiler inflates absolute
  time about 3x, so only shares are meaningful.
* :class:`Tracer` wraps each layer's public entry points with counting,
  span-recording wrappers.  A span has a name, start, end, parent span and a
  trace id (the benchmark op it belongs to).  Per-layer call counts and
  span self time (a span's duration minus the time its child spans cover)
  are aggregated for every call; raw spans are kept in memory for the first
  :data:`SPAN_CAP` calls per (trace, boundary) so a multi-million-request op
  stays affordable, and written out when the run ends.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import defaultdict
from pathlib import PurePath
from typing import Callable, Dict, List, Tuple

#: Every layer a profile is grouped into, in report order.  The first group
#: are the ``src/repro/`` subpackages and top-level modules the benchmark's
#: workloads exercise; ``other`` collects the remaining ``repro`` modules
#: (experiment orchestration, fleet, fabric, registry, ...).
LAYERS = (
    "api",
    "core",
    "dram",
    "energy",
    "host",
    "mapping",
    "memctrl",
    "pim",
    "scenarios",
    "sim",
    "system",
    "transfer",
    "upmem_runtime",
    "workloads",
    "builtins",
    "harness",
    "other",
)

_REPRO_MODULE_LAYERS = frozenset(LAYERS) - {"builtins", "harness", "other"}

#: Raw spans kept per (trace id, boundary name); counts and self time are
#: aggregated over every call regardless.
SPAN_CAP = 64


def layer_of(filename: str) -> str:
    """The layer a code object's ``co_filename`` belongs to."""
    parts = PurePath(filename).parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and index > 0 and parts[index - 1] == "src":
            module = parts[index + 1]
            if module.endswith(".py"):
                module = module[:-3]
            return module if module in _REPRO_MODULE_LAYERS else "other"
    if "pimbench" in parts:
        return "harness"
    return "builtins"


def self_seconds(raw_stats) -> Tuple[Dict[str, float], int]:
    """Group a ``pstats.Stats.stats`` mapping's self time by layer.

    Returns (layer -> self seconds, total calls).  ``calls`` counts every
    function call the profiler saw, Python and C alike -- the numerator of
    ``py_calls_per_req``.
    """
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = 0
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in raw_stats.items():
        seconds[layer_of(filename)] += tottime
        calls += ncalls
    return seconds, calls


def profile_seconds(profiler: cProfile.Profile) -> Tuple[Dict[str, float], int]:
    """:func:`self_seconds` of a finished profiler."""
    return self_seconds(pstats.Stats(profiler).stats)


def shares_of(seconds: Dict[str, float]) -> Dict[str, float]:
    """Normalise layer seconds to shares of their total."""
    total = sum(seconds.values())
    return {layer: (value / total if total > 0 else 0.0) for layer, value in seconds.items()}


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """Counting, span-recording wrappers around layer entry points.

    ``boundaries`` maps a boundary name (``<layer>.<what>``) to the
    ``(owner class, method name)`` pairs it wraps.  :meth:`install` swaps
    the wrappers in at class level; :meth:`uninstall` restores the
    originals.  Use as a context manager.
    """

    def __init__(self, boundaries: Dict[str, List[Tuple[type, str]]]) -> None:
        self.boundaries = boundaries
        self.trace_id = ""
        self.calls: Dict[str, int] = defaultdict(int)
        self.rejects: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: List[dict] = []
        self._kept: Dict[Tuple[str, str], int] = defaultdict(int)
        self._stack: List[_Frame] = []
        self._next_id = 1
        self._originals: List[Tuple[type, str, object]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> "Tracer":
        for name, targets in self.boundaries.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, name: str, original) -> Callable:
        tracer = self
        stack = self._stack
        calls = self.calls
        rejects = self.rejects
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1].span_id if stack else 0
            frame = _Frame(span_id)
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame.child_s
                if stack:
                    stack[-1].child_s += duration
                calls[name] += 1
                tracer._keep(name, span_id, parent, start, end)
            if result is False:
                rejects[name] += 1
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _keep(self, name: str, span_id: int, parent: int, start: float, end: float) -> None:
        key = (self.trace_id, name)
        if self._kept[key] >= SPAN_CAP:
            return
        self._kept[key] += 1
        self.spans.append(
            {
                "name": name,
                "span_id": span_id,
                "parent_id": parent,
                "trace_id": self.trace_id,
                "start_s": start,
                "end_s": end,
            }
        )

    # -- reporting ----------------------------------------------------------
    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def rejected(self, name: str) -> int:
        return self.rejects.get(name, 0)

    def span_self_shares(self) -> Dict[str, float]:
        """Share of wrapped self time per boundary (span-based attribution)."""
        total = sum(self.self_s.values())
        return {
            name: (value / total if total > 0 else 0.0)
            for name, value in sorted(self.self_s.items())
        }


def boundaries() -> Dict[str, List[Tuple[type, str]]]:
    """The wrapped entry point of each layer, ``<layer>.<what>`` -> targets.

    ``api.*`` are the benchmark's ops (root spans).  ``host.preempt`` is
    the callback the host OS scheduler invokes on a software copy thread it
    preempts, so its call count is the preemption count.
    """
    from repro.api.session import Session
    from repro.core.dce import DataCopyEngine
    from repro.core.hetmap import HeterogeneousMapper
    from repro.dram.channel import DdrChannel
    from repro.mapping.system_mapper import HomogeneousMapper
    from repro.memctrl.controller import ChannelController
    from repro.scenarios.trace import TraceReplayer
    from repro.system import PimSystem
    from repro.upmem_runtime.engine import SoftwareTransferEngine
    from repro.upmem_runtime.software_xfer import SoftwareCopyThread
    from repro.workloads.llm import ServingDriver

    return {
        "api.transfer": [(Session, "transfer")],
        "api.serve_llm": [(Session, "serve_llm")],
        "api.replay": [(Session, "replay")],
        "core.execute": [(DataCopyEngine, "execute")],
        "upmem_runtime.execute": [(SoftwareTransferEngine, "execute")],
        "workloads.execute": [(ServingDriver, "execute")],
        "scenarios.execute": [(TraceReplayer, "execute")],
        "system.submit": [(PimSystem, "submit")],
        "mapping.decode": [(HomogeneousMapper, "decode"), (HeterogeneousMapper, "decode")],
        "memctrl.enqueue": [(ChannelController, "enqueue")],
        "dram.access": [(DdrChannel, "access")],
        "host.preempt": [(SoftwareCopyThread, "on_preempted")],
    }


__all__ = [
    "LAYERS",
    "SPAN_CAP",
    "Tracer",
    "boundaries",
    "layer_of",
    "profile_seconds",
    "self_seconds",
    "shares_of",
]
