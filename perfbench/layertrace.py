"""Per-layer spans for the traced benchmark run, recorded from outside ``src/``.

``Tracer.install`` wraps every public function of the traced ``ncid``
modules and rebinds the wrapper under each name that holds the original in
every loaded ``ncid`` module namespace, so cross-layer calls such as
``certify -> free_from_moments`` are caught too.  A span's self time is its
duration minus the durations of its child spans; per-element helpers are
left unwrapped, so their time counts in their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

# Modules whose public functions are wrapped.  ``algebra`` is left out: its
# helpers run per tensor element (hundreds of thousands of calls per job).
TRACED_MODULES = (
    "nclattice",
    "distribution",
    "cumulants",
    "convolution",
    "fock",
    "ncfunctions",
    "certify",
    "serialize",
)
# Per-element helpers of traced modules; wrapping them would measure the
# wrapper, not the layer.
UNWRAPPED = {
    "distribution.contract_units",
    "distribution.level_shape",
    "nclattice.leq",  # one call per pair of partitions in the Moebius recursion
    "serialize.tensor_to_json",  # recursive, one call per tensor entry
}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    # Outermost activations only, so recursion is not counted twice.
    total_s: float = 0.0
    errors: int = 0


class Tracer:
    """Collects per-function call counts, self and total time, and errors.

    Keys are ``"<layer>.<function>"``.  ``take`` returns what was recorded
    since the previous ``take`` and starts a fresh collection.
    """

    def __init__(self):
        self._stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # child time of each open span
        self._depth: dict[str, int] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, Stat]:
        stats, self._stats = self._stats, {}
        return stats

    def record(self, key: str, seconds: float, failed: bool = False) -> None:
        """Add a leaf span measured by the caller, e.g. a CLI subprocess."""
        self._close(key, seconds, seconds, True, failed)

    def _close(self, key, duration, self_time, outermost, failed) -> None:
        stat = self._stats.get(key)
        if stat is None:
            stat = self._stats[key] = Stat()
        stat.calls += 1
        stat.self_s += self_time
        if outermost:
            stat.total_s += duration
        stat.errors += failed
        if self._stack:
            self._stack[-1] += duration

    def _wrap(self, key: str, fn):
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth[key] = depth.get(key, 0) + 1
            stack.append(0.0)
            failed = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                depth[key] -= 1
                self._close(key, duration, duration - child, depth[key] == 0, failed)

        return traced

    def install(self) -> None:
        if self._rebound:
            return
        wrappers = {}
        for layer in TRACED_MODULES:
            module = sys.modules[f"ncid.{layer}"]
            for name, obj in vars(module).items():
                key = f"{layer}.{name}"
                if (
                    name.startswith("_")
                    or key in UNWRAPPED
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or id(obj) in wrappers
                ):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "ncid" and not modname.startswith("ncid."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._rebound):
            setattr(module, name, obj)
        self._rebound = []
