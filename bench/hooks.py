"""Call hooks for the traced run: count calls into a module and time them.

A hook replaces a function at the place its caller looks it up, for
example ``arccount.counter.classify`` (the name ``count`` resolves at call
time), not ``arccount.stabber.classify``.  Hooks are installed only for the
traced run and removed afterwards.  A hooked name that does not exist is
skipped, so its metrics read 0 calls and 0 s; the benchmark then still
measures a version of the library that deleted the function.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True)
class Hook:
    """Where to hook and what to record.

    ``owner`` is a dotted module path, optionally followed by a class name
    (``arccount.sampler.WeightedSampler``).  ``timed`` adds wall time to the
    call count; leave it off for functions called thousands of times per
    query, where the clock reads would dominate.  ``peak_memory`` records the
    tracemalloc peak of the call; ``keep_result`` stores the last result.
    """

    owner: str
    attr: str
    name: str
    timed: bool = True
    peak_memory: bool = False
    keep_result: bool = False


class Tracer:
    """Call counts, seconds, peak bytes and kept results per hook name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.results: dict[str, Any] = {}

    def wrap(self, fn: Any, hook: Hook) -> Any:
        name = hook.name

        if not hook.timed:

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                self.calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            self.calls[name] += 1
            if hook.peak_memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                if hook.peak_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            if hook.keep_result:
                self.results[name] = result
            return result

        return timed


def _resolve_owner(path: str) -> Any | None:
    """Import the longest module prefix of ``path`` and walk the rest as attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


@contextmanager
def installed(tracer: Tracer, hooks: list[Hook]) -> Iterator[None]:
    """Replace each hooked name by its wrapper; restore the originals on exit."""
    saved: list[tuple[Any, str, Any, bool]] = []
    try:
        for hook in hooks:
            owner = _resolve_owner(hook.owner)
            if owner is None or not hasattr(owner, hook.attr):
                continue
            own = hook.attr in vars(owner)
            original = vars(owner)[hook.attr] if own else getattr(owner, hook.attr)
            saved.append((owner, hook.attr, original, own))
            setattr(owner, hook.attr, tracer.wrap(getattr(owner, hook.attr), hook))
        yield
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
