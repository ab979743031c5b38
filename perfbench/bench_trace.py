"""Wall-clock spans around the program's layer boundaries, for the traced run.

The benchmark's traced run wraps public functions of the program (see
``bench_layers.install``) in :class:`SpanTracer` spans.  A span
is opened on entry and closed on exit; the tracer keeps the open spans on a
stack, so a layer's *self time* is its spans' durations minus the time of
the spans nested directly inside them.  The program's source is never
edited: wrappers are installed on the classes and modules before the
parameter server is built and removed afterwards (:class:`Instrumentation`).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class MissingBoundary(RuntimeError):
    """A public function the traced run wraps no longer exists."""


class SpanTracer:
    """Span stack with per-layer self time and per-layer counters.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    synthetic span tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open spans, innermost last: ``[layer, start, child_time]``.
        self.stack: List[list] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def enter(self, layer: str) -> None:
        self.stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        now = self.clock()
        layer, start, child = self.stack.pop()
        duration = now - start
        self.self_time[layer] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def inside(self, layer: str) -> bool:
        """Whether the innermost open span belongs to ``layer``."""
        return bool(self.stack) and self.stack[-1][0] == layer

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


def span_wrapper(
    tracer: SpanTracer,
    layer: str,
    fn: Callable,
    on_call: Optional[Callable[[SpanTracer, tuple, dict, Any], None]] = None,
) -> Callable:
    """Wrap ``fn`` in a ``layer`` span; ``on_call(tracer, args, kwargs, result)`` counts.

    ``on_call`` runs after the span closes, with the call's arguments and its
    result, so counting is charged to the caller's layer, not to ``layer``.
    """
    enter = tracer.enter
    leave = tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if on_call is not None:
            on_call(tracer, args, kwargs, result)
        return result

    return wrapper


def count_wrapper(tracer: SpanTracer, name: str, fn: Callable) -> Callable:
    """Wrap ``fn`` to count calls under ``name`` without opening a span."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TracedGenerator:
    """Generator proxy whose every resume is an ``ml`` span.

    ``send`` and ``throw`` -- all a simulation process calls -- forward to
    the wrapped generator, so yielded values, thrown exceptions and the
    return value (carried by ``StopIteration``) pass through unchanged.
    """

    __slots__ = ("_gen", "_tracer", "_layer")

    def __init__(self, gen, tracer: SpanTracer, layer: str = "ml") -> None:
        self._gen = gen
        self._tracer = tracer
        self._layer = layer

    def send(self, value):
        tracer = self._tracer
        tracer.counts[self._layer + ".worker_resumes"] += 1
        tracer.enter(self._layer)
        try:
            return self._gen.send(value)
        finally:
            tracer.exit()

    def throw(self, *args):
        tracer = self._tracer
        tracer.counts[self._layer + ".worker_resumes"] += 1
        tracer.enter(self._layer)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.exit()


def defining_classes(root: type, name: str) -> List[type]:
    """``root`` and its (transitive) subclasses whose own body defines ``name``."""
    found, seen, todo = [], set(), [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if name in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Instrumentation:
    """Installs wrappers on classes and modules and restores the originals.

    Every ``patch_*`` call fails loudly (:class:`MissingBoundary`) when the
    function it is asked to wrap does not exist, so a renamed boundary can
    never silently drop a layer from the split.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_method(self, root: type, name: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``name`` on ``root`` and every subclass that defines it."""
        classes = defining_classes(root, name)
        if not classes:
            raise MissingBoundary(
                f"{root.__module__}.{root.__qualname__}.{name} no longer exists"
            )
        for cls in classes:
            self._set(cls, name, make(cls.__dict__[name]))

    def patch_function(
        self, module_name: str, name: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Wrap function ``module_name.name`` in every loaded module that binds it."""
        module = sys.modules.get(module_name)
        original = getattr(module, name, None) if module is not None else None
        if original is None:
            raise MissingBoundary(f"{module_name}.{name} no longer exists")
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if mod is not None and mod.__dict__.get(name) is original:
                self._set(mod, name, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
