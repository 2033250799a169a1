"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped library function: its name, start and
end (``time.perf_counter`` seconds), the span that was open when it
started (its parent, -1 for none) and the id of the benchmark op it
belongs to.  Hooks may attach up to three numbers to a span (a cache
hit, a result size, ...).  Spans are kept in flat ``array`` columns so a
traced run of a few million calls stays within tens of megabytes.

Wrapping replaces a function in every ``ppscontext`` namespace that
binds it, including the names one module imported from another, so a
call made from inside the library is recorded as well.  ``Tracer`` owns
the originals and puts each one back in ``uninstall``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

#: op id of spans recorded while inputs are built.
SETUP_OP = -1
#: Attribute that marks a function as a span wrapper.
SPAN_MARK = "__perfbench_span__"
#: The package whose functions are wrapped.
PACKAGE = "ppscontext"

Hook = Callable[[tuple, dict, object], tuple]


class SpanRecorder:
    """Append-only span store with an explicit stack of open spans."""

    N_VALUES = 3

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values = [array("d") for _ in range(self.N_VALUES)]
        self._stack: list[int] = []
        self.current_op = SETUP_OP
        self.paused = False

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        for column in self.values:
            column.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int, end: float, values: tuple = ()) -> None:
        self.end[index] = end
        for column, value in zip(self.values, values):
            column[index] = float(value)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield index
        finally:
            self.close(index, perf_counter())

    @contextmanager
    def pause(self):
        """Run calls unrecorded, e.g. the benchmark's own answer checks."""
        was = self.paused
        self.paused = True
        try:
            yield
        finally:
            self.paused = was

    def frozen(self) -> "Spans":
        return Spans(
            names=tuple(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            op=np.frombuffer(self.op, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            values=np.stack(
                [np.frombuffer(c, dtype=np.float64) for c in self.values]
            ).copy(),
        )


@dataclass(frozen=True, eq=False)
class Spans:
    """Recorded spans as numpy columns, one entry per span."""

    names: tuple[str, ...]
    name: np.ndarray
    op: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    values: np.ndarray

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its children.

        Calls nest strictly in a single thread, so children never
        overlap each other and lie inside their parent.
        """
        duration = self.end - self.start
        has_parent = self.parent >= 0
        child_total = np.bincount(
            self.parent[has_parent],
            weights=duration[has_parent],
            minlength=len(duration),
        )
        return duration - child_total

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=self.name,
            op=self.op,
            parent=self.parent,
            start=self.start,
            end=self.end,
            values=self.values,
        )


def _wrap(recorder: SpanRecorder, name: str, fn, hook: Hook | None):
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if recorder.paused:
            return fn(*args, **kwargs)
        index = recorder.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(index, perf_counter())
            raise
        end = perf_counter()
        recorder.close(index, end, hook(args, kwargs, result) if hook else ())
        return result

    setattr(traced, SPAN_MARK, name)
    return traced


def _library_namespaces() -> list:
    return [
        module
        for module_name, module in sorted(sys.modules.items())
        if module is not None
        and (module_name == PACKAGE or module_name.startswith(PACKAGE + "."))
    ]


@dataclass(frozen=True)
class Target:
    """One function to trace.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``,
    relative to the package; the span is named ``"<module>.<rest>"``
    with ``.__init__`` dropped, e.g. ``linalg.Projector``.
    """

    where: str
    hook: Hook | None = None

    @property
    def span_name(self) -> str:
        module, rest = self.where.split(":")
        return f"{module}.{rest.removesuffix('.__init__')}"


class Tracer:
    """Installs span wrappers around library functions and removes them."""

    def __init__(self, recorder: SpanRecorder, targets):
        self.recorder = recorder
        self.targets = tuple(targets)
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = _library_namespaces()
        for target in self.targets:
            module_name, rest = target.where.split(":")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *class_path, attr = rest.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if class_path else getattr(owner, attr)
            wrapped = _wrap(self.recorder, target.span_name, original, target.hook)
            if class_path:
                self._patch(owner, attr, original, wrapped)
                continue
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, name, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Library names that still hold a span wrapper (empty when clean)."""
        found = []
        for namespace in _library_namespaces():
            for name, value in vars(namespace).items():
                members = vars(value).items() if isinstance(value, type) else ()
                if hasattr(value, SPAN_MARK):
                    found.append(f"{namespace.__name__}.{name}")
                found.extend(
                    f"{namespace.__name__}.{name}.{attr}"
                    for attr, member in members
                    if hasattr(member, SPAN_MARK)
                )
        return found

    @contextmanager
    def active(self):
        try:
            self.install()
            yield self.recorder
        finally:
            self.uninstall()

