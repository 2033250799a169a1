"""Builtin inputs and the scenario file format.

Scenario documents are JSON.  Complex numbers serialize as [re, im]
pairs of finite numbers; a state spec is one of

    {"vector": [[re, im], ...]}            rank-1 projector onto a vector
    {"span": [vector, vector, ...]}        projector onto a span
    {"projector": [[[re, im], ...], ...]}  explicit matrix, validated

and a document is

    {"dimension": d,
     "pre": <state spec>, "post": <state spec>,
     "measurements": [{"name": ..., "outcomes": [<state spec>, ...]}, ...]}

Vectors may be left unnormalized.  A measurement name is a printable
string without "=".

A document is loaded in one pass: every state spec is parsed, each span
or matrix in one numpy step, and then all the matrices of the document are
validated as one stack.  The fault reported is the first in document
order, the same one a walk that checked each state and measurement as it
reached it would report.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .contextuality import MAX_DIMENSION, ConstraintSystem, assemble_system
from .errors import NotAScenario, ParseError, ToolError, UnknownBuiltin
from .linalg import Projector, _projectors, _span_of, projector_from_vectors
from .measurement import Pvm, Scenario

THREE_BOX = "three-box"
CLIFTON_RAYS = "clifton-rays"
# The leaves a [re, im] pair accepts: ints and floats, by type() so that
# JSON true and false (ints) do not pass, at most _FLOAT_MAX in size so that
# NaN, Infinity and integers beyond the float range do not pass.
_NUMBER_TYPES = frozenset({int, float})
_FLOAT_MAX = sys.float_info.max


def three_box() -> Scenario:
    """The three-box scenario.

    A particle in one of three boxes is pre-selected on |1> + |2> + |3>
    and post-selected on |1> + |2> - |3>; the intermediate measurement
    either checks box 1 or checks box 2.
    """
    # Built one projector at a time through the public constructor: the
    # traced self-test in perfbench/ reads a `linalg.Projector` span on
    # the three-box proof.
    pre = projector_from_vectors([[1, 1, 1]])
    post = projector_from_vectors([[1, 1, -1]])
    p1 = projector_from_vectors([[1, 0, 0]])
    p1c = projector_from_vectors([[0, 1, 0], [0, 0, 1]])
    p2 = projector_from_vectors([[0, 1, 0]])
    p2c = projector_from_vectors([[1, 0, 0], [0, 0, 1]])
    return Scenario(
        dim=3,
        pre=pre,
        post=post,
        measurements=(Pvm("E1", (p1, p1c)), Pvm("E2", (p2, p2c))),
    )


def eight_ray_system() -> ConstraintSystem:
    """Eight-ray constraint fixture for direct solving.

    The rays of the three-box construction regarded as alternative
    single-time tests: both selection rays are fixed to value 1 and the
    two orthogonal triples resolve the identity.  Bypasses the scenario
    pipeline entirely.
    """
    rays = [
        [1, 1, 1],  # pre-selection ray, fixed to 1
        [1, 1, -1],  # post-selection ray, fixed to 1
        [1, 0, 0],
        [0, 1, 1],
        [0, 1, -1],
        [0, 1, 0],
        [1, 0, 1],
        [1, 0, -1],
    ]
    # The rays' projectors, validated as one stack.
    nodes = list(_projectors(np.stack([_span_of([r]) for r in rays])))
    return assemble_system(
        nodes,
        fixed=((0, 1), (1, 1)),
        resolutions=((2, 3, 4), (5, 6, 7)),
    )


_BUILTINS = {THREE_BOX: three_box, CLIFTON_RAYS: eight_ray_system}
BUILTIN_NAMES = tuple(_BUILTINS)


def _complex_scalar(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(type(x) in _NUMBER_TYPES and abs(x) <= _FLOAT_MAX for x in value)
    ):
        raise ParseError(
            f"{where}: expected a [re, im] pair of finite numbers, got {value!r}"
        )
    return complex(value[0], value[1])


def _complex_array(rows: list, dim: int) -> np.ndarray | None:
    """``rows``, a list of lists of ``dim`` [re, im] pairs, as a complex
    array in one numpy step, or None if the step cannot vouch for it.  It
    vouches only for rows that are lists, pairs that are lists or tuples,
    int and float leaves (not bool) and entries below the float maximum in
    size; each entry is then ``complex(re, im)`` bit for bit.  The walk
    decides everything else."""
    if set(map(type, rows)) != {list}:
        return None
    pairs = list(chain.from_iterable(rows))
    if not set(map(type, pairs)) <= {list, tuple}:
        return None
    if not set(map(type, chain.from_iterable(pairs))) <= _NUMBER_TYPES:
        return None
    try:
        array = np.array(rows, dtype=float)
    except (ValueError, OverflowError):  # a ragged nesting, an int beyond the float range
        return None
    # Strictly below the bound: float() rounds an int just above _FLOAT_MAX
    # down to it, so an entry equal to it may stand for an int the walk
    # refuses, and the walk decides it.
    if array.shape != (len(rows), dim, 2) or not (np.abs(array) < _FLOAT_MAX).all():
        return None
    return array.view(complex)[..., 0]


def _complex_vector(value, dim: int, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of [re, im] pairs")
    if len(value) != dim:
        raise ParseError(f"{where}: expected {dim} components, got {len(value)}")
    return np.array(
        [_complex_scalar(c, f"{where}[{i}]") for i, c in enumerate(value)]
    )


def _complex_rows(rows: list, dim: int, where: str) -> np.ndarray:
    fast = _complex_array(rows, dim)
    if fast is not None:
        return fast
    return np.array(
        [_complex_vector(row, dim, f"{where}[{i}]") for i, row in enumerate(rows)]
    )


def _parse_state(spec, dim: int, where: str) -> tuple[str, str, np.ndarray]:
    """(where, kind, matrix) of a state spec, not yet validated: a span's
    `projector_from_vectors` matrix, or the explicit projector matrix."""
    if not isinstance(spec, dict):
        raise ParseError(f"{where}: expected an object with one of "
                         "'vector', 'span', 'projector'")
    kinds = [k for k in ("vector", "span", "projector") if k in spec]
    if len(kinds) != 1:
        raise ParseError(
            f"{where}: exactly one of 'vector', 'span', 'projector' is required"
        )
    kind = kinds[0]
    value = spec[kind]
    if kind == "projector":
        if not isinstance(value, list) or len(value) != dim:
            raise ParseError(f"{where}.projector: expected a {dim}x{dim} matrix")
        return where, kind, _complex_rows(value, dim, f"{where}.projector")
    if kind == "vector":
        vectors = _complex_vector(value, dim, f"{where}.vector")[None]
    elif not isinstance(value, list) or not value:
        raise ParseError(f"{where}.span: expected a nonempty list of vectors")
    else:
        vectors = _complex_rows(value, dim, f"{where}.span")
    try:
        return where, kind, _span_of(vectors)
    except ToolError as exc:
        raise ParseError(f"{where}.{kind}: {exc}") from exc


def _parse_states(doc, dim: int) -> tuple[list, ParseError | None]:
    """The states and measurements of ``doc`` as build steps in document
    order, and the first ParseError of the walk, where the walk stops, or
    None.  A step is `_parse_state`'s triple or, after a measurement's
    outcomes, (where, "pvm", (name, number of outcomes))."""
    steps = []
    try:
        steps.append(_parse_state(doc["pre"], dim, "pre"))
        steps.append(_parse_state(doc["post"], dim, "post"))
        if not isinstance(doc["measurements"], list) or not doc["measurements"]:
            raise ParseError("measurements: expected a nonempty list")
        for i, entry in enumerate(doc["measurements"]):
            where = f"measurements[{i}]"
            if not isinstance(entry, dict):
                raise ParseError(f"{where}: expected an object")
            name = entry.get("name")
            if not isinstance(name, str) or not name:
                raise ParseError(f"{where}.name: expected a nonempty string")
            outcomes = entry.get("outcomes")
            if not isinstance(outcomes, list) or len(outcomes) < 2:
                raise ParseError(f"{where}.outcomes: expected a list of >= 2 state specs")
            for j, spec in enumerate(outcomes):
                steps.append(_parse_state(spec, dim, f"{where}.outcomes[{j}]"))
            steps.append((where, "pvm", (name, len(outcomes))))
    except ParseError as fault:
        return steps, fault
    return steps, None


def _build(steps: list) -> tuple[list[Projector], list[Pvm]]:
    """The projectors and PVMs of parsed steps, in document order: the
    matrices are validated as one ``check_projectors`` stack, and the first
    fault of the steps in order raises as ParseError."""
    matrices = [data for _, kind, data in steps if kind != "pvm"]
    checked = _projectors(np.stack(matrices)) if matrices else iter(())
    projectors, pvms = [], []
    for where, kind, data in steps:
        try:
            if kind == "pvm":
                name, count = data
                pvms.append(Pvm(name, tuple(projectors[-count:])))
            else:
                projectors.append(next(checked))
        except (ToolError, ValueError) as exc:
            raise ParseError(
                f"{where}: {exc}" if kind == "pvm" else f"{where}.{kind}: {exc}"
            ) from exc
    return projectors, pvms


def document_to_scenario(doc) -> Scenario:
    """Validate and convert a parsed document into a Scenario; the first
    fault in document order raises ParseError (see the module docstring)."""
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    dim = doc.get("dimension")
    if type(dim) is not int or dim < 1:
        raise ParseError("dimension: expected a positive integer")
    if dim >= MAX_DIMENSION:
        raise ParseError(f"dimension: {dim} is not below the limit {MAX_DIMENSION}")
    for key in ("pre", "post", "measurements"):
        if key not in doc:
            raise ParseError(f"{key}: missing required field")
    steps, fault = _parse_states(doc, dim)
    projectors, pvms = _build(steps)
    if fault is not None:
        raise fault
    try:
        return Scenario(
            dim=dim, pre=projectors[0], post=projectors[1], measurements=tuple(pvms)
        )
    except (ToolError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [
        [[float(c.real), float(c.imag)] for c in row] for row in np.asarray(matrix)
    ]


def scenario_to_document(scenario: Scenario) -> dict:
    """Serialize a scenario with explicit projector matrices."""
    return {
        "dimension": scenario.dim,
        "pre": {"projector": _matrix_to_pairs(scenario.pre.matrix)},
        "post": {"projector": _matrix_to_pairs(scenario.post.matrix)},
        "measurements": [
            {
                "name": pvm.name,
                "outcomes": [
                    {"projector": _matrix_to_pairs(e.matrix)} for e in pvm.elements
                ],
            }
            for pvm in scenario.measurements
        ],
    }


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_document(scenario), indent=2) + "\n"
    )


def load_scenario_file(path) -> Scenario:
    """Parse and validate a scenario document from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:  # nesting deeper than the parser's stack
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    return document_to_scenario(doc)


def load_scenario(source) -> Scenario | ConstraintSystem:
    """Load a builtin by name or a scenario document by path.

    The builtin ``three-box`` is a Scenario; ``clifton-rays`` is a
    ready-made ConstraintSystem for direct solve/graph runs.
    """
    factory = _BUILTINS.get(str(source))
    return factory() if factory else load_scenario_file(source)


def require_scenario(obj) -> Scenario:
    if isinstance(obj, Scenario):
        return obj
    raise NotAScenario(
        "this command needs a scenario; the requested input is a "
        "constraint-system fixture"
    )


def load_builtin(name: str) -> Scenario | ConstraintSystem:
    if name not in _BUILTINS:
        raise UnknownBuiltin(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    return _BUILTINS[name]()


__all__ = [
    "THREE_BOX",
    "CLIFTON_RAYS",
    "BUILTIN_NAMES",
    "three_box",
    "eight_ray_system",
    "document_to_scenario",
    "scenario_to_document",
    "save_scenario",
    "load_scenario_file",
    "load_scenario",
    "load_builtin",
    "require_scenario",
]
