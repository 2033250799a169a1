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
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .contextuality import MAX_DIMENSION, ConstraintSystem, assemble_system
from .errors import NotAScenario, ParseError, ToolError, UnknownBuiltin
from .linalg import Projector, projector_from_vectors
from .measurement import Pvm, Scenario

THREE_BOX = "three-box"
CLIFTON_RAYS = "clifton-rays"
_FLOAT_MAX = sys.float_info.max


def three_box() -> Scenario:
    """The three-box scenario.

    A particle in one of three boxes is pre-selected on |1> + |2> + |3>
    and post-selected on |1> + |2> - |3>; the intermediate measurement
    either checks box 1 or checks box 2.
    """
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
    nodes = [projector_from_vectors([r]) for r in rays]
    return assemble_system(
        nodes,
        fixed=((0, 1), (1, 1)),
        resolutions=((2, 3, 4), (5, 6, 7)),
    )


_BUILTINS = {THREE_BOX: three_box, CLIFTON_RAYS: eight_ray_system}
BUILTIN_NAMES = tuple(_BUILTINS)


def _complex_scalar(value, where: str) -> complex:
    # type(), not isinstance: JSON true and false load as ints.  NaN,
    # Infinity and integers beyond the float range fail the bound.
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(type(x) in (int, float) and abs(x) <= _FLOAT_MAX for x in value)
    ):
        raise ParseError(
            f"{where}: expected a [re, im] pair of finite numbers, got {value!r}"
        )
    return complex(value[0], value[1])


def _complex_vector(value, dim: int, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of [re, im] pairs")
    if len(value) != dim:
        raise ParseError(f"{where}: expected {dim} components, got {len(value)}")
    return np.array(
        [_complex_scalar(c, f"{where}[{i}]") for i, c in enumerate(value)]
    )


def _state_projector(spec, dim: int, where: str) -> Projector:
    if not isinstance(spec, dict):
        raise ParseError(f"{where}: expected an object with one of "
                         "'vector', 'span', 'projector'")
    kinds = [k for k in ("vector", "span", "projector") if k in spec]
    if len(kinds) != 1:
        raise ParseError(
            f"{where}: exactly one of 'vector', 'span', 'projector' is required"
        )
    kind = kinds[0]
    try:
        if kind == "vector":
            return projector_from_vectors([_complex_vector(spec[kind], dim, f"{where}.vector")])
        if kind == "span":
            if not isinstance(spec[kind], list) or not spec[kind]:
                raise ParseError(f"{where}.span: expected a nonempty list of vectors")
            vectors = [
                _complex_vector(v, dim, f"{where}.span[{i}]")
                for i, v in enumerate(spec[kind])
            ]
            return projector_from_vectors(vectors)
        matrix = spec[kind]
        if not isinstance(matrix, list) or len(matrix) != dim:
            raise ParseError(f"{where}.projector: expected a {dim}x{dim} matrix")
        rows = [
            _complex_vector(row, dim, f"{where}.projector[{i}]")
            for i, row in enumerate(matrix)
        ]
        return Projector(np.array(rows))
    except ParseError:
        raise
    except ToolError as exc:
        raise ParseError(f"{where}.{kind}: {exc}") from exc


def document_to_scenario(doc) -> Scenario:
    """Validate and convert a parsed document into a Scenario."""
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
    pre = _state_projector(doc["pre"], dim, "pre")
    post = _state_projector(doc["post"], dim, "post")
    if not isinstance(doc["measurements"], list) or not doc["measurements"]:
        raise ParseError("measurements: expected a nonempty list")
    pvms = []
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
        elements = tuple(
            _state_projector(spec, dim, f"{where}.outcomes[{j}]")
            for j, spec in enumerate(outcomes)
        )
        try:
            pvms.append(Pvm(name, elements))
        except (ToolError, ValueError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
    try:
        return Scenario(dim=dim, pre=pre, post=post, measurements=tuple(pvms))
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
