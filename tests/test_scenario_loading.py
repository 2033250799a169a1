"""Scenario loading as one array pass: parity with a per-component walk.

`document_to_scenario` parses every state spec first, reads each list of
[re, im] pairs in one numpy step, and validates all the matrices of a
document as one `check_projectors` stack.  The oracle below is the walk
that built and validated each state and measurement when it reached it;
the loader must raise its first ParseError, message for message, or give
its matrices and ranks bit for bit.
"""

import copy
import json
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppscontext import linalg, scenarios
from ppscontext.contextuality import MAX_DIMENSION
from ppscontext.errors import ParseError, ToolError, ZeroVector
from ppscontext.generate import paradox_corpus
from ppscontext.linalg import EPS_PROJ, EPS_RANK, Projector
from ppscontext.measurement import Pvm, Scenario
from ppscontext.scenarios import (
    document_to_scenario,
    eight_ray_system,
    load_builtin,
    load_scenario_file,
    save_scenario,
    scenario_to_document,
    three_box,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
_FLOAT_MAX = sys.float_info.max


# --- the oracle: one projector at a time, each when the walk reaches it -----


def _oracle_span(vectors) -> Projector:
    """`projector_from_vectors` as a per-projector construction."""
    columns = []
    for v in vectors:
        v = np.asarray(v, dtype=complex).reshape(-1)
        small = np.abs(v.real).max() <= EPS_PROJ and np.abs(v.imag).max() <= EPS_PROJ
        if small and np.linalg.norm(v) <= EPS_PROJ:
            raise ZeroVector("vector norm is numerically zero")
        columns.append(v)
    a = np.column_stack(columns)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if not math.isfinite(s[0]):
        _, exp = np.frexp(max(linalg.max_abs(a.real), linalg.max_abs(a.imag)))
        u, s, _ = np.linalg.svd(a * 2.0 ** -int(exp), full_matrices=False)
    basis = u[:, : int(np.count_nonzero(s > EPS_RANK * s[0]))]
    return Projector(basis @ basis.conj().T)


def _oracle_scalar(value, where):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(type(x) in (int, float) and abs(x) <= _FLOAT_MAX for x in value)
    ):
        raise ParseError(f"{where}: expected a [re, im] pair of finite numbers, got {value!r}")
    return complex(value[0], value[1])


def _oracle_vector(value, dim, where):
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of [re, im] pairs")
    if len(value) != dim:
        raise ParseError(f"{where}: expected {dim} components, got {len(value)}")
    return np.array([_oracle_scalar(c, f"{where}[{i}]") for i, c in enumerate(value)])


def _oracle_state(spec, dim, where):
    if not isinstance(spec, dict):
        raise ParseError(f"{where}: expected an object with one of 'vector', 'span', 'projector'")
    kinds = [k for k in ("vector", "span", "projector") if k in spec]
    if len(kinds) != 1:
        raise ParseError(f"{where}: exactly one of 'vector', 'span', 'projector' is required")
    kind = kinds[0]
    try:
        if kind == "vector":
            return _oracle_span([_oracle_vector(spec[kind], dim, f"{where}.vector")])
        if kind == "span":
            if not isinstance(spec[kind], list) or not spec[kind]:
                raise ParseError(f"{where}.span: expected a nonempty list of vectors")
            return _oracle_span(
                [_oracle_vector(v, dim, f"{where}.span[{i}]") for i, v in enumerate(spec[kind])]
            )
        matrix = spec[kind]
        if not isinstance(matrix, list) or len(matrix) != dim:
            raise ParseError(f"{where}.projector: expected a {dim}x{dim} matrix")
        rows = [_oracle_vector(r, dim, f"{where}.projector[{i}]") for i, r in enumerate(matrix)]
        return Projector(np.array(rows))
    except ParseError:
        raise
    except ToolError as exc:
        raise ParseError(f"{where}.{kind}: {exc}") from exc


def oracle_document_to_scenario(doc) -> Scenario:
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
    pre = _oracle_state(doc["pre"], dim, "pre")
    post = _oracle_state(doc["post"], dim, "post")
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
            _oracle_state(spec, dim, f"{where}.outcomes[{j}]") for j, spec in enumerate(outcomes)
        )
        try:
            pvms.append(Pvm(name, elements))
        except (ToolError, ValueError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
    try:
        return Scenario(dim=dim, pre=pre, post=post, measurements=tuple(pvms))
    except (ToolError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def fingerprint(scenario: Scenario) -> tuple:
    """Names, matrix bytes and ranks of every projector of a scenario."""
    projectors = [scenario.pre, scenario.post]
    projectors += [e for m in scenario.measurements for e in m.elements]
    return (
        scenario.dim,
        tuple(m.name for m in scenario.measurements),
        tuple((p.matrix.dtype.str, p.matrix.shape, p.matrix.tobytes(), p.rank) for p in projectors),
    )


def outcome(load, doc):
    """("ok", fingerprint) or ("error", message) of loading a copy of doc.
    Entries near the float maximum overflow in the idempotence product, on
    both sides alike; the verdict, not numpy's warning, is compared."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return "ok", fingerprint(load(copy.deepcopy(doc)))
    except ParseError as exc:
        return "error", str(exc)


# --- documents ----------------------------------------------------------------


def _vec(*values):
    return {"vector": [[float(v), 0.0] for v in values]}


def _mat(rows):
    return {"projector": [[[float(x), 0.0] for x in row] for row in rows]}


_HALF = _mat([[0.5, 0], [0, 1]])  # hermitian, not idempotent
_NONHERMITIAN = {"projector": [[[1, 0], [0.5, 0]], [[0, 0], [0, 0]]]}


def _doc(**states):
    """A valid qubit document with two PVMs, then states replaced: ``pre``,
    ``post``, ``measurements``, or ``m<i><j>`` for outcome j of PVM i."""
    doc = {
        "dimension": 2,
        "pre": _vec(1, 0),
        "post": _vec(1, 1),
        "measurements": [
            {"name": "E", "outcomes": [_vec(1, 0), _vec(0, 1)]},
            {"name": "F", "outcomes": [_vec(1, 1), _vec(1, -1)]},
        ],
    }
    for key, value in states.items():
        if key in doc:
            doc[key] = value
        else:
            doc["measurements"][int(key[1])]["outcomes"][int(key[2])] = value
    # The document as the file loader sees it: JSON text parsed back.
    return json.loads(json.dumps(doc))


TWO_FAULTS = [
    ("bad-pre-then-malformed-pair",
     _doc(pre=_HALF, m01={"vector": [[1], [0, 0]]}),
     "pre.projector: matrix is not idempotent within 1e-09"),
    ("nonorthogonal-pvm0-then-bad-matrix",
     _doc(m01=_vec(1, 1), m10=_NONHERMITIAN),
     "measurements[0]: PVM 'E': elements 0 and 1 are not orthogonal"),
    ("nonorthogonal-pvm0-then-malformed-matrix",
     _doc(m01=_vec(1, 1), m10={"projector": [[[1, 0], "x"], [[0, 0], [0, 0]]]}),
     "measurements[0]: PVM 'E': elements 0 and 1 are not orthogonal"),
    ("nan-then-structural",
     _doc(pre={"projector": [[[float("nan"), 0], [0, 0]], [[0, 0], [0, 0]]]}, measurements=[]),
     "pre.projector[0][0]: expected a [re, im] pair of finite numbers, got [nan, 0]"),
    ("zero-pre-then-bad-post",
     _doc(pre=_vec(0, 0), post=_HALF),
     "pre.vector: vector norm is numerically zero"),
    ("bad-pre-then-zero-outcome",
     _doc(pre=_HALF, m11=_vec(0, 0)),
     "pre.projector: matrix is not idempotent within 1e-09"),
    ("unsummed-pvm0-then-zero-vector",
     _doc(m00=_mat([[1, 0], [0, 0]]), m01=_mat([[0, 0], [0, 0]]), m10=_vec(0, 0)),
     "measurements[0]: PVM 'E': elements do not sum to identity"),
    ("bad-outcome-then-nonorthogonal-pvm",
     _doc(m01=_HALF, m11=_vec(1, 0)),
     "measurements[0].outcomes[1].projector: matrix is not idempotent within 1e-09"),
    ("rank-zero-pre-then-bad-name",
     {**_doc(pre=_mat([[0, 0], [0, 0]])),
      "measurements": [_doc()["measurements"][0], {"name": 7}]},
     "measurements[1].name: expected a nonempty string"),
]


@pytest.mark.parametrize("doc, message", [c[1:] for c in TWO_FAULTS],
                         ids=[c[0] for c in TWO_FAULTS])
def test_first_fault_in_document_order_raises(doc, message):
    assert outcome(oracle_document_to_scenario, doc) == ("error", message)
    assert outcome(document_to_scenario, doc) == ("error", message)


def _with_leaf(value):
    """Outcome 0 of PVM 0 as a projector matrix whose [1][0] imaginary part is value."""
    matrix = _mat([[1, 0], [0, 0]])
    matrix["projector"][1][0][1] = value
    return matrix


_LEAF_WHERE = "measurements[0].outcomes[0].projector[1][0]"
LEAVES = [
    ("true", _with_leaf(True), f"{_LEAF_WHERE}: expected a [re, im] pair of finite numbers, got [0.0, True]"),
    ("string", _with_leaf("1"), f"{_LEAF_WHERE}: expected a [re, im] pair of finite numbers, got [0.0, '1']"),
    ("null", _with_leaf(None), f"{_LEAF_WHERE}: expected a [re, im] pair of finite numbers, got [0.0, None]"),
    ("huge-int", _with_leaf(10**400),
     f"{_LEAF_WHERE}: expected a [re, im] pair of finite numbers, got [0.0, {10**400}]"),
    ("minus-infinity", _with_leaf(float("-inf")),
     f"{_LEAF_WHERE}: expected a [re, im] pair of finite numbers, got [0.0, -inf]"),
    ("d-d-3", {"projector": [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]},
     "measurements[0].outcomes[0].projector[0][0]: expected a [re, im] pair of finite numbers, "
     "got [1.0, 0.0, 0.0]"),
]


@pytest.mark.parametrize("spec, message", [c[1:] for c in LEAVES], ids=[c[0] for c in LEAVES])
def test_fast_step_refuses_leaves_the_walk_rejects(spec, message):
    assert scenarios._complex_array(spec["projector"], 2) is None
    doc = _doc(m00=spec)
    assert outcome(oracle_document_to_scenario, doc) == ("error", message)
    assert outcome(document_to_scenario, doc) == ("error", message)


@pytest.mark.parametrize(
    "matrix, where",
    [
        ([([1.0, 0.0], [0.0, 0.0]), [[0.0, 0.0], [1.0, 0.0]]], "pre.projector[0]: "),
        ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [np.float64(1.0), 0.0]]], "pre.projector[1][1]: "),
    ],
    ids=["tuple-row", "numpy-leaf"],
)
def test_fast_step_refuses_containers_the_walk_rejects(matrix, where):
    # Python callers may pass what JSON never yields.
    assert scenarios._complex_array(matrix, 2) is None
    doc = {**_doc(), "pre": {"projector": matrix}}
    expected = outcome(oracle_document_to_scenario, doc)
    assert expected[0] == "error" and expected[1].startswith(where)
    assert outcome(document_to_scenario, doc) == expected


@pytest.mark.parametrize(
    "pair",
    [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [2**53 + 1, 0], [2**64 + 3, -(2**63 + 1)],
     [10**300 + 1, 1e-320], [_FLOAT_MAX, 0], [int(_FLOAT_MAX), 0]],
    ids=["minus-zero-im", "minus-zero-re", "minus-zeros", "int-above-2-53", "ints-beyond-64-bits",
         "huge-int-and-subnormal", "float-max", "int-float-max"],
)
def test_entries_are_complex_of_the_pair_bit_for_bit(pair):
    rows = [[pair, [1, 0]], [[0, 0], pair]]
    expected = np.array([[complex(*pair), 1], [0, complex(*pair)]])
    fast = scenarios._complex_rows(rows, 2, "m")
    assert fast.dtype == complex and fast.tobytes() == expected.tobytes()


def test_ints_just_beyond_the_float_maximum_go_to_the_walk():
    # float() rounds this int down to the float maximum, but its size is
    # beyond it, so the walk rejects it and the fast step must not vouch.
    value = int(_FLOAT_MAX) + 2**969
    assert float(value) == _FLOAT_MAX
    assert scenarios._complex_array([[[value, 0]]], 1) is None
    with pytest.raises(ParseError, match=r"^m\[0\]\[0\]: expected a \[re, im\] pair"):
        scenarios._complex_rows([[[value, 0]]], 1, "m")


# --- parity on saved documents ------------------------------------------------

CORPUS = paradox_corpus(601, 12)
GOLDEN_FILES = [GOLDEN_DIR / name
                for name in ("y_basis.json", "tilted_three_box.json", "three_box_saved.json")]
# Each document as read back from its file.
DOCUMENTS = [json.loads(json.dumps(scenario_to_document(s))) for s in CORPUS]
DOCUMENTS += [json.loads(path.read_text()) for path in GOLDEN_FILES]


def _leaf_paths(node, path=()):
    """Paths to the number leaves of a document, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "dimension":
                yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    elif type(node) in (int, float):
        yield path


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


LEAF_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**1030), max_value=2**1030),
    st.sampled_from([True, False, None, "1", 10**400, -0.0, 0, 1, 0.5]),
    st.lists(st.floats(min_value=-2, max_value=2), max_size=3),
    st.builds(lambda x, e: x + e, st.sampled_from([0.0, 0.5, 1.0]),
              st.sampled_from([1e-12, -1e-8, 1e-6])),
)


@given(st.data())
def test_loading_a_mutated_document_matches_the_walk(data):
    # One or two leaves of a saved document replaced: the same message, or
    # the same matrices and ranks bit for bit.
    doc = data.draw(st.sampled_from(DOCUMENTS), label="document")
    paths = list(_leaf_paths(doc))
    for _ in range(data.draw(st.integers(1, 2), label="leaves")):
        path = data.draw(st.sampled_from(paths), label="path")
        doc = _replaced(doc, path, data.draw(LEAF_VALUES, label="value"))
    assert outcome(document_to_scenario, doc) == outcome(oracle_document_to_scenario, doc)


# --- one stack, same bytes ------------------------------------------------------


@pytest.fixture
def stack_calls(monkeypatch):
    """Counts `check_projectors` calls as the loader reaches it, through linalg."""
    calls = []
    original = linalg.check_projectors

    def counted(stack):
        calls.append(len(stack))
        return original(stack)

    monkeypatch.setattr(linalg, "check_projectors", counted)
    return calls


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    paths = []
    for i, scenario in enumerate(CORPUS):
        paths.append(root / f"corpus-{i}.json")
        save_scenario(scenario, paths[-1])
    return paths + GOLDEN_FILES


def test_each_file_is_validated_as_one_stack(saved_files, stack_calls):
    for path in saved_files:
        del stack_calls[:]
        scenario = load_scenario_file(path)
        count = 2 + sum(len(m) for m in scenario.measurements)
        assert stack_calls == [count]


def test_clifton_rays_is_validated_as_one_stack(stack_calls):
    load_builtin("clifton-rays")
    assert stack_calls == [8]


def test_three_box_constructs_each_projector(stack_calls):
    # One `Projector(m)` per projector: perfbench's traced self-test reads
    # the constructor's span on the three-box proof.
    load_builtin("three-box")
    assert stack_calls == [1] * 6


def test_loaded_files_match_per_projector_construction(saved_files):
    for path in saved_files:
        doc = json.loads(path.read_text())
        expected = fingerprint(oracle_document_to_scenario(doc))
        assert fingerprint(load_scenario_file(path)) == expected


def _oracle_three_box() -> Scenario:
    def span(*vs):
        return _oracle_span([np.asarray(v, dtype=complex) for v in vs])

    return Scenario(
        dim=3,
        pre=span([1, 1, 1]),
        post=span([1, 1, -1]),
        measurements=(
            Pvm("E1", (span([1, 0, 0]), span([0, 1, 0], [0, 0, 1]))),
            Pvm("E2", (span([0, 1, 0]), span([1, 0, 0], [0, 0, 1]))),
        ),
    )


def test_builtins_match_per_projector_construction():
    assert fingerprint(three_box()) == fingerprint(_oracle_three_box())
    rays = [[1, 1, 1], [1, 1, -1], [1, 0, 0], [0, 1, 1], [0, 1, -1], [0, 1, 0], [1, 0, 1],
            [1, 0, -1]]
    system = eight_ray_system()
    expected = [_oracle_span([np.asarray(r, dtype=complex)]) for r in rays]
    assert [(n.matrix.tobytes(), n.rank) for n in system.nodes] == [
        (p.matrix.tobytes(), p.rank) for p in expected
    ]
