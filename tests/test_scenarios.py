"""Builtins and the scenario document format."""

import json

import numpy as np
import pytest

from ppscontext.contextuality import ConstraintSystem
from ppscontext.errors import NotAScenario, ParseError, UnknownBuiltin
from ppscontext.linalg import max_abs, projector_from_vectors
from ppscontext.measurement import Scenario, abl_table
from ppscontext.scenarios import (
    document_to_scenario,
    eight_ray_system,
    load_builtin,
    load_scenario,
    load_scenario_file,
    require_scenario,
    save_scenario,
    scenario_to_document,
    three_box,
)


def test_three_box_builtin_shape():
    s = three_box()
    assert s.dim == 3
    assert len(s.measurements) == 2
    assert [m.name for m in s.measurements] == ["E1", "E2"]
    assert [e.rank for e in s.measurements[0].elements] == [1, 2]
    assert [e.rank for e in s.measurements[1].elements] == [1, 2]
    assert s.pre.rank == 1 and s.post.rank == 1


def test_load_scenario_builtins():
    assert isinstance(load_scenario("three-box"), Scenario)
    assert isinstance(load_scenario("clifton-rays"), ConstraintSystem)
    assert len(eight_ray_system().nodes) == 8


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        load_builtin("four-box")


def test_require_scenario_rejects_fixture():
    with pytest.raises(NotAScenario):
        require_scenario(eight_ray_system())


def test_round_trip(tmp_path):
    s = three_box()
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    loaded = load_scenario_file(path)
    assert loaded.dim == s.dim
    assert max_abs(loaded.pre.matrix - s.pre.matrix) <= 1e-9
    assert max_abs(loaded.post.matrix - s.post.matrix) <= 1e-9
    for a, b in zip(loaded.measurements, s.measurements):
        assert a.name == b.name
        for ea, eb in zip(a.elements, b.elements):
            assert max_abs(ea.matrix - eb.matrix) <= 1e-9


def _vector(values):
    return {"vector": [[float(np.real(c)), float(np.imag(c))] for c in values]}


def test_span_and_matrix_forms_agree():
    span_doc = {
        "dimension": 3,
        "pre": _vector([1, 1, 1]),
        "post": _vector([1, 1, -1]),
        "measurements": [
            {
                "name": "E1",
                "outcomes": [
                    _vector([1, 0, 0]),
                    {"span": [[[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]},
                ],
            }
        ],
    }
    scenario = document_to_scenario(span_doc)
    expected = projector_from_vectors([[0, 1, 0], [0, 0, 1]])
    assert max_abs(scenario.measurements[0].elements[1].matrix - expected.matrix) <= 1e-9


def test_complex_vector_round_trips(tmp_path):
    phi = [1, 1j, 0]
    psi = [1, 0, 1j]
    doc = {
        "dimension": 3,
        "pre": _vector(phi),
        "post": _vector(psi),
        "measurements": [
            {
                "name": "E",
                "outcomes": [_vector([1, 0, 0]), {"span": [_vector([0, 1, 0])["vector"], _vector([0, 0, 1])["vector"]]}],
            }
        ],
    }
    scenario = document_to_scenario(doc)
    path = tmp_path / "c.json"
    save_scenario(scenario, path)
    again = load_scenario_file(path)
    assert max_abs(again.pre.matrix - scenario.pre.matrix) <= 1e-9
    assert abl_table(again).entries == pytest.approx(abl_table(scenario).entries)


def test_parse_error_names_bad_projector_field():
    doc = {
        "dimension": 2,
        "pre": _vector([1, 0]),
        "post": _vector([1, 1]),
        "measurements": [
            {
                "name": "E",
                "outcomes": [
                    {"projector": [[[0.5, 0], [0, 0]], [[0, 0], [1, 0]]]},
                    _vector([0, 1]),
                ],
            }
        ],
    }
    with pytest.raises(ParseError, match=r"measurements\[0\].outcomes\[0\]"):
        document_to_scenario(doc)


def test_parse_error_on_missing_fields():
    with pytest.raises(ParseError, match="dimension"):
        document_to_scenario({"pre": {}, "post": {}, "measurements": []})
    with pytest.raises(ParseError, match="post"):
        document_to_scenario({"dimension": 2, "pre": _vector([1, 0]), "measurements": []})


def test_parse_error_on_bad_pairs():
    doc = {
        "dimension": 2,
        "pre": {"vector": [[1], [0, 0]]},
        "post": _vector([1, 1]),
        "measurements": [],
    }
    with pytest.raises(ParseError, match=r"pre.vector\[0\]"):
        document_to_scenario(doc)


def test_parse_error_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "dimension": 3,\n  oops\n}\n')
    with pytest.raises(ParseError, match="line 3"):
        load_scenario_file(path)


def test_state_spec_requires_exactly_one_kind():
    doc = {
        "dimension": 2,
        "pre": {"vector": [[1, 0], [0, 0]], "span": []},
        "post": _vector([1, 1]),
        "measurements": [],
    }
    with pytest.raises(ParseError, match="exactly one"):
        document_to_scenario(doc)


def test_non_pvm_outcomes_rejected():
    doc = {
        "dimension": 2,
        "pre": _vector([1, 0]),
        "post": _vector([1, 1]),
        "measurements": [
            {"name": "E", "outcomes": [_vector([1, 0]), _vector([1, 1])]}
        ],
    }
    with pytest.raises(ParseError, match=r"measurements\[0\]"):
        document_to_scenario(doc)


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("dimension", True, "dimension"),
        ("pre", {"vector": [[True, 0], [0, 0]]}, r"pre.vector\[0\]"),
        ("pre", {"vector": [[float("nan"), 0], [0, 0]]}, r"pre.vector\[0\]"),
        ("post", {"vector": [[1, 0], [0, float("inf")]]}, r"post.vector\[1\]"),
        ("pre", {"projector": [[[1, 0], [0, 0]], [[0, 0], [float("-inf"), 0]]]},
         r"pre.projector\[1\]\[1\]"),
        ("post", {"vector": [[10**400, 0], [1, 0]]}, r"post.vector\[0\]"),
    ],
    ids=["dimension-true", "boolean-pair", "nan", "infinity", "projector-infinity",
         "beyond-float-range"],
)
def test_parse_error_on_booleans_and_non_finite_numbers(field, value, where):
    doc = {
        "dimension": 2,
        "pre": _vector([1, 0]),
        "post": _vector([1, 1]),
        "measurements": [{"name": "E", "outcomes": [_vector([1, 0]), _vector([0, 1])]}],
    }
    doc[field] = value
    # The document as the file loader sees it: JSON text parsed back.
    doc = json.loads(json.dumps(doc))
    with pytest.raises(ParseError, match=where):
        document_to_scenario(doc)


@pytest.mark.parametrize("dim", [1000, 10**5])
def test_dimension_at_or_above_the_limit_is_rejected_before_any_state(dim):
    # The states are left empty: the dimension alone must fail, so no
    # d x d matrix is built.
    doc = {"dimension": dim, "pre": {"vector": []}, "post": {"vector": []},
           "measurements": []}
    with pytest.raises(ParseError, match=rf"^dimension: {dim} is not below the limit 1000$"):
        document_to_scenario(doc)


def test_dimension_just_below_the_limit_reaches_the_states():
    doc = {"dimension": 999, "pre": {"vector": []}, "post": {"vector": []},
           "measurements": []}
    with pytest.raises(ParseError, match=r"^pre\.vector: expected 999 components, got 0$"):
        document_to_scenario(doc)


def _with_measurement(doc, **fields):
    return {**doc, "measurements": [{**doc["measurements"][0], **fields}]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: {**d, "pre": {"vector": 5}},
         r"^pre\.vector: expected a list of \[re, im\] pairs$"),
        (lambda d: {**d, "post": [[1, 0], [1, 0]]},
         r"^post: expected an object with one of 'vector', 'span', 'projector'$"),
        (lambda d: {**d, "pre": {"span": []}},
         r"^pre\.span: expected a nonempty list of vectors$"),
        (lambda d: {**d, "pre": {"projector": [[[1, 0], [0, 0]]]}},
         r"^pre\.projector: expected a 2x2 matrix$"),
        (lambda d: [d], r"^document root must be an object$"),
        (lambda d: {**d, "measurements": []}, r"^measurements: expected a nonempty list$"),
        (lambda d: {**d, "measurements": ["E"]}, r"^measurements\[0\]: expected an object$"),
        (lambda d: _with_measurement(d, name=7),
         r"^measurements\[0\]\.name: expected a nonempty string$"),
        (lambda d: _with_measurement(d, outcomes=[_vector([1, 0])]),
         r"^measurements\[0\]\.outcomes: expected a list of >= 2 state specs$"),
        (lambda d: {**d, "measurements": d["measurements"] * 2},
         r"^measurement names must be unique within a scenario$"),
    ],
    ids=["vector-not-a-list", "state-not-an-object", "empty-span", "projector-not-d-by-d",
         "root-not-an-object", "no-measurements", "measurement-not-an-object",
         "name-not-a-string", "one-outcome", "duplicate-names"],
)
def test_parse_error_names_each_malformed_field(edit, message):
    doc = {
        "dimension": 2,
        "pre": _vector([1, 0]),
        "post": _vector([1, 1]),
        "measurements": [{"name": "E", "outcomes": [_vector([1, 0]), _vector([0, 1])]}],
    }
    document_to_scenario(doc)
    with pytest.raises(ParseError, match=message):
        document_to_scenario(json.loads(json.dumps(edit(doc))))
