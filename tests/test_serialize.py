import copy
import json
import random

import pytest

from fbinv.errors import FbinvError, ParseError
from fbinv.linalg import RatMatrix
from fbinv.pencil import from_state_space
from fbinv.realization import left_coprime_mfd
from fbinv.reference import reference_system
from fbinv.sampling import random_ar_system, random_state_space
from fbinv.serialize import (
    ar_to_json,
    dumps,
    hompoly_to_json,
    mfd_to_json,
    parse_hompoly,
    parse_rational,
    parse_system,
    pencil_to_json,
    rational_to_str,
    state_space_to_json,
    transform_to_json,
)


def test_rational_round_trip():
    for text in ("3/4", "-2", "0", "7/3"):
        assert rational_to_str(parse_rational(text)) == text
    assert parse_rational(5) == 5
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational(1.5)
    for text in ("1.5", "2E3", "1e99999999", "1_000", " 3", "3 ", "\u0663", "1/\u0662", "1/-2", "", "/2", "0x10"):
        with pytest.raises(ParseError):
            parse_rational(text)
    assert rational_to_str(parse_rational("+3/6")) == "1/2"
    with pytest.raises(ParseError):
        parse_rational("1" * 5000)


def test_hompoly_round_trip_and_degree_check():
    h = parse_hompoly({"degree": 2, "terms": [["1", 2, 0], ["-1/2", 0, 2]]})
    assert hompoly_to_json(h) == {"degree": 2, "terms": [["1", 2, 0], ["-1/2", 0, 2]]}
    with pytest.raises(ParseError):
        parse_hompoly({"degree": 2, "terms": [["1", 1, 0]]})


def test_ar_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        ar = random_ar_system(rng, rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 3))
        again = parse_system(json.loads(dumps(ar_to_json(ar))))
        assert again == ar


def test_state_space_and_mfd_round_trip():
    rng = random.Random(4)
    for _ in range(10):
        ss = random_state_space(rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2))
        assert parse_system(json.loads(dumps(state_space_to_json(ss)))) == ss
        if ss.is_observable():
            mfd = left_coprime_mfd(ss)
            assert parse_system(json.loads(dumps(mfd_to_json(mfd)))) == mfd


def test_pencil_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        ss = random_state_space(rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2))
        ps = from_state_space(ss)
        assert parse_system(json.loads(dumps(pencil_to_json(ps)))) == ps


def test_transform_matrix_and_block_forms():
    T = RatMatrix.from_rows([[1, 2], [0, 1]])
    assert parse_system(json.loads(dumps(transform_to_json(T)))) == T
    block = {
        "kind": "transform",
        "T1": [["1"]],
        "F": [["2"]],
        "G": [["0"]],
        "T2": [["1"]],
    }
    assert parse_system(block) == T


def test_dump_is_deterministic():
    ar = reference_system()
    assert dumps(ar_to_json(ar)) == dumps(ar_to_json(reference_system()))


def test_parse_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_system({"kind": "mystery"})
    with pytest.raises(ParseError):
        parse_system([1, 2, 3])


def test_grassmann_pluecker_size_cap():
    from fbinv.grassmann import GrassmannPoint
    from fbinv.serialize import grassmann_to_json

    rows = [[1 if i == j else 0 for j in range(40)] for i in range(15)]
    out = grassmann_to_json(GrassmannPoint.from_rows(rows, 40))
    assert "pluecker" not in out and "pluecker_omitted" in out
    small = grassmann_to_json(GrassmannPoint.from_rows([[1, 0], [0, 1]], 2))
    assert small["pluecker"] == ["1"]


def _valid_documents() -> list[dict]:
    rng = random.Random(6)
    ss = random_state_space(rng, 2, 1, 2, observable=True)
    return [
        ar_to_json(reference_system()),
        state_space_to_json(ss),
        mfd_to_json(left_coprime_mfd(ss)),
        pencil_to_json(from_state_space(ss)),
        transform_to_json(RatMatrix.from_rows([[1, 2], [0, 1]])),
        {"kind": "transform", "T1": [["1"]], "F": [["2"]], "G": [["0"]], "T2": [["1"]]},
    ]


def test_parse_system_fuzz_raises_only_fbinv_errors():
    """Random JSON trees and valid documents with one field changed or removed.

    Integers and floats range over every size: a declared degree above the
    parse bound is a ParseError before anything is allocated for it.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 6),
        st.integers(),
        st.floats(-8, 8),
        st.floats(),
        st.text("0123456789/-+. ex", max_size=5),
        st.sampled_from(["ar", "state_space", "mfd", "pencil", "transform"]),
    )
    keys = st.sampled_from(
        ["kind", "m", "p", "row_degrees", "P", "degree", "terms", "A", "B", "C", "D", "N", "K", "L", "M", "T", "T1", "F", "G", "T2"]
    )
    trees = st.recursive(
        scalars,
        lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(keys, children, max_size=5)),
        max_leaves=20,
    )
    documents = _valid_documents()

    def parses_or_fails_cleanly(doc):
        try:
            parse_system(doc)
        except FbinvError:
            pass

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(trees)
    def random_trees(doc):
        parses_or_fails_cleanly(doc)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(documents), st.data())
    def mutated_documents(doc, data):
        doc = copy.deepcopy(doc)
        parent, key, node = None, None, doc
        while isinstance(node, (list, dict)) and node and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            doc = data.draw(trees)
        elif isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(trees)
        parses_or_fails_cleanly(doc)

    for doc in documents:
        parse_system(doc)
    random_trees()
    mutated_documents()
