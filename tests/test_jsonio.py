import json
import re
from fractions import Fraction as F

import pytest

from canonrep import (
    FiniteProcess,
    FormatError,
    canonical_representation,
    construct_ci_copy,
    joint_law,
    law_of_representation,
    pair_law,
    random_process,
    represent_mds,
    validate_process,
)
from canonrep.jsonio import (
    dump_json,
    load_json,
    pair_process_from_json,
    pair_process_to_json,
    parse_frac,
    process_from_json,
    process_to_json,
    representation_from_json,
    representation_to_json,
)

from conftest import unshared


def test_parse_frac_forms():
    assert parse_frac("1/2") == F(1, 2)
    assert parse_frac("3") == F(3)
    assert parse_frac(2) == F(2)
    assert parse_frac(0.5) == F(1, 2)
    with pytest.raises(FormatError, match="cannot parse rational from 'x/y'"):
        parse_frac("x/y")
    with pytest.raises(FormatError, match="cannot parse rational from None$"):
        parse_frac(None)
    with pytest.raises(FormatError, match="cannot parse rational from '1/0'"):
        parse_frac("1/0")


def test_process_round_trip():
    p = random_process(3, 4, 2, seed=42)
    doc = process_to_json(p)
    again = process_from_json(json.loads(json.dumps(doc)))
    assert again == p
    validate_process(again)


def test_process_rejects_bad_version():
    p = random_process(1, 2, 1, seed=1)
    doc = process_to_json(p)
    doc["format_version"] = 99
    with pytest.raises(FormatError, match="^unsupported format_version 99$"):
        process_from_json(doc)


def test_process_rejects_missing_keys():
    with pytest.raises(FormatError, match="^malformed process document: 'depth'$"):
        process_from_json({"format_version": 1, "dimension": 1})
    with pytest.raises(FormatError, match="^node must carry a nonempty branch list$"):
        process_from_json({"format_version": 1, "dimension": 1, "depth": 1,
                           "root": {"branches": []}})


def test_process_rejects_dimension_mismatch():
    doc = {
        "format_version": 1,
        "dimension": 2,
        "depth": 1,
        "root": {"branches": [{"value": ["1"], "prob": "1", "child": None}]},
    }
    with pytest.raises(
        FormatError, match=re.escape("value ['1'] has dimension 1, document declares 2")
    ):
        process_from_json(doc)


def test_representation_round_trip():
    p = random_process(3, 4, 1, seed=43)
    r = canonical_representation(p)
    doc = representation_to_json(r)
    again = representation_from_json(json.loads(json.dumps(doc)))
    assert again == r
    assert law_of_representation(again) == joint_law(p)


def test_representation_rejects_gap():
    doc = {
        "format_version": 1,
        "dimension": 1,
        "depth": 1,
        "root": {
            "branches": [
                {"interval": ["0", "1/3"], "value": ["-1"], "child": None},
                {"interval": ["1/2", "1"], "value": ["1"], "child": None},
            ]
        },
    }
    with pytest.raises(
        FormatError, match=re.escape("intervals do not tile [0,1): expected lo 1/3, got 1/2")
    ):
        representation_from_json(doc)


def test_representation_rejects_unsorted_values():
    doc = {
        "format_version": 1,
        "dimension": 1,
        "depth": 1,
        "root": {
            "branches": [
                {"interval": ["0", "1/2"], "value": ["1"], "child": None},
                {"interval": ["1/2", "1"], "value": ["-1"], "child": None},
            ]
        },
    }
    with pytest.raises(FormatError, match="^values must be strictly ascending within a node$"):
        representation_from_json(doc)


def _doc(root, depth=1):
    return {"format_version": 1, "dimension": 1, "depth": depth, "root": root}


def _cells(*cells):
    return {"branches": [{"interval": [lo, hi], "value": [v], "child": child}
                         for lo, hi, v, child in cells]}


@pytest.mark.parametrize("read, doc, message", [
    (process_from_json, [], "process document must be an object"),
    (representation_from_json, [], "representation document must be an object"),
    (process_from_json, _doc({"nodes": []}), "malformed node: {'nodes': []}"),
    (representation_from_json, _doc({"nodes": []}),
     "malformed representation node: {'nodes': []}"),
    (representation_from_json, _doc({"branches": []}),
     "malformed representation node: {'branches': []}"),
    (process_from_json, _doc({"branches": [{"value": ["1"], "child": None}]}),
     "branch missing key 'prob'"),
    (process_from_json, _doc({"branches": [5]}), "malformed branch: 5"),
    (representation_from_json, _doc({"branches": [{"value": ["1"], "child": None}]}),
     "malformed representation branch: 'interval'"),
    (representation_from_json, _doc(_cells(("0", "0", "1", None), ("0", "1", "2", None))),
     "bad interval [0, 0)"),
    (representation_from_json, _doc(_cells(("0", "1", "1", _cells(("0", "1", "1", None))))),
     "a branch at level 1 of a depth-1 representation has a child"),
    (representation_from_json, _doc(_cells(("0", "1", "1", None)), depth=2),
     "a branch at level 1 of a depth-2 representation has no child"),
    (representation_from_json, _doc(_cells(("0", "1/2", "1", None))),
     "intervals stop at 1/2, not 1"),
    (representation_from_json, _doc(_cells(("0", "1", "1", None)), depth=0),
     "representation depth must be at least 1, got 0"),
], ids=["process-not-object", "representation-not-object", "process-node-no-branches",
        "representation-node-no-branches", "representation-node-empty",
        "process-branch-missing-key", "process-branch-not-object",
        "representation-branch-missing-key", "bad-interval", "child-past-last-level",
        "no-child-above-last-level", "intervals-stop-short", "depth-below-one"])
def test_reader_rejections_name_the_fault(read, doc, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read(doc)


def test_dump_load_round_trip(tmp_path):
    p = random_process(2, 3, 1, seed=44)
    path = tmp_path / "p.json"
    dump_json(process_to_json(p), path)
    assert process_from_json(load_json(path)) == p


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1, "dimension"')
    with pytest.raises(FormatError, match="^cannot read .*broken.json: Expecting ':'"):
        load_json(path)


# ---------------------------------------------------------------------------
# shared subtrees: interned on load, written out in full

def _distinct_nodes(node) -> int:
    seen, stack = set(), [node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(br.child for br in node.branches if br.child is not None)
    return len(seen)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_pair_law_sharing_survives_json(depth):
    rep = represent_mds(random_process(depth, 4, 1, seed=depth + 20, mds=True))
    built = pair_law(construct_ci_copy(rep))
    doc = json.loads(json.dumps(pair_process_to_json(built)))
    loaded = pair_process_from_json(doc)
    assert loaded == built
    assert _distinct_nodes(loaded.process.root) <= _distinct_nodes(built.process.root)
    assert _distinct_nodes(loaded.process.root) < _distinct_nodes(
        unshared(built.process.root))
    assert pair_process_to_json(loaded) == doc


@pytest.mark.parametrize("seed", range(4))
def test_process_json_round_trip_is_exact(seed):
    p = random_process(3, 3, 2, seed=seed, mds=seed % 2 == 0)
    rep = canonical_representation(p)
    for q in (p, pair_law(construct_ci_copy(rep)).process):
        doc = json.loads(json.dumps(process_to_json(q)))
        assert process_to_json(process_from_json(doc)) == doc


def test_interning_keys_on_values_not_spelling():
    # "1/2" and "2/4" parse to one rational, so the two leaves become one node
    def leaf(up, down):
        return {"branches": [{"value": ["1"], "prob": up, "child": None},
                             {"value": ["-1"], "prob": down, "child": None}]}

    doc = {"format_version": 1, "dimension": 1, "depth": 2, "root": {"branches": [
        {"value": ["0"], "prob": "1/3", "child": leaf("1/2", "1/2")},
        {"value": ["1"], "prob": "1/3", "child": leaf("1/2", "2/4")},
        {"value": ["2"], "prob": "1/3", "child": leaf("1/3", "2/3")},  # kept apart
    ]}}
    p = process_from_json(doc)
    first, second, third = (br.child for br in p.root.branches)
    assert first is second and third is not first
    validate_process(p)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_representation_bytes_ignore_sharing(depth):
    rep = represent_mds(random_process(depth, 4, 1, seed=10 + depth, mds=True))
    shared = pair_law(construct_ci_copy(rep)).process
    flat = FiniteProcess(shared.dimension, shared.depth, unshared(shared.root))
    got = representation_to_json(canonical_representation(shared))
    want = representation_to_json(canonical_representation(flat))
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
