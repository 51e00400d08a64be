import gc
import json
import random
import re
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from canonrep import (
    FiniteProcess,
    FormatError,
    build_transport,
    canonical_representation,
    independent_coupling,
    joint_law,
    law_of_representation,
    pair_law,
    random_independent_process,
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
    transport_to_json,
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
    built = pair_law(rep)
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
    for q in (p, pair_law(rep).process):
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
    shared = pair_law(rep).process
    flat = FiniteProcess(shared.dimension, shared.depth, unshared(shared.root))
    got = representation_to_json(canonical_representation(shared))
    want = representation_to_json(canonical_representation(flat))
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# ---------------------------------------------------------------------------
# writer: the bytes of json.dump(sort_keys=True, indent=2), streamed

def _json_dump(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _assert_same_bytes(doc, tmp_path):
    dump_json(doc, tmp_path / "got.json")
    _json_dump(doc, tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


_STRINGS = ["", "a", "1/2", "-3/7", 'quote " and \\ backslash', "tab\tnew\nline\r\x00\x1f",
            "café", "  ", "\U0001f600 emoji", "\ud800 lone surrogate"]
_SCALARS = _STRINGS + [0, -1, 2**70, -(2**64) - 1, True, False, None, 0.0, -0.0, 0.1,
                       1e300, -1e-300, 5e-324, float("nan"), float("inf"), float("-inf"),
                       np.float64(2.5), np.float64("nan")]


def _random_doc(rng, depth, pool):
    """Nested dicts, lists and tuples.  One container draw in five reuses a
    container from ``pool``, which holds every one built so far, at any
    depth, so the document shares sub-dicts and sub-lists across depths."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_SCALARS)
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    kind = rng.choice((dict, list, tuple))
    width = rng.choice((0, 1, 2, 3, 5))
    if kind is dict:
        out = {rng.choice(_STRINGS) + str(i): _random_doc(rng, depth - 1, pool)
               for i in range(width)}
    else:
        out = kind(_random_doc(rng, depth - 1, pool) for _ in range(width))
    pool.append(out)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_dump_json_matches_json_dump_on_random_documents(seed, tmp_path):
    rng = random.Random(seed)
    pool = []
    doc = _random_doc(rng, rng.randint(0, 7), pool)
    _assert_same_bytes(doc, tmp_path)
    _assert_same_bytes({"shared": pool, "again": pool[::-1], "doc": doc}, tmp_path)


@pytest.mark.parametrize("doc", [
    {}, [], (), "x", 3, None, True, -0.0, float("nan"),
    {"empty": [{}, [], ()], "nested": {"a": {}, "b": [[]]}},
    {2: "int keys sort as numbers", 10: "b", -1: "c"},
    {True: "bool keys", False: "b"}, {None: "null key"}, {1.5: "float keys", -0.0: "b"},
], ids=repr)
def test_dump_json_matches_json_dump_on_edge_cases(doc, tmp_path):
    _assert_same_bytes(doc, tmp_path)


def test_dump_json_refuses_what_json_dump_refuses(tmp_path):
    for doc in ({"x": {1, 2}}, [np.int64(1)], {(1, 2): "tuple key"}):
        with pytest.raises(TypeError):
            _json_dump(doc, tmp_path / "want.json")
        with pytest.raises(TypeError):
            dump_json(doc, tmp_path / "got.json")


def _tree_documents(depth, seed):
    p = random_process(depth, 4, 1, seed=seed, mds=True)
    rep = canonical_representation(p)
    pq = pair_law(rep)
    steps = canonical_representation(random_independent_process(depth, 4, 1, seed=seed))
    return {
        "process": process_to_json(p),
        "representation": representation_to_json(rep),
        "pair": pair_process_to_json(pq),
        "transport": transport_to_json(build_transport(pq), pq.process.dimension),
        "coupling": transport_to_json(build_transport(independent_coupling(steps, steps)),
                                      2 * steps.dimension),
    }


@pytest.mark.parametrize("depth, seed", [(4, 0), (4, 6), (5, 2), (5, 31)])
def test_dump_json_matches_json_dump_on_tree_documents(depth, seed, tmp_path):
    for doc in _tree_documents(depth, seed).values():
        _assert_same_bytes(doc, tmp_path)


def _traced_peak(write, doc, path) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        write(doc, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_json_memory_stays_near_json_dump(tmp_path):
    """Streaming keeps the writer's peak at that of json.dump, which holds
    only the open containers; text kept per shared node would not."""
    rep = canonical_representation(random_process(5, 4, 1, seed=31, mds=True))
    doc = pair_process_to_json(pair_law(rep))
    _json_dump(doc, tmp_path / "want.json")
    assert (tmp_path / "want.json").stat().st_size >= 400_000
    want = _traced_peak(_json_dump, doc, tmp_path / "want.json")
    got = _traced_peak(dump_json, doc, tmp_path / "got.json")
    assert got <= 1.5 * want, (got, want)


# ---------------------------------------------------------------------------
# reader: each distinct rational string parsed once per document

def _coin_doc(up, down):
    leaf = {"branches": [{"value": ["1"], "prob": up, "child": None},
                         {"value": ["-1"], "prob": down, "child": None}]}
    return {"format_version": 1, "dimension": 1, "depth": 2, "root": {"branches": [
        {"value": ["1"], "prob": "1/2", "child": leaf},
        {"value": ["-1"], "prob": "1/2", "child": leaf},
    ]}}


def test_repeated_strings_parse_to_equal_fractions():
    p = process_from_json(_coin_doc("1/2", "1/2"))
    branches = list(p.root.branches) + list(p.root.branches[0].child.branches)
    assert [br.prob for br in branches] == [F(1, 2)] * 4
    assert [br.value for br in branches] == [(F(1),), (F(-1),)] * 2
    assert joint_law(p) == {(v, w): F(1, 4) for v in ((F(1),), (F(-1),))
                            for w in ((F(1),), (F(-1),))}


def test_cache_serves_only_strings():
    # True equals 1 and hashes like it, yet is refused after 1 was read
    doc = _coin_doc("1/2", "1/2")
    doc["root"]["branches"][0]["value"] = [1]
    doc["root"]["branches"][1]["prob"] = True
    with pytest.raises(FormatError, match="^cannot parse rational from True: booleans"):
        process_from_json(doc)
    # numbers are read each time, and read alike
    p = process_from_json(_coin_doc(0.5, 0.5))
    assert [br.prob for br in p.root.branches[0].child.branches] == [F(1, 2)] * 2


@pytest.mark.parametrize("bad", ["x/y", "1/0", "1/2/3"])
def test_malformed_string_raises_the_same_message_every_time(bad):
    with pytest.raises(FormatError) as direct:
        parse_frac(bad)
    for doc in (_coin_doc("1/2", bad), _coin_doc(bad, bad), _coin_doc("1/2", bad)):
        with pytest.raises(FormatError) as cached:
            process_from_json(doc)
        assert str(cached.value) == str(direct.value)
    interval_doc = _doc(_cells(("0", bad, "1", None), (bad, "1", "2", None)))
    for _ in range(2):
        with pytest.raises(FormatError) as cached:
            representation_from_json(interval_doc)
        assert str(cached.value) == str(direct.value)
