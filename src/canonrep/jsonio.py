"""JSON interchange formats (all schemas carry ``format_version`` 1).

Process format, the single source of truth for fixtures::

    {"format_version": 1, "dimension": d, "depth": N, "root": node}
    node   = {"branches": [branch, ...]}
    branch = {"value": [num or "p/q", ...], "prob": "p/q", "child": node|null}

Pair processes add "component_dimension".  A representation is a process
tree too, and its document is one, except that each branch spells its
cell as "interval": ["p/q", "p/q"] instead of "prob"; its reader also
checks that the intervals tile [0,1), that the values ascend strictly and
that a branch has a child exactly when it is above the last level.  All
tree documents share one writer, which builds one dict per distinct node
(``process.distinct_nodes``), and one reader, which parses each distinct
rational string once per document.  Transport documents hold, per step
and per history section, the list of [[src_lo, src_hi], [tgt_lo, tgt_hi]]
pairs, one list per distinct node.  ``dump_json`` writes every document,
streamed, with the bytes of ``json.dump(doc, fh, sort_keys=True,
indent=2)`` plus "\n".  Rationals are serialized as exact strings; floats
appear only in the bench / embedding reports, always next to their seed
and sample count.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Union

from .errors import FormatError
from .process import ZERO, Branch, FiniteProcess, Node, PairProcess, Value, distinct_nodes
from .representation import CellRepresentation, cell_bounds
from .transport import TransportMap

FORMAT_VERSION = 1


def parse_frac(x) -> Fraction:
    try:
        if isinstance(x, bool):
            raise TypeError("booleans are not rationals")
        if isinstance(x, (int, float, str)):
            return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise FormatError(f"cannot parse rational from {x!r}: {exc}") from exc
    raise FormatError(f"cannot parse rational from {x!r}")


def parse_value(xs, frac) -> Value:
    if not isinstance(xs, list) or not xs:
        raise FormatError(f"value must be a nonempty list, got {xs!r}")
    return tuple(map(frac, xs))


# ---------------------------------------------------------------------------
# tree documents: processes, pairs and representations

def _tree_to_json(p: FiniteProcess, key: str, spell) -> dict:
    """The document of a process tree, each branch's weight written under
    ``key`` as ``spell(node)`` lists it; a node shared in ``p`` gets one
    dict, shared in the document."""
    docs: dict[int, dict] = {}
    for node in distinct_nodes(p.root):
        docs[id(node)] = {"branches": [
            {"value": list(map(str, br.value)), key: weight,
             "child": docs[id(br.child)] if br.child is not None else None}
            for br, weight in zip(node.branches, spell(node))
        ]}
    return {
        "format_version": FORMAT_VERSION,
        "dimension": p.dimension,
        "depth": p.depth,
        "root": docs[id(p.root)],
    }


def _intervals(node: Node) -> list:
    ends = list(map(str, cell_bounds(node)))
    return [[lo, hi] for lo, hi in zip(ends, ends[1:])]


def _tree_header(doc, kind: str) -> tuple[int, int, object]:
    if not isinstance(doc, dict):
        raise FormatError(f"{kind} document must be an object")
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version!r}")
    try:
        return int(doc["dimension"]), int(doc["depth"]), doc["root"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed {kind} document: {exc}") from exc


def _tree_from_json(root_doc, dimension: int, depth: int, read_branches) -> Node:
    """The tree of a document.  ``read_branches(node_doc, level, depth,
    dimension, frac)`` yields a node's (value, prob, child document)
    triples, checked, one at a time: each child is read before the next
    branch.  ``frac`` parses each distinct string of the document once, and
    anything else (numbers, ``True``) every time.  Equal subtrees share one
    Node; children are interned first, so their ids are stable."""
    interned: dict[tuple, Node] = {}
    parsed: dict[str, Fraction] = {}

    def frac(x) -> Fraction:
        if not isinstance(x, str):
            return parse_frac(x)
        if x not in parsed:
            parsed[x] = parse_frac(x)
        return parsed[x]

    def node_from(nd, level: int) -> Node:
        out = [(value, prob, node_from(child_doc, level + 1) if child_doc is not None else None)
               for value, prob, child_doc in read_branches(nd, level, depth, dimension, frac)]
        key = tuple((value, prob, id(child)) for value, prob, child in out)
        node = interned.get(key)
        if node is None:  # a repeated subtree builds no Branch
            node = interned[key] = Node(tuple(Branch(*br) for br in out))
        return node

    return node_from(root_doc, 1)


def _check_dimension(value: Value, br: dict, dimension: int) -> None:
    if len(value) != dimension:
        raise FormatError(
            f"value {br['value']!r} has dimension {len(value)}, "
            f"document declares {dimension}"
        )


def _prob_branches(nd, level: int, depth: int, dimension: int, frac):
    if not isinstance(nd, dict) or "branches" not in nd:
        raise FormatError(f"malformed node: {nd!r}")
    branches = nd["branches"]
    if not isinstance(branches, list) or not branches:
        raise FormatError("node must carry a nonempty branch list")
    for br in branches:
        if not isinstance(br, dict):
            raise FormatError(f"malformed branch: {br!r}")
        try:
            value, prob = parse_value(br["value"], frac), frac(br["prob"])
        except KeyError as exc:
            raise FormatError(f"branch missing key {exc}") from exc
        _check_dimension(value, br, dimension)
        yield value, prob, br.get("child")


def _interval_branches(nd, level: int, depth: int, dimension: int, frac):
    """A representation node's cells: the intervals tile [0,1), values
    ascend strictly, and cells carry children exactly above the last level
    (the root is level 1)."""
    branches = nd.get("branches") if isinstance(nd, dict) else None
    if not isinstance(branches, list) or not branches:
        raise FormatError(f"malformed representation node: {nd!r}")
    cursor = ZERO
    values = []
    for br in branches:
        try:
            lo = frac(br["interval"][0])
            hi = frac(br["interval"][1])
            value = parse_value(br["value"], frac)
            child_doc = br.get("child")
        except (KeyError, IndexError, TypeError) as exc:
            raise FormatError(f"malformed representation branch: {exc}") from exc
        _check_dimension(value, br, dimension)
        if lo != cursor:
            raise FormatError(
                f"intervals do not tile [0,1): expected lo {cursor}, got {lo}"
            )
        if not lo < hi <= 1:
            raise FormatError(f"bad interval [{lo}, {hi})")
        cursor = hi
        if (child_doc is None) != (level == depth):
            raise FormatError(
                f"a branch at level {level} of a depth-{depth} representation "
                + ("has no child" if child_doc is None else "has a child")
            )
        values.append(value)
        yield value, hi - lo, child_doc
    if cursor != 1:
        raise FormatError(f"intervals stop at {cursor}, not 1")
    if values != sorted(values) or len(set(values)) != len(values):
        raise FormatError("values must be strictly ascending within a node")


def process_to_json(p: FiniteProcess) -> dict:
    return _tree_to_json(p, "prob", lambda node: [str(br.prob) for br in node.branches])


def process_from_json(doc: dict) -> FiniteProcess:
    dimension, depth, root = _tree_header(doc, "process")
    return FiniteProcess(dimension, depth,
                         _tree_from_json(root, dimension, depth, _prob_branches))


def pair_process_to_json(pq: PairProcess) -> dict:
    doc = process_to_json(pq.process)
    doc["component_dimension"] = pq.component_dim
    return doc


def pair_process_from_json(doc: dict) -> PairProcess:
    p = process_from_json(doc)
    d = doc.get("component_dimension", p.dimension // 2)
    try:
        return PairProcess(p, int(d))
    except Exception as exc:
        raise FormatError(f"not a valid pair process: {exc}") from exc


def representation_to_json(r: CellRepresentation) -> dict:
    return _tree_to_json(r, "interval", _intervals)


def representation_from_json(doc: dict) -> CellRepresentation:
    dimension, depth, root = _tree_header(doc, "representation")
    if depth < 1:
        raise FormatError(f"representation depth must be at least 1, got {depth}")
    return CellRepresentation(dimension, depth,
                              _tree_from_json(root, dimension, depth, _interval_branches))


# ---------------------------------------------------------------------------
# transport format

def transport_to_json(maps: list[TransportMap], dimension: int) -> dict:
    # sections that reach one node share its ``pairs`` tuple, so they share its list
    distinct = {id(s.pairs): s.pairs for tm in maps for s in tm.sections}
    spelled = {key: [[[str(p.source.lo), str(p.source.hi)], [str(p.target.lo), str(p.target.hi)]]
                     for p in pairs] for key, pairs in distinct.items()}
    return {
        "format_version": FORMAT_VERSION,
        "dimension": dimension,
        "steps": [
            {"step": tm.step, "sections": [
                {"history": [list(map(str, v)) for v in s.history], "pairs": spelled[id(s.pairs)]}
                for s in tm.sections]}
            for tm in maps
        ],
    }


# ---------------------------------------------------------------------------
# files

def load_json(path: Union[str, Path]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write_json(o, level: int, write) -> None:
    """Write the container ``o`` at indent ``level`` in the chunks that
    ``json.dump(sort_keys=True, indent=2)`` writes, one call per chunk
    instead of one generator per nesting level."""
    if not o:
        write("{}" if isinstance(o, dict) else "[]")
        return
    inner = "\n" + "  " * (level + 1)
    is_dict = isinstance(o, dict)
    sep = ("{" if is_dict else "[") + inner
    for k, v in sorted(o.items()) if is_dict else enumerate(o):
        head = sep
        if is_dict:  # json.dumps spells any other key, or refuses it, as json.dump does
            head += (encode_basestring_ascii(k) if isinstance(k, str)
                     else json.dumps({k: 0})[1:-4]) + ": "
        if isinstance(v, str):
            write(head + encode_basestring_ascii(v))
        elif isinstance(v, (dict, list, tuple)):
            write(head)
            _write_json(v, level + 1, write)
        else:  # json.dumps spells numbers, booleans and None as json.dump does
            write(head + ("null" if v is None else json.dumps(v)))
        sep = "," + inner
    write("\n" + "  " * level + ("}" if is_dict else "]"))


def dump_json(doc, path: Union[str, Path]) -> None:
    """Write ``doc`` with the bytes of ``json.dump(doc, fh, sort_keys=True,
    indent=2)`` plus a final newline.  The text streams to the file as it
    is made, so memory stays that of the nesting depth; a container shared
    in ``doc`` is written at each place it occurs."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc, (dict, list, tuple)):
            _write_json(doc, 0, fh.write)
        else:
            fh.write(json.dumps(doc))
        fh.write("\n")
