"""JSON interchange formats (all schemas carry ``format_version`` 1).

Process format, the single source of truth for fixtures::

    {"format_version": 1, "dimension": d, "depth": N, "root": node}
    node   = {"branches": [branch, ...]}
    branch = {"value": [num or "p/q", ...], "prob": "p/q", "child": node|null}

Representation format mirrors it with an "interval": ["p/q", "p/q"] per
branch instead of "prob".  Transport documents hold, per step and per
history section, the list of [[src_lo, src_hi], [tgt_lo, tgt_hi]] pairs.
Rationals are serialized as exact strings; floats appear only in the
bench / embedding reports, always next to their seed and sample count.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .errors import FormatError
from .process import Branch, FiniteProcess, Node, PairProcess, Value
from .representation import (
    Cell,
    CellRepresentation,
    Interval,
    RepNode,
    _make_rep_node,
)
from .transport import TransportMap

FORMAT_VERSION = 1


def frac_str(f: Fraction) -> str:
    return str(f)


def parse_frac(x) -> Fraction:
    try:
        if isinstance(x, bool):
            raise TypeError("booleans are not rationals")
        if isinstance(x, (int, float, str)):
            return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise FormatError(f"cannot parse rational from {x!r}: {exc}") from exc
    raise FormatError(f"cannot parse rational from {x!r}")


def parse_value(xs) -> Value:
    if not isinstance(xs, list) or not xs:
        raise FormatError(f"value must be a nonempty list, got {xs!r}")
    return tuple(parse_frac(x) for x in xs)


def _check_version(doc: dict, expected: int = FORMAT_VERSION) -> None:
    version = doc.get("format_version", FORMAT_VERSION)
    if version != expected:
        raise FormatError(f"unsupported format_version {version!r}")


# ---------------------------------------------------------------------------
# process format

def process_to_json(p: FiniteProcess) -> dict:
    def node_json(node: Node) -> dict:
        return {
            "branches": [
                {
                    "value": [frac_str(c) for c in br.value],
                    "prob": frac_str(br.prob),
                    "child": node_json(br.child) if br.child is not None else None,
                }
                for br in node.branches
            ]
        }

    return {
        "format_version": FORMAT_VERSION,
        "dimension": p.dimension,
        "depth": p.depth,
        "root": node_json(p.root),
    }


def process_from_json(doc: dict) -> FiniteProcess:
    if not isinstance(doc, dict):
        raise FormatError("process document must be an object")
    _check_version(doc)
    try:
        dimension = int(doc["dimension"])
        depth = int(doc["depth"])
        root_doc = doc["root"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed process document: {exc}") from exc

    def node_from(nd) -> Node:
        if not isinstance(nd, dict) or "branches" not in nd:
            raise FormatError(f"malformed node: {nd!r}")
        branches = nd["branches"]
        if not isinstance(branches, list) or not branches:
            raise FormatError("node must carry a nonempty branch list")
        out = []
        for br in branches:
            if not isinstance(br, dict):
                raise FormatError(f"malformed branch: {br!r}")
            try:
                value = parse_value(br["value"])
                prob = parse_frac(br["prob"])
                child_doc = br.get("child")
            except KeyError as exc:
                raise FormatError(f"branch missing key {exc}") from exc
            if len(value) != dimension:
                raise FormatError(
                    f"value {br['value']!r} has dimension {len(value)}, "
                    f"document declares {dimension}"
                )
            child = node_from(child_doc) if child_doc is not None else None
            out.append(Branch(value, prob, child))
        return Node(tuple(out))

    return FiniteProcess(dimension, depth, node_from(root_doc))


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


# ---------------------------------------------------------------------------
# representation format

def representation_to_json(r: CellRepresentation) -> dict:
    def node_json(node: RepNode) -> dict:
        return {
            "branches": [
                {
                    "interval": [frac_str(c.interval.lo), frac_str(c.interval.hi)],
                    "value": [frac_str(x) for x in c.value],
                    "child": node_json(c.child) if c.child is not None else None,
                }
                for c in node.cells
            ]
        }

    return {
        "format_version": FORMAT_VERSION,
        "dimension": r.dimension,
        "depth": r.depth,
        "root": node_json(r.root),
    }


def representation_from_json(doc: dict) -> CellRepresentation:
    if not isinstance(doc, dict):
        raise FormatError("representation document must be an object")
    _check_version(doc)
    try:
        dimension = int(doc["dimension"])
        depth = int(doc["depth"])
        root_doc = doc["root"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed representation document: {exc}") from exc
    if depth < 1:
        raise FormatError(f"representation depth must be at least 1, got {depth}")

    def node_from(nd, level: int) -> RepNode:
        """Node at ``level`` (the root is 1); cells carry children exactly
        above the last level."""
        branches = nd.get("branches") if isinstance(nd, dict) else None
        if not isinstance(branches, list) or not branches:
            raise FormatError(f"malformed representation node: {nd!r}")
        cells = []
        cursor = Fraction(0)
        for br in branches:
            try:
                lo = parse_frac(br["interval"][0])
                hi = parse_frac(br["interval"][1])
                value = parse_value(br["value"])
                child_doc = br.get("child")
            except (KeyError, IndexError, TypeError) as exc:
                raise FormatError(f"malformed representation branch: {exc}") from exc
            if len(value) != dimension:
                raise FormatError(
                    f"value {br['value']!r} has dimension {len(value)}, "
                    f"document declares {dimension}"
                )
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
            child = node_from(child_doc, level + 1) if child_doc is not None else None
            cells.append(Cell(Interval(lo, hi), value, child))
        if cursor != 1:
            raise FormatError(f"intervals stop at {cursor}, not 1")
        values = [c.value for c in cells]
        if values != sorted(values) or len(set(values)) != len(values):
            raise FormatError("values must be strictly ascending within a node")
        return _make_rep_node(cells)

    return CellRepresentation(dimension, depth, node_from(root_doc, 1))


# ---------------------------------------------------------------------------
# transport format

def transport_to_json(maps: list[TransportMap], dimension: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "dimension": dimension,
        "steps": [
            {
                "step": tm.step,
                "sections": [
                    {
                        "history": [[frac_str(c) for c in v] for v in s.history],
                        "pairs": [
                            [
                                [frac_str(p.source.lo), frac_str(p.source.hi)],
                                [frac_str(p.target.lo), frac_str(p.target.hi)],
                            ]
                            for p in s.pairs
                        ],
                    }
                    for s in tm.sections
                ],
            }
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


def dump_json(doc, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
