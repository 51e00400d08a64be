"""Finite adapted processes with exact rational laws.

A FiniteProcess is a depth-N tree: every node carries the conditional
distribution of the next value given the history so far, as a list of
(value, probability, child) branches.  Values are fixed-dimension tuples
of fractions.Fraction and compare lexicographically; that order is the
canonical total order used by every other module.

Everything in this module is exact rational arithmetic; nothing here
touches floating point.  Conditioning is always on the value history
(the sigma field generated by the first k values), so distinct sibling
branches that happen to carry equal values are aggregated before any law
is computed or compared.

All objects are immutable after construction and all operations are
pure, so concurrent reads are safe, and trees may share nodes (``pair_law``,
``canonical_representation`` and the ``jsonio`` readers do).  A
``representation.CellRepresentation`` is one of these trees, so everything
here applies to it.  ``is_mds``, ``are_tangent`` and
``satisfies_ci`` visit each distinct prefix class once (``iter_prefix_laws``);
no check enumerates the paths of a pair.  ``distinct_nodes`` lists each
distinct node of a tree once, children first, and every pass that builds
one result per node (``joint_law``, ``pair_law``, the compiled disk tree,
the JSON writer, the exact moment oracle ``bench.exact_moment_ratio``)
loops over it, so a tree costs per distinct node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .errors import (
    DimensionMismatch,
    NonPositiveProb,
    ProbSumNotOne,
    RaggedDepth,
    UnreachablePrefix,
)

Value = tuple[Fraction, ...]
ValuePath = tuple[Value, ...]
PathLaw = dict[ValuePath, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def fmt_value(v: Value) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def fmt_prefix(prefix: ValuePath) -> str:
    return "[" + " -> ".join(fmt_value(v) for v in prefix) + "]" if prefix else "[root]"


@dataclass(frozen=True)
class Branch:
    value: Value
    prob: Fraction
    child: Optional["Node"]


@dataclass(frozen=True)
class Node:
    branches: tuple[Branch, ...]


@dataclass(frozen=True)
class FiniteProcess:
    """A finitely supported adapted sequence of ``depth`` steps in Q^dimension."""

    dimension: int
    depth: int
    root: Node


@dataclass(frozen=True)
class PairProcess:
    """Two sequences on one filtration, encoded as a single 2d-valued process.

    The first ``component_dim`` coordinates of every value are the first
    component, the rest the second.  The filtration is always the full
    history of pairs.
    """

    process: FiniteProcess
    component_dim: int

    def __post_init__(self):
        if self.process.dimension != 2 * self.component_dim:
            raise DimensionMismatch(
                f"pair process dimension {self.process.dimension} is not twice "
                f"the component dimension {self.component_dim}"
            )


def distinct_nodes(root: Node) -> list[Node]:
    """Every node of the tree under ``root`` once (by identity), each after
    all of its children, ``root`` last."""
    out: list[Node] = []
    seen = {id(root)}
    stack = [(root, iter(root.branches))]
    while stack:
        node, branches = stack[-1]
        for br in branches:
            if br.child is not None and id(br.child) not in seen:
                seen.add(id(br.child))
                stack.append((br.child, iter(br.child.branches)))
                break
        else:  # every child is listed
            stack.pop()
            out.append(node)
    return out


class CheckResult(NamedTuple):
    """Boolean verdict plus a structured witness for the failing case."""

    ok: bool
    witness: Optional[dict]

    def __bool__(self) -> bool:  # allow `if check:` style
        return self.ok


# ---------------------------------------------------------------------------
# validation

def validate_process(p: FiniteProcess) -> None:
    """Check every structural invariant; raise on the first violation.

    Raises NonPositiveProb, ProbSumNotOne, RaggedDepth or DimensionMismatch,
    naming the offending node path in the message.
    """
    if p.depth < 1:
        raise RaggedDepth("depth must be at least 1")
    if p.dimension < 1:
        raise DimensionMismatch("dimension must be at least 1")
    _validate_node(p.root, (), p, set())


def _validate_node(node: Node, prefix: ValuePath, p: FiniteProcess, seen: set) -> None:
    # depth first: a first visit at this level raised or validated the subtree
    if (id(node), len(prefix)) in seen:
        return
    seen.add((id(node), len(prefix)))
    where = fmt_prefix(prefix)
    if not node.branches:
        raise RaggedDepth(f"node {where} has no branches", prefix=prefix)
    total = ZERO
    for br in node.branches:
        if len(br.value) != p.dimension:
            raise DimensionMismatch(
                f"value {fmt_value(br.value)} at {where} has dimension "
                f"{len(br.value)}, expected {p.dimension}",
                prefix=prefix,
            )
        if br.prob <= 0:
            raise NonPositiveProb(
                f"branch {fmt_value(br.value)} at {where} has prob {br.prob}",
                prefix=prefix,
            )
        total += br.prob
    if total != ONE:
        raise ProbSumNotOne(
            f"branch probs at {where} sum to {total}", prefix=prefix, total=total
        )
    last = len(prefix) + 1 == p.depth
    for br in node.branches:
        if last:
            if br.child is not None:
                raise RaggedDepth(
                    f"leaf-level branch {fmt_value(br.value)} at {where} has a child",
                    prefix=prefix,
                )
        else:
            if br.child is None:
                raise RaggedDepth(
                    f"branch {fmt_value(br.value)} at {where} ends before depth "
                    f"{p.depth}",
                    prefix=prefix,
                )
            _validate_node(br.child, prefix + (br.value,), p, seen)


# ---------------------------------------------------------------------------
# laws

def joint_law(p: FiniteProcess, part: slice = slice(None)) -> PathLaw:
    """Exact joint law of the coordinates ``part`` of the whole sequence.

    One entry per realizable value path, in the order a depth-first walk
    of the tree first meets them; the probability of a path is the sum
    over tree paths carrying it of the product of branch probs.  The law
    below each distinct node is built once, so a tree that shares nodes
    (``pair_law`` shares one child across the k copy branches of a cell)
    costs per distinct node, not per path of the pair.  Paths are hashed
    only where a node's heads repeat with distinct children, and at the end.
    """
    # the law below each node: a dict where paths merged, else (paths, probs)
    laws: dict[int, PathLaw | tuple[list[ValuePath], list[Fraction]]] = {}
    for node in distinct_nodes(p.root):
        steps: dict[tuple, list] = {}  # (head, child id) -> [head, child, prob]
        for br in node.branches:
            key = ((br.value[part],), id(br.child))
            if key in steps:
                steps[key][2] += br.prob
            else:
                steps[key] = [key[0], br.child, br.prob]
        # where heads repeat, paths merge into the dict as they are made
        merged = {} if len({head for head, _, _ in steps.values()}) < len(steps) else None
        paths, probs = [], []
        for head, child, prob in steps.values():
            if child is None:
                tails, qs = ((),), (ONE,)
            else:
                below = laws[id(child)]
                tails, qs = (below.keys(), below.values()) if isinstance(below, dict) else below
            if merged is None:
                paths += [head + tail for tail in tails]
                probs += [prob * q for q in qs]
            else:
                for tail, q in zip(tails, qs):
                    path = head + tail
                    merged[path] = merged.get(path, ZERO) + prob * q
        laws[id(node)] = (paths, probs) if merged is None else merged
    out = laws[id(p.root)]
    return out if isinstance(out, dict) else dict(zip(*out))


def _split_class(cls, deeper: bool):
    """One pass over a prefix class: the law of the next value and, when
    ``deeper``, the class of every one-step extension by value.

    The extension classes keep first-seen value order and carry
    conditional weights (each sums to one).
    """
    law: dict[Value, Fraction] = {}
    children: dict[Value, list] = {}
    for node, w in cls:
        for br in node.branches:
            q = w * br.prob
            law[br.value] = law.get(br.value, ZERO) + q
            if deeper:
                children.setdefault(br.value, []).append((br.child, q))
    return law, {v: [(n, w / law[v]) for n, w in sub] for v, sub in children.items()}


def iter_prefix_laws(p: FiniteProcess, prune_key=None) -> Iterator[tuple[ValuePath, dict]]:
    """Yield (prefix, law of the next value) for every realizable prefix
    shorter than the depth, equal values on distinct branches aggregated.

    Prefixes come depth first from a stack, each node's extensions pushed
    in first-seen value order, so a check that stops at its first failure
    always reports the same prefix.

    With ``prune_key``, a prefix whose class (the weighted nodes it reaches)
    and ``prune_key(prefix)`` were both seen is skipped with its subtree: the
    class fixes every law below, and the first occurrence's subtree was walked
    before the repeat is popped, so a check that stops at its first failure
    keeps its verdict and witness.
    """
    seen = set()
    stack = [((), [(p.root, ONE)])]
    while stack:
        prefix, cls = stack.pop()
        if prune_key is not None:
            key = (prune_key(prefix), tuple((id(node), w) for node, w in cls))
            if key in seen:
                continue
            seen.add(key)
        law, children = _split_class(cls, len(prefix) + 1 < p.depth)
        yield prefix, law
        for v, sub in children.items():
            stack.append((prefix + (v,), sub))


def conditional_law(p: FiniteProcess, prefix: ValuePath) -> list[tuple[Value, Fraction]]:
    """Conditional law of the next value given a realizable value prefix.

    Returns (value, prob) pairs sorted by the canonical (lexicographic)
    order, with equal values on distinct branches aggregated.  A prefix
    value may be any sequence of coordinates, a list as well as a tuple.
    """
    if len(prefix) >= p.depth:
        raise UnreachablePrefix(
            f"prefix of length {len(prefix)} has no next step in a depth-"
            f"{p.depth} process",
            prefix=prefix,
        )
    prefix = tuple(tuple(v) for v in prefix)
    cls = [(p.root, ONE)]
    for k, v in enumerate(prefix):
        law, children = _split_class(cls, True)
        if v not in law:
            raise UnreachablePrefix(
                f"prefix {fmt_prefix(prefix)} leaves the tree at step {k + 1}",
                prefix=prefix,
                step=k + 1,
            )
        cls = children[v]
    law, _ = _split_class(cls, False)
    return sorted(law.items())


# ---------------------------------------------------------------------------
# martingale-difference and tangency checks

def is_mds(p: FiniteProcess) -> CheckResult:
    """Exact zero-conditional-mean check at every realizable prefix.

    On failure the witness carries the offending prefix and the nonzero
    conditional mean.
    """
    zero = (ZERO,) * p.dimension
    for prefix, law in iter_prefix_laws(p, len):
        mean = zero
        for v, q in law.items():
            mean = tuple(m + q * c for m, c in zip(mean, v))
        if mean != zero:
            return CheckResult(False, {"prefix": prefix, "mean": mean})
    return CheckResult(True, None)


def _component_law(law: dict[Value, Fraction], part: slice) -> dict[Value, Fraction]:
    out: dict[Value, Fraction] = {}
    for v, q in law.items():
        out[v[part]] = out.get(v[part], ZERO) + q
    return out


def are_tangent(pq: PairProcess) -> CheckResult:
    """Exact tangency check: equal component step laws at every prefix.

    At every realizable pair prefix the marginal conditional law of the
    first component must equal that of the second (compared as sorted
    (value, prob) lists after aggregating equal values).
    """
    d = pq.component_dim
    for prefix, law in iter_prefix_laws(pq.process, len):
        f_law = _component_law(law, slice(None, d))
        g_law = _component_law(law, slice(d, None))
        if f_law != g_law:
            return CheckResult(
                False,
                {
                    "prefix": prefix,
                    "first_law": sorted(f_law.items()),
                    "second_law": sorted(g_law.items()),
                },
            )
    return CheckResult(True, None)


def satisfies_ci(pq: PairProcess, checked_component: int = 1) -> CheckResult:
    """Exact condition-(C.I.) check for one component of a pair process.

    The conditioning sigma field is the full path f of the other component.
    At every pair prefix the step law must be the product a x b of its
    other- and checked-component laws, with (a, b) a function of the other
    history f_<n alone.  Then P(f, g) = prod a_n(f_n | f_<n) b_n(g_n | f_<n):
    given f the checked steps are independent, each with its law given the
    pair history.  The converse needs a valid pair (``validate_process``),
    which the check assumes.  Prefixes are visited once per (class, f_<n).

    ``checked_component`` is 0 for the first half of each value, 1 for
    the second (the decoupled copy convention).

    The witness names the first failing pair ``prefix`` and its ``kind``:
    ``"factorization-support"`` (``joint_support`` atoms where a x b has
    ``product_support``), ``"factorization"`` (the atom ``value`` has
    probability ``joint``, not ``product``) or ``"step-law"`` (the sorted
    step ``law`` differs in a or b from the sorted ``first_law`` at
    ``first_prefix``, which has the same other history).
    """
    if checked_component not in (0, 1):
        raise ValueError("checked_component must be 0 or 1")
    d = pq.component_dim
    halves = (slice(None, d), slice(d, None))
    other, checked = halves[1 - checked_component], halves[checked_component]

    def history(prefix: ValuePath) -> ValuePath:
        return tuple(v[other] for v in prefix)

    first: dict[ValuePath, tuple] = {}
    for prefix, law in iter_prefix_laws(pq.process, history):
        a, b = _component_law(law, other), _component_law(law, checked)
        if len(law) != len(a) * len(b):
            return CheckResult(False, {"kind": "factorization-support", "prefix": prefix,
                                       "joint_support": len(law),
                                       "product_support": len(a) * len(b)})
        for v, q in law.items():
            product = a[v[other]] * b[v[checked]]
            if q != product:
                return CheckResult(False, {"kind": "factorization", "prefix": prefix,
                                           "value": v, "joint": q, "product": product})
        first_prefix, first_law, laws = first.setdefault(
            history(prefix), (prefix, law, (a, b)))
        if laws != (a, b):
            return CheckResult(False, {"kind": "step-law", "prefix": prefix,
                                       "first_prefix": first_prefix,
                                       "law": sorted(law.items()),
                                       "first_law": sorted(first_law.items())})
    return CheckResult(True, None)
