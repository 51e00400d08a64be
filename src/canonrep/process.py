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
pure, so concurrent reads are safe, and trees may share nodes (``pair_law``
and ``jsonio.process_from_json`` do).  ``is_mds``, ``are_tangent`` and
``satisfies_ci`` visit each distinct prefix class once (``iter_prefix_laws``).
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


def make_value(coords) -> Value:
    """Coerce a sequence of numbers or 'p/q' strings into an exact Value."""
    return tuple(Fraction(c) for c in coords)


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

    def split(self, v: Value) -> tuple[Value, Value]:
        d = self.component_dim
        return v[:d], v[d:]


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

def joint_law(p: FiniteProcess) -> PathLaw:
    """Exact joint law of the whole sequence.

    One entry per realizable value path; the probability of a path is the
    sum over tree paths carrying it of the product of branch probs.
    """
    law: PathLaw = {}

    def walk(node: Node, path: ValuePath, prob: Fraction) -> None:
        for br in node.branches:
            q = prob * br.prob
            full = path + (br.value,)
            if br.child is None:
                law[full] = law.get(full, ZERO) + q
            else:
                walk(br.child, full, q)

    walk(p.root, (), ONE)
    return law


def _prefix_class(p: FiniteProcess, prefix: ValuePath):
    """Weighted set of tree nodes reachable by a value prefix.

    Sibling branches with equal values are followed together; the returned
    weights are conditional (they sum to one).
    """
    cls: list[tuple[Optional[Node], Fraction]] = [(p.root, ONE)]
    for k, v in enumerate(prefix):
        nxt: list[tuple[Optional[Node], Fraction]] = []
        total = ZERO
        for node, w in cls:
            if node is None:
                continue
            for br in node.branches:
                if br.value == v:
                    nxt.append((br.child, w * br.prob))
                    total += w * br.prob
        if total == 0:
            raise UnreachablePrefix(
                f"prefix {fmt_prefix(prefix)} leaves the tree at step {k + 1}",
                prefix=prefix,
                step=k + 1,
            )
        cls = [(n, w / total) for n, w in nxt]
    return cls


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
    order, with equal values on distinct branches aggregated.
    """
    if len(prefix) >= p.depth:
        raise UnreachablePrefix(
            f"prefix of length {len(prefix)} has no next step in a depth-"
            f"{p.depth} process",
            prefix=prefix,
        )
    law, _ = _split_class(_prefix_class(p, tuple(prefix)), False)
    return sorted(law.items())


# ---------------------------------------------------------------------------
# martingale-difference and tangency checks

def _zero_mean_check(p: FiniteProcess, part: slice) -> CheckResult:
    """Exact zero conditional mean of the coordinates ``part`` of each value,
    at every realizable prefix; the witness names the first failure."""
    zero = (ZERO,) * len(range(p.dimension)[part])
    for prefix, law in iter_prefix_laws(p, len):
        mean = zero
        for v, q in law.items():
            mean = tuple(m + q * c for m, c in zip(mean, v[part]))
        if mean != zero:
            return CheckResult(False, {"prefix": prefix, "mean": mean})
    return CheckResult(True, None)


def is_mds(p: FiniteProcess) -> CheckResult:
    """Exact zero-conditional-mean check at every realizable prefix.

    On failure the witness carries the offending prefix and the nonzero
    conditional mean.
    """
    return _zero_mean_check(p, slice(None))


def _component_law(law: dict[Value, Fraction], d: int, which: int) -> dict[Value, Fraction]:
    out: dict[Value, Fraction] = {}
    for v, q in law.items():
        part = v[:d] if which == 0 else v[d:]
        out[part] = out.get(part, ZERO) + q
    return out


def are_tangent(pq: PairProcess) -> CheckResult:
    """Exact tangency check: equal component step laws at every prefix.

    At every realizable pair prefix the marginal conditional law of the
    first component must equal that of the second (compared as sorted
    (value, prob) lists after aggregating equal values).
    """
    d = pq.component_dim
    for prefix, law in iter_prefix_laws(pq.process, len):
        f_law = _component_law(law, d, 0)
        g_law = _component_law(law, d, 1)
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


def _ci_local_test(pq: PairProcess, checked_component: int) -> bool:
    """(C.I.) by local laws: each step law is the product a x b of its other-
    and checked-component laws, with (a, b) a function of the other history
    f alone.  Then P(f, g) = prod a_n(f_n | f_<n) b_n(g_n | f_<n), which is
    (C.I.) with the declared b_n; on a valid pair the converse holds too."""
    d = pq.component_dim
    halves = (slice(None, d), slice(d, None))
    other, checked = halves[1 - checked_component], halves[checked_component]

    def history(prefix: ValuePath) -> ValuePath:
        return tuple(v[other] for v in prefix)

    given: dict[ValuePath, tuple] = {}
    for prefix, law in iter_prefix_laws(pq.process, history):
        a = _component_law(law, d, 1 - checked_component)
        b = _component_law(law, d, checked_component)
        if len(law) != len(a) * len(b) or any(
            q != a[v[other]] * b[v[checked]] for v, q in law.items()
        ) or given.setdefault(history(prefix), (a, b)) != (a, b):
            return False
    return True


def satisfies_ci(pq: PairProcess, checked_component: int = 1) -> CheckResult:
    """Exact condition-(C.I.) check for one component of a pair process.

    The conditioning sigma field is fixed to the full path of the other
    component.  The checked component must then be conditionally
    independent across steps (the conditional joint law factors into its
    own conditional marginals, verified by exact factorization), and each
    step's conditional law given that full path must coincide with its
    conditional law given the pair history.

    ``checked_component`` is 0 for the first half of each value, 1 for
    the second (the decoupled copy convention).

    A local test over the distinct prefix classes runs first; the fiber
    check on the whole ``joint_law`` is the fallback that names a failure.
    """
    if checked_component not in (0, 1):
        raise ValueError("checked_component must be 0 or 1")
    if _ci_local_test(pq, checked_component):
        return CheckResult(True, None)
    d = pq.component_dim
    n_steps = pq.process.depth
    law = joint_law(pq.process)

    def split_path(path: ValuePath) -> tuple[ValuePath, ValuePath]:
        f = tuple(v[:d] for v in path)
        g = tuple(v[d:] for v in path)
        return (f, g) if checked_component == 1 else (g, f)

    def join_step(other_v: Value, checked_v: Value) -> Value:
        return other_v + checked_v if checked_component == 1 else checked_v + other_v

    # conditional laws of the checked component given every pair prefix
    declared = {
        prefix: _component_law(step_law, d, checked_component)
        for prefix, step_law in iter_prefix_laws(pq.process)
    }

    # fibers of the conditioning path
    fibers: dict[ValuePath, dict[ValuePath, Fraction]] = {}
    for path, prob in law.items():
        other, checked = split_path(path)
        inner = fibers.setdefault(other, {})
        inner[checked] = inner.get(checked, ZERO) + prob

    for other, cond in fibers.items():
        total = sum(cond.values(), ZERO)
        cond = {b: q / total for b, q in cond.items()}
        margs: list[dict[Value, Fraction]] = [dict() for _ in range(n_steps)]
        for b, q in cond.items():
            for n in range(n_steps):
                margs[n][b[n]] = margs[n].get(b[n], ZERO) + q

        # factorization of the conditional joint into its own marginals
        support_product = 1
        for m in margs:
            support_product *= len(m)
        if len(cond) != support_product:
            return CheckResult(
                False,
                {
                    "kind": "factorization-support",
                    "conditioning_path": other,
                    "joint_support": len(cond),
                    "product_support": support_product,
                },
            )
        for b, q in cond.items():
            prod = ONE
            for n in range(n_steps):
                prod *= margs[n][b[n]]
            if q != prod:
                return CheckResult(
                    False,
                    {
                        "kind": "factorization",
                        "conditioning_path": other,
                        "checked_path": b,
                        "joint": q,
                        "product": prod,
                    },
                )

        # step laws given the full conditioning path must match the laws
        # declared by the tree at the corresponding pair prefix
        seen: set[tuple[int, ValuePath]] = set()
        for b in cond:
            for n in range(n_steps):
                pair_prefix = tuple(
                    join_step(other[k], b[k]) for k in range(n)
                )
                key = (n, pair_prefix)
                if key in seen:
                    continue
                seen.add(key)
                if margs[n] != declared[pair_prefix]:
                    return CheckResult(
                        False,
                        {
                            "kind": "step-law",
                            "conditioning_path": other,
                            "step": n + 1,
                            "pair_prefix": pair_prefix,
                            "given_path": sorted(margs[n].items()),
                            "given_history": sorted(declared[pair_prefix].items()),
                        },
                    )
    return CheckResult(True, None)


def pair_from_identical(p: FiniteProcess) -> PairProcess:
    """Pair a process with itself pathwise (both components move together)."""

    def dup(node: Node) -> Node:
        return Node(
            tuple(
                Branch(br.value + br.value, br.prob, dup(br.child) if br.child else None)
                for br in node.branches
            )
        )

    return PairProcess(
        FiniteProcess(2 * p.dimension, p.depth, dup(p.root)), p.dimension
    )


def swap_components(pq: PairProcess) -> PairProcess:
    """Exchange the two components of a pair process."""
    d = pq.component_dim

    def swap(node: Node) -> Node:
        return Node(
            tuple(
                Branch(
                    br.value[d:] + br.value[:d],
                    br.prob,
                    swap(br.child) if br.child else None,
                )
                for br in node.branches
            )
        )

    return PairProcess(
        FiniteProcess(pq.process.dimension, pq.process.depth, swap(pq.process.root)), d
    )
