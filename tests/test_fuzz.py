"""Fuzzed inputs reach a defined exit code, never a traceback.

Valid process, representation and pair documents are mutated (values of
the wrong type, missing keys, NaN and Infinity literals, intervals that
no longer tile, wrong depths) and fed to the commands that read them;
the numeric parameters of ``bench`` and ``skorohod`` are fuzzed on their
own.  Every run must end in exit code 0, 1, 2 or 3 through ``sys.exit``.
Sample counts stay small so that each example runs in milliseconds.
"""

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from canonrep.cli import MAX_SAMPLES, main

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, 2.5, -0.0])
    | st.text(max_size=6)
    | st.sampled_from(["1/2", "-1/3", "1/0", "0", "3", "1e-3", "nan", "inf", "1/2/3"])
)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _slots(doc, prefix=()):
    """The key path of every value nested inside ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _slots(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """A deep copy of ``doc`` with one to three mutations applied."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        headers = sorted(k for k in doc if k != "root")  # format_version, depth, ...
        kind = draw(st.sampled_from(["replace", "delete", "header", "interval"]))
        if kind == "header" and headers:
            doc[draw(st.sampled_from(headers))] = draw(st.integers(-1, 6) | junk)
        elif kind == "interval":
            ends = [s for s in slots if s[-2:-1] == ("interval",)]
            if ends:
                path = draw(st.sampled_from(ends))
                _at(doc, path[:-1])[path[-1]] = draw(
                    st.fractions(min_value=-1, max_value=2, max_denominator=12).map(str)
                )
        elif slots:
            path = draw(st.sampled_from(slots))
            parent = _at(doc, path[:-1])
            if kind == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(junk)
        if not isinstance(doc, dict):
            break
    return doc


def _assert_defined_exit(res):
    assert res.exit_code in (0, 1, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(
        res.exception
    )
    assert "Traceback" not in res.output


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Valid documents of a depth-2, dimension-2 zero-mean process."""
    tmp = tmp_path_factory.mktemp("fuzz-base")
    runner = CliRunner()
    p, r, q = tmp / "p.json", tmp / "r.json", tmp / "q.json"
    for args in (
        ["gen", "--depth", "2", "--branching", "3", "--dimension", "2", "--mds",
         "--seed", "3", "--out", str(p)],
        ["represent", "--in", str(p), "--out", str(r)],
        ["decouple", "--in", str(r), "--out", str(q)],
    ):
        assert runner.invoke(main, args).exit_code == 0
    return {name: json.loads(path.read_text()) for name, path in
            [("process", p), ("representation", r), ("pair", q)]}


def _run(tmp_path, command, doc, *extra, second=None):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))  # NaN and Infinity become JSON literals
    args = [command, "--in", str(src)]
    if command != "validate":
        args += ["--out", str(tmp_path / "out.json")]
    if second is not None:
        other = tmp_path / "in2.json"
        other.write_text(json.dumps(second))
        args += ["--in2", str(other)]
    return CliRunner().invoke(main, args + list(extra))


@pytest.mark.parametrize("command", ["validate", "represent"])
def test_fuzzed_process_documents(docs, tmp_path, command):
    @FUZZ
    @given(doc=mutated(docs["process"]))
    def check(doc):
        _assert_defined_exit(_run(tmp_path, command, doc))

    check()


def test_fuzzed_representation_documents_bench(docs, tmp_path):
    @FUZZ
    @given(doc=mutated(docs["representation"]))
    def check(doc):
        _assert_defined_exit(_run(tmp_path, "bench", doc, "--samples", "50",
                                  "--seed", "1"))

    check()


def test_fuzzed_pair_documents_transport(docs, tmp_path):
    @FUZZ
    @given(doc=mutated(docs["pair"]))
    def check(doc):
        _assert_defined_exit(_run(tmp_path, "transport", doc))

    check()


def test_fuzzed_representation_pairs_transport(docs, tmp_path):
    @FUZZ
    @given(first=mutated(docs["representation"]), second=mutated(docs["representation"]))
    def check(first, second):
        _assert_defined_exit(_run(tmp_path, "transport", first, second=second))

    check()


# ---------------------------------------------------------------------------
# numeric parameters

numbers = (
    st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.integers(min_value=-(2**70), max_value=2**70).map(str)
    | st.sampled_from(["", "x", "nan", "-inf", "1e400", "-0", "0x10", "1_0", " 3"])
)


def sample_counts(most: int):
    """Sample counts up to ``most``, counts above the CLI's limit, and junk;
    valid counts above ``most`` are left out only to keep examples fast."""
    return (
        st.integers(-3, most).map(str)
        | st.integers(MAX_SAMPLES + 1, 2**70).map(str)
        | st.sampled_from(["", "x", "1e3", "nan", "-0"])
    )


def test_fuzzed_bench_parameters(docs, tmp_path):
    # a valid call must run, or a renamed option would make every example
    # below a usage error that still counts as a defined exit
    res = _run(tmp_path, "bench", docs["representation"], "--p", "2",
               "--samples", "50", "--seed", "1")
    assert res.exit_code == 0, res.output

    @FUZZ
    @given(p=numbers, samples=sample_counts(200), seed=numbers)
    def check(p, samples, seed):
        _assert_defined_exit(_run(
            tmp_path, "bench", docs["representation"], "--p", p, "--samples", samples,
            "--seed", seed,
        ))

    check()


def test_fuzzed_skorohod_parameters(docs, tmp_path):
    @FUZZ
    @given(
        scheme=st.sampled_from(["exit_sample", "euler"]),
        samples=sample_counts(40),
        seed=numbers,
        grid=st.text(alphabet="0123456789.,-e x", max_size=8),
        dt=numbers,
        cap=numbers,
    )
    def check(scheme, samples, seed, grid, dt, cap):
        _assert_defined_exit(_run(
            tmp_path, "skorohod", docs["process"], "--scheme", scheme,
            "--samples", samples, "--seed", seed, "--grid", grid, "--dt", dt,
            "--cap", cap,
        ))

    check()
