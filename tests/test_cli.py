import contextlib
import gc
import io
import json
import time
import weakref
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from canonrep.cli import main
from canonrep.jsonio import load_json


@pytest.fixture
def runner():
    return CliRunner()


def _gen(runner, tmp_path, name="p.json", depth=2, branching=3, mds=True, seed=7):
    out = tmp_path / name
    res = runner.invoke(
        main,
        [
            "gen", "--depth", str(depth), "--branching", str(branching),
            "--dimension", "1", "--seed", str(seed), "--out", str(out),
        ]
        + (["--mds"] if mds else []),
    )
    assert res.exit_code == 0, res.output
    return out


# ---------------------------------------------------------------------------
# gen / validate

def test_gen_deterministic_bytes(runner, tmp_path):
    a = _gen(runner, tmp_path, "a.json", seed=7)
    b = _gen(runner, tmp_path, "b.json", seed=7)
    assert a.read_bytes() == b.read_bytes()


def test_gen_mds_flag_yields_mds(runner, tmp_path):
    from canonrep import is_mds
    from canonrep.jsonio import process_from_json

    path = _gen(runner, tmp_path, mds=True, seed=13)
    assert is_mds(process_from_json(load_json(path))).ok


def test_gen_size_guard(runner, tmp_path):
    res = runner.invoke(
        main,
        ["gen", "--depth", "9", "--branching", "2", "--seed", "1",
         "--out", str(tmp_path / "x.json")],
    )
    assert res.exit_code == 1


def test_validate_ok(runner, tmp_path):
    path = _gen(runner, tmp_path)
    res = runner.invoke(main, ["validate", "--in", str(path)])
    assert res.exit_code == 0


def test_validate_bad_prob_sum_names_node(runner, tmp_path):
    doc = {
        "format_version": 1,
        "dimension": 1,
        "depth": 1,
        "root": {
            "branches": [
                {"value": ["1"], "prob": "1/2", "child": None},
                {"value": ["2"], "prob": "1/3", "child": None},
            ]
        },
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["validate", "--in", str(bad)])
    assert res.exit_code == 1
    assert "root" in res.output or "root" in (res.stderr or "")


def test_validate_truncated_file(runner, tmp_path):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"format_version": 1,')
    res = runner.invoke(main, ["validate", "--in", str(bad)])
    assert res.exit_code == 2


def test_unsupported_format_version(runner, tmp_path):
    # every command that reads a file refuses a document of another version
    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    future = {}
    for name, path in (("p2.json", p_path), ("r2.json", r_path)):
        doc = load_json(path)
        doc["format_version"] = 2
        future[name] = tmp_path / name
        future[name].write_text(json.dumps(doc))
    p2, r2, out = str(future["p2.json"]), str(future["r2.json"]), str(tmp_path / "o.json")
    for args in (
        ["validate", "--in", p2],
        ["represent", "--in", p2, "--out", out],
        ["decouple", "--in", r2, "--out", out],
        ["transport", "--in", p2, "--out", out],
        ["transport", "--in", str(r_path), "--in2", r2, "--out", out],
        ["bench", "--in", r2, "--seed", "1", "--out", out],
        ["skorohod", "--in", p2, "--seed", "1", "--out", out],
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, args
        assert "unsupported format_version 2" in res.output, args


# ---------------------------------------------------------------------------
# represent / decouple / transport round trips

def test_represent_round_trip(runner, tmp_path):
    from canonrep import joint_law, law_of_representation
    from canonrep.jsonio import process_from_json, representation_from_json

    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    res = runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    assert res.exit_code == 0, res.output
    assert "law preserved: true" in res.output
    rep = representation_from_json(load_json(r_path))
    process = process_from_json(load_json(p_path))
    assert law_of_representation(rep) == joint_law(process)


def test_decouple_emits_pair_process(runner, tmp_path):
    from canonrep.jsonio import pair_process_from_json
    from canonrep import are_tangent, satisfies_ci, validate_process

    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    pair_path = tmp_path / "pair.json"
    res = runner.invoke(main, ["decouple", "--in", str(r_path), "--out", str(pair_path)])
    assert res.exit_code == 0, res.output
    assert "direct marginal preserved: true" in res.output
    pq = pair_process_from_json(load_json(pair_path))
    validate_process(pq.process)
    assert pq.process.dimension == 2
    assert are_tangent(pq).ok
    assert satisfies_ci(pq, 1).ok


def test_transport_from_pair(runner, tmp_path):
    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    pair_path = tmp_path / "pair.json"
    t_path = tmp_path / "t.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    runner.invoke(main, ["decouple", "--in", str(r_path), "--out", str(pair_path)])
    res = runner.invoke(main, ["transport", "--in", str(pair_path), "--out", str(t_path)])
    assert res.exit_code == 0, res.output
    assert "measure preserving: true" in res.output
    doc = load_json(t_path)
    assert doc["format_version"] == 1
    assert [step["step"] for step in doc["steps"]] == [1, 2]
    first_pairs = doc["steps"][0]["sections"][0]["pairs"]
    assert all(len(pair) == 2 and len(pair[0]) == 2 for pair in first_pairs)


def test_transport_two_representations(runner, tmp_path):
    # coupling two copies of one representation is tangent when the step
    # laws do not depend on history
    from canonrep import canonical_representation, random_independent_process
    from canonrep.jsonio import dump_json, representation_to_json

    p = random_independent_process(2, 3, 1, seed=7)
    r_path = tmp_path / "r.json"
    dump_json(representation_to_json(canonical_representation(p)), r_path)
    t_path = tmp_path / "t.json"
    res = runner.invoke(
        main,
        ["transport", "--in", str(r_path), "--in2", str(r_path), "--out", str(t_path)],
    )
    assert res.exit_code == 0, res.output
    assert "measure preserving: true" in res.output


def test_transport_non_tangent_pair_fails(runner, tmp_path):
    a_path = _gen(runner, tmp_path, "a.json", seed=7)
    b_path = _gen(runner, tmp_path, "b.json", seed=8)
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    runner.invoke(main, ["represent", "--in", str(a_path), "--out", str(ra)])
    runner.invoke(main, ["represent", "--in", str(b_path), "--out", str(rb)])
    res = runner.invoke(
        main,
        ["transport", "--in", str(ra), "--in2", str(rb), "--out",
         str(tmp_path / "t.json")],
    )
    assert res.exit_code == 1


def test_transport_size_guard_counts_sections_before_building(runner, tmp_path, monkeypatch):
    """Two fair coins at each of 10 steps couple into (4^10 - 1) / 3 sections,
    over the cap: refused with exit 1 before any section is built."""
    from canonrep import Branch, FiniteProcess, Node
    from canonrep.cli import MAX_SECTIONS
    from canonrep.jsonio import dump_json, representation_to_json
    from canonrep.representation import CellRepresentation

    node = None
    for _ in range(10):
        node = Node(tuple(Branch((F(v),), F(1, 2), node) for v in (-1, 1)))
    coin = CellRepresentation(1, 10, node)
    r_path, t_path = tmp_path / "r.json", tmp_path / "t.json"
    dump_json(representation_to_json(coin), r_path)
    monkeypatch.setattr("canonrep.cli.build_transport", None)  # never reached
    res = runner.invoke(
        main, ["transport", "--in", str(r_path), "--in2", str(r_path), "--out", str(t_path)])
    assert res.exit_code == 1, res.output
    sections = (4**10 - 1) // 3
    assert sections > MAX_SECTIONS
    assert (f"SizeGuard: the transport would hold {sections} sections, "
            f"more than {MAX_SECTIONS}") in res.output
    assert not t_path.exists()


# ---------------------------------------------------------------------------
# bench

def test_bench_report_schema_and_gate(runner, tmp_path):
    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    out = tmp_path / "bench.json"
    res = runner.invoke(
        main,
        ["bench", "--in", str(r_path), "--p", "2", "--samples", "20000",
         "--seed", "3", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    doc = load_json(out)
    assert set(doc) >= {"ratio", "ci_low", "ci_high", "p", "M", "seed", "oracle"}
    assert doc["oracle"]["exact_ratio"] == 1.0
    assert doc["ci_low"] <= 1.0 <= doc["ci_high"]


def test_bench_requires_seed(runner, tmp_path):
    res = runner.invoke(
        main, ["bench", "--in", "x.json", "--out", "y.json"]
    )
    assert res.exit_code == 2  # click usage error


def test_bench_csv(runner, tmp_path):
    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    csv_path = tmp_path / "sums.csv"
    res = runner.invoke(
        main,
        ["bench", "--in", str(r_path), "--p", "2", "--samples", "200",
         "--seed", "3", "--out", str(tmp_path / "b.json"), "--csv", str(csv_path)],
    )
    assert res.exit_code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 201
    assert lines[0].startswith("path,")
    # plain float reprs, whatever numpy's own scalar repr is
    for line in lines[1:]:
        for cell in line.split(",")[1:]:
            assert cell == repr(float(cell))


def test_bench_oracle_has_no_options(runner, tmp_path):
    # the oracle runs whenever p is even; no option limits or forces it
    assert {opt for param in main.commands["bench"].params for opt in param.opts} == {
        "--in", "--p", "--samples", "--seed", "--out", "--csv", "--quiet",
    }
    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    out = tmp_path / "b.json"
    res = runner.invoke(
        main,
        ["bench", "--in", str(r_path), "--p", "2", "--samples", "2000",
         "--seed", "3", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert load_json(out)["oracle"]["exact_ratio"] == 1.0


def test_bench_oracle_at_depth_6(runner, tmp_path):
    p_path = _gen(runner, tmp_path, depth=6)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    out = tmp_path / "b.json"
    res = runner.invoke(
        main,
        ["bench", "--in", str(r_path), "--p", "2", "--samples", "2000",
         "--seed", "3", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert load_json(out)["oracle"]["exact_ratio"] == 1.0


def test_bench_oracle_above_guard_is_null(runner, tmp_path, monkeypatch):
    from canonrep import bench

    monkeypatch.setattr(bench, "MAX_ORACLE_SUMS", 3)
    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    out = tmp_path / "b.json"
    res = runner.invoke(
        main,
        ["bench", "--in", str(r_path), "--p", "2", "--samples", "2000",
         "--seed", "3", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert load_json(out)["oracle"]["exact_ratio"] is None
    assert "exact=none" in res.output


# a depth-2 MDS tree whose exact moment ratio at p = 8400 exceeds 1e308
OVERFLOW_TREE = (
    '{"format_version":1,"dimension":1,"depth":2,"root":{"branches":['
    '{"prob":"1/3","value":["2/12"],"child":{"branches":['
    '{"prob":"1/2","value":["1/12"]},{"prob":"1/2","value":["-1/12"]}]}},'
    '{"prob":"2/3","value":["-1/12"],"child":{"branches":['
    '{"prob":"1/2","value":["10/12"]},{"prob":"1/2","value":["-10/12"]}]}}]}}'
)
# sums of norm 1 and 1/2: the float estimates stay finite at any p
HALVES_TREE = (
    '{"format_version":1,"dimension":1,"depth":1,"root":{"branches":['
    '{"prob":"1/3","value":["1"]},{"prob":"2/3","value":["-1/2"]}]}}'
)


@pytest.mark.parametrize("tree, p", [(OVERFLOW_TREE, "8400"), (HALVES_TREE, "1e12")])
def test_bench_oracle_out_of_reach_is_null(runner, tmp_path, tree, p):
    p_path, r_path, out = tmp_path / "p.json", tmp_path / "r.json", tmp_path / "b.json"
    p_path.write_text(tree)
    res = runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    assert res.exit_code == 0, res.output
    start = time.perf_counter()
    res = runner.invoke(
        main,
        ["bench", "--in", str(r_path), "--p", p, "--samples", "2000",
         "--seed", "1", "--out", str(out)],
    )
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 0, res.output
    assert res.exception is None
    assert load_json(out)["oracle"]["exact_ratio"] is None
    assert "exact=none" in res.output


def test_decouple_copy_marginal_true_for_independent_source(runner, tmp_path):
    from canonrep import canonical_representation, random_independent_process
    from canonrep.jsonio import dump_json, representation_to_json

    p = random_independent_process(2, 3, 1, seed=5)
    r_path = tmp_path / "r.json"
    dump_json(representation_to_json(canonical_representation(p)), r_path)
    res = runner.invoke(
        main, ["decouple", "--in", str(r_path), "--out", str(tmp_path / "pp.json")]
    )
    assert res.exit_code == 0
    assert "copy marginal matches source: true" in res.output


def test_bench_byte_deterministic(runner, tmp_path):
    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    outs = []
    for name in ("b1.json", "b2.json"):
        out = tmp_path / name
        res = runner.invoke(
            main,
            ["bench", "--in", str(r_path), "--p", "2", "--samples", "5000",
             "--seed", "9", "--out", str(out)],
        )
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# skorohod

def test_skorohod_exit_sample_report(runner, tmp_path):
    p_path = _gen(runner, tmp_path)
    out = tmp_path / "sk.json"
    res = runner.invoke(
        main,
        ["skorohod", "--in", str(p_path), "--scheme", "exit_sample",
         "--samples", "20000", "--seed", "5", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    doc = load_json(out)
    assert doc["chi_square"]["p_value"] > 0.01
    assert doc["martingale"] is not None
    assert doc["martingale"]["mean_ok"] and doc["martingale"]["slopes_ok"]


def test_skorohod_byte_deterministic(runner, tmp_path):
    p_path = _gen(runner, tmp_path)
    outs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        res = runner.invoke(
            main,
            ["skorohod", "--in", str(p_path), "--scheme", "exit_sample",
             "--samples", "3000", "--seed", "5", "--out", str(out)],
        )
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_skorohod_sample_too_small_for_chi_square_fails(runner, tmp_path):
    # two or more paths, but one sample pools every category into one
    p_path = _gen(runner, tmp_path, seed=4)
    out = tmp_path / "s.json"
    res = runner.invoke(
        main,
        ["skorohod", "--in", str(p_path), "--samples", "1", "--seed", "0",
         "--out", str(out)],
    )
    assert res.exit_code == 3
    assert "too small for the chi-square test" in res.output
    doc = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(c))
    assert doc["chi_square"]["dof"] == 0
    assert doc["chi_square"]["pooled_categories"] > 1


def test_skorohod_single_path_law_passes_with_one_sample(runner, tmp_path):
    p_path = _gen(runner, tmp_path, depth=1, branching=1, seed=4)
    out = tmp_path / "s.json"
    res = runner.invoke(
        main,
        ["skorohod", "--in", str(p_path), "--samples", "1", "--seed", "0",
         "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert load_json(out)["chi_square"]["pooled_categories"] <= 1


def test_skorohod_rejects_non_mds(runner, tmp_path):
    p_path = _gen(runner, tmp_path, mds=False, seed=29)
    from canonrep import is_mds
    from canonrep.jsonio import process_from_json

    if is_mds(process_from_json(load_json(p_path))).ok:
        pytest.skip("fixture happens to be zero-mean")
    res = runner.invoke(
        main,
        ["skorohod", "--in", str(p_path), "--samples", "100", "--seed", "1",
         "--out", str(tmp_path / "s.json")],
    )
    assert res.exit_code == 1


def test_skorohod_euler_small(runner, tmp_path):
    p_path = _gen(runner, tmp_path)
    out = tmp_path / "sk_euler.json"
    res = runner.invoke(
        main,
        ["skorohod", "--in", str(p_path), "--scheme", "euler",
         "--samples", "300", "--seed", "5", "--dt", "5e-5", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    doc = load_json(out)
    assert doc["scheme"] == "euler"
    assert doc["chi_square"]["p_value"] > 0.01
    assert doc["martingale"] is None  # below the path threshold


def test_skorohod_csv_and_svg(runner, tmp_path):
    p_path = _gen(runner, tmp_path)
    csv_path = tmp_path / "f.csv"
    svg_path = tmp_path / "f.svg"
    res = runner.invoke(
        main,
        ["skorohod", "--in", str(p_path), "--scheme", "exit_sample",
         "--samples", "500", "--seed", "5", "--out", str(tmp_path / "s.json"),
         "--csv", str(csv_path), "--svg", str(svg_path)],
    )
    assert res.exit_code == 0, res.output
    assert csv_path.read_text().startswith("path,t,F_0")
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" in svg


# ---------------------------------------------------------------------------
# parameter validation at the boundary

@pytest.mark.parametrize(
    "args",
    [["--samples", "0"], ["--samples", "1"], ["--p", "1"], ["--p", "nan"],
     ["--p", "inf"], ["--seed", "-1"], ["--seed", str(2**64)],
     ["--samples", str(10**7 + 1)]],
    ids=["samples-0", "samples-1", "p-1", "p-nan", "p-inf", "seed-neg", "seed-2^64",
         "samples-huge"],
)
def test_bench_rejects_bad_parameters(runner, tmp_path, args):
    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    out = tmp_path / "b.json"
    res = runner.invoke(
        main, ["bench", "--in", str(r_path), "--seed", "3", "--out", str(out)] + args
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert args[0] in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [["--samples", "0"], ["--dt", "nan"], ["--dt", "inf"], ["--dt", "0"],
     ["--cap", "nan"], ["--cap", "inf"], ["--cap", "-1"], ["--seed", "-1"],
     ["--seed", str(2**64)], ["--samples", str(10**7 + 1)]],
    ids=["samples-0", "dt-nan", "dt-inf", "dt-0", "cap-nan", "cap-inf", "cap-neg",
         "seed-neg", "seed-2^64", "samples-huge"],
)
def test_skorohod_rejects_bad_parameters(runner, tmp_path, args):
    p_path = _gen(runner, tmp_path)
    out = tmp_path / "s.json"
    res = runner.invoke(
        main, ["skorohod", "--in", str(p_path), "--seed", "5", "--out", str(out)] + args
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert args[0] in res.output
    assert not out.exists()


# ---------------------------------------------------------------------------
# representations of the wrong shape

def _null_first_child(doc):
    doc["root"]["branches"][0]["child"] = None


@pytest.mark.parametrize(
    "mutate",
    [_null_first_child, lambda doc: doc.update(depth=3), lambda doc: doc.update(depth=1),
     lambda doc: doc["root"].update(branches=True)],
    ids=["null-child", "depth-3", "depth-1", "branches-not-a-list"],
)
def test_bench_rejects_representation_of_wrong_depth(runner, tmp_path, mutate):
    p_path = _gen(runner, tmp_path, seed=1)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    doc = load_json(r_path)
    mutate(doc)
    r_path.write_text(json.dumps(doc))
    out = tmp_path / "b.json"
    res = runner.invoke(
        main, ["bench", "--in", str(r_path), "--samples", "100", "--seed", "1",
               "--out", str(out)]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "representation" in res.stderr
    assert not out.exists()


# four euler paths are too few for the chi-square gate, which exits 3
# after the simulation
@pytest.mark.parametrize("scheme, samples, code", [("exit_sample", 300, 0), ("euler", 4, 3)])
def test_skorohod_simulates_through_simulate_increments_once(
        runner, tmp_path, monkeypatch, scheme, samples, code):
    # one public call simulates every path, the grid paths included, so a
    # wrapper of simulate_increments sees the whole simulation
    from canonrep import embedding

    calls = []
    real = embedding.simulate_increments

    def counting(rep, count, cfg, grid=None, grid_count=0):
        calls.append((count, None if grid is None else len(grid), grid_count))
        return real(rep, count, cfg, grid, grid_count)

    monkeypatch.setattr(embedding, "simulate_increments", counting)
    p_path = _gen(runner, tmp_path)
    res = runner.invoke(
        main,
        ["skorohod", "--in", str(p_path), "--scheme", scheme, "--samples", str(samples),
         "--seed", "5", "--grid", "2", "--csv", str(tmp_path / "f.csv"),
         "--out", str(tmp_path / "s.json")],
    )
    assert res.exit_code == code, res.output
    assert calls == [(samples, 4, samples)]


# ---------------------------------------------------------------------------
# skorohod guards

def test_skorohod_coarse_guard_counts_every_block(runner, tmp_path):
    # at dt 0.01 every block exits in far fewer than 1000 steps; 10003
    # paths cross the 10^4 grid paths, and the guard still counts all
    # samples x depth blocks (exit code and message as the two-pass code)
    p_path = _gen(runner, tmp_path)
    out = tmp_path / "s.json"
    res = runner.invoke(
        main,
        ["skorohod", "--in", str(p_path), "--scheme", "euler", "--dt", "0.01",
         "--samples", "10003", "--seed", "5", "--out", str(out)],
    )
    assert res.exit_code == 1
    assert res.stderr == (
        "error: StepTooCoarse: 20006 of 20006 blocks exited in fewer than 1000 steps\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, code, message",
    [("0", 2, "at least one point per block"), ("x", 2, "cannot parse grid"),
     (",", 2, "at least one time"), ("1,9", 1, "XOutOfRange"),
     # 10^4 grid paths: 2 * 10^5 and 2 * 10^12 times per path, and 1001 listed
     ("100000", 2, "a grid of 200000 times on 10000 paths holds 2000000000 values, "
                   "more than 10000000"),
     ("1000000000000", 2, "a grid of 2000000000000 times on 10000 paths"),
     (",".join(["0.5"] * 1001), 2, "a grid of 1001 times on 10000 paths")],
    ids=["zero", "not-a-number", "empty", "out-of-range", "too-many-values",
         "too-many-per-block", "too-long-list"],
)
def test_skorohod_bad_grid_reported_before_simulating(runner, tmp_path, grid, code,
                                                       message):
    # the grid is read before any path is simulated, so it wins over a dt
    # that would trip the coarse-step guard
    p_path = _gen(runner, tmp_path)
    out = tmp_path / "s.json"
    res = runner.invoke(
        main,
        ["skorohod", "--in", str(p_path), "--scheme", "euler", "--dt", "0.01",
         "--samples", "10003", "--seed", "5", "--grid", grid, "--out", str(out)],
    )
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)
    assert message in res.stderr
    assert "StepTooCoarse" not in res.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# inputs found by fuzzing (tests/test_fuzz.py) that ended in a traceback or
# a silent nan

@pytest.mark.filterwarnings("error")
def test_bench_overflowing_p_fails_closed(runner, tmp_path):
    # the path sums' 1000th powers overflow floats; the ratio was nan and
    # the oracle gate, comparing against nan, passed
    p_path = _gen(runner, tmp_path)
    r_path = tmp_path / "r.json"
    runner.invoke(main, ["represent", "--in", str(p_path), "--out", str(r_path)])
    out = tmp_path / "b.json"
    res = runner.invoke(main, ["bench", "--in", str(r_path), "--samples", "100",
                               "--seed", "1", "--p", "1000", "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "DegenerateBatch" in res.stderr and "overflow" in res.stderr
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args, message",
    [(["--dt", "1e-300"], "SizeGuard"), (["--dt", "1e-10"], "SizeGuard"),
     (["--cap", "1e-300"], "NoDiskExit"),
     # the horizon rounds to 1, where the time change divides by zero
     (["--cap", "1e308", "--dt", "1e-3"], "SizeGuard")],
    ids=["dt-tiny", "dt-small", "cap-tiny", "cap-huge"],
)
def test_skorohod_euler_unrunnable_parameters(runner, tmp_path, args, message):
    p_path = _gen(runner, tmp_path)
    out = tmp_path / "s.json"
    res = runner.invoke(
        main, ["skorohod", "--in", str(p_path), "--scheme", "euler", "--samples", "5",
               "--seed", "5", "--out", str(out)] + args
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert message in res.stderr and args[0].lstrip("-") in res.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "old, new",
    [('"dimension": ', '"dimension": Infinity, "x": '),
     ('"depth": ', '"depth": -Infinity, "x": '),
     ('"prob": ', '"prob": Infinity, "x": '),
     ('"value": [', '"value": [-Infinity, ')],
    ids=["dimension", "depth", "prob", "value"],
)
def test_infinite_number_is_a_format_error(runner, tmp_path, old, new):
    path = _gen(runner, tmp_path)
    path.write_text(path.read_text().replace(old, new, 1))
    for cmd in (["validate", "--in", str(path)],
                ["represent", "--in", str(path), "--out", str(tmp_path / "r.json")]):
        res = runner.invoke(main, cmd)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)


# ---------------------------------------------------------------------------
# unreadable input, unwritable output

def _nested_process(levels: int) -> str:
    """A one-path process document ``levels`` steps deep (three JSON
    nesting levels per step)."""
    node = "null"
    for _ in range(levels):
        node = '{"branches": [{"value": ["0"], "prob": "1", "child": ' + node + "}]}"
    return f'{{"format_version": 1, "dimension": 1, "depth": {levels}, "root": {node}}}'


@pytest.mark.parametrize("content", [b"\xff\xfe{}", _nested_process(900).encode()],
                         ids=["not-utf8", "nested-900"])
def test_unreadable_input_is_a_format_error(runner, tmp_path, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    out = str(tmp_path / "o.json")
    for args in (["validate", "--in", str(path)],
                 ["represent", "--in", str(path), "--out", out],
                 ["bench", "--in", str(path), "--seed", "1", "--out", out],
                 ["skorohod", "--in", str(path), "--seed", "1", "--out", out]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
        assert isinstance(res.exception, SystemExit), args
        assert res.stderr.startswith(f"error: cannot read {path}"), args


def test_unwritable_output_is_an_io_error(runner, tmp_path):
    p_path = _gen(runner, tmp_path)
    missing = tmp_path / "missing"
    for args in (
        ["gen", "--depth", "2", "--branching", "2", "--seed", "1",
         "--out", str(missing / "p.json")],
        ["represent", "--in", str(p_path), "--out", str(missing / "r.json")],
        ["skorohod", "--in", str(p_path), "--samples", "50", "--seed", "1",
         "--out", str(tmp_path / "s.json"), "--csv", str(missing / "f.csv")],
        ["skorohod", "--in", str(p_path), "--samples", "50", "--seed", "1",
         "--out", str(tmp_path / "s.json"), "--svg", str(missing / "f.svg")],
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
        assert isinstance(res.exception, SystemExit), args
        assert res.stderr.startswith("error: ") and str(missing) in res.stderr, args
    assert not missing.exists()


def test_skorohod_validates_before_checking_means(runner, tmp_path):
    # the zero-probability branch's child has weight 0/0 given its prefix;
    # the branch is refused before any conditional law is taken
    leaf = {"branches": [{"value": ["0"], "prob": "1", "child": None}]}
    doc = {"format_version": 1, "dimension": 1, "depth": 2, "root": {"branches": [
        {"value": ["1"], "prob": "0", "child": leaf},
        {"value": ["0"], "prob": "1", "child": leaf}]}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    for args in (["validate", "--in", str(path)],
                 ["represent", "--in", str(path), "--out", str(tmp_path / "r.json")],
                 ["skorohod", "--in", str(path), "--seed", "1", "--out", str(tmp_path / "s.json")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 1, (args, res.output)
        assert isinstance(res.exception, SystemExit), args
        assert res.stderr.startswith("error: NonPositiveProb: "), args


def test_failing_command_keeps_no_redirected_stderr_alive(tmp_path):
    err = io.StringIO()
    alive = weakref.ref(err)
    with contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", "--in", str(tmp_path / "missing.json")], standalone_mode=False)
    assert exit_info.value.code == 2
    assert err.getvalue().startswith("error: cannot read ")
    del err, exit_info
    gc.collect()
    assert alive() is None
