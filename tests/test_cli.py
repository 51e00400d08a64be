import json

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
    path = _gen(runner, tmp_path)
    res = runner.invoke(
        main, ["validate", "--in", str(path), "--format-version", "2"]
    )
    assert res.exit_code == 2


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
        "--format-version",
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
     (",", 2, "at least one time"), ("1,9", 1, "XOutOfRange")],
    ids=["zero", "not-a-number", "empty", "out-of-range"],
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
