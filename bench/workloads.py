"""Workload fixtures and jobs for the canonrep benchmark.

Set-up (``write_fixtures``) runs in a fresh interpreter: it imports
``canonrep.cli`` the way every CLI call does, draws fixtures from the
workload seed with ``canonrep.generate`` and writes them as process JSON
plus a ``manifest.json``.  A job then runs real CLI commands in this
process on those files, plus the library checks, and returns timings,
size counters read from the outputs, output digests and failed checks.

Input sizes are fixed per workload so that rates from different seeds
compare: ``exact`` packs fixtures up to a quota of transport sections,
``montecarlo`` and ``euler`` draw trees until one has a set number of
nodes and branches (per-path costs grow with both).  The seed
picks which trees; the size stays put.

``skorohod`` is statistically gated.  Its chi-square test rejects one
correct run in a hundred by design, and its martingale slope test
understates the slope's standard error when the earlier value takes few
values with unequal spread of the later one (``test_harness.py`` shows a
case), so on a tree and sampling seed drawn afresh it fails some runs.
Like the program's acceptance tests, the benchmark therefore freezes the
gated case: every ``skorohod`` call runs the tree drawn for ``GATED_SEED``
with sampling seed ``GATED_SEED``, whatever the workload seed.  The seed
still picks the trees of ``exact`` and the ``bench`` tree of
``montecarlo``; ``euler`` runs only the frozen case.

Run as a script, this module is the set-up step:
``python3 bench/workloads.py WORKLOAD SEED OUT_DIR``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import canonrep as cr
import canonrep.cli as cli
from canonrep import generate, jsonio, representation

EXACT_SECTIONS = 300  # transport sections per exact job
EXACT_SETS = 6  # distinct fixture sets a run cycles through
EXACT_DEPTHS = (4, 5)  # candidates alternate between these depths
EXACT_BRANCHING = 4
EXACT_SLACK = 8  # a set may fall this many sections short of the quota
EXACT_MAX_DRAWS = 1000

MC_DEPTH, MC_BRANCHING, MC_SHAPE = 4, 4, (12, 27)  # (nodes, branches)
MC_BENCH_SAMPLES = 10_000
MC_ODD_P = 3.0
MC_SKOROHOD_SAMPLES = 10_000  # the martingale gate needs at least 10^4

EULER_DEPTH, EULER_BRANCHING, EULER_SHAPE = 3, 4, (6, 14)
EULER_SAMPLES = 400

GATED_SEED = 0  # tree and sampling seed of every skorohod call (see above)

SIGNIFICANCE = 0.01  # the CLI's chi-square level, re-checked from outside
CI_SIGMAS = 5.0  # the bench oracle gate, re-checked from outside


# ---------------------------------------------------------------------------
# sizes, read from output JSON and generated trees, never from inside src/

def tree_size(doc: dict) -> tuple[int, int]:
    """(nodes, branches) of a process or representation document."""
    nodes = branches = 0
    stack = [doc["root"]]
    while stack:
        node = stack.pop()
        nodes += 1
        for br in node["branches"]:
            branches += 1
            if br["child"] is not None:
                stack.append(br["child"])
    return nodes, branches


def tree_shape(node) -> tuple[int, int]:
    """(nodes, branches) of a process tree."""
    nodes, branches = 1, len(node.branches)
    for br in node.branches:
        if br.child is not None:
            n, k = tree_shape(br.child)
            nodes, branches = nodes + n, branches + k
    return nodes, branches


def pair_sections(node) -> int:
    """Transport sections of the decoupled pair of a process tree: one per
    node of the pair tree above the leaves, where each x branch's subtree
    appears once per y branch.  On a representation (``.cells``) this is
    exact; on a process tree it is an upper bound, since equal sibling
    values merge into one cell."""
    branches = node.cells if hasattr(node, "cells") else node.branches
    kids = [b.child for b in branches if b.child is not None]
    return 1 + len(branches) * sum(pair_sections(k) for k in kids)


# ---------------------------------------------------------------------------
# set-up

def _fixture(path: Path, process, sub_seed: int) -> dict:
    jsonio.dump_json(jsonio.process_to_json(process), path)
    return {"file": path.name, "depth": process.depth, "sub_seed": sub_seed,
            "shape": tree_shape(process.root)}


def _draw_with_shape(rng: Random, depth: int, branching: int, shape: tuple[int, int]):
    while True:
        sub = rng.getrandbits(32)
        process = generate.random_process(depth, branching, 1, sub, mds=True)
        if tree_shape(process.root) == shape:
            return process, sub


def write_fixtures(workload: str, seed: int, out: Path) -> dict:
    """Draw the workload's fixture sets from ``seed`` into ``out``.

    A job runs one set.  ``exact`` has ``EXACT_SETS`` sets, filled first-fit
    from one candidate stream so that few draws are thrown away, until no
    set lacks more than ``EXACT_SLACK`` sections.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = Random(f"{workload}:{seed}")
    if workload == "exact":
        sets: list[list[dict]] = [[] for _ in range(EXACT_SETS)]
        remaining = [EXACT_SECTIONS] * EXACT_SETS
        for draw in range(EXACT_MAX_DRAWS):
            if max(remaining) <= EXACT_SLACK:
                break
            depth = EXACT_DEPTHS[draw % len(EXACT_DEPTHS)]
            sub = rng.getrandbits(32)
            process = generate.random_process(depth, EXACT_BRANCHING, 1, sub, mds=True)
            nodes, branches = tree_shape(process.root)
            bound = pair_sections(process.root)
            fits = [i for i, r in enumerate(remaining) if bound <= r]
            # one branch everywhere is the zero process: its p = 2 ratio is 0/0
            if branches > nodes and fits:
                i = fits[0]
                entry = _fixture(out / f"s{i}p{len(sets[i])}.json", process, sub)
                entry["sections"] = pair_sections(
                    representation.canonical_representation(process).root)
                sets[i].append(entry)
                remaining[i] -= entry["sections"]
    elif workload == "montecarlo":
        size = (MC_DEPTH, MC_BRANCHING, MC_SHAPE)
        sets = [[_fixture(out / "p.json", *_draw_with_shape(rng, *size)),
                 _fixture(out / "gated.json", *_draw_with_shape(
                     Random(f"{workload}:{GATED_SEED}"), *size))]]
    elif workload == "euler":
        process, sub = _draw_with_shape(Random(f"{workload}:{GATED_SEED}"),
                                        EULER_DEPTH, EULER_BRANCHING, EULER_SHAPE)
        sets = [[_fixture(out / "gated.json", process, sub)]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "sets": sets}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# jobs

@dataclass
class JobResult:
    set_index: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0  # process CPU time of the same section
    commands: dict[str, float] = field(default_factory=dict)  # seconds per command
    counters: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


class Job:
    """One pass over fixture set ``set_index``; ``tracer`` (optional) wraps
    each CLI call in a ``cli.<command>`` span."""

    def __init__(self, workload: str, seed: int, fixtures: Path, out: Path, tracer=None,
                 set_index: int = 0):
        self.workload = workload
        self.seed = seed
        self.fixtures = fixtures
        self.out = out / f"set{set_index}"
        self.tracer = tracer
        self.set = json.loads((fixtures / "manifest.json").read_text())["sets"][set_index]
        self.result = JobResult(set_index=set_index)
        self._outputs: list[Path] = []

    # -- helpers ---------------------------------------------------------

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _timed(self, key: str, fn, *args):
        t0 = time.perf_counter()
        value = fn(*args)
        self.result.commands[key] = self.result.commands.get(key, 0.0) + (
            time.perf_counter() - t0)
        return value

    def cli(self, *args: str) -> tuple[int, str]:
        """Run one CLI command in-process; returns (exit code, stdout)."""
        command = args[0]
        stdout, stderr = io.StringIO(), io.StringIO()

        def call():
            code = 0
            with self._span(f"cli.{command}"), \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    cli.main.main(args=list(args), prog_name="canonrep",
                                  standalone_mode=False)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            return code

        try:
            code = self._timed(command, call)
        except Exception:  # a traceback is a failed job, not a crashed run
            self.fail(f"{command}: traceback\n{traceback.format_exc()}")
            return -1, ""
        if code != 0:
            self.fail(f"{command}: exit {code}: {stderr.getvalue().strip()}")
        return code, stdout.getvalue()

    def lib(self, key: str, fn, *args):
        try:
            return self._timed(key, fn, *args)
        except Exception:
            self.fail(f"{key}: traceback\n{traceback.format_exc()}")
            return None

    def fail(self, message: str) -> None:
        self.result.failures.append(message)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def path(self, name: str) -> str:
        p = self.out / name
        self._outputs.append(p)
        return str(p)

    def count(self, name: str, n: float) -> None:
        self.result.counters[name] = self.result.counters.get(name, 0) + n

    # -- run -------------------------------------------------------------

    def run(self) -> JobResult:
        """Time the workload, then check and hash its outputs."""
        self.out.mkdir(parents=True, exist_ok=True)
        t0, c0 = time.perf_counter(), time.process_time()
        checks = getattr(self, f"_run_{self.workload}")()
        self.result.wall_s = time.perf_counter() - t0
        self.result.cpu_s = time.process_time() - c0
        for check in checks:
            try:
                check()
            except Exception:
                self.fail(f"output check: traceback\n{traceback.format_exc()}")
        for p in self._outputs:
            if p.exists():
                self.result.digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
        return self.result

    def _run_exact(self) -> list:
        checks = []
        for i, fx in enumerate(self.set):
            src = str(self.fixtures / fx["file"])
            rep_p, pair_p, maps_p = (self.path(f"{k}{i}.json") for k in ("rep", "pair", "maps"))
            said = {
                "validate": self.cli("validate", "--in", src)[1],
                "represent": self.cli("represent", "--in", src, "--out", rep_p)[1],
                "decouple": self.cli("decouple", "--in", rep_p, "--out", pair_p)[1],
                "transport": self.cli("transport", "--in", pair_p, "--out", maps_p)[1],
            }
            pq = self.lib("library", lambda: jsonio.pair_process_from_json(jsonio.load_json(pair_p)))
            rep = self.lib("library", lambda: jsonio.representation_from_json(jsonio.load_json(rep_p)))
            verdicts = {}
            if pq is not None and rep is not None:
                def library_checks(pq=pq, rep=rep):
                    base = cr.canonical_representation(pq.process)
                    maps = cr.build_transport(pq, base)
                    return {
                        "are_tangent": cr.are_tangent(pq).ok,
                        "satisfies_ci": cr.satisfies_ci(pq, 1).ok,
                        "verify_transport_consistency": cr.verify_transport_consistency(
                            base, maps, pq.component_dim).ok,
                        "exact_moment_ratio": cr.exact_moment_ratio(rep, 2)[0],
                    }
                verdicts = self.lib("library", library_checks) or {}
            checks.append(lambda i=i, fx=fx, said=said, verdicts=verdicts,
                          paths=(rep_p, pair_p, maps_p): self._check_exact(i, fx, said, verdicts, paths))
        return checks

    def _check_exact(self, i, fx, said, verdicts, paths) -> None:
        rep_p, pair_p, maps_p = paths
        self.expect(said["validate"].startswith("valid:"), f"validate {i}: {said['validate']!r}")
        self.expect(said["represent"].startswith("law preserved: true"),
                    f"represent {i}: {said['represent']!r}")
        self.expect(said["decouple"].startswith("direct marginal preserved: true"),
                    f"decouple {i}: {said['decouple']!r}")
        self.expect(said["transport"].startswith("measure preserving: true"),
                    f"transport {i}: {said['transport']!r}")
        for name in ("are_tangent", "satisfies_ci", "verify_transport_consistency"):
            self.expect(verdicts.get(name) is True, f"{name} {i}: {verdicts.get(name)!r}")
        # p = 2: orthogonality makes the exact ratio exactly one
        self.expect(verdicts.get("exact_moment_ratio") == 1.0,
                    f"exact_moment_ratio {i}: {verdicts.get('exact_moment_ratio')!r}")
        maps = json.loads(Path(maps_p).read_text())
        sections = sum(len(step["sections"]) for step in maps["steps"])
        self.expect(sections == fx["sections"],
                    f"transport {i}: {sections} sections, expected {fx['sections']}")
        self.count("sections", sections)
        self.count("nodes", tree_size(json.loads(Path(rep_p).read_text()))[0])
        self.count("pair_branches", tree_size(json.loads(Path(pair_p).read_text()))[1])

    def _run_montecarlo(self) -> list:
        src, gated = (str(self.fixtures / fx["file"]) for fx in self.set)
        rep_p = self.path("rep.json")
        b2, b2csv, b3, sk = (self.path(n) for n in
                             ("bench_p2.json", "bench_p2.csv", "bench_p3.json", "skorohod.json"))
        seed = str(self.seed)
        represent = self.cli("represent", "--in", src, "--out", rep_p)[1]
        self.cli("bench", "--in", rep_p, "--p", "2", "--samples", str(MC_BENCH_SAMPLES),
                 "--seed", seed, "--out", b2, "--csv", b2csv)
        self.cli("bench", "--in", rep_p, "--p", repr(MC_ODD_P), "--samples",
                 str(MC_BENCH_SAMPLES), "--seed", seed, "--out", b3)
        self.cli("skorohod", "--in", gated, "--scheme", "exit_sample", "--samples",
                 str(MC_SKOROHOD_SAMPLES), "--seed", str(GATED_SEED), "--out", sk)
        return [lambda: self._check_montecarlo(represent, rep_p, b2, b2csv, b3, sk)]

    def _check_montecarlo(self, represent, rep_p, b2, b2csv, b3, sk) -> None:
        self.expect(represent.startswith("law preserved: true"), f"represent: {represent!r}")
        self.count("nodes", tree_size(json.loads(Path(rep_p).read_text()))[0])
        even = json.loads(Path(b2).read_text())
        self.expect(even["M"] == MC_BENCH_SAMPLES, f"bench p=2: M {even['M']}")
        self.expect(even["oracle"]["exact_ratio"] == 1.0,
                    f"bench p=2: oracle {even['oracle']['exact_ratio']!r}")
        self.expect(abs(even["ratio"] - 1.0) <= CI_SIGMAS * even["stderr"],
                    f"bench p=2: ratio {even['ratio']} outside {CI_SIGMAS} SE of 1")
        with open(b2csv, newline="", encoding="utf-8") as fh:
            rows = sum(1 for _ in csv.reader(fh))
        self.expect(rows == MC_BENCH_SAMPLES + 1, f"bench p=2 csv: {rows} rows")
        odd = json.loads(Path(b3).read_text())
        self.expect(odd["M"] == MC_BENCH_SAMPLES and odd["oracle"]["exact_ratio"] is None
                    and math.isfinite(odd["ratio"]) and odd["ratio"] > 0,
                    f"bench p={MC_ODD_P:g}: {odd}")
        self.count("paths_reported", even["M"] + odd["M"])
        self._check_skorohod(sk, MC_SKOROHOD_SAMPLES, MC_DEPTH)

    def _check_skorohod(self, report_path: str, samples: int, depth: int) -> None:
        report = json.loads(Path(report_path).read_text())
        self.expect(report["samples"] == samples, f"skorohod: samples {report['samples']}")
        chi = report["chi_square"]
        self.expect(chi["p_value"] >= SIGNIFICANCE, f"skorohod: chi-square p {chi['p_value']}")
        mart = report["martingale"]
        if samples >= 10**4:
            self.expect(mart is not None and mart["mean_ok"] and mart["slopes_ok"],
                        f"skorohod: martingale {mart}")
        self.expect(report["coarse_blocks"] < 0.01 * samples * depth,
                    f"skorohod: {report['coarse_blocks']} coarse blocks")
        self.count("samples_reported", report["samples"])
        self.count("blocks", report["samples"] * depth)  # increment pass, one block per step
        self.count("restarts", report["restarts"])
        self.count("coarse_blocks", report["coarse_blocks"])

    def _run_euler(self) -> list:
        src = str(self.fixtures / self.set[0]["file"])
        sk, sk_csv = self.path("skorohod.json"), self.path("skorohod.csv")
        self.cli("skorohod", "--in", src, "--scheme", "euler", "--samples",
                 str(EULER_SAMPLES), "--seed", str(GATED_SEED), "--out", sk, "--csv", sk_csv)
        return [lambda: self._check_euler(sk, sk_csv)]

    def _check_euler(self, sk, sk_csv) -> None:
        self._check_skorohod(sk, EULER_SAMPLES, EULER_DEPTH)
        with open(sk_csv, newline="", encoding="utf-8") as fh:
            rows = sum(1 for _ in csv.reader(fh))
        grid_points = 4 * EULER_DEPTH  # the CLI's default grid: 4 points per block
        expected = min(EULER_SAMPLES, 100) * grid_points + 1
        self.expect(rows == expected, f"skorohod csv: {rows} rows, expected {expected}")


if __name__ == "__main__":
    write_fixtures(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
