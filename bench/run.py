"""canonrep benchmark: seeded workloads through the real CLI commands.

Run from the root of a checkout:

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for sizes):

* ``exact``: validate, represent, decouple and transport on depth-4 and
  depth-5 MDS fixtures, then the library checks (tangency, conditional
  independence, transport consistency, exact p = 2 ratio).  Fraction
  arithmetic only, nothing sampled.
* ``montecarlo``: represent, ``bench --p 2 --csv`` and ``bench --p 3`` on
  one small seeded depth-4 tree, ``skorohod --scheme exit_sample`` on a
  frozen one.
* ``euler``: ``skorohod --scheme euler --csv`` on a frozen depth-3 tree.

``skorohod`` runs one frozen tree and sampling seed whatever ``--seed``
is, because its statistical gates fail some fresh draws (``workloads.py``).

Set-up generates the fixtures in a fresh interpreter that imports
``canonrep.cli`` first, ``SETUP_REPEATS`` times; ``setup_s`` is the median.
Then one job (a full pass over the fixtures, every verdict checked) repeats
in this process until ``--seconds`` have passed.  Every job must produce
byte-identical outputs, and all set-up repeats identical fixtures.

With ``--trace 0`` the metrics are the end-to-end ones, measured without
tracing.  With ``--trace 1`` one untraced reference job runs first; then
the public functions in ``TRACED`` are wrapped in every ``canonrep``
namespace that binds them (``spans.py``), jobs repeat under tracing, and
the metrics are per layer: self time per job, call counts, size counters,
waste ratios and the tracing overhead against the reference job.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a ``detail`` object with provenance,
per-command rates, counters, failures and output digests.
"""

from __future__ import annotations

import os

# one thread per process, fixed before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
WORKLOADS = ("exact", "montecarlo", "euler")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

CLI_COMMANDS = ("validate", "represent", "decouple", "transport", "bench", "skorohod")


def _paths(tracer, span, result, args):
    tracer.count("paths_sampled", len(result.direct if hasattr(result, "direct") else result.paths))


def _increments(tracer, span, result, args):
    tracer.count("paths_simulated", result.increments.shape[0])
    if result.scheme == "euler":
        tracer.count("euler_blocks", result.total_blocks)
        tracer.count("euler_s", span.end - span.start)


def _grid(tracer, span, result, args):
    tracer.count("paths_simulated", result[0].shape[0])


def _bytes(tracer, span, result, args):
    tracer.count("bytes_written", os.path.getsize(args[1]))


# module.function -> optional hook reading counters off the return value
TRACED = {
    "transport.verify_measure_preserving": None,
    "transport.build_transport": None,
    "transport.verify_transport_consistency": None,
    "process.are_tangent": None,
    "process.satisfies_ci": None,
    "process.joint_law": None,
    "process.is_mds": None,
    "process.validate_process": None,
    "representation.canonical_representation": None,
    "representation.law_of_representation": None,
    "martingale.pair_law": None,
    "martingale.verify_zero_sections": None,
    "bench.sample_paths": _paths,
    "bench.decoupling_ratio": None,
    "bench.exact_moment_ratio": None,
    "bench.lp_norm": None,
    "rng.path_stream": None,
    "embedding.simulate_increments": _increments,
    "embedding.simulate_grid_batch": _grid,
    "embedding.simulate_F": None,
    "embedding.martingale_check": None,
    "harmonic.harmonic_extension": None,
    "stats.chi_square_gof": None,
    "cli.increment_chi_square": None,
    "jsonio.load_json": None,
    "jsonio.dump_json": _bytes,
    "jsonio.process_from_json": None,
    "jsonio.representation_from_json": None,
    "jsonio.pair_process_from_json": None,
    "jsonio.transport_to_json": None,
    "generate.random_process": None,
}

# per workload, rate name -> (job counter of delivered work, command timed;
# None times the whole job)
RATES = {
    "exact": {"exact_sections_per_s": ("sections", None)},
    "montecarlo": {"bench_paths_per_s": ("paths_reported", "bench"),
                   "skorohod_paths_per_s": ("samples_reported", "skorohod")},
    "euler": {"euler_paths_per_s": ("samples_reported", "skorohod")},
}

PER_LAYER = {
    **{f"{name}.s": "s" for name in TRACED},
    **{f"cli.{cmd}.s": "s" for cmd in CLI_COMMANDS},
    "transport.verify_measure_preserving.ms_per_section": "ms",
    "transport.sections": "count",
    "representation.nodes": "count",
    "martingale.pair_branches": "count",
    "martingale.verify_zero_sections.calls": "count",
    "bench.sample_paths.us_per_path": "us",
    "bench.paths_sampled_per_reported": "ratio",
    "rng.path_stream.calls": "count",
    "embedding.simulate_F.calls": "count",
    "embedding.paths_simulated_per_reported": "ratio",
    "embedding.euler.ms_per_block": "ms",
    "embedding.blocks": "count",
    "embedding.restarts": "count",
    "embedding.coarse_blocks": "count",
    "embedding.attempts_per_block": "ratio",
    "harmonic.harmonic_extension.calls": "count",
    "jsonio.bytes_written": "B",
    **{name: "1/s" for rates in RATES.values() for name in rates},
    "fail_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _dir_digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def setup(workload: str, seed: int, src: Path, work: Path) -> tuple[list[float], Path, bool]:
    """Generate fixtures ``SETUP_REPEATS`` times in fresh interpreters.

    Returns the wall time of each repeat, the fixture directory of the
    first, and whether all repeats wrote identical files.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        out = work / f"fixtures{i}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), workload, str(seed), str(out)],
            env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
        digests.append(_dir_digests(out))
    return times, work / "fixtures0", all(d == digests[0] for d in digests)


def run_jobs(workloads, args, fixtures: Path, out: Path, budget_s: float, tracer=None) -> list:
    """Run jobs over the fixture sets in turn until ``budget_s`` have
    passed, at least one."""
    n_sets = len(json.loads((fixtures / "manifest.json").read_text())["sets"])
    results = []
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < budget_s:
        if tracer is not None:
            tracer.job = len(results) + 1
        results.append(workloads.Job(args.workload, args.seed, fixtures, out, tracer,
                                     len(results) % n_sets).run())
    return results


def same_bytes(jobs: list) -> bool:
    """Whether every job over one fixture set wrote identical outputs."""
    first: dict[int, dict] = {}
    return all(first.setdefault(j.set_index, j.digests) == j.digests for j in jobs)


def median_rates(workload: str, jobs: list) -> dict[str, float]:
    """Per-command rates of delivered work, median over ``jobs``."""
    return {
        name: statistics.median(
            _ratio(j.counters[counter], j.commands[command] if command else j.wall_s)
            for j in jobs)
        for name, (counter, command) in RATES[workload].items()
    }


def layer_metrics(workload: str, tracer, traced: list, reference) -> dict[str, float]:
    """Per-layer metrics, per traced job, from spans and counters."""
    n = len(traced)
    table = spans.summarize(tracer.spans, lambda s: s.job >= 1)
    setup_table = spans.summarize(tracer.spans, lambda s: s.job == 0)
    counters: Counter = Counter()
    for job_id, job in enumerate(traced, start=1):
        counters.update(tracer.counters.get(job_id, {}))
        counters.update(job.counters)

    def row(name: str) -> dict[str, float]:
        return table.get(name, {"self": 0.0, "total": 0.0, "calls": 0})

    m: dict[str, float] = {f"{name}.s": row(name)["self"] / n for name in TRACED}
    m["generate.random_process.s"] = setup_table.get(
        "generate.random_process", {"self": 0.0})["self"]
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = row(f"cli.{cmd}")["self"] / n
    sections = counters["sections"]
    m["transport.verify_measure_preserving.ms_per_section"] = 1e3 * _ratio(
        row("transport.verify_measure_preserving")["total"], sections)
    m["transport.sections"] = sections / n
    m["representation.nodes"] = counters["nodes"] / n
    m["martingale.pair_branches"] = counters["pair_branches"] / n
    m["martingale.verify_zero_sections.calls"] = row("martingale.verify_zero_sections")["calls"] / n
    m["bench.sample_paths.us_per_path"] = 1e6 * _ratio(
        row("bench.sample_paths")["total"], counters["paths_sampled"])
    m["bench.paths_sampled_per_reported"] = _ratio(
        counters["paths_sampled"], counters["paths_reported"])
    m["rng.path_stream.calls"] = row("rng.path_stream")["calls"] / n
    m["embedding.simulate_F.calls"] = row("embedding.simulate_F")["calls"] / n
    m["embedding.paths_simulated_per_reported"] = _ratio(
        counters["paths_simulated"], counters["samples_reported"])
    m["embedding.euler.ms_per_block"] = 1e3 * _ratio(
        counters["euler_s"], counters["euler_blocks"])
    blocks, restarts = counters["blocks"], counters["restarts"]
    m["embedding.blocks"] = blocks / n
    m["embedding.restarts"] = restarts / n
    m["embedding.coarse_blocks"] = counters["coarse_blocks"] / n
    m["embedding.attempts_per_block"] = _ratio(blocks + restarts, blocks)
    m["harmonic.harmonic_extension.calls"] = row("harmonic.harmonic_extension")["calls"] / n
    m["jsonio.bytes_written"] = counters["bytes_written"] / n
    m.update({name: 0.0 for rates in RATES.values() for name in rates})
    m.update(median_rates(workload, [reference]))
    jobs = [reference] + traced
    m["fail_ratio"] = sum(1 for j in jobs if j.failures) / len(jobs)
    m["trace.wall_s"] = statistics.median(j.wall_s for j in traced)
    # the first traced job runs the reference job's fixture set
    m["trace.overhead_ratio"] = traced[0].wall_s / reference.wall_s - 1.0
    m["trace.self_share"] = _ratio(sum(r["self"] for r in table.values()),
                                   sum(j.wall_s for j in traced))
    return m


def provenance(seed: int, fixtures: Path) -> dict:
    import canonrep
    from canonrep.rng import GENERATOR_ID

    return {
        "seed": seed,
        "generator": GENERATOR_ID,
        "canonrep": canonrep.__version__,
        "python": platform.python_version(),
        **{dist: metadata.version(dist) for dist in ("numpy", "scipy", "click")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "fixtures": _dir_digests(fixtures),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "canonrep" / "__init__.py").is_file():
        print(f"error: no src/canonrep under {root}; run from a canonrep checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import canonrep

    if Path(canonrep.__file__).resolve().parent != (src / "canonrep").resolve():
        print(f"error: canonrep imported from {canonrep.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            setup_times, fixtures, setup_same = setup(args.workload, args.seed, src, work)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out = work / "out"
        if args.trace:
            reference = run_jobs(workloads, args, fixtures, out, 0.0)[0]
            tracer = spans.Tracer()
            tracer.install(TRACED)
            try:
                workloads.write_fixtures(args.workload, args.seed, work / "traced-setup")
                traced = run_jobs(workloads, args, fixtures, out,
                                  args.seconds - reference.wall_s, tracer)
            finally:
                tracer.restore()
            jobs = [reference] + traced
            metrics = {k: (v, PER_LAYER[k]) for k, v in
                       layer_metrics(args.workload, tracer, traced, reference).items()}
        else:
            jobs = run_jobs(workloads, args, fixtures, out, args.seconds)
            values = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(j.wall_s for j in jobs),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
        failed = sum(1 for j in jobs if j.failures)
        identical = same_bytes(jobs)
        detail = {
            "workload": args.workload,
            "trace": args.trace,
            "provenance": provenance(args.seed, fixtures),
            "setup_runs_s": setup_times,
            "setup_identical": setup_same,
            "jobs": [{"set": j.set_index, "wall_s": j.wall_s, "cpu_s": j.cpu_s,
                      "commands": j.commands}
                     for j in jobs],
            "rates": median_rates(args.workload, jobs[:1] if args.trace else jobs),
            "counters": jobs[0].counters,
            "fail_ratio": failed / len(jobs),
            "failures": [f for j in jobs for f in j.failures][:10],
            "digests_identical": identical,
            "digests": {j.set_index: j.digests for j in reversed(jobs)},
        }
        print(json.dumps({"detail": detail}, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0 and identical and setup_same,
            "attempted": len(jobs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
