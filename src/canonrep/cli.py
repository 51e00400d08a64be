"""Command-line entry point.

Subcommands: validate, represent, decouple, transport, bench, skorohod,
gen.  All exact constructions are deterministic; every stochastic
subcommand requires an explicit --seed (there is no wall-clock default),
so outputs are byte-reproducible on one platform.

Exit codes: 0 ok, 1 domain invariant violation, 2 I/O or parse error,
3 statistical gate failure.
"""

from __future__ import annotations

import csv
import functools
import math
import sys

import click
import numpy as np

from . import bench as bench_mod
from . import embedding as emb
from .errors import FormatError, ProcessError, SizeGuard
from .generate import random_process
from .jsonio import (
    FORMAT_VERSION,
    dump_json,
    load_json,
    pair_process_from_json,
    pair_process_to_json,
    process_from_json,
    process_to_json,
    representation_from_json,
    representation_to_json,
    transport_to_json,
)
from .martingale import pair_law, represent_mds
from .process import Node, distinct_nodes, joint_law, validate_process
from .representation import canonical_representation, law_of_representation
from .rng import GENERATOR_ID
from .stats import chi_square_gof
from .transport import build_transport, independent_coupling, verify_measure_preserving

EXIT_INVARIANT = 1
EXIT_FORMAT = 2
EXIT_STATISTICAL = 3

SIGNIFICANCE = 0.01

# Philox keys keep 64 bits of the seed, so a wider seed would alias another
# seed's samples while its report names the seed given
SEED_RANGE = click.IntRange(0, 2**64 - 1)
# keeps every per-sample array of one run within a few GiB
MAX_SAMPLES = 10**7
# above every depth-5, branching-4 pair (at most 69,905 sections)
MAX_SECTIONS = 10**5


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FormatError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_FORMAT)
        except ProcessError as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(EXIT_INVARIANT)

    return wrapper


_quiet = click.option("--quiet", is_flag=True, help="Suppress the summary line.")


def _finite_above(bound: float):
    """Click callback accepting only finite numbers above ``bound``."""

    def check(ctx, param, value: float) -> float:
        if not (bound < value < math.inf):  # false for nan too
            raise click.BadParameter(f"{value} is not a finite number above {bound:g}")
        return value

    return check


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        click.echo(message)


@click.group()
def main() -> None:
    """Exact process representations, decoupling, transport, and embedding."""


# ---------------------------------------------------------------------------
# validate

@main.command()
@click.option("--in", "in_path", required=True, type=click.Path())
@_quiet
@_guarded
def validate(in_path: str, quiet: bool) -> None:
    """Check a process file against all structural invariants."""
    process = process_from_json(load_json(in_path))
    validate_process(process)
    _say(quiet, f"valid: dimension {process.dimension}, depth {process.depth}")


# ---------------------------------------------------------------------------
# represent

@main.command()
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@_quiet
@_guarded
def represent(in_path: str, out_path: str, quiet: bool) -> None:
    """Build the canonical representation and verify law preservation."""
    process = process_from_json(load_json(in_path))
    rep = canonical_representation(process)
    source_law = joint_law(process)
    preserved = law_of_representation(rep) == source_law
    dump_json(representation_to_json(rep), out_path)
    _say(quiet, f"law preserved: {str(preserved).lower()} "
                f"({len(source_law)} paths)")
    if not preserved:  # unreachable by construction; guard anyway
        sys.exit(EXIT_INVARIANT)


# ---------------------------------------------------------------------------
# decouple

@main.command()
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@_quiet
@_guarded
def decouple(in_path: str, out_path: str, quiet: bool) -> None:
    """Emit the exact pair law of the decoupled copy of a representation.

    The direct component's marginal always reproduces the source law; the
    copy's marginal does so exactly when the source has history-independent
    step laws (the hypothesis under which the full law-equality statement
    holds), so it is reported informationally.
    """
    rep = representation_from_json(load_json(in_path))
    pq = pair_law(rep)
    source_law = law_of_representation(rep)
    d = pq.component_dim
    marg_first = joint_law(pq.process, slice(None, d))
    marg_second = joint_law(pq.process, slice(d, None))
    direct_ok = marg_first == source_law
    copy_ok = marg_second == source_law
    dump_json(pair_process_to_json(pq), out_path)
    _say(quiet, f"direct marginal preserved: {str(direct_ok).lower()}, "
                f"copy marginal matches source: {str(copy_ok).lower()} "
                f"({len(marg_first)} component paths)")
    if not direct_ok:
        sys.exit(EXIT_INVARIANT)


# ---------------------------------------------------------------------------
# transport

def _sections(root: Node) -> int:
    """The sections of a transport on ``root``'s tree, counted per distinct node."""
    counts: dict[int, int] = {}
    for node in distinct_nodes(root):
        counts[id(node)] = 1 + sum(counts[id(br.child)] for br in node.branches
                                   if br.child is not None)
    return counts[id(root)]


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(),
              help="Pair-process JSON, or a representation JSON with --in2.")
@click.option("--in2", "in2_path", type=click.Path(), default=None,
              help="Second representation JSON (independent coupling mode).")
@click.option("--out", "out_path", required=True, type=click.Path())
@_quiet
@_guarded
def transport(in_path: str, in2_path: str, out_path: str, quiet: bool) -> None:
    """Build per-step measure-preserving transports for a tangent pair."""
    if in2_path is None:  # canonical_representation validates the pair
        pq = pair_process_from_json(load_json(in_path))
    else:
        rep_a = representation_from_json(load_json(in_path))
        rep_b = representation_from_json(load_json(in2_path))
        pq = independent_coupling(rep_a, rep_b)
    base = canonical_representation(pq.process)
    n_sections = _sections(base.root)
    if n_sections > MAX_SECTIONS:
        raise SizeGuard(f"the transport would hold {n_sections} sections, "
                        f"more than {MAX_SECTIONS}", sections=n_sections, limit=MAX_SECTIONS)
    maps = build_transport(pq, base)
    ok = all(verify_measure_preserving(tm).ok for tm in maps)
    dump_json(transport_to_json(maps, pq.process.dimension), out_path)
    _say(quiet, f"measure preserving: {str(ok).lower()} "
                f"({len(maps)} steps, {n_sections} sections)")
    if not ok:
        sys.exit(EXIT_INVARIANT)


# ---------------------------------------------------------------------------
# bench

@main.command()
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--p", "p_norm", type=float, default=2.0, show_default=True,
              callback=_finite_above(1))
@click.option("--samples", type=click.IntRange(2, MAX_SAMPLES), default=10**5, show_default=True)
@click.option("--seed", type=SEED_RANGE, required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Also write per-path sums of both sides.")
@_quiet
@_guarded
def bench(
    in_path: str,
    p_norm: float,
    samples: int,
    seed: int,
    out_path: str,
    csv_path: str,
    quiet: bool,
) -> None:
    """Estimate the decoupling norm ratio, backed by the exact oracle."""
    rep = representation_from_json(load_json(in_path))
    report = bench_mod.decoupling_ratio(rep, p_norm, samples, seed)
    doc = {
        "format_version": FORMAT_VERSION,
        "ratio": report.ratio,
        "stderr": report.stderr,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "p": report.p,
        "M": report.samples,
        "seed": report.seed,
        "oracle": {"exact_ratio": report.exact_ratio},
        "generator": report.generator,
    }
    dump_json(doc, out_path)
    if csv_path is not None:
        sums_d, sums_e = report.sums
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            dim = rep.dimension
            writer.writerow(
                ["path"]
                + [f"sum_direct_{i}" for i in range(dim)]
                + [f"sum_decoupled_{i}" for i in range(dim)]
            )
            for m in range(samples):
                writer.writerow(
                    [m] + [repr(float(v)) for v in sums_d[m]]
                    + [repr(float(v)) for v in sums_e[m]]
                )
    _say(quiet, f"ratio {report.ratio:.6f} +- {report.stderr:.6f} "
                f"(p={p_norm:g}, M={samples}, exact="
                f"{'none' if report.exact_ratio is None else f'{report.exact_ratio:.6f}'})")
    if report.exact_ratio is not None and (
        abs(report.ratio - report.exact_ratio) > bench_mod.CI_SIGMAS * report.stderr
    ):
        click.echo("statistical gate failed: estimate outside 5 SE of oracle",
                   err=True)
        sys.exit(EXIT_STATISTICAL)


# ---------------------------------------------------------------------------
# skorohod

def _parse_grid(grid_arg: str, depth: int, rows: int) -> np.ndarray:
    """The grid times; refused before any array is built when ``rows``
    paths would carry more than ``MAX_SAMPLES`` grid values."""
    try:
        if "," in grid_arg:
            times = [float(x) for x in grid_arg.split(",") if x.strip() != ""]
            count = len(times)
        else:
            per_block = int(grid_arg)
            if per_block < 1:
                raise FormatError("grid must name at least one point per block")
            count = per_block * depth
    except ValueError as exc:
        raise FormatError(f"cannot parse grid {grid_arg!r}: {exc}") from exc
    if count == 0:
        raise FormatError("grid must name at least one time")
    if rows * count > MAX_SAMPLES:
        raise FormatError(f"a grid of {count} times on {rows} paths holds "
                          f"{rows * count} values, more than {MAX_SAMPLES}")
    if "," in grid_arg:
        return np.array(times)
    rel = (np.arange(per_block) + 0.5) / per_block
    return np.concatenate([n + rel for n in range(depth)])


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--scheme", type=click.Choice(["exit_sample", "euler"]),
              default="exit_sample", show_default=True)
@click.option("--samples", type=click.IntRange(1, MAX_SAMPLES), default=10**4, show_default=True)
@click.option("--seed", type=SEED_RANGE, required=True)
@click.option("--grid", default="4", show_default=True,
              help="Points per block, or comma-separated absolute times.")
@click.option("--dt", type=float, default=5e-5, show_default=True,
              callback=_finite_above(0),
              help="Finest euler step, in block time; steps far from the circle are longer.")
@click.option("--cap", type=float, default=1e4, show_default=True,
              callback=_finite_above(0),
              help="Censoring horizon for the time change.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Write (t, F_t) rows for up to 100 paths.")
@click.option("--svg", "svg_path", type=click.Path(), default=None,
              help="Static figure of up to 20 overlaid trajectories.")
@_quiet
@_guarded
def skorohod(
    in_path: str,
    scheme: str,
    samples: int,
    seed: int,
    grid: str,
    dt: float,
    cap: float,
    out_path: str,
    csv_path: str,
    svg_path: str,
    quiet: bool,
) -> None:
    """Embed a zero-mean process in planar Brownian motion and verify it."""
    process = process_from_json(load_json(in_path))
    rep = represent_mds(process)
    cfg = emb.BrownianConfig(
        dt_base=dt, seed=seed, scheme=scheme, phi_cap=cap
    )
    need_grid = csv_path is not None or svg_path is not None or samples >= 10**4
    grid_rows = min(samples, 10**4) if need_grid else 0
    times = _parse_grid(grid, rep.depth, grid_rows) if need_grid else None
    # one pass: the first 10^4 paths carry the grid, the rest only increments
    batch = emb.simulate_increments(rep, samples, cfg, times, grid_rows)
    chi = increment_chi_square(rep, batch.increments)

    martingale_doc = None
    mart_ok = True
    if samples >= 10**4:  # then the grid holds 10^4 paths, the check's minimum
        report = emb.martingale_check(batch.values, times)
        mart_ok = report.mean_ok() and report.slopes_ok()
        martingale_doc = {
            "checkpoints": [float(t) for t in report.checkpoints],
            "max_mean_over_se": report.max_mean_over_se,
            "slopes": [
                {
                    "t_from": s.t_from,
                    "t_to": s.t_to,
                    "coordinate": s.coordinate,
                    "slope": s.slope,
                    "stderr": s.stderr,
                    "note": s.note,
                }
                for s in report.slopes
            ],
            "mean_ok": report.mean_ok(),
            "slopes_ok": report.slopes_ok(),
        }

    doc = {
        "format_version": FORMAT_VERSION,
        "scheme": scheme,
        "samples": samples,
        "seed": seed,
        "dt": dt,
        "cap": cap,
        "chi_square": {
            "statistic": chi.statistic,
            "dof": chi.dof,
            "p_value": chi.p_value,
            "pooled_categories": chi.pooled,
        },
        "martingale": martingale_doc,
        "restarts": batch.restarts,
        "coarse_blocks": batch.coarse_blocks,
        "generator": GENERATOR_ID,
    }
    dump_json(doc, out_path)

    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "t"] + [f"F_{i}" for i in range(rep.dimension)])
            for m in range(min(batch.values.shape[0], 100)):
                for t, row in zip(times, batch.values[m]):
                    writer.writerow([m, repr(float(t))] + [repr(float(v)) for v in row])
    if svg_path is not None:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(trajectories_svg(times, batch.values[:20, :, 0]))

    _say(quiet, f"chi-square p={chi.p_value:.4f}, restarts={batch.restarts}, "
                f"coarse_blocks={batch.coarse_blocks}, "
                f"martingale_ok={str(mart_ok).lower()}")
    if chi.too_small:
        click.echo(f"statistical gate failed: sample of {samples} too small for the "
                   f"chi-square test ({chi.pooled} paths pooled into one category)",
                   err=True)
        sys.exit(EXIT_STATISTICAL)
    if chi.p_value < SIGNIFICANCE or not mart_ok:
        click.echo("statistical gate failed", err=True)
        sys.exit(EXIT_STATISTICAL)


def increment_chi_square(rep, increments: np.ndarray):
    """Chi-square of sampled increment paths against the exact path law."""
    law = sorted(law_of_representation(rep).items())
    keys = {}
    probs = []
    for path, prob in law:
        arr = np.array([[float(c) for c in v] for v in path])
        key = arr.tobytes()
        if key in keys:  # distinct rationals rounding to identical floats
            probs[keys[key]] += float(prob)
        else:
            keys[key] = len(probs)
            probs.append(float(prob))
    counts = np.zeros(len(probs))
    for m in range(increments.shape[0]):
        counts[keys[np.ascontiguousarray(increments[m]).tobytes()]] += 1
    return chi_square_gof(counts, np.array(probs))


def trajectories_svg(times: np.ndarray, series: np.ndarray) -> str:
    """Hand-rolled static SVG, 640 by 360: time against the first coordinate."""
    width, height = 640, 360
    t0, t1 = float(times.min()), float(times.max())
    lo = float(series.min())
    hi = float(series.max())
    if hi == lo:
        hi = lo + 1.0
    pad = 30.0

    def sx(t: float) -> float:
        return pad + (t - t0) / (t1 - t0 or 1.0) * (width - 2 * pad)

    def sy(v: float) -> float:
        return height - pad - (v - lo) / (hi - lo) * (height - 2 * pad)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
    ]
    for row in series:
        points = " ".join(
            f"{sx(float(t)):.2f},{sy(float(v)):.2f}" for t, v in zip(times, row)
        )
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="steelblue" '
            f'stroke-width="0.8" opacity="0.7"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# gen

@main.command()
@click.option("--depth", type=int, required=True)
@click.option("--branching", type=int, required=True)
@click.option("--dimension", type=int, default=1, show_default=True)
@click.option("--mds", is_flag=True, help="Force zero conditional means.")
@click.option("--seed", type=int, required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_quiet
@_guarded
def gen(
    depth: int,
    branching: int,
    dimension: int,
    mds: bool,
    seed: int,
    out_path: str,
    quiet: bool,
) -> None:
    """Write a deterministic random process fixture."""
    process = random_process(depth, branching, dimension, seed, mds=mds)
    dump_json(process_to_json(process), out_path)
    _say(quiet, f"wrote fixture: depth {depth}, branching <= {branching}, "
                f"dimension {dimension}, mds={str(mds).lower()}")


if __name__ == "__main__":
    main()
