"""Batch command-line front end.

Each ``cmd_*`` function maps parsed arguments to its output text and exit
code.  Structured outputs are canonical JSON (sorted keys) embedding a hash
of the resolved run config, censuses are CSV, and ``gen`` writes its graph
file itself and returns no text.  ``main`` alone writes the text, to
``--out`` or stdout, times the command and reports errors; timing and
diagnostics go to stderr so reruns stay byte-identical.  Exit codes:
0 success/accept, 3 tester reject, 1 error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from typing import Mapping, Sequence

from .analysis import (
    differential_check,
    good_seed_census,
    leaky_census,
    measure_cut,
    viability_census,
)
from .applications import (
    DECIDERS,
    SCORERS,
    EstimatorConfig,
    TesterConfig,
    oracle_overrides,
    run_estimator,
    run_tester,
)
from .graphs import (
    BoundedDegreeGraph,
    check_has_vertices,
    gen_grid,
    gen_random_tree,
    gen_triangulated_grid,
    load_graph,
    save_graph,
)
from .oracle import Partition, PartitionOracle
from .params import OracleConfigError, check_int, derive_params, params_to_dict
from .seeds import SeedContext

DEFAULT_CENSUS_CAP = 10_000


def _parse_set_value(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _overrides_from_args(pairs: Sequence[str] | None) -> dict:
    raw: dict[str, object] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--set expects key=val, got {pair!r}")
        key, _, value = pair.partition("=")
        raw[key.strip()] = _parse_set_value(value.strip())
    return raw


def _document(args: argparse.Namespace, payload: dict, **config) -> str:
    """``payload`` as canonical JSON, led by the command and the hash of its
    resolved config: the inputs every JSON command takes plus ``config``."""
    resolved = {
        "command": args.command,
        "graph": args.graph,
        "seed": args.seed,
        "eps": args.eps,
        "mode": args.mode,
        "set": sorted(args.set or []),
        **config,
    }
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    document = {
        "command": args.command,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        **payload,
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _csv(rows: Sequence[Mapping], columns: Sequence[str]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: ("" if row.get(c) is None else row.get(c)) for c in columns})
    return buffer.getvalue()


def _oracle_setup(args: argparse.Namespace) -> tuple[BoundedDegreeGraph, SeedContext]:
    g = load_graph(args.graph)
    check_has_vertices(g)  # before a census reads its free-set file
    overrides = oracle_overrides(_overrides_from_args(args.set))
    params = derive_params(args.eps, g.d, mode=args.mode, overrides=overrides)
    return g, SeedContext(args.seed, params)


def cmd_gen(args: argparse.Namespace) -> tuple[str | None, int]:
    kind = args.kind
    dims = args.dims
    if kind in ("grid", "tri-grid"):
        if len(dims) != 2:
            raise ValueError(f"gen {kind} expects ROWS COLS, got {dims}")
        rows, cols = dims
        g = gen_grid(rows, cols) if kind == "grid" else gen_triangulated_grid(rows, cols)
    elif kind == "tree":
        if len(dims) != 3:
            raise ValueError(f"gen tree expects N D SEED, got {dims}")
        n, d, seed = dims
        g = gen_random_tree(n, d, seed)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    save_graph(g, args.out)
    print(f"wrote {kind} graph: n={g.n} d={g.d} -> {args.out}", file=sys.stderr)
    return None, 0


def cmd_partition(args: argparse.Namespace) -> tuple[str | None, int]:
    g, ctx = _oracle_setup(args)
    if args.check:
        report = differential_check(g, ctx)
        if not report.ok:
            first = report.first_divergence
            where = f"phase {first['phase']}" if "phase" in first else f"v={first['v']}"
            print(
                f"differential gate: {report.divergences} divergence(s); "
                f"first at {where}",
                file=sys.stderr,
            )
            return None, 1
    engine = PartitionOracle(g, ctx)
    if args.use_global:
        partition = engine.global_partition()
    else:
        partition = Partition(
            anchors=tuple(engine.find_anchor(v) for v in range(g.n))
        )
    cut = measure_cut(g, partition)
    payload = {
        "n": g.n,
        "d": g.d,
        "seed": args.seed,
        "mode": args.mode,
        "params": params_to_dict(ctx.params),
        "thresholds": list(engine.thresholds().k),
        "anchors": list(partition.anchors),
        "cut_report": cut.to_dict(),
    }
    return _document(args, payload, use_global=bool(args.use_global)), 0


def cmd_query(args: argparse.Namespace) -> tuple[str | None, int]:
    g, ctx = _oracle_setup(args)
    engine = PartitionOracle(g, ctx)
    piece = engine.find_partition(args.vertex)
    payload = {
        "n": g.n,
        "d": g.d,
        "seed": args.seed,
        "params": params_to_dict(ctx.params),
        "v": args.vertex,
        "anchor": engine.find_anchor(args.vertex),
        "piece": list(piece),
    }
    return _document(args, payload, vertex=args.vertex), 0


def cmd_test(args: argparse.Namespace) -> tuple[str | None, int]:
    g = load_graph(args.graph)
    if args.property not in DECIDERS:
        raise ValueError(
            f"unknown property {args.property!r}; known: {sorted(DECIDERS)}"
        )
    config = TesterConfig.load(args.config) if args.config else TesterConfig()
    detail = run_tester(
        g,
        args.eps,
        DECIDERS[args.property],
        trials=args.trials,
        master_seed=args.seed,
        config=config,
    )
    payload = {"property": args.property, "epsilon": args.eps, "seed": args.seed, **detail}
    text = _document(args, payload, property=args.property, config_file=args.config)
    return text, 0 if detail["verdict"] == "accept" else 3


def cmd_estimate(args: argparse.Namespace) -> tuple[str | None, int]:
    g = load_graph(args.graph)
    if args.scorer not in SCORERS:
        raise ValueError(f"unknown scorer {args.scorer!r}; known: {sorted(SCORERS)}")
    samples = None
    if args.samples != "all":
        try:
            samples = check_int(int(args.samples), "samples", 1)
        except ValueError:
            raise ValueError(
                f"--samples expects a positive integer or 'all', got {args.samples!r}"
            ) from None
    config = EstimatorConfig.load(args.config) if args.config else EstimatorConfig()
    detail = run_estimator(
        g,
        args.eps,
        SCORERS[args.scorer],
        samples,
        master_seed=args.seed,
        config=config,
    )
    payload = {"scorer": args.scorer, "epsilon": args.eps, **detail}
    text = _document(
        args, payload, scorer=args.scorer, samples=samples, config_file=args.config
    )
    return text, 0


def _free_set(g: BoundedDegreeGraph, spec: str) -> tuple[int, ...]:
    if spec == "all":
        return tuple(range(g.n))
    if spec == "none":
        return ()
    ids = []
    with open(spec, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    u = int(line)
                except ValueError:
                    raise ValueError(
                        f"{spec}:{lineno}: expected a vertex id, got {line.strip()!r}"
                    ) from None
                try:
                    ids.append(check_int(u, "free-set vertex", 0, g.n - 1))
                except ValueError as exc:
                    raise ValueError(f"{spec}:{lineno}: {exc}") from None
    return tuple(sorted(ids))


def cmd_census(args: argparse.Namespace) -> tuple[str | None, int]:
    g, ctx = _oracle_setup(args)
    if g.n > DEFAULT_CENSUS_CAP and not args.force:
        raise ValueError(
            f"census on n={g.n} exceeds the exhaustive cap {DEFAULT_CENSUS_CAP}; "
            "pass --force to run anyway"
        )
    free = _free_set(g, args.free)
    if args.kind == "good-seed":
        rows = [{"good_seeds": good_seed_census(g, ctx.params, free)}]
        return _csv(rows, ("good_seeds",)), 0
    if args.kind == "viability":
        report = viability_census(g, ctx, args.phase, free, ctx.params.k_candidates)
        columns = ("h", "k", "viable", "meets_quota")
    else:  # "leaky": the parser admits only the three kinds
        report = leaky_census(g, ctx.params, args.source, free)
        columns = ("s", "t", "leaking", "certificate_k", "conductance")
    print(f"summary: {json.dumps(report.summary, sort_keys=True)}", file=sys.stderr)
    return _csv(report.rows, columns), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-oracle",
        description="Partition oracle for bounded-degree minor-closed graphs: "
        "batch partitioning, local queries, property testing, additive "
        "estimation, and structural censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a benchmark graph in edge-list format")
    p.add_argument("kind", choices=("grid", "tri-grid", "tree"))
    p.add_argument("dims", nargs="+", type=int, help="grid/tri-grid: ROWS COLS; tree: N D SEED")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    def inputs(p: argparse.ArgumentParser, overrides: bool = True) -> None:
        p.add_argument("--graph", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eps", type=float, default=0.1)
        if overrides:
            p.add_argument("--mode", choices=("paper", "explicit"), default="explicit")
            p.add_argument("--set", action="append", metavar="KEY=VAL",
                           help="parameter override (k_max expands to k_candidates)")
        else:  # parameters come from a config file; the resolved config still names these
            p.set_defaults(mode="explicit", set=None)

    def output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("partition", help="partition the whole graph and report the cut")
    inputs(p)
    output(p)
    p.add_argument("--global", dest="use_global", action="store_true",
                   help="use the phase-by-phase global procedure instead of per-vertex queries")
    p.add_argument("--check", action="store_true",
                   help="audit local-vs-global agreement first; exit 1 on divergence")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("query", help="answer a single piece query")
    inputs(p)
    output(p)
    p.add_argument("vertex", type=int)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("test", help="run the two-phase property tester")
    inputs(p, overrides=False)
    p.add_argument("--property", required=True)
    p.add_argument("--trials", type=int, default=None, help="phase-1 seed retries")
    p.add_argument("--config", help="tester config JSON (calibrated constants)")
    output(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("estimate", help="additively estimate a per-piece score")
    inputs(p, overrides=False)
    p.add_argument("--scorer", required=True)
    p.add_argument("--samples", default="1000", help="sample count, or 'all' for full enumeration")
    p.add_argument("--config", help="estimator config JSON")
    output(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("census", help="run an exhaustive structural census (CSV)")
    inputs(p)
    output(p)
    p.add_argument("--kind", required=True, choices=("viability", "leaky", "good-seed"))
    p.add_argument("--phase", type=int, default=1, help="phase h for the viability census")
    p.add_argument("--source", type=int, default=0, help="source vertex for the leaky census")
    p.add_argument("--free", default="all",
                   help="free set: 'all', 'none', or a file of vertex ids")
    p.add_argument("--force", action="store_true", help="ignore the desk-scale cap")
    p.set_defaults(func=cmd_census)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command: write its text to ``--out`` or stdout, end a run
    that did not fail with one ``<command>: N.NNNs`` line on stderr, and
    turn an error into one ``error: ...`` line and exit code 1."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        text, code = args.func(args)
        if text is not None and args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        elif text is not None:
            sys.stdout.write(text)
    except (ValueError, OracleConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code != 1:  # a failed run ends on its reason, as an error does
        print(f"{args.command}: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
