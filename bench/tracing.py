"""Per-layer tracing installed from the benchmark's own files.

`install` replaces public functions and methods of `partition_oracle` with
timing wrappers. Hot functions (`is_free` runs about 1.35 M times per grid-50
findr) are aggregated into call counts and self time; a few coarse calls
(an operation, `thresholds`, `global_partition`, each piece query, each
solver call) are also kept as spans with parent ids. Self time is a call's
duration minus the time of the traced calls beneath it.

Only the traced run installs the wrappers; end-to-end metrics come from
untraced runs.
"""
from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# Names that modules import with `from .diffusion import ...` and friends are
# patched in every module that holds them, so calls made through any import
# are seen (`oracle` imports `lazy_step`, `truncate`, `truncated_diffusion`
# and `SweepScan` by name).
_FUNCTIONS = {
    "diffusion": ("lazy_step", "truncate", "truncated_diffusion"),
    "oracle": ("SweepScan",),
    "graphs": ("load_graph", "connected_components"),
    "analysis": ("measure_cut",),
    "applications": ("run_tester", "run_estimator"),
}
_ORACLE_METHODS = (
    "thresholds",
    "viable",
    "is_free",
    "find_ib",
    "trajectory_masks",
    "cluster_at",
    "seed_cluster",
    "find_anchor",
    "find_partition",
    "global_partition",
)
_COARSE = {
    "bench.op",
    "oracle.thresholds",
    "oracle.global_partition",
    "oracle.find_partition",
    "solvers.call",
}
_MODULES = ("graphs", "params", "seeds", "diffusion", "oracle", "analysis",
            "solvers", "applications", "cli")


class Tracer:
    """Call counts, self times and coarse spans of the wrapped functions."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.sums: dict[str, int] = defaultdict(int)
        self.pieces: set[tuple] = set()  # distinct solver inputs
        self.spans: list[dict] = []
        self._frames: list[list] = []
        self._open: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, observe=None):
        """A wrapper of ``fn`` that records its calls under ``name``.

        ``observe(args, result, descendants)`` runs after each successful
        call; ``descendants`` counts the traced calls made beneath it.
        """
        frames, opened, depth = self._frames, self._open, self._depth
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        spans = self.spans
        coarse = name in _COARSE
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            frames.append(frame)
            depth[name] += 1
            if coarse:
                span = {"id": len(spans), "parent": opened[-1] if opened else None,
                        "name": name}
                spans.append(span)
                opened.append(span["id"])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                frames.pop()
                depth[name] -= 1
                if frames:
                    frames[-1][0] += dur
                    frames[-1][1] += 1 + frame[1]
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if not depth[name]:
                    total_s[name] += dur
                if coarse:
                    opened.pop()
                    span["start"] = start
                    span["end"] = start + dur
            if observe is not None:
                observe(args, result, frame[1])
            return result

        return traced


def install(package) -> Tracer:
    """Wrap the public functions of ``package`` (``partition_oracle``)."""
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{m}") for m in _MODULES
    ]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
    tracer = Tracer()
    sums = tracer.sums

    def add(key):
        def observe(args, result, _descendants):
            sums[key] += len(result)
        return observe

    def tester(args, result, _descendants):
        sums["applications.phase1_trials"] += len(result["phase1_estimates"])

    observers = {
        "lazy_step": add("diffusion.lazy_step_entries"),
        "run_tester": tester,
    }
    for module, names in _FUNCTIONS.items():
        for fname in names:
            original = getattr(by_name[module], fname)
            wrapped = tracer.wrap(f"{module}.{fname}", original, observers.get(fname))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def trajectory(args, result, descendants):
        # A cache miss is the only path that steps the walk.
        if descendants:
            sums["oracle.trajectories"] += 1

    def viable(args, result, _descendants):
        sums["oracle.viable_true"] += bool(result)

    method_observers = {
        "trajectory_masks": trajectory,
        "viable": viable,
        "find_ib": add("oracle.ib_size_sum"),
    }
    engine = by_name["oracle"].PartitionOracle
    for meth in _ORACLE_METHODS:
        setattr(engine, meth, tracer.wrap(
            f"oracle.{meth}", getattr(engine, meth), method_observers.get(meth)))
    seeds = by_name["seeds"].SeedContext
    seeds.u64 = tracer.wrap("seeds.u64", seeds.u64)

    apps = by_name["applications"]
    apps.PartitionOracle = tracer.wrap("applications.engine", engine)

    def solver_call(args, result, _descendants):
        sums["solvers.piece_size_sum"] += len(args[0])
        # Vertices and induced edges: graphs that share vertex numbering
        # (the grid and the triangulated grid) give different pieces.
        tracer.pieces.add((tuple(args[0]), tuple(args[1])))

    # cli shares these dicts with applications, so swapping entries reaches
    # both the tester's deciders and the estimator's scorers.
    for table in (apps.DECIDERS, apps.SCORERS):
        for key, fn in list(table.items()):
            table[key] = tracer.wrap("solvers.call", fn, solver_call)

    cli = by_name["cli"]
    cli.main = tracer.wrap("cli.main", cli.main)
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, op_trajectories: list[int],
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    c, s, t, sums = tracer.calls, tracer.self_s, tracer.total_s, tracer.sums
    traj_calls = c["oracle.trajectory_masks"]
    return {
        "diffusion.lazy_step_calls": (c["diffusion.lazy_step"], "count"),
        "diffusion.lazy_step_s": (s["diffusion.lazy_step"], "s"),
        "diffusion.lazy_step_entries": (sums["diffusion.lazy_step_entries"], "count"),
        "diffusion.truncate_s": (s["diffusion.truncate"], "s"),
        "oracle.trajectories": (sums["oracle.trajectories"], "count"),
        "oracle.trajectory_self_s": (s["oracle.trajectory_masks"], "s"),
        "oracle.trajectory_hit_frac": (
            _ratio(traj_calls - sums["oracle.trajectories"], traj_calls), "ratio"),
        "oracle.query_trajectories_p50": (statistics.median(op_trajectories), "count"),
        "oracle.query_trajectories_max": (max(op_trajectories), "count"),
        "oracle.findr_s": (t["oracle.thresholds"], "s"),
        "oracle.viable_calls": (c["oracle.viable"], "count"),
        "oracle.viable_hit_frac": (
            _ratio(sums["oracle.viable_true"], c["oracle.viable"]), "ratio"),
        "oracle.is_free_calls": (c["oracle.is_free"], "count"),
        "oracle.is_free_self_s": (s["oracle.is_free"], "s"),
        "oracle.find_ib_calls": (c["oracle.find_ib"], "count"),
        "oracle.find_ib_self_s": (s["oracle.find_ib"], "s"),
        "oracle.ib_size_mean": (
            _ratio(sums["oracle.ib_size_sum"], c["oracle.find_ib"]), "vertices"),
        "oracle.sweep_scans": (c["oracle.SweepScan"], "count"),
        "oracle.cluster_at_calls": (c["oracle.cluster_at"], "count"),
        "oracle.cluster_at_self_s": (s["oracle.cluster_at"], "s"),
        "oracle.find_anchor_calls": (c["oracle.find_anchor"], "count"),
        "oracle.find_anchor_self_s": (s["oracle.find_anchor"], "s"),
        "oracle.global_partition_self_s": (s["oracle.global_partition"], "s"),
        "seeds.u64_calls": (c["seeds.u64"], "count"),
        "seeds.u64_s": (s["seeds.u64"], "s"),
        "solvers.calls": (c["solvers.call"], "count"),
        "solvers.s": (s["solvers.call"], "s"),
        "solvers.piece_size_mean": (
            _ratio(sums["solvers.piece_size_sum"], c["solvers.call"]), "vertices"),
        "solvers.distinct_frac": (_ratio(len(tracer.pieces), c["solvers.call"]), "ratio"),
        "applications.engines": (c["applications.engine"], "count"),
        "applications.phase1_trials": (sums["applications.phase1_trials"], "count"),
        "graphs.load_graph_s": (s["graphs.load_graph"], "s"),
        "graphs.connected_components_s": (s["graphs.connected_components"], "s"),
        "analysis.measure_cut_s": (s["analysis.measure_cut"], "s"),
        "cli.self_s": (s["cli.main"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
