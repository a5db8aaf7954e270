"""The benchmark's operations and the workloads that combine them.

An operation is driven from outside the package: through the CLI in-process
(`partition_oracle.cli.main([...])`) or through the documented library API.
`setup` builds its inputs and is timed as set-up; `op(i)` is one timed call;
`verify(outputs)` checks every output against an independent reference and
runs outside the timed region. A workload runs its operations in a fixed
order, one after another; one pass through them is a round.

The workload seed picks the query vertices and the tester master seeds.
The estimator master seed is pinned to the CLI default (0): its solver time
ranges from 0.9 s to 7.2 s across master seeds, which no affordable number
of draws per run makes steady. The partition and query operations use the
shipped grid-50 config, whose master seed is 7.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

# Graph sides per size; "smoke" is the minimal size the benchmark's own test
# runs.
SIZES = {
    "full": {"grid": 50, "tester": 30, "estimate": 20},
    "smoke": {"grid": 10, "tester": 8, "estimate": 8},
}
EPS = 0.1


class Operation:
    """Base: shared paths and helpers. Subclasses define setup/op/verify."""

    metric = ""  # what the operation's latency is called in the summary
    unit = "s"
    trace_rounds = 1  # rounds in a traced run (a fixed count, so counts repeat)

    def __init__(self, po, root: Path, work: Path, seed: int, size: str):
        self.po = po
        self.root = root
        self.work = work
        self.seed = seed
        self.side = SIZES[size]
        self.full = size == "full"

    def _json(self, rel: str) -> dict:
        with open(self.root / rel, encoding="utf-8") as fh:
            return json.load(fh)

    def _cli(self, argv: list[str], i: int) -> tuple[int, Path]:
        out = self.work / f"{self.metric}-{i}.json"
        rc = self.po.cli.main([*argv, "--out", str(out)])
        return rc, out

    @staticmethod
    def _payload(out: Path) -> dict:
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def _grid50_config(w: Operation) -> tuple[dict, dict]:
    """The shipped grid-50 config and its overrides in derive_params form."""
    cfg = w._json("configs/partition_grid50.json")
    return cfg, w.po.applications.oracle_overrides(cfg["overrides"])


class Partition(Operation):
    """`partition` on the grid-50 config: local anchors, or `--global`."""

    metric = "partition_s"
    use_global = False

    def setup(self) -> None:
        po = self.po
        cfg, overrides = _grid50_config(self)
        self.cfg = cfg
        self.g = po.gen_grid(self.side["grid"], self.side["grid"])
        self.graph_path = self.work / f"{self.metric}.graph"
        po.save_graph(self.g, self.graph_path)
        self.params = po.derive_params(cfg["eps"], self.g.d, cfg["mode"], overrides)
        self.golden = self._json("tests/data/grid50_golden.json") if self.full else None
        self.argv = ["partition", "--graph", str(self.graph_path),
                     "--seed", str(cfg["seed"]), "--eps", str(cfg["eps"]),
                     "--mode", cfg["mode"]]
        for key, value in sorted(cfg["overrides"].items()):
            self.argv += ["--set", f"{key}={value}"]
        if self.use_global:
            self.argv.append("--global")

    def op(self, i: int):
        rc, out = self._cli(self.argv, i)
        if rc != 0:
            raise RuntimeError(f"partition exited {rc}")
        return out

    def verify(self, outputs: list) -> list[bool]:
        po = self.po
        ctx = po.SeedContext(self.cfg["seed"], self.params)
        if self.golden is not None:
            thresholds = po.PhaseThresholds(tuple(self.golden["thresholds"]))
        else:
            thresholds = po.PartitionOracle(self.g, ctx).thresholds()
        reference = po.PartitionOracle(self.g, ctx, thresholds).global_partition()
        cut_edges = (self.golden["cut_edges"] if self.golden is not None
                     else po.measure_cut(self.g, reference).cut_edges)
        ok = []
        for out in outputs:
            if out is None:
                ok.append(False)
                continue
            payload = self._payload(out)
            ok.append(payload["thresholds"] == list(thresholds.k)
                      and payload["cut_report"]["cut_edges"] == cut_edges
                      and payload["anchors"] == list(reference.anchors))
        return ok


class PartitionGlobal(Partition):
    metric = "partition_global_s"
    use_global = True


class Query(Operation):
    """A cold single-vertex query on the grid-50 graph, frozen thresholds."""

    metric = "query_ms"
    unit = "ms"
    trace_rounds = 20

    def setup(self) -> None:
        po = self.po
        cfg, overrides = _grid50_config(self)
        self.master_seed = cfg["seed"]
        self.g = po.gen_grid(self.side["grid"], self.side["grid"])
        self.params = po.derive_params(cfg["eps"], self.g.d, cfg["mode"], overrides)
        if self.full:
            golden = self._json("tests/data/grid50_golden.json")
            self.thresholds = po.PhaseThresholds(tuple(golden["thresholds"]))
        else:
            ctx = po.SeedContext(self.master_seed, self.params)
            self.thresholds = po.PartitionOracle(self.g, ctx).thresholds()
        self.rng = random.Random(self.seed)
        self.vertices: list[int] = []

    def op(self, i: int):
        while len(self.vertices) <= i:
            self.vertices.append(self.rng.randrange(self.g.n))
        v = self.vertices[i]
        ctx = self.po.SeedContext(self.master_seed, self.params)
        engine = self.po.PartitionOracle(self.g, ctx, self.thresholds)
        return v, engine.find_partition(v)

    def verify(self, outputs: list) -> list[bool]:
        po = self.po
        ctx = po.SeedContext(self.master_seed, self.params)
        reference = po.PartitionOracle(self.g, ctx, self.thresholds).global_partition()
        piece_of = {}
        for piece in reference.pieces(self.g):
            for v in piece:
                piece_of[v] = tuple(piece)
        return [out is not None and tuple(out[1]) == piece_of[out[0]]
                for out in outputs]


class TestAccept(Operation):
    """`test --property bipartite` on the grid, which must accept."""

    metric = "test_accept_s"
    verdict = ("accept", 0)

    def make_graph(self, side: int):
        return self.po.gen_grid(side, side)

    def setup(self) -> None:
        self.graph_path = self.work / f"{self.metric}.graph"
        self.po.save_graph(self.make_graph(self.side["tester"]), self.graph_path)
        self.rng = random.Random(self.seed)
        self.master_seeds: list[int] = []

    def op(self, i: int):
        while len(self.master_seeds) <= i:
            self.master_seeds.append(self.rng.getrandbits(32))
        return self._cli(["test", "--graph", str(self.graph_path),
                          "--seed", str(self.master_seeds[i]), "--eps", str(EPS),
                          "--property", "bipartite",
                          "--config", str(self.root / "configs/tester.json")], i)

    def verify(self, outputs: list) -> list[bool]:
        verdict, code = self.verdict
        return [out is not None and out[0] == code
                and self._payload(out[1])["verdict"] == verdict
                for out in outputs]


class TestReject(TestAccept):
    """`test --property bipartite` on the triangulated grid (d = 6): reject."""

    metric = "test_reject_s"
    verdict = ("reject", 3)

    def make_graph(self, side: int):
        return self.po.gen_triangulated_grid(side, side)


class Estimate(Operation):
    """`estimate --scorer independent-set --samples all` on the 20x20 grid."""

    metric = "estimate_s"
    master_seed = 0

    def setup(self) -> None:
        po = self.po
        self.g = po.gen_grid(self.side["estimate"], self.side["estimate"])
        self.graph_path = self.work / f"{self.metric}.graph"
        po.save_graph(self.g, self.graph_path)
        self.config_path = self.root / "configs/estimator.json"
        self.config = po.EstimatorConfig.load(str(self.config_path))

    def op(self, i: int):
        rc, out = self._cli(["estimate", "--graph", str(self.graph_path),
                             "--seed", str(self.master_seed), "--eps", str(EPS),
                             "--scorer", "independent-set", "--samples", "all",
                             "--config", str(self.config_path)], i)
        if rc != 0:
            raise RuntimeError(f"estimate exited {rc}")
        return out

    def verify(self, outputs: list) -> list[bool]:
        po = self.po
        config = self.config
        # The estimator runs the oracle at epsilon / 8.
        params = po.derive_params(
            EPS / 8, self.g.d, mode=config.mode,
            overrides=po.applications.oracle_overrides(config.overrides))
        ctx = po.SeedContext(self.master_seed, params)
        pieces = po.PartitionOracle(self.g, ctx).global_partition().pieces(self.g)
        total = sum(
            po.maximum_independent_set(p, po.induced_edges(self.g, p), config.solver_cap)
            for p in pieces)
        return [out is not None and self._payload(out)["estimate"] == float(total)
                for out in outputs]


WORKLOADS = {
    "grid50-partition": (Partition, PartitionGlobal),
    "grid50-query": (Query,),
    "apps": (TestAccept, TestReject, Estimate),
}
