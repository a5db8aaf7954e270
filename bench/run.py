"""Benchmark of the partition oracle, end to end and per layer.

Run one workload:

    python3 bench/run.py --workload grid50-query --seed 0 --seconds 40 --trace 0

A workload runs its operations in a fixed order; one pass is a round.
Before timing, each operation runs once untimed at the smoke size.
`--trace 0` repeats rounds for up to `--seconds` seconds, starting a round
only if it should end in time (one process, one thread, closed loop: the
next operation starts when the last one ends), and reports the end-to-end
metrics. `--trace 1` runs a fixed number of rounds untraced,
then the same rounds with per-layer wrappers installed, and reports the
per-layer metrics and the tracing overhead.
`--workload all` runs every workload, each in its own process. `--smoke`
runs every workload at minimal size in both modes and checks that every
metric named in BENCHMARK.json is emitted with its unit and every output
check passes.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Lines before it describe the run: environment, host-speed probe, and each
operation's latency under its own name with the sample count.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# Set-ups before each round. Spreading them over the run, instead of doing
# them all at the start, makes their median see the same host-speed drift
# the rounds see.
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


def import_package():
    """Import partition_oracle from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import partition_oracle
        import partition_oracle.cli  # noqa: F401  (not imported by the package)
    except ImportError as exc:
        print(f"error: cannot import partition_oracle from {src}: {exc}", file=sys.stderr)
        return None
    if Path(partition_oracle.__file__).resolve().parent.parent != src.resolve():
        print(f"error: partition_oracle imported from outside {src}", file=sys.stderr)
        return None
    return partition_oracle


def git_sha() -> str:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        if git.is_file():  # a worktree: .git names its own git directory
            git = (ROOT / git.read_text().split("gitdir:", 1)[1].strip()).resolve()
        common = git
        if (git / "commondir").is_file():
            common = (git / (git / "commondir").read_text().strip()).resolve()
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        for base in (git, common):
            if (base / ref).is_file():
                return (base / ref).read_text().strip()
        # A packed ref: "<sha> <ref>" lines in packed-refs.
        for line in (common / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except (OSError, IndexError):
        pass
    return "unknown"


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: the median of three timings."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum (percentile 100) when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(po, args, work: Path) -> tuple[dict, list[str]]:
    """One run of one workload: (result object, description lines)."""
    classes = WORKLOADS[args.workload]
    lines = [
        "env " + json.dumps({
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "PO_THREADS": os.environ.get("PO_THREADS", "unset"),
        }, sort_keys=True)
    ]
    probe_before = host_probe()
    setup_times = []

    def set_up() -> list:
        """SETUP_REPEATS fresh set-ups, each timed; the last one's operations."""
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            ops = [cls(po, ROOT, work, args.seed, args.size) for cls in classes]
            for op in ops:
                op.setup()
            setup_times.append(time.perf_counter() - start)
        return ops

    outputs = [[] for _ in classes]
    latencies = [[] for _ in classes]
    tracer = None
    op_trajectories = []

    def run_round(ops: list, r: int) -> float:
        """Each operation once, in order; the round's summed latency."""
        total = 0.0
        for k, op in enumerate(ops):
            before = tracer.sums["oracle.trajectories"] if tracer else 0
            gc.collect()  # so no operation pays for collecting another's garbage
            start = time.perf_counter()
            try:
                out = op.op(r)
            except Exception:
                traceback.print_exc()
                out = None
            dur = time.perf_counter() - start
            outputs[k].append(out)
            latencies[k].append(dur)
            total += dur
            if tracer:
                op_trajectories.append(tracer.sums["oracle.trajectories"] - before)
        return total

    # One untimed call of each operation at the smoke size, so that timed
    # calls do not pay first-call costs (lazy imports, allocator growth).
    warm = work / "warm-up"
    warm.mkdir()
    for cls in classes:
        op = cls(po, ROOT, warm, args.seed, "smoke")
        op.setup()
        op.op(0)

    if args.trace:
        from tracing import install, layer_metrics

        n = max(cls.trace_rounds for cls in classes)
        ops = set_up()
        untraced = sum(run_round(ops, r) for r in range(n))
        tracer = install(po)
        for op in ops:
            op.op = tracer.wrap("bench.op", op.op)
        traced = sum(run_round(ops, r) for r in range(n))
        overhead = traced - untraced
        metrics = layer_metrics(tracer, op_trajectories, overhead)
        lines.append(f"trace: {n} rounds, untraced {untraced:.4f} s, traced {traced:.4f} s, "
                     f"overhead {overhead:.4f} s ({overhead / untraced:.1%}), "
                     f"{len(tracer.spans)} spans")
    else:
        rounds = []
        start = time.perf_counter()
        last = 0.0
        # A round starts only if one as long as the last one ends within
        # --seconds, so a run never overshoots by most of a round.
        while not rounds or time.perf_counter() - start + last <= args.seconds:
            began = time.perf_counter()
            ops = set_up()
            rounds.append(run_round(ops, len(rounds)))
            last = time.perf_counter() - began
        rss = peak_rss_mb()
        pct, round_tail = tail(rounds)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "round_p50_ms": (statistics.median(rounds) * 1000, "ms"),
            "round_tail_ms": (round_tail * 1000, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        lines.append(f"round {statistics.median(rounds):.4f} s (median of {len(rounds)}); "
                     f"tail p{pct:.1f} {round_tail:.4f} s")
        for op, lat in zip(ops, latencies):
            scale = 1000.0 if op.unit == "ms" else 1.0
            pct, op_tail = tail(lat)
            lines.append(f"{op.metric} {statistics.median(lat) * scale:.4f} {op.unit} "
                         f"(median of {len(lat)}); tail p{pct:.1f} "
                         f"{op_tail * scale:.4f} {op.unit}")
        lines.append(f"setup_s {metrics['setup_s'][0]:.5f} s (median of {len(setup_times)}); "
                     f"peak_rss_mb {rss:.1f} MB")

    checks = [ok for op, outs in zip(ops, outputs) for ok in op.verify(outs)]
    failed = checks.count(False)
    lines.append(f"failed_frac {failed}/{len(checks)} = {failed / len(checks):.4f}")
    lines.append(f"host_probe_s before {probe_before:.5f} after {host_probe():.5f}")
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def child(args, workload: str, trace: int, seconds: float, size: str) -> tuple[dict | None, str]:
    """Run one workload in its own process; (result or None, its output)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    text = proc.stdout + proc.stderr
    last = proc.stdout.strip().splitlines()[-1:] if proc.returncode == 0 else []
    try:
        return (json.loads(last[0]) if last else None), text
    except json.JSONDecodeError:
        return None, text


def run_all(args) -> int:
    """Every workload in its own process, one result line each."""
    bad = 0
    for name in WORKLOADS:
        result, text = child(args, name, args.trace, args.seconds, args.size)
        print(f"== {name}")
        print(text.rstrip())
        bad += result is None or not result["correct"]
    return 1 if bad else 0


def smoke(args) -> int:
    """Every workload at minimal size, both modes: names, units and checks."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            result, text = child(args, name, trace, 0, "smoke")
            where = f"{name} --trace {trace}"
            if result is None:
                problems.append(f"{where}: no result\n{text}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {sorted(got.items())}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed\n{text}")
            print(f"smoke {where}: {'ok' if len(problems) == before else 'FAIL'}",
                  flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimal size and check the output")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    po = import_package()
    if po is None:
        return 2
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        result, lines = run_workload(po, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
