"""Benchmark of the loopinv CLI: time, peak memory and set-up time of each
workload, and, in a separate traced run, the time and work of every layer.

    python3 benchmark/run.py --workload s2-deep --seed 1729 --seconds 30 --trace 0

Each pass serves all of the workload's requests, in order, in one fresh
child interpreter (one process, one thread) that imports ``loopinv.cli``
from ``src`` and calls its ``main``; the parent reads the child's peak RSS
with ``os.wait4``.  Passes repeat until ``--seconds`` have elapsed.  Times
are given at a reference speed, which takes out how much other tenants of
a shared machine slow it: request times by the probe of probe.py, set-up
times by a bare interpreter start (``bare_start``).  Each metric is the
median over the run.  Every output is checked (see check.py).  The last
line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` count checked requests, and ``metrics`` holds the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  A traced run
alternates untraced and traced passes, so that ``trace.overhead_s``
compares the two; it writes the spans of its traced passes to
``_work/trace-<workload>-<seed>.json``.

The exit code is 0 when every metric was measured, whether or not the
outputs were correct, and 1 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import check
import tracing
import workloads

SETUP_SPAWNS = 8  # import-only children before each untraced pass
# What starting and stopping an interpreter that does nothing takes on the
# reference machine.  Set-up time is given at the speed at which a bare
# start, timed just before and just after the child, takes this long:
# interpreter start-up is most of the set-up, and other tenants slow the
# two alike, whereas they slow the Fraction probe of probe.py more than
# they slow set-up.
BARE_REF_S = 0.05
CHILD_TIMEOUT_S = 150
CHILD = workloads.BENCH_DIR / "child.py"
WORK = workloads.ROOT / workloads.WORK


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed request)."""


def spawn(requests: list[list[str]], trace: bool) -> tuple[dict, float, float]:
    """Serve the requests in one fresh child interpreter.  Returns the
    child's result, its set-up time in seconds at reference speed and its
    peak RSS in MB."""
    job, result = WORK / "job.json", WORK / "result.json"
    bare = bare_start()
    job.write_text(
        json.dumps({"root": str(workloads.ROOT), "requests": requests, "trace": trace}),
        encoding="utf-8",
    )
    result.unlink(missing_ok=True)
    with open(WORK / "child.err", "w+", encoding="utf-8") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-I", str(CHILD), str(job), str(result)],
            cwd=workloads.ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        deadline = spawned + CHILD_TIMEOUT_S
        try:
            # os.wait4, unlike Popen.wait, also returns the child's rusage
            pid = 0
            while not pid and time.monotonic() < deadline:
                time.sleep(0.005)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            if not pid:
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status) if pid else -9
        if not pid:
            raise BenchmarkError(f"child exceeded {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            err.seek(0)
            raise BenchmarkError(f"child exited {proc.returncode}:\n{err.read()}")
    data = json.loads(result.read_text(encoding="utf-8"))
    setup_s = (data["imported"] - spawned) * 2 * BARE_REF_S / (bare + bare_start())
    return data, setup_s, usage.ru_maxrss / 1024


def bare_start() -> float:
    """Seconds to start and stop an interpreter that does nothing."""
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, "-I", "-c", "pass"],
        stdin=subprocess.DEVNULL,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.monotonic() - t0


def load_digests(workload: str, seed: int) -> list[str] | None:
    """Recorded stdout digests of the workload's requests, if any: fixed
    workloads have one list for every seed, random-batch one for the
    default seed only."""
    recorded = json.loads((workloads.BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    key = workload if workload in workloads.FIXED else f"{workload}@{seed}"
    return recorded.get(key)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    requests = workloads.build_requests(workload, seed)
    argvs = [r["argv"] for r in requests]
    digests = load_digests(workload, seed)
    if digests is not None and len(digests) != len(requests):
        raise BenchmarkError(f"digests.json has {len(digests)} digests for {len(requests)} requests")

    setup: list[float] = []
    passes = []  # (traced, child result, peak RSS MB)
    begin = time.monotonic()
    while True:
        if not trace:
            setup += [spawn([], False)[1] for _ in range(SETUP_SPAWNS)]
        traced = trace and len(passes) % 2 == 1
        data, setup_s, rss = spawn(argvs, traced)
        setup.append(setup_s)
        passes.append((traced, data, rss))
        enough = not trace or len(passes) >= 2
        if enough and time.monotonic() - begin >= seconds:
            break

    attempted = failed = 0
    for _, data, _ in passes:
        for i, (request, outcome) in enumerate(zip(requests, data["outcomes"])):
            attempted += 1
            errors = check.check_output(request, outcome, digests[i] if digests else None)
            if errors:
                failed += 1
                print(f"FAILED {' '.join(request['argv'])}: {'; '.join(errors)}", file=sys.stderr)

    untraced = [(data, rss) for traced, data, rss in passes if not traced]
    if trace:
        wall = best_time([data for data, _ in untraced])
        traced_passes = [data for traced, data, _ in passes if traced]
        fastest = min(traced_passes, key=lambda d: sum(o["seconds"] for o in d["outcomes"]))
        values = tracing.layer_metrics(fastest["spans"])
        values["trace.overhead_s"] = best_time(traced_passes) - wall
        for target in traced_passes[0]["missing"]:
            print(f"note: {target} does not exist; its layer reports no calls", file=sys.stderr)
        trace_file = WORK / f"trace-{workload}-{seed}.json"
        spans = [d["spans"] for d in traced_passes]
        trace_file.write_text(
            json.dumps({"fields": tracing.FIELDS, "requests": argvs, "passes": spans}),
            encoding="utf-8",
        )
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(values.items())}
    else:
        metrics = {
            "wall_ref_s": {"value": statistics.median(d["ref_seconds"] for d, _ in untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss for _, rss in untraced), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def best_time(passes: list[dict]) -> float:
    """Time to produce every table of the workload, as measured: the sum
    over requests of the request's best time across passes, the least
    disturbed by other tenants.  Only ``trace.overhead_s`` uses it: traced
    passes run without the probe, whose timer would land in the spans."""
    return sum(
        min(p["outcomes"][i]["seconds"] for p in passes)
        for i in range(len(passes[0]["outcomes"]))
    )


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("ratio") or metric == "trace.coverage":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
