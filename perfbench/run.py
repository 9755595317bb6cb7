#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload rqc-szq --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload qft-spill --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --selfcheck

Run from the repository root. Builds perfbench/ (which compiles the memq
libraries from src/) into .bench_build/perfbench, runs one workload and
checks its output: the result JSON must name exactly the metrics and units
BENCHMARK.json lists, and a traced run's spans must all be closed and nested
inside their parents. Only then is the output printed; its last line is the
result JSON. --selfcheck runs every workload at reduced size, traced and
untraced, and fails on any missing metric, unit, correctness check or span.
"""
import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "memq_perfbench"
WORKLOADS = ("rqc-szq", "qft-spill", "qaoa-batch")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_process(cmd, timeout, env=None, capture=False):
    """Runs cmd in its own process group; on timeout or interrupt the whole
    group is killed and waited for. Returns captured stdout when asked."""
    proc = subprocess.Popen(
        [str(c) for c in cmd], env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr, stderr=sys.stderr,
        text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{cmd[0]} exited with {proc.returncode}")
    return out


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        run_process(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_process(["cmake", "--build", BUILD, "--target", "memq_perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise BenchError("no repetition attempted")
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            raise BenchError(f"metric {name} has no numeric value")


def validate_spans(directory):
    """Reads the Chrome trace files of a traced run (one per traced
    repetition, one for the layer replays). On every thread, each end event
    must close an open span and no span may stay open, with time never
    running backwards, so every child lies inside its parent."""
    files = sorted(Path(directory).glob("*.json"))
    if len(files) < 2:
        raise BenchError(f"traced run wrote {len(files)} span files")
    n_spans = 0
    for f in files:
        events = json.loads(f.read_text())["traceEvents"]
        stacks, last_ts, own = {}, {}, 0
        for e in events:
            if e["ph"] not in ("B", "E"):
                continue
            track = (e["pid"], e["tid"])
            if e["ts"] < last_ts.get(track, e["ts"]):
                raise BenchError(f"{f.name}: time runs backwards on {track}")
            last_ts[track] = e["ts"]
            stack = stacks.setdefault(track, [])
            if e["ph"] == "B":
                stack.append(e["name"])
                n_spans += 1
                own += e.get("cat") == "perfbench"
            elif not stack:
                raise BenchError(f"{f.name}: end without a span on {track}")
            else:
                stack.pop()
        for track, stack in stacks.items():
            if stack:
                raise BenchError(f"{f.name}: span {stack[-1]} never closed "
                                 f"on {track}")
        if own == 0:
            raise BenchError(f"{f.name}: no benchmark span recorded")
    return n_spans


def bench(workload, seed, seconds, trace, scale, deadline):
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    spans = ROOT / ".bench_build" / f"spans-{workload}"
    cmd = [BINARY, "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--trace", int(trace), "--scale", scale]
    if trace:
        spans.mkdir(parents=True, exist_ok=True)
        for old in spans.glob("*.json"):
            old.unlink()
        cmd += ["--spans", spans]
    # The file spill backend creates its unlinked temp file under TMPDIR.
    env = dict(os.environ, TMPDIR=str(tmp))
    out = run_process(cmd, max(1.0, deadline - time.monotonic()), env=env,
                      capture=True)
    lines = out.splitlines()
    if not lines:
        raise BenchError("benchmark printed nothing")
    result = json.loads(lines[-1])
    validate_result(result, trace)
    n_spans = validate_spans(spans) if trace else 0
    return lines, result, n_spans


def selfcheck(deadline):
    for workload in WORKLOADS:
        for trace in (False, True):
            lines, result, n_spans = bench(workload, 7, 1, trace, "small",
                                           deadline)
            summary = [re.match(r"# repetitions: \d+ untraced, \d+ traced, "
                                r"(\d+) checked", ln) for ln in lines]
            summary = [m for m in summary if m]
            if not summary:
                raise BenchError(f"{workload}: no repetition summary")
            n_checked = int(summary[0].group(1))
            if n_checked != result["attempted"]:
                raise BenchError(f"{workload}: {n_checked} of "
                                 f"{result['attempted']} repetitions checked")
            if not result["correct"] or result["failed"]:
                raise BenchError(f"{workload}: correctness check failed")
            log(f"selfcheck {workload} trace={int(trace)}: "
                f"{result['attempted']} repetitions checked, "
                f"{len(result['metrics'])} metrics, {n_spans} spans ok")
    log("selfcheck ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: perfbench/seeds.json)")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    start = time.monotonic()
    try:
        build()
        if args.selfcheck:
            selfcheck(start + 900)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        seed = args.seed
        if seed is None:
            seed = json.loads((HERE / "seeds.json").read_text())["default"]
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads(
                (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        # A cold build may take most of the first run; later runs get the
        # full per-run allowance.
        deadline = time.monotonic() + RUN_TIMEOUT_S
        lines, _, _ = bench(args.workload, seed, seconds, bool(args.trace),
                            "full", deadline)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
