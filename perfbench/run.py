"""weightopt benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see BENCHMARK.json and perfbench/README.md) in a worker
process with BLAS/OpenMP thread pools capped at one, times its set-up by
starting fresh processes, checks every op, prints each metric by name and
unit and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  ``--trace 1`` reports the
per-layer metrics of a traced run instead of the end-to-end ones.
``--workload all`` runs every workload untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_CAP = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"
SETUP_SPAWNS = 4     # set-up-only processes; the workload process gives one more sample
WORKLOADS = ("opt2-box", "tiny-cli", "sym-disk-cold")  # workloads.WORKLOADS; no numpy here
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    return {**os.environ, **{v: THREAD_CAP for v in THREAD_VARS},
            "PYTHONPATH": str(ROOT / "src")}


def spawn(args: list[str], work: Path, deadline: float) -> dict:
    """Run the worker into `work`; returns its result with `t_spawn` added."""
    work.mkdir(parents=True)
    t_spawn = time.monotonic()
    with open(work / "worker.log", "w") as log:
        try:
            proc = subprocess.run([sys.executable, str(WORKER), *args, "--work", str(work)],
                                  stdout=log, stderr=log, env=child_env(), cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the deadline; see {work / 'worker.log'}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{(work / 'worker.log').read_text()[-2000:]}")
    return {**json.loads((work / "result.json").read_text()), "t_spawn": t_spawn}


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    s = sorted(times)
    return 100.0 * (len(s) - 10) / len(s), s[len(s) - 11]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    # set-up time of each process start, rescaled by the kernel timed in
    # that process right after it was ready
    setup, wall_setup = [], []
    for i in range(SETUP_SPAWNS + 1):
        last = i == SETUP_SPAWNS
        r = spawn([*args, "--trace", str(trace)] if last else [*args, "--setup-only"],
                  work / ("run" if last else f"setup{i}"), deadline)
        wall_setup.append(r["ready"] - r["t_spawn"])
        setup.append(wall_setup[-1] * r["ref_s"] / r["kernel_s"])
        shutil.rmtree(work / ("run/out" if last else f"setup{i}"))
    shutil.rmtree(work / "run" / "inputs")

    wall, factors = r["times"], r["factors"]
    times = [t * f for t, f in zip(wall, factors)]
    pct, tail_s = tail(times)
    failed = len(r["failures"])
    e2e = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": r["peak_rss_mb"],
        "lambda_opt_mean": statistics.fmean(r["lambdas"]) if r["lambdas"] else float("nan"),
    }
    wall_e2e = {"setup_s": statistics.median(wall_setup), "op_s_p50": statistics.median(wall),
                "op_s_tail": tail(wall)[1], "ops_per_s": len(wall) / sum(wall)}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(times), "failed": failed,
        "correct": failed == 0 and not r["problems"],
        "failures": r["failures"], "problems": r["problems"],
        "tail_percentile": pct, "setup_samples": setup, "wall": wall_e2e,
        "speed_factor_p50": statistics.median(factors), "ref_s": r["ref_s"],
        "end_to_end": e2e, "per_layer": r.get("per_layer"), "counters": r.get("counters"),
        "env": {"nproc": os.cpu_count(), "blas_threads": THREAD_CAP,
                "python": platform.python_version(), "machine": platform.machine(),
                **r["versions"]},
    }


def report(res: dict, spec: dict) -> dict:
    """Print every metric by name and unit; return those for the JSON line."""
    name, e2e = res["workload"], res["end_to_end"]
    print(f"# {name} seed={res['seed']} seconds={res['seconds']} trace={res['trace']} "
          f"ops={res['attempted']} env={json.dumps(res['env'], sort_keys=True)}")
    print(f"# times are rescaled to the speed at which the calibration kernel takes "
          f"{res['ref_s']} s; median factor {res['speed_factor_p50']:.4f} (below 1: this "
          f"machine ran slower); [wall] is the raw wall time")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    notes = {"setup_s": f"  (median of {len(res['setup_samples'])} process starts)",
             "op_s_p50": f"  (n={res['attempted']})",
             "op_s_tail": f"  (p{res['tail_percentile']:.1f} of n={res['attempted']})"}
    for key in (m["name"] for m in spec["end_to_end"]):
        wall = f"  [wall {res['wall'][key]:.6g}]" if key in res["wall"] else ""
        print(f"{key} {e2e[key]:.6g} {units[key]}{notes.get(key, '')}{wall}")
    print(f"fail_rate {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']}/{res['attempted']})")
    for k, why in res["failures"].items():
        print(f"FAILED op {k}: {why}")
    for why in res["problems"]:
        print(f"PROBLEM: {why}")
    wanted = [m["name"] for m in spec["end_to_end"]]
    values = e2e
    if res["trace"]:
        layer = res["per_layer"]
        for key, value in layer.items():
            print(f"{key} {value:.6g} {units[key]}")
        if name == "opt2-box":
            verdict = "reproduced" if layer["eig.share"] >= 0.99 else "NOT reproduced"
            print(f"ROADMAP eig.share >= 0.99 on opt2-box: {verdict} "
                  f"(eig.share = {layer['eig.share']:.5f})")
        untraced = WORK / f"result-{name}-s{res['seed']}-t0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]["op_s_p50"]
            print(f"tracing overhead: op_s_p50 {layer['trace.op_s_p50']:.6g} s traced - "
                  f"{base:.6g} s untraced = {layer['trace.op_s_p50'] - base:+.6g} s")
        wanted = [m["name"] for m in spec["per_layer"]]
        values = layer
    if sorted(wanted) != sorted(values):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(wanted)}")
    return {k: {"value": values[k], "unit": units[k]} for k in wanted}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "weightopt" / "__init__.py").is_file():
        print(f"error: no weightopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name, trace in runs:
            res = run_workload(name, args.seed, args.seconds, trace)
            (WORK / f"result-{name}-s{args.seed}-t{trace}.json").write_text(
                json.dumps(res, indent=1, sort_keys=True))
            metrics = report(res, spec)
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            prefix = f"{name}." if args.workload == "all" else ""
            if args.workload != "all" or not trace:
                summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
