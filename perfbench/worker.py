"""One workload process: set up, run ops in a closed loop, check them.

Started by ``run.py`` with BLAS/OpenMP pools capped at one thread and
``src`` on the import path.  Writes ``result.json`` into ``--work``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import calib
import workloads

ROOT = Path(__file__).resolve().parent.parent
MAX_OPS = 200      # inputs made at set-up; the loop never runs more ops
MIN_OPS = 11       # so op_s_tail has ten samples beyond it
COUNTED_OPS = 10   # traced ops whose spans give the per-layer numbers


def run_cli(cli, argv: list[str], log) -> int:
    """One op: `weightopt <argv>` through cli.main, as the console script runs it."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that crashes is a failed op, not a failed run
            traceback.print_exc()
            return -1


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def code_key() -> str:
    """Hash of the program and benchmark sources, naming saved counters."""
    h = hashlib.sha256()
    for p in sorted([*ROOT.glob("src/weightopt/*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import weightopt
    import weightopt.cli
    if Path(weightopt.__file__).resolve().parent != ROOT / "src" / "weightopt":
        print(f"weightopt imported from {weightopt.__file__}, not from src/", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed, args.work / "inputs", MAX_OPS)
    ready = time.monotonic()
    # the speed of this process's CPU right after set-up, for rescaling
    result = {"ready": ready, "kernel_s": calib.kernel_s(), "ref_s": calib.REF_S,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.setup_only:
        (args.work / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    out = args.work / "out"

    def run_op(op, k: int, out_dir: Path, log) -> int:
        if tracer:
            tracer.start_op(op)
        try:
            return run_cli(weightopt.cli, wl.argv(k, out_dir), log)
        finally:
            if tracer:
                tracer.end_op()

    with open(args.work / "ops.log", "w") as log:
        # wall time of each op, and the speed factor from the kernel timed
        # before and after it (outside the op)
        times, factors, codes = [], [], []
        kernel_before = result["kernel_s"]
        begin = time.perf_counter()
        while len(times) < MAX_OPS and (len(times) < MIN_OPS
                                        or time.perf_counter() - begin < args.seconds):
            k = len(times)
            t0 = time.perf_counter()
            codes.append(run_op(k, k, out / f"op{k}", log))
            times.append(time.perf_counter() - t0)
            kernel_after = calib.kernel_s()
            factors.append(calib.REF_S / (0.5 * (kernel_before + kernel_after)))
            kernel_before = kernel_after
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # everything below is outside the timed interval
        failures: dict[int, str] = {}
        lambdas = []
        for k, code in enumerate(codes):
            if code != 0:
                failures[k] = f"exit code {code}"
                continue
            lam, why = wl.check(out / f"op{k}")
            if why:
                failures[k] = why
            else:
                lambdas.append(lam)
        code = run_op("repeat", 0, out / "repeat", log)
        if code != 0 or not same_files(out / "op0", out / "repeat"):
            failures.setdefault(0, "repeated op did not write byte-identical artifacts")

    result.update(times=times, factors=factors, peak_rss_mb=peak_rss_mb, lambdas=lambdas,
                  failures={str(k): v for k, v in failures.items()}, problems=[])
    if tracer:
        for span in tracer.spans:
            span.scale = factors[span.op] if isinstance(span.op, int) else 1.0
        tracer.write_jsonl(args.work / "trace.jsonl")
        counted = list(range(COUNTED_OPS))
        per_op = {k: spans.op_counters(spans.OpView(tracer.spans, [k])) for k in counted}
        if spans.op_counters(spans.OpView(tracer.spans, ["repeat"])) != per_op[0]:
            result["problems"].append("counters of the repeated op differ from op 0")
        saved = ROOT / ".bench_work" / f"counters-{args.workload}-s{args.seed}-{code_key()}.json"
        if saved.exists():
            before = json.loads(saved.read_text())
            if before != {str(k): v for k, v in per_op.items()}:
                result["problems"].append(f"counters differ from the earlier run in {saved.name}")
        saved.write_text(json.dumps(per_op, indent=1, sort_keys=True))
        layer = spans.per_layer(tracer.spans, counted)
        layer["trace.op_s_p50"] = statistics.median(t * f for t, f in zip(times, factors))
        result["per_layer"] = layer
        result["counters"] = per_op
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
