"""rlk benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload restricted --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; rlk is imported from ./src.  The run

1. times set-up: it starts the interpreter PROBES times, each time importing
   rlk, writing the workload's generated inputs and then timing the
   calibration loop, and keeps the median of the scaled times;
2. builds the same inputs in this process and runs one untimed round of the
   workload's operations, whose outputs are the ones checked;
3. runs timed rounds of the same operations until --seconds have passed,
   and compares every round's outputs with the first round's;
4. checks the first round's outputs against independent computations; and
5. prints one JSON line: correct, attempted, failed and the metrics.

All times are scaled by the calibration loop (see CAL_REF_S); the raw ones
go to the summary line on stderr.

With --trace 1 the timed rounds run under `tracer.Tracer`, the metrics are
the per-layer ones (per round), and the spans go to perfbench/out/.
Exit code 2 means the run could not start (for example, no ./src/rlk).
"""

import os

# One thread: the kernels are single-threaded, and BLAS threads used by the
# checks would compete with them.  RLK_CAP would change the workload.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RLK_CAP", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

_CAL_V = np.arange(4, dtype=np.int64)
_CAL_T = np.arange(64, dtype=np.int64).reshape(4, 4, 4)

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = HERE / "out"
PROBES = 7
# Shared machines change speed by tens of percent within a minute, so every
# time is scaled to a machine on which `calibrate` takes CAL_REF_S seconds,
# using calibration loops run next to the work they scale.
CAL_REF_S = 1e-3
WORKLOADS = ("restricted", "polarize", "envelope")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def calibrate() -> float:
    """Wall seconds of a fixed mix of interpreter and small numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += (i * i) % 7
    for _ in range(60):
        (np.tensordot(_CAL_V, _CAL_T, axes=(0, 0)) % 5) @ _CAL_V
    return time.perf_counter() - t0


def probe_setup(args, workdir: Path) -> tuple:
    """Seconds from interpreter start to inputs written, in a fresh process,
    and the calibration time that process measured right after (whose own
    duration is taken off the first)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(workdir)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    cal, cal_total = (float(v) for v in res.stdout.split())
    return elapsed - cal_total, cal


def run_rounds(workloads, ops, seconds, tracer):
    """An untimed reference round, then timed rounds (under the tracer, if
    any) until `seconds` have passed.  Each operation's wall and CPU time is
    scaled by CAL_REF_S over the mean of the calibration loops run just
    before and just after it.  Returns the reference outputs, per round the
    scaled wall, scaled CPU and raw wall seconds, the scaled op times in ms,
    and the names of ops whose output differs from the reference round."""
    outputs = [workloads.call(op) for op in ops]
    reference = [workloads.fingerprint(out) for out in outputs]
    walls, cpus, raw, op_ms, differing = [], [], [], [], []
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            outs = []
            wall = cpu = raw_wall = 0.0
            before = calibrate()
            for k, op in enumerate(ops):
                t0, c0 = time.perf_counter(), time.process_time()
                if tracer is None:
                    outs.append(workloads.call(op))
                else:
                    outs.append(tracer.run_op(k, op.name, lambda op=op: workloads.call(op)))
                dt, dc = time.perf_counter() - t0, time.process_time() - c0
                after = calibrate()
                scale = CAL_REF_S / ((before + after) / 2)
                before = after
                op_ms.append(dt * scale * 1000.0)
                wall += dt * scale
                cpu += dc * scale
                raw_wall += dt
            walls.append(wall)
            cpus.append(cpu)
            raw.append(raw_wall)
            differing += [op.name for op, out, ref in zip(ops, outs, reference)
                          if workloads.fingerprint(out) != ref]
    return outputs, walls, cpus, raw, op_ms, differing


def check_outputs(workloads, ops, outputs):
    """(failed, unexpected) over one round; each problem goes to stderr.  A
    failed operation is expected only if its every problem is a KnownFault."""
    failed = unexpected = 0
    for op, out in zip(ops, outputs):
        try:
            problems = op.check(out)
        except Exception as e:  # a crashing check is a failed check
            problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            failed += 1
            known = all(isinstance(pr, workloads.KnownFault) for pr in problems)
            unexpected += not known
            tag = "known fault" if known else "FAILED"
            print(f"{tag}: {op.name}: {'; '.join(problems)}", file=sys.stderr)
        elif op.known_fault:
            print(f"note: {op.name} passes; its known fault no longer shows", file=sys.stderr)
    return failed, unexpected


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rlk" / "__init__.py").is_file():
        print(f"error: no rlk sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads
        workloads.build(args.workload, args.seed, Path(args.setup_probe))
        loops = [calibrate() for _ in range(15)]
        print(statistics.median(loops), sum(loops))
        return 0

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        probes = [probe_setup(args, workdir / f"probe{k}") for k in range(PROBES)]
        setup = [t * CAL_REF_S / cal for t, cal in probes]
        import workloads
        ops = workloads.build(args.workload, args.seed, workdir / "run")
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        outputs, walls, cpus, raw, op_ms, differing = run_rounds(workloads, ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, unexpected = check_outputs(workloads, ops, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(walls)
    for name in sorted(set(differing)):
        print(f"FAILED: {name}: output differs between rounds", file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
               "ops_per_round": len(ops), "wall_s": statistics.median(walls),
               "cpu_s": statistics.median(cpus), "raw_wall_s": statistics.median(raw),
               "round_walls": walls, "raw_round_walls": raw,
               "raw_setup_s": [t for t, _ in probes]}
    print(json.dumps(summary), file=sys.stderr)
    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "job_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    else:
        metrics = tracer.metrics(rounds)
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(stem.with_suffix(".jsonl"))
        summary["layer_self_s"] = tracer.layer_self_s(rounds)
        summary["per_layer"] = {k: v["value"] for k, v in metrics.items()}
        stem.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    total_rounds = rounds + 1  # the reference round is attempted and checked too
    result = {
        "correct": unexpected == 0 and not differing,
        "attempted": len(ops) * total_rounds,
        "failed": failed * total_rounds + len(differing),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
