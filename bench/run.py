"""Benchmark of the pluripot CLI: four workloads, each checked against closed forms.

Usage, from the root of a checkout that holds ``src/pluripot``::

    python3 bench/run.py --workload tfd-lift --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics setup_s, wall_ref and
peak_rss_mb, and the raw wall time per round and raw set-up time, which it
records but does not gate; with ``--trace 1`` the per-layer metrics of a
traced run (see ``layertrace.py``) next to an untraced one.  Every workload
run is one fresh ``worker.py`` process with BLAS pinned to one thread;
processes run one after another.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refkernel
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
# Extra processes that only set up; setup_s is the median over them and
# the measured run.
SETUP_PROBES = 4
# Per-process timeouts, generous next to one process of today's code (setup
# about 1 s, the longest round about 40 s, tracing adding up to 1.5x), so
# that a slower program is reported as slower rather than cut off.
SETUP_TIMEOUT_S = 60.0
ROUND_TIMEOUT_S = 150.0
TRACE_TIMEOUT_FACTOR = 3.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    path = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def _spawn(args, mode: str, tag: str, timeout: float, rounds: int | None = None) -> dict:
    """Run one worker process to its end and return its result."""
    workdir = OUT / f"work-{os.getpid()}"
    result_path = OUT / f"worker-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--workdir", str(workdir), "--result", str(result_path)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result_path.unlink()
    result["setup_raw_s"] = result["ready"] - spawned - result["setup_busy_s"]
    result["process_s"] = time.monotonic() - spawned
    return result


def _setup_s(proc: dict) -> float:
    """Set-up time in seconds at the reference speed: the raw time over the
    mean kernel time sampled during the import, times the nominal one."""
    kernel = statistics.fmean(proc["setup_kernel_s"])
    return proc["setup_raw_s"] / kernel * refkernel.NOMINAL_KERNEL_S


def _wall_ref(run: dict) -> float:
    """wall_s in units of the mean reference-kernel time of the same process."""
    return run["wall_s"] / statistics.fmean(run["kernel_s"])


def _run_timeout(args) -> float:
    return args.seconds + ROUND_TIMEOUT_S


def _end_to_end(args) -> tuple[dict, dict]:
    procs = [_spawn(args, "setup", f"setup{i}", SETUP_TIMEOUT_S)
             for i in range(SETUP_PROBES)]
    run = _spawn(args, "run", "run", _run_timeout(args))
    procs.append(run)
    run["setup_raw_median_s"] = statistics.median(p["setup_raw_s"] for p in procs)
    metrics = {
        "setup_s": statistics.median(_setup_s(p) for p in procs),
        "wall_ref": _wall_ref(run),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return run, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def _per_layer(args) -> tuple[dict, dict, dict]:
    base = _spawn(args, "run", "run", _run_timeout(args))
    traced = _spawn(args, "trace", "trace", TRACE_TIMEOUT_FACTOR * base["process_s"],
                    rounds=base["rounds"])
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["cli.report_bytes"] = (traced["report_bytes"], "bytes")
    metrics["setup.import_s"] = (base["import_s"], "s")
    # The difference of drift-normalized times, in seconds of the untraced run.
    kernel = statistics.fmean(base["kernel_s"])
    metrics["trace.overhead_s"] = ((_wall_ref(traced) - _wall_ref(base)) * kernel, "s")
    return base, traced, metrics


def _print_environment(env: dict) -> None:
    threads = ", ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    print(f"environment: cores {env['cores']} (usable {env['cores_usable']}),"
          f" BLAS {env['blas']}, effective BLAS threads {threads},"
          f" Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pluripot" / "cli.py").is_file():
        print(f"error: no pluripot source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            run, traced, metrics = _per_layer(args)
            runs = [run, traced]
        else:
            run, metrics = _end_to_end(args)
            runs = [run]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / f"work-{os.getpid()}", ignore_errors=True)

    last = runs[-1]
    unexpected = sorted({op for r in runs
                         for op in workloads.unexpected(args.workload, r["failures"])})
    known = workloads.KNOWN_FAILURES.get(args.workload, {})
    _print_environment(run["environment"])
    print(f"workload {args.workload} seed {args.seed}: {last['rounds']} rounds,"
          f" {last['attempted']} operations attempted, {last['failed']} failed")
    for op, faults in sorted(last["failures"].items()):
        for fault, message in faults.items():
            tag = "known" if fault in known.get(op, ()) else "UNEXPECTED"
            print(f"  failed ({tag} {fault}) {op}: {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  raw wall time per round = {run['wall_s']:.6g} s (recorded, not gated)")
    if "setup_raw_median_s" in run:
        print(f"  raw set-up time = {run['setup_raw_median_s']:.6g} s (recorded, not gated)")

    summary = {
        "correct": not unexpected and last["attempted"] >= 1,
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(summary, workload=args.workload, seed=args.seed, wall_s=run["wall_s"],
                  setup_raw_s=run.get("setup_raw_median_s"),
                  environment=run["environment"], failures=last["failures"])
    kind = "trace" if args.trace else "result"
    with open(OUT / f"{kind}-{args.workload}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
