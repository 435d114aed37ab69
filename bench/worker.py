"""One workload run in one fresh process: set up, run rounds, check, report.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on
PYTHONPATH.  It writes one JSON object to ``--result``:

- ``ready``: CLOCK_MONOTONIC reading once the first operation can be
  issued (after interpreter start, ``import pluripot.cli`` and config
  generation); the parent subtracts its spawn time;
- ``setup_busy_s`` and ``setup_kernel_s``: the time the kernel sampler
  took during set-up, and the kernel times it measured from the import of
  pluripot to ``ready``, every ``SETUP_SAMPLE_PERIOD_S`` seconds;
- ``wall_s``: wall seconds of the operations, per round, less the time
  the kernel sampler took inside them;
- ``kernel_s``: every reference-kernel time the sampler measured;
- attempted and failed operations, the failures (operation -> fault ->
  first message, over all rounds), peak RSS, and in a traced run the
  per-layer metrics.

A round is one pass over the workload's invocations.  Rounds repeat while
another one is expected to end within ``--seconds``; ``--rounds`` fixes the
count instead.  The reference kernel runs every ``SAMPLE_PERIOD_S`` seconds
of the timed phase (see ``refkernel.KernelSampler``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import refkernel  # loads numpy, which pluripot loads too

SAMPLE_PERIOD_S = 0.1
# Set-up lasts about a second, so it is sampled more densely.
SETUP_SAMPLE_PERIOD_S = 0.02

_setup = refkernel.KernelSampler(SETUP_SAMPLE_PERIOD_S).start()
_t = time.perf_counter()
import pluripot.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t - _setup.busy_s

import workloads  # noqa: E402


def _invoke(inv: workloads.Invocation, cfg_path: str, out_path: str,
            sampler: refkernel.KernelSampler):
    """Run one invocation; return (wall seconds, report bytes, (op, problems) pairs)."""
    busy = sampler.busy_s
    start = time.perf_counter()
    try:
        code = cli.main([inv.subcommand, "--config", cfg_path, "--out", out_path])
    except Exception:
        wall = time.perf_counter() - start - (sampler.busy_s - busy)
        reason = traceback.format_exc(limit=2).strip().splitlines()[-1]
        return wall, 0, _errors(inv, f"raised {reason}")
    wall = time.perf_counter() - start - (sampler.busy_s - busy)
    if code != 0:
        return wall, 0, _errors(inv, f"exit code {code}")
    with open(out_path) as fh:
        text = fh.read()
    try:
        results = inv.check(json.loads(text)["results"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        results = _errors(inv, f"report unreadable: {exc!r}")
    if len(results) != inv.n_ops:
        results = _errors(inv, f"{len(results)} results for {inv.n_ops} operations")
    return wall, len(text.encode()), results


def _errors(inv: workloads.Invocation, message: str):
    return [(inv.label, [(workloads.ERROR, message)])] * inv.n_ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--mode", choices=("run", "trace", "setup"), default="run")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    invocations = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    paths = []
    for i, inv in enumerate(invocations):
        cfg = os.path.join(args.workdir, f"{i:02d}-{inv.label}.cfg")
        with open(cfg, "w") as fh:
            fh.write(inv.config)
        paths.append((cfg, os.path.join(args.workdir, f"{i:02d}-{inv.label}.json")))
    _setup.stop()
    ready = time.monotonic()
    result = {"ready": ready, "import_s": IMPORT_S, "setup_busy_s": _setup.busy_s,
              "setup_kernel_s": _setup.samples}
    if args.mode == "setup":
        _write(args.result, result)
        return 0

    sampler = refkernel.KernelSampler(SAMPLE_PERIOD_S)
    tracer = None
    if args.mode == "trace":
        import layertrace

        tracer = layertrace.LayerTrace(busy=lambda: sampler.busy_s)
        tracer.install()

    wall = 0.0
    rounds = attempted = failed = report_bytes = 0
    failures: dict[str, dict[str, str]] = {}
    t0 = time.monotonic()
    with sampler:
        while True:
            for inv, (cfg, out) in zip(invocations, paths):
                dt, nbytes, results = _invoke(inv, cfg, out, sampler)
                wall += dt
                report_bytes += nbytes
                attempted += len(results)
                failed += workloads.add_failures(failures, results)
            rounds += 1
            elapsed = time.monotonic() - t0
            if args.rounds is not None:
                if rounds >= args.rounds:
                    break
            elif elapsed + elapsed / rounds > args.seconds:
                break

    result.update(
        rounds=rounds,
        wall_s=wall / rounds,
        kernel_s=sampler.samples,
        attempted=attempted,
        failed=failed,
        failures=failures,
        report_bytes=report_bytes / rounds,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=refkernel.environment(),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(rounds)
    _write(args.result, result)
    return 0


def _write(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
