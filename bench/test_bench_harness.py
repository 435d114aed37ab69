"""The benchmark's generator, reference kernel and tracer.

The kernel and the tracer run in subprocesses: the tracer rewires the
pluripot modules of its process, and the kernel must be shown to load none.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _python(code: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_byte_identical_configs(name):
    build = workloads.WORKLOADS[name]
    first = [inv.config.encode() for inv in build(7)]
    again = [inv.config.encode() for inv in build(7)]
    assert first == again
    assert all(inv.n_ops >= 1 for inv in build(7))


def test_seeds_vary_the_inputs():
    configs = {workloads.tfd_lift(seed)[0].config for seed in range(20)}
    assert len(configs) == len(workloads.TFD_RADII)


def test_known_failures_name_real_operations():
    for name, known in workloads.KNOWN_FAILURES.items():
        ops = {op for inv in workloads.WORKLOADS[name](0)
               for op, _ in inv.check(_empty_report(inv.subcommand))}
        assert set(known) <= ops
        assert set().union(*known.values()) <= set(workloads.FAULTS)


def _empty_report(subcommand: str) -> dict:
    return {"optmeas": {"reports": []},
            "cheb": {"records": [], "violations": []}}[subcommand]


def _unexpected(name: str, report: dict) -> list[str]:
    (inv,) = workloads.WORKLOADS[name](0)
    failures = {}
    workloads.add_failures(failures, inv.check(report))
    return workloads.unexpected(name, failures)


def _optmeas_report(log_det_shift=0.0, below=1e-3, kw_gap=2e-3):
    """Today's faults: n = 1, 4 keep certificate violations, n = 2, 3 stop unconverged."""
    reports = []
    for n in range(1, workloads.OPTMEAS_N_MAX + 1):
        best = oracles.design_log_det(oracles.guest_nodes(n), n)
        reports.append({"n": n, "converged": n in (1, 4), "iterations": 100,
                        "log_det": best - below + (log_det_shift if n == 1 else 0.0),
                        "kw_gap": kw_gap, "certificate": {"violations": [{"node": 0}]}})
    return {"reports": reports}


def test_optmeas_known_faults_pass_and_wrong_log_det_does_not():
    assert _unexpected("optmeas-interval", _optmeas_report()) == []
    # log_det above the Guest design, or log_det + kw_gap below the grid design.
    assert _unexpected("optmeas-interval", _optmeas_report(log_det_shift=0.1)) == ["optmeas n=1"]
    assert _unexpected("optmeas-interval", _optmeas_report(below=1.0)) == [
        f"optmeas n={n}" for n in range(1, 5)]


def _cheb_report(wrong=None):
    """Today's fault: Y(z^k) 4e-9 above r^k = 1 for k = 6, 7, 8."""
    values = {k: 1.0 + (4e-9 if k >= 6 else 0.0) for k in range(1, workloads.CHEB_N_MAX + 1)}
    values.update(wrong or {})
    violations = [{"alpha": [a], "beta": [k - a], "lhs": values[k],
                   "rhs": values[a] * values[k - a]}
                  for k in values for a in range(1, k // 2 + 1)
                  if values[k] > values[a] * values[k - a] * (1 + 1e-9)]
    return {"records": [{"alpha": [k], "Y": y} for k, y in values.items()],
            "violations": violations}


def test_cheb_known_fault_passes_and_wrong_value_does_not():
    assert _unexpected("cheb-circle", _cheb_report()) == []
    assert _unexpected("cheb-circle", _cheb_report({6: 1.1})) == ["cheb k=6"]
    assert _unexpected("cheb-circle", _cheb_report({3: 1.0 + 4e-9})) == ["cheb k=3"]


def test_reference_kernel_loads_no_pluripot_module():
    out = _python(
        "import signal, sys, time, refkernel\n"
        "t, c = refkernel.reference_kernel()\n"
        "env = refkernel.environment()\n"
        "with refkernel.KernelSampler(0.01) as s:\n"
        "    end = time.perf_counter() + 0.3\n"
        "    while time.perf_counter() < end:\n"
        "        sum(range(1000))\n"
        "print(t > 0, sorted(m for m in sys.modules if m.split('.')[0] == 'pluripot'))\n"
        "print(env['cores'] >= 1, sorted(set(env['blas_threads'].values())))\n"
        "print(len(s.samples) >= 5, s.busy_s > 0,"
        " signal.getsignal(signal.SIGALRM) is signal.SIG_DFL)\n"
    )
    assert out.splitlines() == ["True []", "True [1]", "True True True"]


def test_tracer_rebinds_every_import_and_counts(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(workloads.config_text(geometry="circle", radius=1.0, m=24, n_max=3))
    out = _python(
        "import json, layertrace, pluripot.cli as cli, pluripot.vdm as vdm, pluripot.fekete as fk\n"
        "t = layertrace.LayerTrace(); t.install()\n"
        "assert fk.monomial_values is vdm.monomial_values\n"
        "assert hasattr(vdm.monomial_values, '__wrapped__')\n"
        "assert hasattr(cli.COMMANDS['cheb'], '__wrapped__')\n"
        f"assert cli.main(['cheb', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print(json.dumps(t.metrics(1)))\n"
    )
    metrics = json.loads(out)
    assert metrics["cheb.lp_solves"][0] >= 3
    assert metrics["vdm.monomial_calls"][0] >= 6
    assert metrics["cli.self_s"][0] > 0.0
    assert metrics["energy.self_s"][0] == 0.0
