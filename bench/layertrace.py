"""Per-layer tracing of pluripot, installed from outside the program.

Every public function of every pluripot module, and the public methods
(plus ``__call__`` and ``__post_init__``) of the classes they define, is
replaced by a timing wrapper.  The modules import each other by name
(``from .vdm import monomial_values``), so a wrapper replaces every binding
of the function in every pluripot module namespace, including module-level
dicts such as the CLI's command table.  ``linprog`` as bound in ``cheb`` is
wrapped as the pseudo-layer ``cheb.lp``.

A layer's self time is the time spent in its wrapped functions minus the
time spent in wrapped callees; time in unwrapped helpers (private functions,
numpy, scipy) counts for the wrapped function that called them.  Time that
``busy`` reports (the reference-kernel sampler's handler) is left out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("basis", "domains", "vdm", "gram", "fekete", "optmeas", "cheb",
          "energy", "diag", "cli")
LP_LAYER = "cheb.lp"


class LayerTrace:
    """Wrappers, counters and per-layer times for one process."""

    def __init__(self, busy=lambda: 0.0):
        self._busy = busy
        self.self_s = dict.fromkeys(LAYERS + (LP_LAYER,), 0.0)
        self.calls = dict.fromkeys(LAYERS + (LP_LAYER,), 0)
        self.counts = dict.fromkeys(
            ("weight_evals", "logdet_calls", "monomial_calls", "monomial_entries",
             "gram_builds", "bergman_points", "searches", "iterations",
             "unconverged", "lp_solves", "lp_rows", "round_capped",
             "lift_combinations"), 0)
        self._child: list[float] = []
        self._lift_depth = 0
        self._refine_rounds = None  # cheb._REFINE_ROUNDS, read by install()
        c = self.counts

        def logdet(args, kwargs, result, token):
            c["logdet_calls"] += 1
            if self._lift_depth:
                c["lift_combinations"] += 1

        def monomials(args, kwargs, result, token):
            if result is not None:
                c["monomial_calls"] += 1
                c["monomial_entries"] += int(result.size)

        def bergman(args, kwargs, result, token):
            if result is not None:
                c["bergman_points"] += len(result)

        def solve(args, kwargs, result, token):
            if result is not None:
                c["iterations"] += int(result.iterations)
                c["unconverged"] += not result.converged

        def lift_enter(args, kwargs):
            self._lift_depth += 1

        def lift_leave(args, kwargs, result, token):
            self._lift_depth -= 1

        def cheb_leave(args, kwargs, result, lp_before):
            if c["lp_solves"] - lp_before >= self._refine_rounds:
                c["round_capped"] += 1

        def count(key):
            def leave(args, kwargs, result, token):
                c[key] += 1
            return leave

        def lp_leave(args, kwargs, result, token):
            c["lp_solves"] += 1
            a_ub = kwargs.get("A_ub", args[1] if len(args) > 1 else None)
            if a_ub is not None:
                c["lp_rows"] += len(a_ub)

        self._enter = {
            "pluripot.cheb.lift_identity_check": lift_enter,
            "pluripot.cheb.chebyshev_constant": lambda a, k: c["lp_solves"],
        }
        self._leave = {
            "pluripot.domains.AdmissibleWeight.__call__": count("weight_evals"),
            "pluripot.vdm.log_abs_vdm": logdet,
            "pluripot.vdm.log_abs_homogeneous_vdm": logdet,
            "pluripot.vdm.monomial_values": monomials,
            "pluripot.gram.gram_matrix": count("gram_builds"),
            "pluripot.gram.bergman_function": bergman,
            "pluripot.fekete.search_fekete": count("searches"),
            "pluripot.optmeas.solve_optimal_measure": solve,
            "pluripot.cheb.chebyshev_constant": cheb_leave,
            "pluripot.cheb.lift_identity_check": lift_leave,
            LP_LAYER: lp_leave,
        }

    def _wrap(self, fn, layer: str, key: str):
        enter = self._enter.get(key)
        leave = self._leave.get(key)
        child = self._child
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        busy = self._busy

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = enter(args, kwargs) if enter else None
            result = None
            child.append(0.0)
            start = clock()
            busy_start = busy()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - start - (busy() - busy_start)
                own = dur - child.pop()
                self_s[layer] += own
                calls[layer] += 1
                if child:
                    child[-1] += dur
                if leave:
                    leave(args, kwargs, result, token)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every pluripot layer module."""
        modules = {layer: importlib.import_module(f"pluripot.{layer}")
                   for layer in LAYERS}
        self._refine_rounds = modules["cheb"]._REFINE_ROUNDS
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(obj, layer, f"{mod.__name__}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer, f"{mod.__name__}.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "pluripot" or mod_name.startswith("pluripot.")):
                _rebind(vars(mod), replace)
        cheb = modules["cheb"]
        cheb.linprog = self._wrap(cheb.linprog, LP_LAYER, LP_LAYER)

    def _wrap_methods(self, cls, layer: str, prefix: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ("__call__", "__post_init__"):
                continue
            key = f"{prefix}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, key)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, key))

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass over the workload, as (value, unit)."""
        c = {k: v / rounds for k, v in self.counts.items()}
        s = {k: v / rounds for k, v in self.self_s.items()}
        out = {
            "basis.calls": (self.calls["basis"] / rounds, "count"),
            "domains.weight_evals": (c["weight_evals"], "count"),
            "vdm.logdet_calls": (c["logdet_calls"], "count"),
            "vdm.monomial_calls": (c["monomial_calls"], "count"),
            "vdm.monomial_entries": (c["monomial_entries"], "count"),
            "gram.gram_builds": (c["gram_builds"], "count"),
            "gram.bergman_points": (c["bergman_points"], "count"),
            "fekete.searches": (c["searches"], "count"),
            "optmeas.iterations": (c["iterations"], "count"),
            "optmeas.unconverged": (c["unconverged"], "count"),
            "cheb.lp_solves": (c["lp_solves"], "count"),
            "cheb.lp_rows": (c["lp_rows"], "count"),
            "cheb.lp_s": (s[LP_LAYER], "s"),
            "cheb.round_capped": (c["round_capped"], "count"),
            "cheb.lift_combinations": (c["lift_combinations"], "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (s[layer], "s")
        return out


def _rebind(namespace: dict, replace: dict[int, object]) -> None:
    """Point every name (and module-level dict value) at its wrapper."""
    for name, val in list(namespace.items()):
        if id(val) in replace:
            namespace[name] = replace[id(val)]
        elif isinstance(val, dict):
            for k, v in list(val.items()):
                if id(v) in replace:
                    val[k] = replace[id(v)]
