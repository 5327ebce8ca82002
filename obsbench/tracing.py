"""Per-layer tracing for the benchmark's traced run.

A `Tracer` records a span around every call into the public functions
listed in `SPANS`. It does so from outside the program: for the length of
a run it replaces each such function in every `obsmhe` module namespace
that holds it, which are the attributes through which the layers call
each other, and it puts the originals back afterwards. It also counts the
system and input callbacks by wrapping what the bearing factories return.

A span is [name, start, end, parent index]. Spans stay in memory until
the run ends. A span's self time is its duration minus the durations of
its direct children; the program runs on one thread here (the CLI gets
`--threads 1`), so children never overlap.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name). Both CLI writers share one span name.
SPANS = (
    ("ode_core", "flow", "ode_core.flow"),
    ("ode_core", "flow_and_stm", "ode_core.flow_and_stm"),
    ("ode_core", "perturbed_flow", "ode_core.perturbed_flow"),
    ("ode_core", "noise_sensitivity", "ode_core.noise_sensitivity"),
    ("ode_core", "rk4_flow", "kernels.rk4_flow"),
    ("ode_core", "rk4_flow_stm", "kernels.rk4_flow_stm"),
    ("ode_core", "rk4_flow_sens", "kernels.rk4_flow_sens"),
    ("cost", "gauss_newton_term", "cost.gauss_newton_term"),
    ("cost", "grad_perturbed_cost_from_reference",
     "cost.grad_perturbed_cost_from_reference"),
    ("cost", "perturbed_cost_from_reference", "cost.perturbed_cost_from_reference"),
    ("cost", "perturbed_reference", "cost.perturbed_reference"),
    ("cost", "grad_sensitivity_v", "cost.grad_sensitivity_v"),
    ("cost", "grad_sensitivity_w", "cost.grad_sensitivity_w"),
    ("cost", "cum_output_error", "cost.cum_output_error"),
    ("grammian", "observability_grammian", "grammian.observability_grammian"),
    ("grammian", "jacobi_eigh", "grammian.jacobi_eigh"),
    ("grammian", "check_regular_boundedness", "grammian.check_regular_boundedness"),
    ("mhe_solver", "solve_pmhe", "mhe_solver.solve_pmhe"),
    ("mhe_solver", "audit_uniform_stability", "mhe_solver.audit_uniform_stability"),
    ("mhe_solver", "audit_nonuniform_stability",
     "mhe_solver.audit_nonuniform_stability"),
    ("cli", "main", "cli.main"),
    ("cli", "write_csv", "cli.write"),
    ("cli", "write_json", "cli.write"),
)

_KERNELS = ("kernels.rk4_flow", "kernels.rk4_flow_stm", "kernels.rk4_flow_sens")
_CALLBACKS = (("f", "bearing.f_evals"), ("df_dx", "bearing.df_dx_evals"),
              ("h", "bearing.h_evals"), ("dh_dx", "bearing.dh_dx_evals"),
              ("domain_guard", "ode_core.guard_evals"))

# Every per-layer metric with its unit and better direction, in report order.
PER_LAYER = {
    "ode_core.stage_values.calls": ("count", "lower"),
    "ode_core.stage_values.steps": ("count", "lower"),
    "ode_core.stage_values.self_s": ("s", "lower"),
    "ode_core.input_evals": ("count", "lower"),
    "ode_core.stage_reuse": ("ratio", "higher"),
    **{f"ode_core.{fn}.{k}": (unit, "lower")
       for fn in ("flow", "flow_and_stm", "perturbed_flow", "noise_sensitivity")
       for k, unit in (("calls", "count"), ("self_s", "s"))},
    "ode_core.guard_evals": ("count", "lower"),
    **{f"{k}.{m}": (unit, better) for k in _KERNELS
       for m, unit, better in (("steps", "count", "lower"), ("self_s", "s", "lower"),
                               ("steps_per_s", "1/s", "higher"))},
    **{name: ("count", "lower") for _, name in _CALLBACKS[:4]},
    **{f"cost.{fn}.{k}": (unit, "lower")
       for fn in ("gauss_newton_term", "grad_perturbed_cost_from_reference",
                  "perturbed_cost_from_reference", "perturbed_reference",
                  "grad_sensitivity_v", "grad_sensitivity_w", "cum_output_error")
       for k, unit in (("calls", "count"), ("self_s", "s"))},
    "grammian.observability_grammian.calls": ("count", "lower"),
    "grammian.windows_per_grammian": ("ratio", "higher"),
    "grammian.jacobi_eigh.calls": ("count", "lower"),
    "grammian.jacobi_eigh.self_s": ("s", "lower"),
    "grammian.check_regular_boundedness.self_s": ("s", "lower"),
    "grammian.ball_flows": ("count", "lower"),
    "mhe_solver.solve_pmhe.calls": ("count", "lower"),
    "mhe_solver.solve_pmhe.self_s": ("s", "lower"),
    "mhe_solver.newton_iters": ("count", "lower"),
    "mhe_solver.cost_evals_per_iter": ("ratio", "lower"),
    "mhe_solver.audit_uniform_stability.self_s": ("s", "lower"),
    "mhe_solver.audit_nonuniform_stability.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.write.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Span recorder and callback counter for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stage_spans: set = set()
        self._grammian_windows: set = set()
        # Signals whose id() keys the stage spans; holding them keeps ids unique.
        self._signals: list = []

    # -- recording -----------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _in(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    # -- hooks run after a traced call -----------------------------------

    def _after_kernel(self, name):
        def after(args, result):
            xs = result[0] if isinstance(result, tuple) else result
            self.counts[f"{name}.steps"] += len(xs) - 1
        return after

    def _after_stage(self, args, result):
        signal, t0, h, n = args[:4]
        self.counts["ode_core.stage_values.steps"] += n
        self._stage_spans.add((id(signal), t0, h, n))

    def _after_grammian(self, args, report):
        self._grammian_windows.add((id(args[4]), report.t, report.T,
                                    report.center.tobytes()))

    def _after_solve(self, args, solution):
        self.counts["mhe_solver.newton_iters"] += solution.iterations

    def _after_write(self, args, result):
        self.counts["cli.bytes_written"] += Path(args[0]).stat().st_size

    def _after_ball(self, args, points):
        if self._in("grammian.check_regular_boundedness"):
            self.counts["grammian.ball_flows"] += len(points)

    def _counted_system(self, factory):
        def make(*args, **kwargs):
            system = factory(*args, **kwargs)
            return dataclasses.replace(system, **{
                field: self._counted(name, getattr(system, field))
                for field, name in _CALLBACKS})
        return make

    def _counted_input(self, factory):
        def make(*args, **kwargs):
            u = factory(*args, **kwargs)
            u = type(u)(pieces=tuple((s, self._counted("ode_core.input_evals", ev))
                                     for s, ev in u.pieces), bound=u.bound)
            self._signals.append(u)
            return u
        return make

    # -- installation ----------------------------------------------------

    def _replace(self, original, replacement):
        """Swap `original` for `replacement` in every obsmhe namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "obsmhe" and not mod_name.startswith("obsmhe."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"obsmhe.{name}") for name in
                ("ode_core", "cost", "grammian", "mhe_solver", "cli", "bearing")}
        after = {name: self._after_kernel(name) for name in _KERNELS}
        after.update({"grammian.observability_grammian": self._after_grammian,
                      "mhe_solver.solve_pmhe": self._after_solve,
                      "cli.write": self._after_write})
        for mod, attr, name in SPANS:
            original = getattr(mods[mod], attr)
            self._replace(original, self._span(name, original, after.get(name)))
        signal_cls = mods["ode_core"].InputSignal
        self._patches.append((signal_cls, "stage_values", signal_cls.stage_values))
        signal_cls.stage_values = self._span("ode_core.stage_values",
                                             signal_cls.stage_values, self._after_stage)
        ball = mods["grammian"].ball_samples
        self._replace(ball, self._span("grammian.ball_samples", ball, self._after_ball))
        bearing = mods["bearing"]
        self._replace(bearing.bearing_system, self._counted_system(bearing.bearing_system))
        for name in ("u_circ", "u_spi", "u_cst"):
            original = getattr(bearing, name)
            self._replace(original, self._counted_input(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs an
        untraced run of the same work."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]

        def has_ancestor(i, name):
            i = spans[i][3]
            while i >= 0:
                if spans[i][0] == name:
                    return True
                i = spans[i][3]
            return False

        solver_costs = sum(1 for i, s in enumerate(spans)
                           if s[0] == "cost.perturbed_cost_from_reference"
                           and has_ancestor(i, "mhe_solver.solve_pmhe"))
        c = self.counts
        out: dict[str, float] = {}
        for name in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls[base]
            elif field == "self_s":
                out[name] = self_s[base]
            elif field == "steps_per_s":
                out[name] = c[f"{base}.steps"] / self_s[base] if self_s[base] else 0.0
            else:
                out[name] = c[name]
        stage_calls = calls["ode_core.stage_values"]
        grammians = calls["grammian.observability_grammian"]
        iters = c["mhe_solver.newton_iters"]
        out["ode_core.stage_reuse"] = (len(self._stage_spans) / stage_calls
                                       if stage_calls else 0.0)
        out["grammian.windows_per_grammian"] = (len(self._grammian_windows) / grammians
                                                if grammians else 0.0)
        out["mhe_solver.cost_evals_per_iter"] = solver_costs / iters if iters else 0.0
        del out["trace.overhead_s"]
        return out
