"""Per-layer metrics of the traced run.

``SPANS`` lists the ihtlab functions the tracer wraps, by layer, and which of
``calls`` and ``self_s`` each reports.  ``Counters`` collects what the spans
return (solver iterations, bisection steps, stable supports, bytes saved).
All counts and times are per pass of the workload body.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

BOTH = ("calls", "self_s")
SELF = ("self_s",)

# span name -> (attributes of its module to wrap, fields reported).  The
# module is ``ihtlab.<first component of the name>``.
SPANS = {
    "cli.run_cli": (("run_cli",), SELF),
    "experiments.run_experiment": (("run_experiment",), SELF),
    "experiments.save": (("ExperimentResult.save", "ExperimentResult.save_trials_csv"), SELF),
    "solvers.run_solver": (("run_solver",), BOTH),
    "solvers.giht_step": (("giht_step",), BOTH),
    "solvers.niht_stepsize": (("niht_stepsize",), BOTH),
    "solvers._record": (("_record",), BOTH),
    "solvers.check_iterate_inequalities": (("check_iterate_inequalities",), SELF),
    "core.hard_threshold": (("hard_threshold",), BOTH),
    "core.top_support": (("top_support",), BOTH),
    "core.SupportSet.support_of": (("SupportSet.support_of",), BOTH),
    "core.objective": (("objective",), BOTH),
    "core.sample_instance": (("sample_instance",), BOTH),
    "core.pseudo_inverse_apply": (("pseudo_inverse_apply",), BOTH),
    "stablepoint.enumerate_stable_supports": (("enumerate_stable_supports",), BOTH),
    "stablepoint.min_norm_solution": (("min_norm_solution",), BOTH),
    "stablepoint.is_stable_point": (("is_stable_point",), BOTH),
    "rip.rip_exact": (("rip_exact",), SELF),
    "rip.TableRipProvider.query": (("TableRipProvider.query",), BOTH),
    "rip.default_provider": (("default_provider",), SELF),
    "asymptotics.tail_if": (("tail_if",), BOTH),
    "asymptotics.tail_il": (("tail_il",), BOTH),
    "asymptotics.tail_iu": (("tail_iu",), BOTH),
    "asymptotics.chi2_cdf": (("chi2_cdf",), SELF),
    "asymptotics.scaled_f_cdf": (("scaled_f_cdf",), SELF),
    "transitions.rho_hat_iht": (("rho_hat_iht",), BOTH),
    "transitions.rho_hat_niht": (("rho_hat_niht",), BOTH),
    "transitions.lhs_stable": (("lhs_stable",), BOTH),
    "transitions.stability_factor_iht": (("stability_factor_iht",), BOTH),
    "transitions.stability_factor_niht": (("stability_factor_niht",), BOTH),
    "transitions.stepsize_interval_iht": (("stepsize_interval_iht",), BOTH),
    "transitions.grid_emit": (("grid_emit",), SELF),
}

# Solver shapes of the bare-gradient floor probe, and the one each workload's
# solver iterations are compared with.  ``solvers.iter_us`` counts only the
# solves with as many rows as that shape: on recovery-map the n=60 maps, not
# the n=400 mc-error solves.
FLOOR_SHAPES = ((60, 200), (1000, 4000))
WORKLOAD_SHAPE = {"solve-large": (1000, 4000)}
DEFAULT_SHAPE = (60, 200)

# (name, unit, better) of every derived metric, after the span metrics.
DERIVED = [
    ("cli.import_s", "s", "lower"),
    ("experiments.save.bytes", "B", "lower"),
    ("solvers.niht_stepsize.shrink_steps", "count", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.max_iters_frac", "ratio", "lower"),
    ("solvers.iter_us", "us", "lower"),
    ("solvers.iter_over_floor", "ratio", "lower"),
    *[(f"core.gradient_floor_us.{n}x{N}", "us", "lower") for n, N in FLOOR_SHAPES],
    ("stablepoint.stable_frac", "ratio", "higher"),
    ("rip.rip_exact.supports_per_s", "1/s", "higher"),
    ("asymptotics.bisect_iters", "count", "lower"),
    ("transitions.lhs_per_point", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {"calls": "count", "self_s": "s"}


def metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    table = [
        (f"{span}.{fld}", UNITS[fld], "lower")
        for span, (_, fields) in SPANS.items()
        for fld in fields
    ]
    return table + DERIVED


@dataclass
class Counters:
    """Totals taken from the values traced functions return."""

    iterations: int = 0
    max_iters_iterations: int = 0
    bisect_iters: int = 0
    stable_tests: int = 0
    stable_found: int = 0
    supports: int = 0
    save_bytes: int = 0

    def solve(self, args, trace, _elapsed) -> None:
        n = trace.n_iterations
        self.iterations += n
        if trace.termination_reason == "max_iters":
            self.max_iters_iterations += n

    def root(self, args, result, _elapsed) -> None:
        self.bisect_iters += result.iterations

    def stable(self, args, report, _elapsed) -> None:
        self.stable_tests += 1
        self.stable_found += bool(report.is_stable)

    def rip(self, args, constants, _elapsed) -> None:
        A, order = args[0], args[1]
        self.supports += math.comb(A.shape[1], order)

    def saved(self, args, _result, _elapsed) -> None:
        path = args[1]
        if os.path.exists(path):
            self.save_bytes += os.path.getsize(path)

    def hooks(self) -> dict:
        return {
            "solvers.run_solver": self.solve,
            "asymptotics.tail_if": self.root,
            "asymptotics.tail_il": self.root,
            "asymptotics.tail_iu": self.root,
            "stablepoint.is_stable_point": self.stable,
            "rip.rip_exact": self.rip,
            "experiments.save": self.saved,
        }


@dataclass
class SolverClock:
    """Time inside ``run_solver`` and iterations, keyed by the instance's row count n."""

    seconds: dict = field(default_factory=dict)
    iterations: dict = field(default_factory=dict)

    def solve(self, args, trace, elapsed) -> None:
        n = args[0].A.shape[0]
        self.seconds[n] = self.seconds.get(n, 0.0) + elapsed
        self.iterations[n] = self.iterations.get(n, 0) + trace.n_iterations

    def specs(self) -> list[tuple]:
        return [("solvers.run_solver", "ihtlab.solvers", "run_solver", self.solve)]


def span_specs(counters: Counters, names=None) -> list[tuple]:
    """Tracer install specs for the named spans (all of them by default)."""
    hooks = counters.hooks()
    specs = []
    for name in names or SPANS:
        module = "ihtlab." + name.split(".")[0]
        for attr in SPANS[name][0]:
            specs.append((name, module, attr, hooks.get(name)))
    return specs


def layer_metrics(tracer, counters: Counters, passes: int, extra: dict) -> dict[str, float]:
    """Every per-layer metric, per pass; ``extra`` carries the values measured
    outside the traced passes (import time, floors, the untraced passes'
    solver clocks)."""
    out: dict[str, float] = {}
    for span, (_, fields) in SPANS.items():
        stats = tracer.stats(span)
        for fld in fields:
            out[f"{span}.{fld}"] = getattr(stats, fld) / passes
    niht_calls = tracer.stats("solvers.niht_stepsize").calls
    projections = tracer.child_calls("solvers.niht_stepsize", "core.hard_threshold")
    rho_hat_calls = sum(tracer.stats(f"transitions.rho_hat_{v}").calls for v in ("iht", "niht"))
    lhs_calls = sum(
        tracer.child_calls(f"transitions.rho_hat_{v}", "transitions.lhs_stable") for v in ("iht", "niht")
    )
    rip_s = tracer.stats("rip.rip_exact").total_s
    n = extra["shape"][0]
    solver_s = sum(clock.seconds.get(n, 0.0) for clock in extra["untraced_clocks"])
    iterations = sum(clock.iterations.get(n, 0) for clock in extra["untraced_clocks"])
    iter_us = solver_s / iterations * 1e6 if iterations else 0.0
    floor_us = extra["floors_us"][extra["shape"]]
    out.update({
        "cli.import_s": extra["import_s"],
        "experiments.save.bytes": counters.save_bytes / passes,
        "solvers.niht_stepsize.shrink_steps": max(0, projections - niht_calls) / passes,
        "solvers.iterations": counters.iterations / passes,
        "solvers.max_iters_frac": counters.max_iters_iterations / counters.iterations if counters.iterations else 0.0,
        "solvers.iter_us": iter_us,
        "solvers.iter_over_floor": iter_us / floor_us,
        **{f"core.gradient_floor_us.{n}x{N}": extra["floors_us"][(n, N)] for n, N in FLOOR_SHAPES},
        "stablepoint.stable_frac": counters.stable_found / counters.stable_tests if counters.stable_tests else 0.0,
        "rip.rip_exact.supports_per_s": counters.supports / rip_s if rip_s else 0.0,
        "asymptotics.bisect_iters": counters.bisect_iters / passes,
        "transitions.lhs_per_point": lhs_calls / rho_hat_calls if rho_hat_calls else 0.0,
        "trace.wall_s": extra["traced_wall_s"],
        "trace.overhead_s": extra["overhead_s"],
    })
    return out
