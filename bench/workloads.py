"""The four benchmark workloads.

Each workload turns ``(seed, pass index)`` into a fixed input set, runs one
pass of its body (the timed part) and then checks that pass's outputs (not
timed).  A body is a sequence of steps and calls ``lap()`` after each one, so
the caller can time every step on its own.  Every pass draws fresh inputs, so
one run averages over several input sets; the same seed always yields the
same sequence of inputs.

An operation is one Monte Carlo trial, one solve, one grid point or one
enumeration.  ``check`` returns how many operations a pass attempted and how
many raised or failed a check; it never raises for a wrong output.

Bodies call ihtlab through module attributes (``solvers.run_solver``), looked
up at call time, so the tracer's wrappers are seen.
"""
from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ihtlab import asymptotics, cli, core, rip, solvers, stablepoint, transitions

DEFAULT_SEED = 0

TERMINATIONS = {"step_tol", "residual_tol", "max_iters", "linesearch_fixed_support_stationary"}
TRANSITION_RESIDUAL_TOL = 1e-10
TAIL_RESIDUAL_TOL = 1e-12
REFERENCE_REL_TOL = 1e-9
RIP_REFERENCE_TOL = 1e-12
SUCCESS_REL_TOL = 1e-4

KS_ONE_SAMPLE = (
    "ks_f_ratio",
    "ks_r_quadratic",
    "ks_g_noise",
    "ks_s_noise",
    "ks_t_noise",
    "ks_rayleigh_full",
    "ks_rayleigh_inverse",
)
KS_TWO_SAMPLE = ("ks_rayleigh_squared_two_sample",)
# Chance that a run with correct code fails some KS test.  Each test of a run
# uses its share of this level (Bonferroni), because a run makes dozens of
# tests and each would fail by chance at its own 1% level one time in a hundred.
KS_FAMILY_ALPHA = 1e-3


def pass_seed(seed: int, index: int) -> int:
    """Master seed of pass ``index`` of a run with workload seed ``seed``."""
    return seed * 10_000 + index


@dataclass
class PassResult:
    """What one pass did and how much of it was wrong."""

    attempted: int
    failed: int
    # Outputs compared with the reference recorded at the default seed.
    outputs: dict
    # Work done, for throughput: trials, iterations, points.
    counts: dict = field(default_factory=dict)
    # (statistic, m1, m2) of each KS test; m2 is None for a one-sample test.
    ks: list = field(default_factory=list)


def ks_critical(alpha: float, m1: int, m2: int | None) -> float:
    """Asymptotic Kolmogorov-Smirnov critical distance at level ``alpha``."""
    m = m1 if m2 is None else m1 * m2 / (m1 + m2)
    return math.sqrt(-0.5 * math.log(alpha / 2.0) / m)


def ks_failures(experiments: list[tuple[int, list]]) -> int:
    """Trials of the experiments, given as ``(trials, ks tests)``, that fail a KS test
    at the run's family-wise level ``KS_FAMILY_ALPHA``."""
    n_tests = sum(len(tests) for _, tests in experiments)
    failed = 0
    for trials, tests in experiments:
        if any(stat > ks_critical(KS_FAMILY_ALPHA / n_tests, m1, m2) for stat, m1, m2 in tests):
            failed += trials
    return failed


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _fields_match(row: str, ref: str, columns: int | None = None) -> bool:
    """CSV rows agree in their first ``columns`` fields (all by default): empty
    fields in the same places, numbers to REFERENCE_REL_TOL."""
    got, want = row.split(","), ref.split(",")
    if len(got) != len(want):
        return False
    for a, b in zip(got[:columns], want[:columns]):
        if (a == "") != (b == ""):
            return False
        if a and not _rel_close(float(a), float(b), REFERENCE_REL_TOL):
            return False
    return True


def _tail_residuals(delta: float, rho: float, lams: tuple[float, ...], name: str) -> list[float]:
    """Residuals of the chi-square tail roots ``name`` at each lambda, recomputed by the checker."""
    root = getattr(asymptotics, name)
    return [root(asymptotics.TailInputs(delta, rho, lam)).residual for lam in lams]


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    # The calibration kernel whose time follows this workload's own when the
    # host slows (see calibration.py).
    calibration = "mixed"

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir

    def pass_dir(self, index: int) -> Path:
        path = self.workdir / f"pass{index}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def operations(self) -> int:
        """Operations attempted by one pass."""
        raise NotImplementedError

    def body(self, index: int, lap):
        """Run pass ``index``, calling ``lap()`` after each step; returns the raw outputs."""
        raise NotImplementedError

    def check(self, index: int, raw) -> PassResult:
        raise NotImplementedError

    def mismatches(self, outputs: dict, reference: dict) -> int:
        """Operations whose outputs differ from the reference."""
        raise NotImplementedError

    def cleanup(self, index: int) -> None:
        shutil.rmtree(self.workdir / f"pass{index}", ignore_errors=True)


class RecoveryMap(Workload):
    """Monte Carlo recovery maps at n=60 through the CLI; failing cells run to
    max_iters, so per-iteration overhead in solvers and core sets the time."""

    name = "recovery-map"

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        s = self.size
        rho_hat = transitions.rho_hat_iht(s["error_delta"], rip.default_provider()).rho_hat
        self.error_rho = rho_hat / 4
        self.n_cells = len(s["deltas"]) * len(s["rhos"])

    def operations(self):
        return 2 * self.n_cells * self.size["trials"] + self.size["error_trials"]

    def experiments(self, index: int) -> list[tuple[str, str, dict]]:
        s = self.size
        master = pass_seed(self.seed, index)
        grid = {
            "n": s["n"], "delta_grid": list(s["deltas"]), "rho_grid": list(s["rhos"]),
            "trials": s["trials"], "master_seed": master,
        }
        return [
            ("iht", "mc-transition", {
                "kind": "mc_transition", **grid,
                "solver": {"variant": "iht", "alpha": s["alpha"], "max_iters": s["max_iters"]},
            }),
            ("niht", "mc-transition", {
                "kind": "mc_transition", **grid,
                "solver": {"variant": "niht", "max_iters": s["max_iters"]},
            }),
            ("error", "mc-error", {
                "kind": "mc_error_vs_xi", "n": s["error_n"], "delta": s["error_delta"],
                "rho": self.error_rho, "sigma": s["error_sigma"], "trials": s["error_trials"],
                "master_seed": master,
                "solver": {"variant": "iht", "max_iters": s["max_iters"]},
            }),
        ]

    def body(self, index, lap):
        out_dir = self.pass_dir(index)
        codes = {}
        for label, command, config in self.experiments(index):
            config_path = out_dir / f"{label}.config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            codes[label] = cli.run_cli([
                command, "--config", str(config_path),
                "--out", str(out_dir / f"{label}.json"),
                "--trial-csv", str(out_dir / f"{label}.csv"),
            ])
            lap()
        return codes

    def check(self, index, codes):
        s = self.size
        out_dir = self.pass_dir(index)
        failed = iterations = 0
        outputs: dict = {}
        for label, _, config in self.experiments(index):
            is_map = config["kind"] == "mc_transition"
            expected = self.n_cells * s["trials"] if is_map else s["error_trials"]
            try:
                if codes[label] != 0:
                    raise ValueError(f"exit code {codes[label]}")
                summary_doc = json.loads((out_dir / f"{label}.json").read_text(encoding="utf-8"))
                rows = _read_rows(out_dir / f"{label}.csv")
                if is_map:
                    bad, kept = self._check_map(rows, summary_doc, config)
                    outputs[label] = kept
                else:
                    bad, outputs[label] = self._check_error(rows, summary_doc["summary"], expected)
                iterations += sum(int(row["iterations"]) for row in rows)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"{self.name}: pass {index} {label}: {exc!r}", file=sys.stderr)
                bad = expected
            failed += min(bad, expected)
        trials = self.operations()
        return PassResult(trials, failed, outputs, counts={"trials": trials, "iterations": iterations})

    def _check_map(self, rows, doc, config):
        """Invalid rows plus trials of cells whose summary disagrees with the rows."""
        trials, max_iters = config["trials"], config["solver"]["max_iters"]
        expected = {(cell, t) for cell in range(self.n_cells) for t in range(trials)}
        seen, bad, kept = set(), 0, []
        successes: dict[int, int] = {}
        for row in rows:
            key = (int(row["cell"]), int(row["trial"]))
            iters = int(row["iterations"])
            ok = (
                key in expected and key not in seen
                and row["termination"] in TERMINATIONS
                and 0 <= iters <= max_iters
                and row["success"] in ("True", "False")
            )
            seen.add(key)
            if not ok:
                bad += 1
                continue
            success = row["success"] == "True"
            successes[key[0]] = successes.get(key[0], 0) + success
            kept.append([key[0], key[1], iters, row["termination"], success])
        bad += len(expected - seen)
        for cell in doc["cells"]:
            if cell.get("successes", 0) != successes.get(cell["cell"], 0):
                bad += trials
        return bad, sorted(kept)

    def _check_error(self, rows, summary, expected):
        trials = sorted(int(row["trial"]) for row in rows)
        included = sum(row["included"] == "True" for row in rows)
        compliant = sum(row["compliant"] == "True" for row in rows)
        consistent = (
            trials == list(range(expected))
            and summary["trials"] == expected
            and summary["included"] == included
            and summary["compliant"] == compliant
            and compliant <= included
        )
        return (0 if consistent else expected), {"included": included, "compliant": compliant}

    def mismatches(self, outputs, reference):
        bad = 0
        for label in ("iht", "niht"):
            got = {tuple(r[:2]): r for r in outputs.get(label, [])}
            for ref in reference[label]:
                if got.get(tuple(ref[:2])) != ref:
                    bad += 1
        if outputs.get("error") != reference["error"]:
            bad += self.size["error_trials"]
        return bad


class SolveLarge(Workload):
    """IHT and N-IHT at (n, N, k) = (1000, 4000, 50), each trace re-verified;
    bound by mat-vecs, so it shows whether a small-n kernel change costs large n."""

    name = "solve-large"

    VARIANTS = ("iht", "niht")

    def operations(self):
        return len(self.VARIANTS)

    def body(self, index, lap):
        s = self.size
        master = pass_seed(self.seed, index)
        results = []
        for stream, variant in enumerate(self.VARIANTS):
            config = solvers.SolverConfig(
                variant=variant,
                alpha=s["alpha"] if variant == "iht" else None,
                max_iters=s["max_iters"],
            )
            instance = core.sample_instance(s["n"], s["N"], s["k"], 0.0, core.RngSpec(master, stream))
            trace = solvers.run_solver(instance, config)
            report = solvers.check_iterate_inequalities(trace, instance.A, instance.b)
            results.append((variant, instance.x_star, trace, report))
            lap()
        return results

    def check(self, index, results):
        outputs, failed, iterations = {}, 0, 0
        for variant, x_star, trace, report in results:
            final = trace.final
            ok = (
                report.ok
                and report.n_pairs == trace.n_iterations
                and trace.termination_reason in TERMINATIONS
                and bool(np.all(np.isfinite(final)))
            )
            failed += not ok
            iterations += trace.n_iterations
            err = float(np.linalg.norm(final - x_star))
            success = err <= SUCCESS_REL_TOL * float(np.linalg.norm(x_star))
            outputs[variant] = [trace.n_iterations, trace.termination_reason, success]
        return PassResult(len(self.VARIANTS), failed, outputs, counts={"iterations": iterations})

    def mismatches(self, outputs, reference):
        return sum(outputs.get(v) != reference[v] for v in self.VARIANTS)


class BoundCurves(Workload):
    """The figure-grid set: transition curves, stepsize and stability-factor
    grids; tail-root solves, bisection and provider queries only, no solver."""

    name = "bound-curves"
    # Its time is interpreted bisection (asymptotics._bisect_newton); with the
    # mixed kernel a quarter of the host's swing was left in the scaled time.
    calibration = "interpreted"

    def grids(self, index):
        s = self.size
        rng = np.random.default_rng([self.seed, index])
        deltas = np.sort(10.0 ** rng.uniform(-3.0, 0.0, s["n_delta"]))
        rhos = np.sort(rng.uniform(0.001, 0.5, s["n_rho"]))
        column = float(rng.uniform(0.1, 0.9))
        return deltas, rhos, column

    def body(self, index, lap):
        s = self.size
        deltas, rhos, column = self.grids(index)
        stride, kappa = s["stride"], s["kappa"]
        provider = rip.default_provider()
        emit = transitions.grid_emit
        calls = {
            "phase_iht": lambda: emit("phase_iht", provider, deltas),
            "phase_niht": lambda: emit("phase_niht", provider, deltas, kappa=kappa),
            "stepsize_iht": lambda: emit("stepsize_iht", provider, [column], rho_grid=rhos),
            "xi_iht": lambda: emit("xi_iht", provider, deltas[::stride], rho_grid=rhos[::stride]),
            "xi_niht": lambda: emit(
                "xi_niht", provider, deltas[::stride], rho_grid=rhos[::stride], kappa=kappa
            ),
        }
        out_dir = self.pass_dir(index)
        jobs = {}
        for name, call in calls.items():
            jobs[name] = call()
            transitions.write_grid_csv(out_dir / f"{name}.csv", jobs[name])
            lap()
        return jobs

    def operations(self):
        return sum(self.expected_points().values())

    def expected_points(self):
        s = self.size
        surface = len(range(0, s["n_delta"], s["stride"])) * len(range(0, s["n_rho"], s["stride"]))
        return {
            "phase_iht": s["n_delta"], "phase_niht": s["n_delta"], "stepsize_iht": s["n_rho"],
            "xi_iht": surface, "xi_niht": surface,
        }

    def check(self, index, jobs):
        expected = self.expected_points()
        attempted = self.operations()
        checkers = {"phase": self._bad_phase, "stepsize": self._bad_stepsize, "xi": self._bad_xi}
        failed = 0
        outputs = {}
        for name, count in expected.items():
            rows = jobs[name][1:]
            if len(rows) != count:
                failed += count
                continue
            outputs[name] = rows
            failed += sum(checkers[name.split("_")[0]](row) for row in rows)
        # Every N-IHT transition lies strictly below the IHT one.
        for iht, niht in zip(jobs["phase_iht"][1:], jobs["phase_niht"][1:]):
            rho_iht, rho_niht = float(iht.split(",")[1]), float(niht.split(",")[1])
            failed += not (rho_niht < rho_iht or rho_iht == transitions.RHO_BRACKET_HI)
        return PassResult(attempted, min(failed, attempted), outputs, counts={"points": attempted})

    @staticmethod
    def _bad_phase(row: str) -> bool:
        delta, rho_hat, residual = (float(v) for v in row.split(","))
        saturated = rho_hat == transitions.RHO_BRACKET_HI
        if not (0 < rho_hat <= transitions.RHO_BRACKET_HI):
            return True
        if not saturated and not residual <= TRANSITION_RESIDUAL_TOL:
            return True
        residuals = _tail_residuals(delta, rho_hat, (1.0 - rho_hat,), "tail_il")
        residuals.append(asymptotics.tail_if(delta, rho_hat).residual)
        return not all(abs(r) <= TAIL_RESIDUAL_TOL for r in residuals)

    @staticmethod
    def _bad_stepsize(row: str) -> bool:
        _, _, lo, hi = row.split(",")
        if lo == "" or hi == "":
            return lo != hi
        return not 0 < float(lo) < float(hi)

    @staticmethod
    def _bad_xi(row: str) -> bool:
        delta, rho, xi = row.split(",")
        if xi == "":
            return False
        delta, rho = float(delta), float(rho)
        if not (math.isfinite(float(xi)) and float(xi) > 0):
            return True
        residuals = _tail_residuals(delta, rho, (1.0 - rho, rho), "tail_iu")
        residuals.append(asymptotics.tail_if(delta, rho).residual)
        return not all(abs(r) <= TAIL_RESIDUAL_TOL for r in residuals)

    def mismatches(self, outputs, reference):
        bad = 0
        for name, ref_rows in reference.items():
            rows = outputs.get(name, [])
            if len(rows) != len(ref_rows):
                bad += len(ref_rows)
                continue
            # Phase rows end in the bisection residual, rounding noise that
            # ``_bad_phase`` bounds; the reference compares delta and rho_hat.
            columns = 2 if name.startswith("phase") else None
            bad += sum(not _fields_match(row, ref, columns) for row, ref in zip(rows, ref_rows))
        return bad


class StableDist(Workload):
    """mc-dist, stable-support enumeration and exact RIP constants: dense small
    linear algebra with no iterative solver, the only load on stablepoint and
    RIP enumeration."""

    name = "stable-dist"

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        s = self.size
        self.alpha = transitions.lhs_stable(s["enum_n"] / s["enum_N"], s["enum_k"] / s["enum_n"])

    def operations(self):
        s = self.size
        return s["dist_trials"] + s["enum_count"] + s["rip_count"]

    def body(self, index, lap):
        s = self.size
        master = pass_seed(self.seed, index)
        out_dir = self.pass_dir(index)
        code = cli.run_cli([
            "mc-dist", "--n", str(s["dist_n"]), "--k", str(s["dist_k"]),
            "--overlap", str(s["dist_overlap"]), "--sigma", str(s["dist_sigma"]),
            "--trials", str(s["dist_trials"]), "--seed", str(master),
            "--out", str(out_dir / "dist.json"), "--trial-csv", str(out_dir / "dist.csv"),
        ])
        lap()
        enumerations = []
        for i in range(s["enum_count"]):
            instance = core.sample_instance(
                s["enum_n"], s["enum_N"], s["enum_k"], 0.0, core.RngSpec(master, 10 + i)
            )
            reports = stablepoint.enumerate_stable_supports(
                instance.A, instance.b, s["enum_k"], self.alpha
            )
            truth = [int(j) for j in np.flatnonzero(instance.x_star)]
            enumerations.append([truth, [list(r.gamma.indices) for r in reports]])
            lap()
        constants = []
        for i in range(s["rip_count"]):
            A = core.sample_gaussian_matrix(s["rip_n"], s["rip_N"], core.RngSpec(master, 20 + i))
            c = rip.rip_exact(A, s["rip_order"])
            constants.append([c.L, c.U])
            lap()
        return code, enumerations, constants

    def check(self, index, raw):
        s = self.size
        code, enumerations, constants = raw
        trials = s["dist_trials"]
        attempted = self.operations()
        failed = 0
        ks = []
        out_dir = self.pass_dir(index)
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            summary = json.loads((out_dir / "dist.json").read_text(encoding="utf-8"))["summary"]
            rows = _read_rows(out_dir / "dist.csv")
            if sorted(int(r["trial"]) for r in rows) != list(range(trials)):
                raise ValueError("trial rows do not match the trials attempted")
            flags = ("viol_42", "viol_43", "viol_44")
            failed += sum(any(row[f] != "False" for f in flags) for row in rows)
            if any(summary[f"violations_{f[5:]}"] != 0 for f in flags):
                failed = trials
            ks = [(summary[key], trials, None) for key in KS_ONE_SAMPLE]
            ks += [(summary[key], trials, trials) for key in KS_TWO_SAMPLE]
            within_99 = all(summary[key] <= summary["ks_critical_99"] for key in KS_ONE_SAMPLE) and all(
                summary[key] <= summary["ks_two_sample_critical_99"] for key in KS_TWO_SAMPLE
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"{self.name}: pass {index} mc-dist: {exc!r}", file=sys.stderr)
            failed, within_99 = trials, False
        for truth, stable in enumerations:
            failed += truth not in stable or any(len(g) != s["enum_k"] for g in stable)
        for L, U in constants:
            failed += not (0.0 <= L < 1.0 and 0.0 <= U < math.inf)
        outputs = {"enumerations": enumerations, "rip": constants, "ks_within_99": within_99}
        return PassResult(
            attempted, min(failed, attempted), outputs,
            counts={"trials": trials}, ks=ks,
        )

    def mismatches(self, outputs, reference):
        bad = sum(
            got != ref for got, ref in zip(outputs["enumerations"], reference["enumerations"])
        )
        for got, ref in zip(outputs["rip"], reference["rip"]):
            bad += any(abs(a - b) > RIP_REFERENCE_TOL * max(1.0, abs(b)) for a, b in zip(got, ref))
        # At the default seed the first pass must also pass every KS test at 99%.
        if not outputs["ks_within_99"]:
            bad += self.size["dist_trials"]
        return bad


WORKLOADS = {cls.name: cls for cls in (RecoveryMap, SolveLarge, BoundCurves, StableDist)}

# Sizes: "full" is the benchmark; "tiny" runs every code path in seconds for
# the benchmark's own smoke test.
SIZES = {
    "full": {
        "recovery-map": {
            "n": 60, "deltas": (0.3, 0.5, 0.8), "rhos": (0.05, 0.1, 0.2, 0.3), "trials": 2,
            "alpha": 0.65, "max_iters": 1000,
            "error_n": 400, "error_delta": 0.5, "error_sigma": 0.1, "error_trials": 10,
        },
        "solve-large": {"n": 1000, "N": 4000, "k": 50, "alpha": 0.65, "max_iters": 1000},
        "bound-curves": {"n_delta": 100, "n_rho": 100, "stride": 4, "kappa": 1.1},
        "stable-dist": {
            "dist_n": 100, "dist_k": 10, "dist_overlap": 5, "dist_sigma": 1.0, "dist_trials": 2000,
            "enum_n": 20, "enum_N": 30, "enum_k": 2, "enum_count": 4,
            "rip_n": 12, "rip_N": 24, "rip_order": 4, "rip_count": 2,
        },
    },
    "tiny": {
        "recovery-map": {
            "n": 20, "deltas": (0.5,), "rhos": (0.1, 0.2), "trials": 1,
            "alpha": 0.65, "max_iters": 50,
            "error_n": 40, "error_delta": 0.5, "error_sigma": 0.1, "error_trials": 2,
        },
        "solve-large": {"n": 100, "N": 400, "k": 5, "alpha": 0.65, "max_iters": 200},
        "bound-curves": {"n_delta": 8, "n_rho": 8, "stride": 4, "kappa": 1.1},
        "stable-dist": {
            "dist_n": 100, "dist_k": 10, "dist_overlap": 5, "dist_sigma": 1.0, "dist_trials": 50,
            "enum_n": 20, "enum_N": 30, "enum_k": 2, "enum_count": 1,
            "rip_n": 8, "rip_N": 12, "rip_order": 3, "rip_count": 1,
        },
    },
}
