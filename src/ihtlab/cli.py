"""Command-line front end.

Subcommands: solve, rip, tailbound, phase-bound, stability, mc-transition,
mc-dist, mc-error.  Each takes its inputs as flags, and the three experiment
subcommands (mc-*) also accept a JSON config that the flags override.  Each
writes CSV/JSON where asked and prints a one-line summary.  Exit codes:
0 success, 2 configuration error (also a request past an enumeration
budget), 3 numerical-domain error, 64 unknown subcommand.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .asymptotics import TailInputs, tail_if, tail_il, tail_iu
from .core import RngSpec, sample_gaussian_matrix, sample_instance
from .errors import (
    BudgetExceededError,
    ConfigError,
    IhtLabError,
    InvalidArgumentError,
    NumericalDomainError,
    TableFormatError,
)
from .experiments import (
    EXPERIMENT_FIELDS,
    KIND_DISTRIBUTION,
    KIND_ERROR_VS_XI,
    KIND_TRANSITION,
    ExperimentConfig,
    check_output_path,
    read_config,
    run_experiment,
    write_json,
)
from .rip import load_provider, rip_exact, rip_monte_carlo
from .solvers import SOLVER_FIELDS, VARIANT_IHT, SolverConfig, run_solver
from .transitions import (
    XI_NIHT_AS_PRINTED,
    XI_NIHT_VARIANTS,
    default_delta_grid,
    grid_emit,
    stability_factor_iht,
    stability_factor_niht,
    write_grid_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

USAGE = (
    "usage: ihtlab <subcommand> [options]\n"
    "subcommands: solve rip tailbound phase-bound stability "
    "mc-transition mc-dist mc-error"
)


def _emit(out: Path | None, payload: dict, line: str) -> int:
    """Write ``payload`` to ``out`` as strict JSON when ``out`` is given, print
    ``line``, and return ``EXIT_OK``: the end of every JSON subcommand."""
    if out:
        write_json(out, payload)
    print(line)
    return EXIT_OK


# The Python type of a flag's value, by its row's JSON type; other flags take strings.
_FLAG_TYPES = {"integer": int, "number": float, "number?": float}


def _variant_flags(args, unread: dict[str, tuple[str, ...]], **defaults) -> None:
    """Refuse the flags (by dest) that ``unread`` lists for ``args.variant``, as a solver section refuses
    a key its variant never reads; then fill ``defaults`` in for the others left out (None)."""
    skip = unread.get(args.variant, ())
    given = [f"--{dest.replace('_', '-')}" for dest in skip if getattr(args, dest) is not None]
    if given:
        raise ConfigError(f"flags {given} are not read by variant {args.variant!r}")
    vars(args).update((dest, v) for dest, v in defaults.items() if dest not in skip and getattr(args, dest) is None)


def _cmd_solve(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="ihtlab solve", description="Run one solver instance")
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--N", type=int, default=200)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--sigma", type=float, default=0.0)
    # The flag of each SOLVER_FIELDS row; one left out takes its row's default, but IHT's alpha is 0.65.
    for key, row in SOLVER_FIELDS.items():
        parser.add_argument(row.flag, dest=key, type=_FLAG_TYPES.get(row.type, str))
    parser.set_defaults(variant=VARIANT_IHT)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--coefficient-model", default="gaussian")
    parser.add_argument("--out", type=Path, default=None, help="write the solution as JSON")
    args = parser.parse_args(argv)
    _variant_flags(args, {"iht": ("kappa", "c"), "niht": ("alpha",)}, alpha=0.65)
    check_output_path("--out", args.out)
    config = SolverConfig(**{key: getattr(args, key) for key in SOLVER_FIELDS if getattr(args, key) is not None})
    instance = sample_instance(
        args.n, args.N, args.k, args.sigma, RngSpec(args.seed), args.coefficient_model
    )
    trace = run_solver(instance, config)
    # A diverged iterate has no finite error; write_json records it as null.
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.linalg.norm(trace.final - instance.x_star))
    return _emit(args.out, {
        "error": err,
        "iterations": trace.n_iterations,
        "termination": trace.termination_reason,
        "objective": trace.iterates[-1].objective,
        "support": list(trace.iterates[-1].support.indices),
        "x": [float(v) for v in trace.final],
    }, f"solve {args.variant}: error={err:.3e} iterations={trace.n_iterations} "
       f"termination={trace.termination_reason}")


def _cmd_rip(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="ihtlab rip", description="RIP constants of a sampled matrix")
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--N", type=int, default=18)
    parser.add_argument("--order", type=int, default=4)
    parser.add_argument("--method", choices=["exact", "monte_carlo"], default="exact")
    parser.add_argument("--trials", type=int, default=1000, help="supports sampled in monte_carlo mode")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    check_output_path("--out", args.out)
    A = sample_gaussian_matrix(args.n, args.N, RngSpec(args.seed))
    if args.method == "exact":
        constants = rip_exact(A, args.order)
    else:
        constants = rip_monte_carlo(A, args.order, args.trials, RngSpec(args.seed, 1))
    return _emit(args.out, {
        "n": args.n, "N": args.N, "order": constants.s, "L": constants.L, "U": constants.U,
        "method": constants.method, "general_position": constants.general_position,
    }, f"rip order={constants.s} L={constants.L:.6f} U={constants.U:.6f} "
       f"method={constants.method} general_position={constants.general_position}")


def _cmd_tailbound(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="ihtlab tailbound", description="Tail-bound roots at one point")
    parser.add_argument("--delta", type=float, required=True)
    parser.add_argument("--rho", type=float, required=True)
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    check_output_path("--out", args.out)
    inputs = TailInputs(args.delta, args.rho, args.lam)
    nu_u = tail_iu(inputs)
    nu_l = tail_il(inputs)
    f_res = tail_if(args.delta, args.rho)
    return _emit(args.out, {
        "delta": args.delta, "rho": args.rho, "lambda": args.lam,
        "nu_upper": nu_u.value, "nu_upper_residual": nu_u.residual,
        "nu_lower": nu_l.value, "nu_lower_residual": nu_l.residual,
        "f": f_res.value, "f_residual": f_res.residual,
    }, f"tailbound delta={args.delta} rho={args.rho} lambda={args.lam}: "
       f"nu_U={nu_u.value:.12g} (resid {nu_u.residual:.2e}) "
       f"nu_L={nu_l.value:.12g} (resid {nu_l.residual:.2e}) "
       f"f={f_res.value:.12g} (resid {f_res.residual:.2e})")


def _cmd_phase_bound(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="ihtlab phase-bound", description="Phase transition curve as CSV")
    parser.add_argument("--variant", choices=["iht", "niht"], default="iht")
    parser.add_argument("--kappa", type=float, default=None, help="N-IHT only")
    parser.add_argument("--rip-table", type=str, default=None)
    parser.add_argument("--grid-points", type=int, default=100)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    _variant_flags(args, {"iht": ("kappa",)}, kappa=SOLVER_FIELDS["kappa"].default)
    check_output_path("--out", args.out)
    provider = load_provider(args.rip_table)
    grid = default_delta_grid(args.grid_points)
    kind = "phase_iht" if args.variant == "iht" else "phase_niht"
    rows = grid_emit(kind, provider, grid, kappa=args.kappa)
    write_grid_csv(args.out, rows)
    print(f"phase-bound {args.variant}: wrote {len(rows) - 1} rows to {args.out}")
    return EXIT_OK


def _cmd_stability(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="ihtlab stability", description="Stability factor at one point")
    parser.add_argument("--variant", choices=["iht", "niht"], default="iht")
    parser.add_argument("--delta", type=float, required=True)
    parser.add_argument("--rho", type=float, required=True)
    parser.add_argument("--alpha", type=float, default=None, help="IHT only; default interval midpoint")
    parser.add_argument("--kappa", type=float, default=None, help="N-IHT only")
    parser.add_argument("--xi-variant", choices=list(XI_NIHT_VARIANTS), default=None, help="N-IHT only")
    parser.add_argument("--rip-table", type=str, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    _variant_flags(args, {"iht": ("kappa", "xi_variant"), "niht": ("alpha",)},
                   kappa=SOLVER_FIELDS["kappa"].default, xi_variant=XI_NIHT_AS_PRINTED)
    check_output_path("--out", args.out)
    provider = load_provider(args.rip_table)
    if args.variant == "iht":
        result = stability_factor_iht(args.delta, args.rho, provider, alpha=args.alpha)
        return _emit(args.out, {
            "variant": "iht", "delta": args.delta, "rho": args.rho, "alpha": result.alpha,
            "a": result.a, "xi": result.xi, "alpha_interval": result.interval,
        }, f"stability iht delta={args.delta} rho={args.rho} alpha={result.alpha:.6g}: "
           f"a={result.a:.6g} xi={result.xi:.6g} interval={result.interval}")
    result = stability_factor_niht(args.delta, args.rho, args.kappa, provider, xi_variant=args.xi_variant)
    return _emit(args.out, {
        "variant": "niht", "delta": args.delta, "rho": args.rho, "kappa": args.kappa,
        "xi_variant": args.xi_variant, "a": result.a, "xi": result.xi,
    }, f"stability niht delta={args.delta} rho={args.rho} kappa={args.kappa}: "
       f"a={result.a:.6g} xi={result.xi:.6g} ({args.xi_variant})")


def _experiment_command(kind: str, prog: str, argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog=prog, description=f"Run a {kind} experiment")
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    # The flag of each key the kind takes, whose dest is that key.
    for key, row in EXPERIMENT_FIELDS.items():
        if row.flag and kind in row.required + row.optional:
            parser.add_argument(row.flag, dest=key, type=_FLAG_TYPES.get(row.type, str))
    overrides = vars(parser.parse_args(argv))
    config_path = overrides.pop("config")
    data: dict = {"kind": kind}
    if config_path:
        data = read_config(config_path)
        data.setdefault("kind", kind)
        if data["kind"] != kind:
            raise ConfigError(f"config kind {data['kind']!r} does not match subcommand {kind!r}")
    data.update((key, value) for key, value in overrides.items() if value is not None)
    config = ExperimentConfig.from_dict(data)
    result = run_experiment(config)
    brief = {
        k: v
        for k, v in result.summary.items()
        if isinstance(v, (int, float, str)) and not isinstance(v, bool)
    }
    shown = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in list(brief.items())[:6])
    print(f"{kind}: {shown}" + (f" -> {config.output_path}" if config.output_path else ""))
    return EXIT_OK


COMMANDS = {
    "solve": _cmd_solve,
    "rip": _cmd_rip,
    "tailbound": _cmd_tailbound,
    "phase-bound": _cmd_phase_bound,
    "stability": _cmd_stability,
    "mc-transition": lambda argv: _experiment_command(KIND_TRANSITION, "ihtlab mc-transition", argv),
    "mc-dist": lambda argv: _experiment_command(KIND_DISTRIBUTION, "ihtlab mc-dist", argv),
    "mc-error": lambda argv: _experiment_command(KIND_ERROR_VS_XI, "ihtlab mc-error", argv),
}


def run_cli(argv: list[str]) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return EXIT_OK if argv else EXIT_USAGE
    command = argv[0]
    handler = COMMANDS.get(command)
    if handler is None:
        print(f"unknown subcommand {command!r}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return EXIT_USAGE
    return run_mapped(handler, argv[1:])


def run_mapped(handler, argv: list[str]) -> int:
    """``handler(argv)``'s exit code; a refusal prints one line on stderr, not a traceback."""
    try:
        return handler(argv)
    except SystemExit as exc:
        # argparse reports flag misuse on stderr and raises SystemExit(2).
        return EXIT_CONFIG if exc.code else EXIT_OK
    except (ConfigError, TableFormatError, InvalidArgumentError, BudgetExceededError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalDomainError, IhtLabError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
