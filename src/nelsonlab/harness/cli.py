"""Command-line interface: solve, sample, verify, correlate, report."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from ..errors import InputError, NelsonlabError
from ..fields import (analytic_oracle, diffusion_params, continue_to_imaginary,
                      drift_fields, ho_ground_density, ho_potential,
                      solve_schrodinger)
from ..grids import Grid1D
from ..sampler import (density_histogram, estimate_backward_drift,
                       estimate_forward_drift, sample_initial,
                       simulate_ensemble)
from .checks import MONTE_CARLO_CHECKS
from .config import MAX_SEED, ExperimentConfig, load_config
from .files import (DEFAULT_OUT_ENV, SNAPSHOT_STEM, export_ensemble_binary,
                    export_ensemble_csv, export_snapshots, export_table_csv,
                    make_dir, read_report, resolve_out_dir, write_float_csv)
from .report import INCONCLUSIVE, SCHEMA_VERSION, Report
from .suite import run_experiment, verify_suite


_FLAGS = {
    "seed": dict(type=int, default=42),
    "nu": dict(type=float, default=None,
               help="diffusion constant (real mode); default 0.5"),
    "beta": dict(type=float, default=None,
                 help="alternative to --nu; z = 1/sqrt(1 - beta/2)"),
    "grid-n": dict(type=int, default=801),
    "grid-x-max": dict(type=float, default=8.0),
    "dt": dict(type=float, default=1e-3),
    "paths": dict(type=int, default=100_000),
    "out": dict(type=str, default=None,
                help=f"output directory (default ${DEFAULT_OUT_ENV}, "
                     "then ./out)"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str):
    """Declare the shared flags a subcommand reads, by name."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _params(args):
    if args.nu is not None and args.beta is not None:
        raise InputError("--nu and --beta name the same member two ways; "
                         "give one")
    if args.beta is not None:
        return diffusion_params("beta", args.beta)
    return diffusion_params("nu", args.nu if args.nu is not None else 0.5)


def _grid(args) -> Grid1D:
    return Grid1D(-args.grid_x_max, args.grid_x_max, args.grid_n)


def cmd_solve(args) -> int:
    if args.steps < 1:
        raise InputError(f"--steps must be >= 1, got {args.steps}")
    if args.snapshots < 1:
        raise InputError(f"--snapshots must be >= 1, got {args.snapshots}")
    # t = 0 and every (steps / snapshots)-th step: exactly --snapshots more
    if args.steps % args.snapshots:
        raise InputError(f"--snapshots ({args.snapshots}) must divide "
                         f"--steps ({args.steps})")
    where = resolve_out_dir(args.out) / SNAPSHOT_STEM
    grid = _grid(args)
    # the oracle rejects a parameter that its state does not take
    state_params = {k: v for k in ("x0", "sigma0")
                    if (v := getattr(args, k)) is not None}
    ws0 = analytic_oracle(args.state, state_params, grid, [0.0])
    V = ho_potential(grid.x) if args.state.startswith("ho") else np.zeros(grid.n)
    sol = solve_schrodinger(V, ws0.psi[0], grid, args.dt, args.steps,
                            store_every=args.steps // args.snapshots)
    files = export_snapshots(where, grid, sol.times, np.abs(sol.psi) ** 2)
    print(f"wrote {len(files)} density snapshots under {where}")
    return 0


def cmd_sample(args) -> int:
    # the drift tables are estimated at step steps // 2, and the backward
    # drift needs a step after the initial one
    if args.steps < 2:
        raise InputError(f"--steps must be >= 2, got {args.steps}")
    if args.paths < 1:
        raise InputError(f"--paths must be >= 1, got {args.paths}")
    if not 0 <= args.seed <= MAX_SEED:
        raise InputError(f"--seed must be in [0, 2**64 - 4], got {args.seed}")
    out = resolve_out_dir(args.out)
    grid = _grid(args)
    p = _params(args)
    ws = analytic_oracle("ho_ground", None, grid, [0.0])
    df = drift_fields(ws, p)
    x0 = sample_initial(ho_ground_density(grid.x), grid, args.paths, args.seed)
    e = simulate_ensemble(df, x0, p, args.dt, args.steps, args.seed)
    make_dir(out)
    export_ensemble_binary(out / "ensemble.bin", e)
    if args.csv:
        export_ensemble_csv(out / "ensemble.csv", e)
    j = e.n_steps // 2
    export_table_csv(out / "forward_drift.csv",
                     estimate_forward_drift(e, j, bins=40))
    export_table_csv(out / "backward_drift.csv",
                     estimate_backward_drift(e, j, bins=40))
    edges, dens, se = density_histogram(e, e.n_steps, bins=60)
    write_float_csv(out / "density_histogram.csv",
                    ["bin_center", "density", "std_error"],
                    zip(0.5 * (edges[:-1] + edges[1:]), dens, se))
    print(f"ensemble ({e.n_paths} paths, {e.n_steps} steps) and estimator "
          f"tables written under {out}")
    return 0


def _print_report(report: Report):
    """One line per record, then the status counts."""
    for line in report.lines():
        print(line)
    counts = report.counts()
    print(f"\n{counts['pass']} passed, {counts['fail']} failed, "
          f"{counts['fail_expected']} failed-as-documented, "
          f"{counts['inconclusive']} inconclusive")


def cmd_verify(args) -> int:
    cfg = ExperimentConfig()
    cfg.sde.seed = args.seed
    cfg.sde.n_paths = args.paths
    # a config or an --out that cannot be used is refused before the run
    cfg.validate()
    out = make_dir(resolve_out_dir(args.out))
    report = verify_suite(args.level, cfg)
    _print_report(report)
    # a record is named after its check, with an optional [member] suffix
    if args.level == "full" and all(
            r.status == INCONCLUSIVE for r in report.records
            if r.name.split("[")[0] in MONTE_CARLO_CHECKS):
        print(f"no Monte Carlo check was decided at --paths {args.paths}: "
              "the statistical claims were not verified")
    report.write(out / f"verify_{args.level}.json")
    print(f"report: {out / f'verify_{args.level}.json'}")
    return 0 if report.passed else 1


def cmd_correlate(args) -> int:
    from ..algebra import two_time_position_correlation
    out = resolve_out_dir(args.out)
    grid = _grid(args)
    ws = analytic_oracle("ho_ground", None, grid, [0.0])
    if args.mode == "real":
        p = _params(args)
    elif args.nu is not None or args.beta is not None:
        raise InputError(f"--mode {args.mode} takes neither --nu nor --beta: "
                         "every real member continues to the same point")
    else:
        p = continue_to_imaginary(_params(args), args.mode)
    try:
        s_values = [float(s) for s in args.s.split(",")]
    except ValueError:
        raise InputError("--s must be comma-separated lag times; "
                         f"got {args.s!r}") from None
    rows = list(zip(s_values, map(complex, two_time_position_correlation(
        ws, p, s_values))))
    for s, c in rows:
        print(f"s = {s:g}: matrix element = {c.real:+.6f} {c.imag:+.6f}i")
    make_dir(out)
    write_float_csv(out / "correlation_curve.csv",
                    ["s", "matrix_element_re", "matrix_element_im"],
                    [(s, c.real, c.imag) for s, c in rows])
    print(f"curve: {out / 'correlation_curve.csv'}")
    return 0


def cmd_report(args) -> int:
    if args.config and args.path:
        raise InputError("--config runs a config and --path reads a stored "
                         "report; give one")
    if args.path and args.out:
        raise InputError("--path names the stored report, so --out would "
                         "not be read; give one")
    if args.config:
        cfg = load_config(args.config)
        report = run_experiment(
            cfg, out_dir=resolve_out_dir(args.out, cfg.out_dir))
        _print_report(report)
        return 0 if report.passed else 1
    report = read_report(args.path
                         or resolve_out_dir(args.out) / "report.json")
    print(f"schema {SCHEMA_VERSION}, created {report.created_at}")
    _print_report(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nelsonlab",
        description="diffusion-family laboratory: solvers, samplers, "
                    "operator algebra, verification suite")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="evolve a state and export densities")
    _add_flags(ps, "grid-n", "grid-x-max", "dt", "out")
    ps.add_argument("--state", choices=("ho_ground", "ho_coherent",
                                        "free_gaussian"), default="ho_coherent")
    ps.add_argument("--x0", type=float, default=None,
                    help="packet center (ho_coherent, free_gaussian)")
    ps.add_argument("--sigma0", type=float, default=None,
                    help="packet width (free_gaussian)")
    ps.add_argument("--steps", type=int, default=6280)
    ps.add_argument("--snapshots", type=int, default=20)
    ps.set_defaults(fn=cmd_solve)

    pm = sub.add_parser("sample", help="simulate an ensemble and export "
                                       "estimator tables")
    _add_flags(pm, "seed", "nu", "beta", "grid-n", "grid-x-max", "dt",
               "paths", "out")
    pm.add_argument("--steps", type=int, default=100)
    pm.add_argument("--csv", action="store_true",
                    help="also write the long-form ensemble CSV")
    pm.set_defaults(fn=cmd_sample)

    pv = sub.add_parser("verify", help="run the verification suite")
    _add_flags(pv, "seed", "paths", "out")
    pv.add_argument("--level", choices=("fast", "full"), default="fast")
    pv.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("correlate", help="two-time position matrix elements")
    _add_flags(pc, "nu", "beta", "grid-n", "grid-x-max", "out")
    pc.add_argument("--mode", choices=("real", "minus", "plus"),
                    default="real")
    pc.add_argument("--s", type=str, default="0.25,0.5,1.0",
                    help="comma-separated lag times")
    pc.set_defaults(fn=cmd_correlate)

    pr = sub.add_parser("report", help="summarize a stored report, or run "
                                       "a config file")
    pr.add_argument("--path", type=str, default=None,
                    help="stored report to summarize (default report.json "
                         "in the output directory)")
    pr.add_argument("--config", type=str, default=None,
                    help="JSON experiment config to execute")
    pr.add_argument("--out", type=str, default=None,
                    help="output directory (default the config's out_dir, "
                         f"then ${DEFAULT_OUT_ENV}, then ./out)")
    pr.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NelsonlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
