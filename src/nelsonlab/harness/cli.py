"""Command-line interface: solve, sample, verify, correlate, report."""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from ..errors import InputError, NelsonlabError
from ..fields import (analytic_oracle, diffusion_params, continue_to_imaginary,
                      drift_fields, export_snapshots, ho_ground_density,
                      solve_schrodinger)
from ..grids import Grid1D
from ..sampler import (density_histogram, estimate_backward_drift,
                       estimate_forward_drift, export_ensemble_binary,
                       export_ensemble_csv, export_table_csv, sample_initial,
                       simulate_ensemble)
from .checks import MONTE_CARLO_CHECKS
from .config import ExperimentConfig, load_config
from .report import INCONCLUSIVE, CheckRecord, Report
from .suite import DEFAULT_OUT_ENV, run_experiment, verify_suite


_FLAGS = {
    "seed": dict(type=int, default=42),
    "nu": dict(type=float, default=None,
               help="diffusion constant (real mode)"),
    "beta": dict(type=float, default=None,
                 help="alternative parameterization; z = 1/sqrt(1 - beta/2)"),
    "grid-n": dict(type=int, default=801),
    "grid-x-max": dict(type=float, default=8.0),
    "dt": dict(type=float, default=1e-3),
    "paths": dict(type=int, default=100_000),
    "out": dict(type=str, default=None,
                help=f"output directory (default ${DEFAULT_OUT_ENV} or ./out)"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str):
    """Declare the shared flags a subcommand reads, by name."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(DEFAULT_OUT_ENV) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _params(args):
    if args.beta is not None:
        return diffusion_params("beta", args.beta)
    return diffusion_params("nu", args.nu if args.nu is not None else 0.5)


def _grid(args) -> Grid1D:
    return Grid1D(-args.grid_x_max, args.grid_x_max, args.grid_n)


def cmd_solve(args) -> int:
    grid = _grid(args)
    out = _out_dir(args)
    state_params = {}
    if args.state == "ho_coherent":
        state_params["x0"] = args.x0
    if args.state == "free_gaussian":
        state_params["sigma0"] = args.sigma0
    times = [0.0]
    ws0 = analytic_oracle(args.state, state_params, grid, times)
    V = 0.5 * grid.x ** 2 if args.state.startswith("ho") else np.zeros(grid.n)
    sol = solve_schrodinger(V, ws0.psi[0], grid, args.dt, args.steps,
                            store_every=max(1, args.steps // args.snapshots))
    p = _params(args)
    files = export_snapshots(out / "density", grid, sol.times,
                             np.abs(sol.psi) ** 2, stem="density", params=p)
    print(f"wrote {len(files)} density snapshots under {out / 'density'}")
    return 0


def cmd_sample(args) -> int:
    grid = _grid(args)
    out = _out_dir(args)
    p = _params(args)
    ws = analytic_oracle("ho_ground", None, grid, [0.0])
    df = drift_fields(ws, p)
    x0 = sample_initial(ho_ground_density(grid.x), grid, args.paths, args.seed)
    e = simulate_ensemble(df, x0, p, args.dt, args.steps, args.seed)
    export_ensemble_binary(out / "ensemble.bin", e)
    if args.csv:
        export_ensemble_csv(out / "ensemble.csv", e)
    j = e.n_steps // 2
    export_table_csv(out / "forward_drift.csv",
                     estimate_forward_drift(e, j, bins=40))
    export_table_csv(out / "backward_drift.csv",
                     estimate_backward_drift(e, j, bins=40))
    edges, dens, se = density_histogram(e, e.n_steps, bins=60)
    with (out / "density_histogram.csv").open("w") as fh:
        fh.write("bin_center,density,std_error\n")
        for c, d, s in zip(0.5 * (edges[:-1] + edges[1:]), dens, se):
            fh.write(f"{c!r},{d!r},{s!r}\n")
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
    report = verify_suite(args.level, cfg)
    _print_report(report)
    # a record is named after its check, with an optional [member] suffix
    if args.level == "full" and all(
            r.status == INCONCLUSIVE for r in report.records
            if r.name.split("[")[0] in MONTE_CARLO_CHECKS):
        print(f"no Monte Carlo check was decided at --paths {args.paths}: "
              "the statistical claims were not verified")
    out = _out_dir(args)
    report.write(out / f"verify_{args.level}.json")
    print(f"report: {out / f'verify_{args.level}.json'}")
    return 0 if report.passed else 1


def cmd_correlate(args) -> int:
    from ..algebra import two_time_position_correlation
    grid = _grid(args)
    out = _out_dir(args)
    ws = analytic_oracle("ho_ground", None, grid, [0.0])
    V = 0.5 * grid.x ** 2
    if args.mode == "real":
        p = _params(args)
    else:
        p = continue_to_imaginary(_params(args), args.mode)
    try:
        s_values = [float(s) for s in args.s.split(",")]
    except ValueError:
        raise InputError("--s must be comma-separated lag times; "
                         f"got {args.s!r}") from None
    rows = list(zip(s_values, map(complex, two_time_position_correlation(
        ws, p, s_values, V))))
    for s, c in rows:
        print(f"s = {s:g}: matrix element = {c.real:+.6f} {c.imag:+.6f}i")
    with (out / "correlation_curve.csv").open("w") as fh:
        fh.write("s,matrix_element_re,matrix_element_im\n")
        for s, c in rows:
            fh.write(f"{s!r},{c.real!r},{c.imag!r}\n")
    print(f"curve: {out / 'correlation_curve.csv'}")
    return 0


def cmd_report(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        report = run_experiment(cfg, out_dir=args.out)
        _print_report(report)
        return 0 if report.passed else 1
    raw = json.loads(Path(args.path).read_text())
    print(f"schema {raw.get('schema_version')}, created {raw.get('created_at')}")
    _print_report(Report(
        records=[CheckRecord(**rec) for rec in raw.get("records", [])],
        environment=raw.get("environment", {}),
        created_at=raw.get("created_at", "")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nelsonlab",
        description="diffusion-family laboratory: solvers, samplers, "
                    "operator algebra, verification suite")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="evolve a state and export densities")
    _add_flags(ps, "nu", "beta", "grid-n", "grid-x-max", "dt", "out")
    ps.add_argument("--state", choices=("ho_ground", "ho_coherent",
                                        "free_gaussian"), default="ho_coherent")
    ps.add_argument("--x0", type=float, default=1.0)
    ps.add_argument("--sigma0", type=float, default=1.0)
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
    pr.add_argument("--path", type=str, default="out/report.json")
    pr.add_argument("--config", type=str, default=None,
                    help="JSON experiment config to execute")
    pr.add_argument("--out", type=str, default=None)
    pr.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NelsonlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
