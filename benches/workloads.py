"""The benchmark's four workloads over nelsonlab's layers.

Each workload has a set-up (grids and reference states, paid once per
process and timed as ``setup_s``), a body (the timed pass, whose calls into
nelsonlab are wrapped in tracer spans), correctness gates over the body's
outputs, and a replay used only by the traced run to time the parts of
calls the program does not expose (one Euler-Maruyama step split into
noise, drift and reflection; one commutator of the recursion).

Gates use the tolerances of the verification suite and the test suite for
the same quantities, except the Monte Carlo gates.  The suite holds those
at three standard errors for one fixed seed; the benchmark draws a new seed
every run and gates hundreds of such statistics over a set of runs, where
3 SE would flag a correct program on about 0.27% of them.  So Monte Carlo
gates are held at ``GATE_SE`` = 5 standard errors (two-sided probability
``P_GATE`` of about 5.7e-7): a deviation in units of ``GATE_SE * SE``, or a
chi-square statistic divided by its critical value at ``P_GATE``, must stay
below 1.  The ensembles carry (5/3)^2 times the paths of a 3 SE design, so
that 5 SE is no wider in absolute terms than 3 SE was.
"""
from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import chdtri, ndtr

from nelsonlab import Grid1D, continue_to_imaginary, diffusion_params
from nelsonlab.algebra import (build_space, commutator, hamiltonian,
                               heisenberg_operator, mapped_velocity_operator,
                               momentum_operator, position_operator,
                               time_derivative_recursion,
                               two_time_position_correlation)
from nelsonlab.fields import (analytic_oracle, drift_fields,
                              evolve_density_fokker_planck, ho_ground_density,
                              l1_distance, solve_schrodinger)
from nelsonlab.harness import (FAST_CHECKS, INCONCLUSIVE, ExperimentConfig,
                               SdeConfig, verify_suite)
from nelsonlab.sampler import (density_histogram, estimate_forward_drift,
                               estimate_mean_acceleration,
                               estimate_quadratic_variation,
                               histogram_l1_distance, reflect, sample_initial,
                               simulate_ensemble, step_normals)

from tracing import duration

GATE_SE = 5.0                        # Monte Carlo gates, in standard errors
P_GATE = float(2.0 * ndtr(-GATE_SE))  # two-sided tail beyond GATE_SE
MIN_ASSERT_COUNT = 500               # bin occupancy the suite asserts on

# dense cost model for algebra.dense_flops: a complex n x n product costs
# 8 n^3 flops, a symmetric eigendecomposition with vectors about 9 n^3
COMPLEX_PRODUCT_FLOPS = 8
EIGH_FLOPS = 9


@dataclass
class Op:
    """One gated result: a measured value held against a limit."""

    name: str
    measured: float | str
    limit: float | str
    passed: bool


def below(name: str, value: float, limit: float) -> Op:
    value = float(value)
    return Op(name, value, limit, bool(np.isfinite(value) and value < limit))


def equal(name: str, measured, expected) -> Op:
    return Op(name, measured, f"== {expected}", measured == expected)


def chi_square_ratio(observed, expected, se=None) -> tuple[float, int]:
    """Chi-square over the given cells divided by its critical value at
    ``P_GATE``.

    With ``se`` the cells are estimates with standard errors; without it
    they are counts with Poisson variance ``expected``.
    """
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    var = expected if se is None else np.asarray(se, dtype=float) ** 2
    dof = observed.size
    if dof == 0:
        return float("inf"), 0
    stat = float(np.sum((observed - expected) ** 2 / var))
    return stat / float(chdtri(dof, P_GATE)), dof


def replay_steps(tr, e, df, seed: int, columns, steps_per_column: int):
    """Re-run Euler-Maruyama steps of ``e`` from its stored columns.

    Each step calls the same functions in the same order as
    ``simulate_ensemble``, one span per part.  When a replay covers a whole
    stored interval its result must equal the next stored column bit for
    bit, which shows the replay timed the step the sampler took.
    """
    dt = e.sde_dt
    every = int(round(e.dt / dt))
    sigma = np.sqrt(2.0 * e.params.nu_real * dt)
    lo, hi = e.x_min, e.x_max
    left = total = 0
    exact = True
    for c in columns:
        x = e.paths[:, c].copy()
        for k in range(steps_per_column):
            j = c * every + k
            with tr.span("sampler.step", n_paths=x.size):
                with tr.span("sampler.rng.step_normals"):
                    z = step_normals(seed, j, x.size)
                with tr.span("fields.b_at", static=df.static):
                    b = df.b_at(j * dt, x)
                x_next = x + b * dt + sigma * z
                with tr.span("sampler.reflect"):
                    x = reflect(x_next, lo, hi)
            left += int(np.count_nonzero((x_next < lo) | (x_next > hi)))
            total += x.size
        if steps_per_column == every:
            exact &= bool(np.array_equal(x, e.paths[:, c + 1]))
    return {"reflected_frac": left / total}, [
        equal("replay_reproduces_stored_paths", exact, True)]


def _bin_masses(edges, grid, rho) -> np.ndarray:
    """Probability of each bin under a nodal density (trapezoid CDF)."""
    cells = 0.5 * (rho[1:] + rho[:-1]) * grid.dx
    cdf = np.concatenate(([0.0], np.cumsum(cells)))
    return np.diff(np.interp(edges, grid.x, cdf / cdf[-1]))


class EnsembleStationary:
    """Ground-state (Ornstein-Uhlenbeck) ensembles at three family members."""

    name = "ensemble_stationary"
    NUS = (0.5, 1.0, 2.0)
    FULL_NU = 0.5            # the member that stores every step
    # 280k x 24 path-steps is 1.68 times 100k x 40, above 1.63, the ratio of
    # the 17-bin chi-square critical values at 5 and 3 sigma, so the drift
    # gate is no wider than a 3 SE gate at the suite's 100k paths
    SIZES = {"full": {"grid_n": 801, "n_paths": 280_000, "dt": 1e-3,
                      "n_steps": 24},
             "smoke": {"grid_n": 801, "n_paths": 100_000, "dt": 1e-3,
                       "n_steps": 8}}

    def setup(self, seed: int, size: str, tr):
        z = self.SIZES[size]
        grid = Grid1D(-8.0, 8.0, z["grid_n"])
        with tr.span("fields.analytic_oracle", n=grid.n):
            ws = analytic_oracle("ho_ground", None, grid, [0.0])
        return SimpleNamespace(
            seed=seed, grid=grid, ws=ws, rho0=ho_ground_density(grid.x),
            params={nu: diffusion_params("nu", nu) for nu in self.NUS},
            hist_edges=np.arange(-4.0, 4.001, 0.2),
            drift_edges=np.arange(-3.4, 3.401, 0.4),
            qvar_steps=range(z["n_steps"] // 8, z["n_steps"] * 7 // 8),
            refs={"density": ho_ground_density, "variance": 0.5,
                  "forward_drift": lambda nu, x: -2.0 * nu * x,
                  "quadratic_variation": lambda nu: 2.0 * nu},
            **z)

    def body(self, st, tr) -> dict:
        with tr.span("sampler.sample_initial", n_paths=st.n_paths):
            x0 = sample_initial(st.rho0, st.grid, st.n_paths, st.seed)
        counters = {"rng_draws": st.n_paths, "path_steps": 0,
                    "paths_bytes": 0}
        members = {}
        for nu in self.NUS:
            p = st.params[nu]
            with tr.span("fields.drift_fields", nu=nu):
                df = drift_fields(st.ws, p)
            work = st.n_paths * st.n_steps
            every = 1 if nu == self.FULL_NU else st.n_steps
            with tr.span("sampler.simulate_ensemble", nu=nu, path_steps=work):
                e = simulate_ensemble(df, x0, p, st.dt, st.n_steps, st.seed,
                                      store_every=every)
            counters["rng_draws"] += work
            counters["path_steps"] += work
            counters["paths_bytes"] += e.paths.nbytes
            m = {"final": e.positions(e.n_steps)}
            with tr.span("sampler.estimators", nu=nu):
                m["histogram"] = density_histogram(e, e.n_steps,
                                                   bins=st.hist_edges)
                if nu == self.FULL_NU:
                    m["forward"] = [estimate_forward_drift(
                        e, j, bins=st.drift_edges, min_count=MIN_ASSERT_COUNT)
                        for j in range(e.n_steps)]
                    m["qvar"] = [estimate_quadratic_variation(e, j, bins=32)
                                 for j in st.qvar_steps]
                    m["second_difference"] = estimate_mean_acceleration(
                        e, e.n_steps // 2)
            if nu == self.FULL_NU:
                use = np.logical_and.reduce([t.usable for t in m["forward"]])
                m["forward_bins"] = use
                counters["min_bin_count"] = int(min(
                    t.counts[use].min() for t in m["forward"]))
                replay = (e, df)
            members[nu] = m
        return {"members": members, "counters": counters, "replay": replay}

    def gates(self, st, out) -> list[Op]:
        refs = st.refs
        ops = []
        for nu, m in out["members"].items():
            edges, dens, _ = m["histogram"]
            ops.append(below(f"histogram_L1[nu={nu}]",
                             histogram_l1_distance(edges, dens,
                                                   refs["density"]), 0.02))
            n = m["final"].size
            se = refs["variance"] * np.sqrt(2.0 / (n - 1))
            ops.append(below(f"variance_dev_over_gate_se[nu={nu}]",
                             abs(m["final"].var() - refs["variance"])
                             / (GATE_SE * se), 1.0))
        nu = self.FULL_NU
        m = out["members"][nu]
        use = m["forward_bins"]
        counts = sum(t.counts for t in m["forward"])[use]
        est = sum(np.where(use, t.estimate * t.counts, 0.0)
                  for t in m["forward"])[use] / counts
        se = np.sqrt(sum(np.where(use, (t.std_error * t.counts) ** 2, 0.0)
                         for t in m["forward"])[use]) / counts
        centers = m["forward"][0].centers[use]
        ratio, _ = chi_square_ratio(est, refs["forward_drift"](nu, centers),
                                    se)
        ops.append(below(f"forward_drift_chi2_over_gate[nu={nu}]", ratio,
                         1.0))
        num = den = 0.0
        for t in m["qvar"]:
            ok = t.counts >= MIN_ASSERT_COUNT
            num += float(np.sum(t.estimate[ok] * t.counts[ok]))
            den += float(t.counts[ok].sum())
        qv_ref = refs["quadratic_variation"](nu)
        ops.append(below(f"quadratic_variation_rel_err[nu={nu}]",
                         abs(num / den - qv_ref) / qv_ref if den else np.inf,
                         0.02))
        ops.append(equal(f"second_difference_counts[nu={nu}]",
                         int(m["second_difference"].counts.sum()),
                         st.n_paths))
        return ops

    def replay(self, st, out, tr):
        e, df = out["replay"]
        return replay_steps(tr, e, df, st.seed, range(e.n_steps), 1)


class PacketTransport:
    """Coherent packet: Schrodinger solve, Fokker-Planck per member, and a
    Monte Carlo ensemble on the time-dependent drift."""

    name = "packet_transport"
    NUS = (0.5, 1.0, 2.0)
    MC_NU = 2.0
    X0 = 1.0
    SIZES = {"full": {"grid_n": 1601, "dt": 1e-3, "n_steps": 1560,
                      "store_every": 10, "mc_paths": 28_000, "mc_dt": 3.9e-3,
                      "mc_steps": 400},
             "smoke": {"grid_n": 1601, "dt": 1e-3, "n_steps": 160,
                       "store_every": 10, "mc_paths": 2_000, "mc_dt": 2e-3,
                       "mc_steps": 80}}

    def setup(self, seed: int, size: str, tr):
        z = self.SIZES[size]
        grid = Grid1D(-8.0, 8.0, z["grid_n"])
        t_end = z["mc_steps"] * z["mc_dt"]
        with tr.span("fields.analytic_oracle", n=grid.n):
            psi0 = analytic_oracle("ho_coherent", {"x0": self.X0}, grid,
                                   [0.0]).psi[0]
        with tr.span("fields.analytic_oracle", n=grid.n):
            rho_end = analytic_oracle("ho_coherent", {"x0": self.X0}, grid,
                                      [t_end]).rho(0)
        edges = np.arange(-4.0, 4.001, 0.2)
        refs = {"mean": self.X0 * np.cos(t_end), "variance": 0.5,
                "bin_masses": _bin_masses(edges, grid, rho_end)}
        return SimpleNamespace(
            seed=seed, grid=grid, V=0.5 * grid.x ** 2, psi0=psi0,
            hist_edges=edges,
            hist_cells=z["mc_paths"] * refs["bin_masses"] >= 5,
            refs=refs, **z)

    def body(self, st, tr) -> dict:
        with tr.span("fields.solve_schrodinger", steps=st.n_steps):
            sol = solve_schrodinger(st.V, st.psi0, st.grid, st.dt, st.n_steps,
                                    store_every=st.store_every)
        rho0 = np.exp(2 * sol.R[0])
        rho0 /= st.grid.trapezoid(rho0)
        quarter = st.n_steps // 4
        fp = {}
        for nu in self.NUS:
            with tr.span("fields.drift_fields", nu=nu):
                df = drift_fields(sol, diffusion_params("nu", nu))
            with tr.span("fields.evolve_density_fokker_planck", nu=nu,
                         steps=st.n_steps):
                fp[nu] = evolve_density_fokker_planck(
                    df, rho0, st.dt, st.n_steps, store_every=quarter).rho
            if nu == self.MC_NU:
                df_mc = df
        with tr.span("sampler.sample_initial", n_paths=st.mc_paths):
            x0 = sample_initial(np.abs(st.psi0) ** 2, st.grid, st.mc_paths,
                                st.seed)
        work = st.mc_paths * st.mc_steps
        with tr.span("sampler.simulate_ensemble", nu=self.MC_NU,
                     path_steps=work):
            e = simulate_ensemble(df_mc, x0, df_mc.params, st.mc_dt,
                                  st.mc_steps, st.seed,
                                  store_every=st.mc_steps // 4)
        with tr.span("sampler.estimators", nu=self.MC_NU):
            hist = density_histogram(e, e.n_steps, bins=st.hist_edges)
        final = e.positions(e.n_steps)
        cell_counts = hist[1] * np.diff(hist[0]) * self._in_range(st, final)
        counters = {
            "banded_solves": st.n_steps * (1 + len(self.NUS)),
            "rng_draws": st.mc_paths + work, "path_steps": work,
            "paths_bytes": e.paths.nbytes,
            "min_bin_count": int(np.rint(cell_counts[st.hist_cells]).min())}
        return {"norms": sol.norms(),
                "fp_refs": [np.exp(2 * sol.R[k * quarter // st.store_every])
                            for k in range(1, 5)],
                "fp": fp, "final": final, "histogram": hist,
                "counters": counters, "replay": (e, df_mc)}

    @staticmethod
    def _in_range(st, x) -> int:
        return int(np.count_nonzero((x >= st.hist_edges[0])
                                    & (x <= st.hist_edges[-1])))

    def gates(self, st, out) -> list[Op]:
        refs = st.refs
        grid = st.grid
        ops = [below("schrodinger_norm_drift_per_step",
                     np.max(np.abs(np.diff(out["norms"]))) / st.store_every,
                     1e-12)]
        for nu, rho in out["fp"].items():
            worst = max(l1_distance(grid, rho[k], ref / grid.trapezoid(ref))
                        for k, ref in enumerate(out["fp_refs"], start=1))
            ops.append(below(f"fokker_planck_L1[nu={nu}]", worst, 1e-3))
        x = out["final"]
        se = np.sqrt(refs["variance"] / x.size)
        ops.append(below(f"mc_mean_dev_over_gate_se[nu={self.MC_NU}]",
                         abs(x.mean() - refs["mean"]) / (GATE_SE * se), 1.0))
        edges, dens, _ = out["histogram"]
        n_in = self._in_range(st, x)
        observed = np.rint(dens * np.diff(edges) * n_in)[st.hist_cells]
        ratio, _ = chi_square_ratio(
            observed, x.size * refs["bin_masses"][st.hist_cells])
        ops.append(below(f"mc_histogram_chi2_over_gate[nu={self.MC_NU}]",
                         ratio, 1.0))
        return ops

    def replay(self, st, out, tr):
        e, df = out["replay"]
        return replay_steps(tr, e, df, st.seed, [0], st.mc_steps // 4)


def _nbytes(*ops) -> int:
    return sum(op.matrix.nbytes for op in ops)


def _conjugation_flops(n: int) -> int:
    """Eigendecomposition plus four complex products on the interior."""
    m = n - 2
    return (EIGH_FLOPS + 4 * COMPLEX_PRODUCT_FLOPS) * m ** 3


class OperatorAlgebra:
    """Dense recursion on the dyadic grid; exact conjugation and two-time
    elements on a base and a refined grid."""

    name = "operator_algebra"
    NUS = (0.5, 1.0, 2.0)
    REAL_NU = 1.0
    S_HEISENBERG = 1.0
    S_TWO_TIME = 0.5
    SIZES = {"full": {"dyadic_n": 1025, "base_n": 801, "refined_n": 1201},
             "smoke": {"dyadic_n": 129, "base_n": 201, "refined_n": 301}}

    def setup(self, seed: int, size: str, tr):
        z = self.SIZES[size]
        grids = {"dyadic": z["dyadic_n"], "base": z["base_n"],
                 "refined": z["refined_n"]}
        st = SimpleNamespace(seed=seed, grids={}, states={}, V={})
        for label, n in grids.items():
            grid = Grid1D(-8.0, 8.0, n)
            with tr.span("fields.analytic_oracle", n=n):
                st.states[label] = analytic_oracle("ho_ground", None, grid,
                                                   [0.0])
            st.grids[label] = grid
            st.V[label] = 0.5 * grid.x ** 2
        st.packets = {label: _smooth_packets(g)
                      for label, g in st.grids.items()}
        st.refs = {"two_time_continued": lambda s: 0.5 * np.exp(-1j * s),
                   "two_time_real": lambda nu, s: 0.5 * np.exp(-2 * nu * s)}
        return st

    def body(self, st, tr) -> dict:
        grid, ws, V = st.grids["dyadic"], st.states["dyadic"], st.V["dyadic"]
        out = {"recursion": {}, "grids": {}}
        flops = 0
        peak = 0
        for nu in self.NUS:
            p = diffusion_params("nu", nu)
            space = build_space(grid, "H_t", ws.rho(0))
            with tr.span("algebra.hamiltonian", grid="dyadic", nu=nu):
                H = hamiltonian(ws, p, V, space)
            X = position_operator(space)
            with tr.span("algebra.time_derivative_recursion", nu=nu, order=2):
                X1, X2 = time_derivative_recursion(X, H, p, 2)
            mv = mapped_velocity_operator(p, space)
            out["recursion"][nu] = float(np.max(np.abs(
                (X1.matrix - mv.matrix)[1:-1, :])))
            flops += 2 * 2 * COMPLEX_PRODUCT_FLOPS * grid.n ** 3
            peak = max(peak, _nbytes(H, X, X1, X2, mv))
        out["replay"] = (H, X1)
        del X, X2, mv
        pm = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
        pp = continue_to_imaginary(pm, "plus")
        pr = diffusion_params("nu", self.REAL_NU)
        for label in ("base", "refined"):
            grid, ws, V = st.grids[label], st.states[label], st.V[label]
            space = build_space(grid, "L2")
            with tr.span("algebra.hamiltonian", grid=label):
                Hc = hamiltonian(None, pm, V, space)
            X = position_operator(space)
            P = momentum_operator(pm, space)
            s = self.S_HEISENBERG
            with tr.span("algebra.heisenberg_operator", grid=label):
                Xs = heisenberg_operator(X, Hc, s, pm)
            model = X.matrix * np.cos(s) + P.matrix * np.sin(s)
            gap = max(float(np.max(np.abs((Xs.matrix - model) @ psi)))
                      for psi in st.packets[label])
            peak = max(peak, _nbytes(Hc, X, P, Xs) + model.nbytes)
            del model, Xs
            s = self.S_TWO_TIME
            with tr.span("algebra.two_time_continued", grid=label,
                         branch="minus"):
                cm = two_time_position_correlation(ws, pm, s, V)
            with tr.span("algebra.two_time_continued", grid=label,
                         branch="plus"):
                cp = two_time_position_correlation(ws, pp, s, V)
            with tr.span("algebra.two_time_real", grid=label):
                cr = two_time_position_correlation(ws, pr, s)
            flops += 3 * _conjugation_flops(grid.n) \
                + EIGH_FLOPS * (grid.n - 2) ** 3
            out["grids"][label] = {"heisenberg_gap": gap, "minus": cm,
                                   "plus": cp, "real": cr}
        out["counters"] = {"dense_flops": flops, "operator_bytes": peak}
        return out

    def gates(self, st, out) -> list[Op]:
        refs = st.refs
        ops = [below(f"recursion_vs_mapped_velocity[nu={nu}]", dev, 1e-12)
               for nu, dev in out["recursion"].items()]
        for label, r in out["grids"].items():
            ops += [
                below(f"heisenberg_closed_form_gap[{label}]",
                      r["heisenberg_gap"], 5e-3),
                below(f"two_time_continued_vs_ladder[{label}]",
                      abs(r["minus"] - refs["two_time_continued"](
                          self.S_TWO_TIME)), 5e-3),
                below(f"two_time_branch_conjugacy[{label}]",
                      abs(r["plus"] - np.conj(r["minus"])), 1e-10),
                below(f"two_time_real_vs_autocovariance[{label}]",
                      abs(r["real"] - refs["two_time_real"](
                          self.REAL_NU, self.S_TWO_TIME)), 5e-4)]
        return ops

    def replay(self, st, out, tr):
        H, X1 = out["replay"]
        for _ in range(3):
            with tr.span("algebra.commutator", grid="dyadic"):
                commutator(H, X1)
        return {}, []


def _smooth_packets(grid: Grid1D) -> list[np.ndarray]:
    """Normalized Gaussian packets spanning the trapped phase space."""
    out = []
    for x0, k0 in ((0.0, 0.0), (-1.5, 0.0), (1.0, 1.0), (0.5, -2.0),
                   (-0.5, 1.5), (1.5, 0.5)):
        psi = np.exp(-(grid.x - x0) ** 2 / 2.0) * np.exp(1j * k0 * grid.x)
        out.append(psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx))
    return out


class VerifyFast:
    """The fast verification suite and its report, end to end."""

    name = "verify_fast"
    SIZES = {size: {"level": "fast", "checks": len(FAST_CHECKS)}
             for size in ("full", "smoke")}

    def setup(self, seed: int, size: str, tr):
        return SimpleNamespace(
            seed=seed, cfg=ExperimentConfig(sde=SdeConfig(seed=seed)),
            refs={"summary": {"pass": 17, "fail": 0, "inconclusive": 0,
                              "fail_expected": 2}})

    def body(self, st, tr) -> dict:
        with tr.span("harness.verify_suite", level="fast"):
            report = verify_suite("fast", st.cfg)
        with tr.span("harness.report_to_json"):
            text = report.to_json(include_timestamp=False)
        return {"report": report, "json": text, "counters": {}}

    def gates(self, st, out) -> list[Op]:
        report = out["report"]
        ops = [Op(f"record.{r.name}", r.status, "ok",
                  r.ok() and r.status != INCONCLUSIVE)
               for r in report.records]
        ops.append(equal("report_passed", report.passed, True))
        ops.append(equal("summary", report.counts(), st.refs["summary"]))
        ops.append(equal("json_records",
                         len(json.loads(out["json"])["records"]),
                         len(report.records)))
        return ops

    def replay(self, st, out, tr):
        return {}, []


WORKLOADS = {w.name: w for w in (EnsembleStationary(), PacketTransport(),
                                 OperatorAlgebra(), VerifyFast())}


# --------------------------------------------------------------------------
# per-layer metrics of the traced run
# --------------------------------------------------------------------------

# metric -> (span name, scale to the metric's unit, attribute filter);
# the value is the median duration of the matching spans
CALL_METRICS = {
    "sampler.step_ms": ("sampler.step", 1e3, {}),
    "sampler.rng.step_normals_ms": ("sampler.rng.step_normals", 1e3, {}),
    "sampler.reflect_ms": ("sampler.reflect", 1e3, {}),
    "sampler.sample_initial_ms": ("sampler.sample_initial", 1e3, {}),
    "fields.b_at_ms": ("fields.b_at", 1e3, {}),
    "fields.drift_fields_ms": ("fields.drift_fields", 1e3, {}),
    "fields.analytic_oracle_ms": ("fields.analytic_oracle", 1e3, {}),
    "algebra.hamiltonian_ms": ("algebra.hamiltonian", 1e3, {"grid": "dyadic"}),
    "algebra.commutator_ms": ("algebra.commutator", 1e3, {}),
    "algebra.time_derivative_recursion_ms": (
        "algebra.time_derivative_recursion", 1e3, {}),
    "algebra.heisenberg_operator_ms": (
        "algebra.heisenberg_operator", 1e3, {"grid": "base"}),
    "algebra.heisenberg_operator_refined_ms": (
        "algebra.heisenberg_operator", 1e3, {"grid": "refined"}),
    "algebra.two_time_real_ms": ("algebra.two_time_real", 1e3,
                                 {"grid": "base"}),
    "algebra.two_time_real_refined_ms": ("algebra.two_time_real", 1e3,
                                         {"grid": "refined"}),
    "algebra.two_time_continued_ms": ("algebra.two_time_continued", 1e3,
                                      {"grid": "base"}),
    "algebra.two_time_continued_refined_ms": (
        "algebra.two_time_continued", 1e3, {"grid": "refined"}),
    "harness.verify_suite_s": ("harness.verify_suite", 1.0, {}),
    "harness.report_to_json_ms": ("harness.report_to_json", 1e3, {}),
}

# metric -> (span name, scale); median over calls of duration / attrs["steps"]
PER_STEP_METRICS = {
    "fields.solve_schrodinger.step_us": ("fields.solve_schrodinger", 1e6),
    "fields.fokker_planck.step_us": ("fields.evolve_density_fokker_planck",
                                     1e6),
}

# counters the body computes from its inputs and array sizes
COMPUTED_COUNTERS = {
    "sampler.rng_draws": "rng_draws",
    "sampler.path_steps": "path_steps",
    "sampler.paths_bytes": "paths_bytes",
    "sampler.min_bin_count": "min_bin_count",
    "fields.banded_solves": "banded_solves",
    "algebra.dense_flops": "dense_flops",
    "algebra.operator_bytes": "operator_bytes",
}

# per-layer metrics computed rather than measured
COMPUTED = [*COMPUTED_COUNTERS, "sampler.reflected_frac"]

CHECK_METRICS = {f"harness.check.{name}_s": name for name in FAST_CHECKS}


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _per_pass(tr, name: str) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for s in tr.find(name, trace_prefix="pass"):
        groups.setdefault(s["trace"], []).append(s)
    return groups


def layer_metrics(tr, out: dict, replayed: dict) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload never calls the layer.

    ``out`` is the last traced pass's body output and ``replayed`` what the
    replay computed.
    """
    values = {}
    for metric, (name, scale, attrs) in CALL_METRICS.items():
        values[metric] = scale * _median_or_zero(
            [duration(s) for s in tr.find(name, **attrs)])
    for metric, (name, scale) in PER_STEP_METRICS.items():
        values[metric] = scale * _median_or_zero(
            [duration(s) / s["attrs"]["steps"] for s in tr.find(name)])
    values["sampler.estimators_ms"] = 1e3 * _median_or_zero(
        [sum(map(duration, spans))
         for spans in _per_pass(tr, "sampler.estimators").values()])
    values["sampler.path_steps_per_s"] = _median_or_zero(
        [sum(s["attrs"]["path_steps"] for s in spans)
         / sum(map(duration, spans))
         for spans in _per_pass(tr, "sampler.simulate_ensemble").values()])
    values["sampler.reflected_frac"] = replayed.get("reflected_frac", 0.0)
    counters = out["counters"]
    for metric, key in COMPUTED_COUNTERS.items():
        values[metric] = counters.get(key, 0)
    elapsed = {}
    if "report" in out:
        for r in out["report"].records:
            elapsed.setdefault(r.name, r.elapsed_s)
    for metric, name in CHECK_METRICS.items():
        values[metric] = elapsed.get(name, 0.0)
    return values
