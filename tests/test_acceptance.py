"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line (run with ``-s`` to stream them).  Three
clauses assert statements that are provably unattainable on any finite
grid or at any finite path count; they are implemented faithfully and
marked strict-xfail, with the quantitative analysis in the check's notes
and the exact/convergent companion assertions kept green right next to
them (see also the commutator/averaging discussion in the algebra module).
"""
import numpy as np
import pytest

from nelsonlab.algebra import OperatorMatrix
import nelsonlab.harness.checks as checks
from nelsonlab.harness import ExperimentConfig, verify_suite
from nelsonlab.harness.checks import (CheckContext,
                                      check_acceleration_identity,
                                      check_canonical_algebra,
                                      check_canonical_pointwise_literal,
                                      check_commutator_exact,
                                      check_commutator_pointwise_literal,
                                      check_continued_two_time,
                                      check_drift_recovery,
                                      check_equal_time_value,
                                      check_fk_bridge_real,
                                      check_fp_schrodinger_consistency,
                                      check_heisenberg_closed_form,
                                      check_heisenberg_taylor,
                                      check_mean_acceleration_binned_literal,
                                      check_mean_acceleration_packet,
                                      check_qvar_recovery,
                                      check_recursion_closed_forms,
                                      check_recursion_velocity,
                                      check_stationary_variance,
                                      check_time_change,
                                      check_tmap_unitarity)
from nelsonlab.harness.report import FAIL, PASS


@pytest.fixture(scope="module")
def ctx():
    cfg = ExperimentConfig()
    cfg.sde.n_paths = 100_000
    cfg.sde.seed = 42
    return CheckContext(cfg)


def _announce(criterion, rec, detail=""):
    status = rec.status.upper() if rec.status != PASS else "PASS"
    extra = f" -- {detail}" if detail else ""
    print(f"\n[ACCEPTANCE {criterion}] {status}: {rec.name}{extra}")


def _require_pass(criterion, recs, detail_keys=()):
    for rec in recs:
        detail = ", ".join(f"{k}={rec.measured[k]:.3g}" for k in detail_keys
                           if k in rec.measured)
        _announce(criterion, rec, detail)
        assert rec.status == PASS, f"{rec.name}: {rec.measured} {rec.notes}"


# 1. commutator identity ---------------------------------------------------

@pytest.mark.xfail(strict=True, reason="pointwise [v,X]f = 2 nu f cannot hold "
                   "for any finite matrix pair (commutator diagonals vanish); "
                   "the exact discrete identity [v,X] = 2 nu A is machine-"
                   "exact, see criterion 1b and the decisions ledger")
def test_criterion_1_commutator_pointwise_literal(ctx):
    recs = check_commutator_pointwise_literal(ctx)
    _announce("1", recs[0], f"max residual {recs[0].measured['max_residual_random_fields']:.3g} "
                            f"(stated tolerance 1e-12)")
    assert recs[0].measured["max_residual_random_fields"] < 1e-12


def test_criterion_1b_commutator_exact_discrete(ctx):
    _require_pass("1b", check_commutator_exact(ctx))


# 2. canonical algebra after continuation -----------------------------------

@pytest.mark.xfail(strict=True, reason="pointwise [X,P]f = i hbar f has the "
                   "same finite-dimensional obstruction; the matrix identity "
                   "and the exact coefficient cancellation are green")
def test_criterion_2_canonical_pointwise_literal(ctx):
    recs = check_canonical_pointwise_literal(ctx)
    _announce("2", recs[0], f"max residual {recs[0].measured['max_residual_random_fields']:.3g}")
    assert recs[0].measured["max_residual_random_fields"] < 1e-12


def test_criterion_2b_canonical_matrix_and_coefficient(ctx):
    recs = check_canonical_algebra(ctx)
    _require_pass("2b", recs)
    assert recs[0].measured["rho_coefficient_minus"] == 0.0
    assert recs[0].measured["rho_coefficient_plus"] == 0.0


# 3. gauge-map unitarity -----------------------------------------------------

def test_criterion_3_tmap_unitarity(ctx):
    _require_pass("3", check_tmap_unitarity(ctx), ("max_inner_product_gap",))


# 4. recursion/velocity consistency ------------------------------------------

def test_criterion_4_recursion_velocity(ctx):
    _require_pass("4", check_recursion_velocity(ctx))


# 5. acceleration identity ----------------------------------------------------

def test_criterion_5_acceleration_identity(ctx):
    _require_pass("5", check_acceleration_identity(ctx),
                  ("gap_dx=0.02_nu=1.0", "refinement_ratio_nu=1.0"))


# 6. evolved-position operators ------------------------------------------------

def test_criterion_6_heisenberg(ctx):
    _require_pass("6", check_heisenberg_taylor(ctx) +
                  check_heisenberg_closed_form(ctx))


# 7. diffusion-constant recovery ------------------------------------------------

def test_criterion_7_quadratic_variation(ctx):
    _require_pass("7", check_qvar_recovery(ctx),
                  ("relative_error_nu=0.5", "richardson_rel_error_nu=0.5"))


# 8. drift and osmotic identity --------------------------------------------------

def test_criterion_8_drift_recovery(ctx):
    _require_pass("8", check_drift_recovery(ctx),
                  ("max_forward_dev_over_3se", "max_backward_dev_over_3se",
                   "max_osmotic_dev_over_3se"))


# 9. mean acceleration -------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason="the binned symmetric second "
                   "difference measures (b - b*)/dt + O(1), divergent as "
                   "dt -> 0; measured ~ -2(x - center)/dt, not -x.  The "
                   "unconditional packet form (criterion 9b) is convergent "
                   "and green; see the decisions ledger")
def test_criterion_9_mean_acceleration_binned_literal(ctx):
    recs = check_mean_acceleration_binned_literal(ctx)
    _announce("9", recs[0], f"max relative deviation "
                            f"{recs[0].measured.get('max_relative_dev', float('nan')):.3g} "
                            f"(stated tolerance 0.05)")
    assert recs[0].measured["max_relative_dev"] < 0.05


def test_criterion_9b_mean_acceleration_packet(ctx):
    _require_pass("9b", check_mean_acceleration_packet(ctx))


# 10. member-independence of measurable statistics ---------------------------------

def test_criterion_10_measurable_statistics(ctx):
    recs = (check_stationary_variance(ctx) + check_time_change(ctx)
            + check_equal_time_value(ctx))
    assert "time_change" in [r.name for r in recs]
    _require_pass("10", recs, ("dev_over_3se",))


# 11. path-correlation bridge ---------------------------------------------------------

def test_criterion_11_correlation_bridge(ctx):
    _require_pass("11", check_fk_bridge_real(ctx) +
                  check_continued_two_time(ctx),
                  ("rel_gap_s=0.25", "rel_gap_s=0.5", "rel_gap_s=1.0"))


# 12. forward-equation / wave-equation consistency --------------------------------------

def test_criterion_12_fp_schrodinger(ctx):
    _require_pass("12", check_fp_schrodinger_consistency(ctx),
                  ("L1_quarter_4_nu=0.5", "L1_quarter_4_nu=1.0",
                   "L1_quarter_4_nu=2.0"))


# power of the exact operator identities ------------------------------------

def _bumped(bands, row, by):
    """``bands`` with ``by`` added to the main-diagonal entry of ``row``."""
    main = np.array(bands[0])
    main[row] += by
    return {**bands, 0: main}


@pytest.mark.parametrize("row", [400, 0], ids=["interior", "boundary"])
@pytest.mark.parametrize("check, builder, by", [
    (check_commutator_exact, "averaging_bands", 1e-9),
    (check_canonical_algebra, "averaging_bands", 1e-9),
    (check_canonical_algebra, "momentum_operator", 1e-9),
    (check_canonical_algebra, "mapped_velocity_operator", 1e-9),
    (check_recursion_velocity, "mapped_velocity_operator", 1e-9),
    (check_recursion_closed_forms, "momentum_operator", 1e-9),
], ids=["commutator_exact", "canonical_algebra-A", "canonical_algebra-P",
        "canonical_algebra-mv", "recursion_velocity", "recursion_closed_forms"])
def test_identity_check_sees_one_changed_entry(check, builder, by, row,
                                               monkeypatch):
    """One entry of a reference operator changed, in an interior row or
    in a boundary row, turns the identity check red."""
    build = getattr(checks, builder)

    def changed(*args):
        out = build(*args)
        if isinstance(out, dict):
            return _bumped(out, row, by)
        return OperatorMatrix(out.space, _bumped(out.diagonals, row, by))

    monkeypatch.setattr(checks, builder, changed)
    recs = check(CheckContext(ExperimentConfig()))
    assert [r.status for r in recs] == [FAIL], recs[0].measured


def test_heisenberg_taylor_sees_a_changed_diagonal(monkeypatch):
    exact = checks.heisenberg_operator

    def changed(X, H, s, p):
        E = exact(X, H, s, p)
        return OperatorMatrix(E.space, {**E.diagonals,
                                        0: E.diagonal(0) + 1e-6})

    monkeypatch.setattr(checks, "heisenberg_operator", changed)
    recs = check_heisenberg_taylor(CheckContext(ExperimentConfig()))
    assert [r.status for r in recs] == [FAIL], recs[0].measured


def test_fast_suite_reads_no_dense_view(monkeypatch):
    """Every fast check compares operators on their diagonals: with the
    dense view unavailable the suite runs and keeps its statuses."""
    def no_dense(self):
        raise AssertionError("a dense operator view was read")

    monkeypatch.setattr(OperatorMatrix, "matrix", property(no_dense))
    report = verify_suite("fast")
    for r in report.records:
        assert r.status == (FAIL if r.known_unattainable else PASS), r.name
    assert report.counts() == {"pass": 17, "fail": 0, "inconclusive": 0,
                               "fail_expected": 2}
