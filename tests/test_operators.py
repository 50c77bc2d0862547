from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nelsonlab import (Grid1D, EmptyMaskError, InputError,
                       UnsupportedConfigError, diffusion_params,
                       continue_to_imaginary)
from nelsonlab.algebra import (OperatorMatrix, WeightedSpace,
                               acceleration_function, averaging_bands,
                               build_space, closed_derivative_bands,
                               closed_laplacian_bands, commutator,
                               density_curvature, gauge_map, hamiltonian,
                               mapped_velocity_operator, momentum_operator,
                               position_operator, rho_term_coefficient,
                               velocity_operator)
from nelsonlab.algebra.operators import COMPARE_FLOOR
from nelsonlab.fields import WaveSolution, analytic_oracle, drift_fields


@pytest.fixture(scope="module")
def setup():
    grid = Grid1D(-8.0, 8.0, 1025)   # dyadic spacing
    ground = analytic_oracle("ho_ground", None, grid, [0.0])
    p = diffusion_params("nu", 0.5)
    return grid, ground, p


def test_position_operator_basics(setup, rng):
    grid, ground, p = setup
    sp = build_space(grid, "H_t", ground.rho(0))
    X = position_operator(sp)
    f = rng.standard_normal(grid.n)
    assert np.array_equal(X.apply(np.ones(grid.n)), grid.x)
    # self-adjoint in any weighted space
    g = rng.standard_normal(grid.n)
    assert sp.inner(f, X.apply(g)) == pytest.approx(sp.inner(X.apply(f), g))
    assert np.max(np.abs(commutator(X, X).matrix)) == 0.0


def test_velocity_commutator_is_exactly_2nu_averaging(setup):
    grid, ground, _ = setup
    sp = build_space(grid, "H_t", ground.rho(0))
    A = OperatorMatrix(sp, averaging_bands(grid.n)).matrix
    for nu in (0.5, 1.0, 2.0):
        p = diffusion_params("nu", nu)
        df = drift_fields(ground, p)
        C = commutator(velocity_operator(df, sp), position_operator(sp))
        assert np.max(np.abs((C.matrix - 2 * nu * A)[1:-1, :])) == 0.0


def test_velocity_operator_takes_no_time(setup):
    """The velocity is built from the drift at t = 0; no caller asks for
    another time."""
    grid, ground, p = setup
    sp = build_space(grid, "H_t", ground.rho(0))
    with pytest.raises(TypeError):
        velocity_operator(drift_fields(ground, p), sp, t=0.0)


def test_closed_stencils_match_entrywise_reference():
    dx = 0.37
    for n in (3, 4, 17):
        ref = {k: np.zeros((n, n)) for k in ("D", "L", "A")}
        for i in range(1, n - 1):
            for j, w in ((i - 1, -1.0), (i, 0.0), (i + 1, 1.0)):
                if 0 < j < n - 1:       # hard wall: no boundary columns
                    ref["D"][i, j] = w * (0.5 / dx)
                    ref["L"][i, j] = (-2.0 if w == 0.0 else 1.0) / (dx * dx)
                    ref["A"][i, j] = 0.0 if w == 0.0 else 0.5
        sp = build_space(Grid1D(0.0, 1.0, n), "L2")
        for key, bands in (("D", closed_derivative_bands(n, dx)),
                           ("L", closed_laplacian_bands(n, dx)),
                           ("A", averaging_bands(n))):
            assert np.array_equal(OperatorMatrix(sp, bands).matrix, ref[key])


def test_velocity_on_constant_gives_drift(setup):
    grid, ground, p = setup
    df = drift_fields(ground, p)
    sp = build_space(grid, "H_t", ground.rho(0))
    vel = velocity_operator(df, sp)
    out = vel.apply(np.ones(grid.n))
    sel = ground.mask[0].copy()
    sel[:2] = sel[-2:] = False
    assert np.max(np.abs(out - df.b[0])[sel]) < 1e-12


def test_mapped_velocity_and_momentum(setup):
    grid, _, p = setup
    sp = build_space(grid, "L2")
    mv = mapped_velocity_operator(p, sp)
    D = OperatorMatrix(sp, closed_derivative_bands(grid.n, grid.dx)).matrix
    assert np.array_equal(mv.matrix, D)        # 2 nu = 1 at nu = 0.5
    pc = continue_to_imaginary(p, "minus")
    P = momentum_operator(pc, sp)
    assert np.max(np.abs(P.matrix - (-1j * D))) == 0.0
    assert np.max(np.abs(P.matrix - P.matrix.conj().T)) == 0.0
    with pytest.raises(UnsupportedConfigError):
        momentum_operator(p, sp)
    # the member comes from the drift: one built by hand at a continued
    # member is refused
    df = drift_fields(analytic_oracle("ho_ground", None, grid, [0.0]), p)
    with pytest.raises(UnsupportedConfigError):
        velocity_operator(replace(df, params=pc), sp)


def test_gauge_map_norm_preservation(setup, rng):
    grid, _, _ = setup
    ws = analytic_oracle("ho_coherent", {"x0": 1.0}, grid, [0.6])
    for p in (diffusion_params("nu", 0.5),
              continue_to_imaginary(diffusion_params("nu", 0.5), "minus")):
        Ht = build_space(grid, "H_t", ws.rho(0))
        It = build_space(grid, "I_t", ws.S[0], p)
        for _ in range(10):
            f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
            g = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
            lhs = Ht.inner(f, g)
            rhs = It.inner(gauge_map(f, ws.R[0], ws.S[0], p),
                           gauge_map(g, ws.R[0], ws.S[0], p))
            assert abs(lhs - rhs) < 1e-10


def test_gauge_map_intertwines_velocity(setup):
    """T(velocity f) = 2 nu d/dx (T f) within truncation error."""
    grid, ground, p = setup
    df = drift_fields(ground, p)
    Ht = build_space(grid, "H_t", ground.rho(0))
    vel = velocity_operator(df, Ht)
    f = np.exp(-grid.x ** 2 / 3) * np.sin(grid.x)
    lhs = gauge_map(vel.apply(f), ground.R[0], ground.S[0], p)
    Tf = gauge_map(f, ground.R[0], ground.S[0], p)
    rhs = mapped_velocity_operator(p, Ht).apply(Tf)
    sel = ground.rho(0) > 1e-3 * ground.rho(0).max()
    sel[:2] = sel[-2:] = False
    assert np.max(np.abs(lhs - rhs)[sel]) < 5e-4


def test_gauge_map_of_unit_is_sqrt_density(setup):
    grid, ground, p = setup
    t1 = gauge_map(np.ones(grid.n), ground.R[0], ground.S[0], p)
    assert np.max(np.abs(t1 - np.exp(ground.R[0]))) < 1e-14


def test_acceleration_fields_ground_state(setup):
    grid, ground, _ = setup
    V = 0.5 * grid.x ** 2
    for nu, coeff in ((0.5, 1.0), (1.0, 2.5)):
        p = diffusion_params("nu", nu)
        acc = acceleration_function(ground, p, V)
        assert acc.max_gap() < 5e-3 * max(1.0, coeff)
        i = np.argmin(np.abs(grid.x - 1.0))
        assert abs(acc.from_drift[i] - 4 * nu ** 2) < 1e-8
    with pytest.raises(UnsupportedConfigError):
        acceleration_function(ground, continue_to_imaginary(
            diffusion_params("nu", 0.5), "minus"), V)


def test_acceleration_fields_time_dependent_converge_at_second_order():
    """The moving coherent packet reaches the ``db/dt`` branch: the drift
    and potential forms close at O(dx^2) for every family member."""
    times = np.linspace(0.4, 0.6, 21)
    for nu in (0.5, 1.0, 2.0):
        gaps = []
        for n in (801, 1601):
            grid = Grid1D(-8.0, 8.0, n)
            ws = analytic_oracle("ho_coherent", {"x0": 1.0}, grid, times)
            acc = acceleration_function(ws, diffusion_params("nu", nu),
                                        0.5 * grid.x ** 2, t_index=10)
            gaps.append(acc.max_gap())
        assert gaps[0] / gaps[1] >= 3.5, (nu, gaps)


def test_acceleration_mask_too_small():
    """A packet half a node wide leaves three nodes above COMPARE_FLOOR of
    its peak density, too few to differentiate on."""
    grid = Grid1D(-8.0, 8.0, 801)
    ws = WaveSolution(grid, [0.0], np.exp(-2.0 * (grid.x / grid.dx) ** 2))
    assert np.sum(ws.rho(0) > COMPARE_FLOOR * ws.rho(0).max()) == 3
    with pytest.raises(EmptyMaskError, match="mask too small"):
        acceleration_function(ws, diffusion_params("nu", 0.5),
                              0.5 * grid.x ** 2)


def test_rho_term_coefficient_vanishes_when_continued():
    for sign in ("minus", "plus"):
        pc = continue_to_imaginary(diffusion_params("nu", 0.5), sign)
        assert rho_term_coefficient(pc) == 0.0
    assert rho_term_coefficient(diffusion_params("nu", 0.5)) == pytest.approx(1.0)


def test_hamiltonian_on_constant_function(setup):
    """Real-mode H applied to 1: the kinetic part drops, leaving the diag."""
    grid, ground, p = setup
    V = 0.5 * grid.x ** 2
    sp = build_space(grid, "H_t", ground.rho(0))
    H = hamiltonian(ground, p, V, sp)
    out = H.apply(np.ones(grid.n))
    q, qmask = density_curvature(ground, 0)
    sel = qmask & (ground.rho(0) > 1e-3 * ground.rho(0).max())
    sel[:2] = sel[-2:] = False
    ref = V - 1.0 * (grid.x ** 2 - 1.0)       # coefficient = 1 at nu = 1/2
    assert np.max(np.abs(out - ref)[sel]) < 2e-4


def test_hamiltonian_continued_spectrum(grid801):
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    sp = build_space(grid801, "L2")
    H = hamiltonian(None, pc, 0.5 * grid801.x ** 2, sp)
    lam = np.linalg.eigvalsh(H.matrix[1:-1, 1:-1].real)
    assert abs(lam[0] - 0.5) < 1e-4
    assert abs(lam[1] - 1.5) < 1e-4


def _dense_commutator(a, b):
    """The dense formula, kept as the reference for the band product."""
    return a @ b - b @ a


def _banded_random(rng, n, lower, upper, complex_entries=False):
    m = rng.standard_normal((n, n))
    if complex_entries:
        m = m + 1j * rng.standard_normal((n, n))
    return np.triu(np.tril(m, upper), -lower)


def _space(n):
    """Flat space on ``n`` nodes.  Band storage reads only ``n``, and a
    Grid1D needs at least 3 nodes, so a stand-in grid carries n = 1, 2."""
    grid = Grid1D(-1.0, 1.0, n) if n >= 3 else SimpleNamespace(n=n, dx=1.0)
    return WeightedSpace(grid, np.ones(n))


def _op(m):
    return OperatorMatrix.from_dense(_space(m.shape[0]), m)


@pytest.mark.parametrize("bands", [(0, 0), (1, 1), (2, 2), (2, 0), (0, 1)])
@pytest.mark.parametrize("complex_narrow", [False, True])
def test_banded_commutator_matches_dense_against_wide(rng, bands,
                                                      complex_narrow):
    n = 400
    narrow = _banded_random(rng, n, *bands, complex_entries=complex_narrow)
    wide = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for a, b in ((narrow, wide), (wide, narrow)):
        ref = _dense_commutator(a, b)
        got = commutator(_op(a), _op(b)).matrix
        assert got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("bands_a, bands_b",
                         [((1, 1), (2, 2)), ((0, 0), (1, 1)),
                          ((2, 1), (0, 3))])
def test_banded_commutator_matches_dense_for_two_banded(rng, bands_a,
                                                        bands_b):
    n = 333
    a = _banded_random(rng, n, *bands_a)
    b = _banded_random(rng, n, *bands_b, complex_entries=True)
    for x, y in ((a, b), (b, a)):
        ref = _dense_commutator(x, y)
        got = commutator(_op(x), _op(y))
        reach = range(-bands_a[0] - bands_b[0], bands_a[1] + bands_b[1] + 1)
        assert set(got.diagonals) == set(reach)
        assert np.max(np.abs(got.matrix - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_banded_commutator_is_bit_identical_on_the_recursion(setup):
    grid, ground, p = setup
    sp = build_space(grid, "H_t", ground.rho(0))
    H = hamiltonian(ground, p, 0.5 * grid.x ** 2, sp)
    current = OperatorMatrix.from_dense(
        sp, position_operator(sp).matrix.astype(complex))
    for _ in range(3):
        got = commutator(H, current)
        assert np.array_equal(got.matrix,
                              _dense_commutator(H.matrix, current.matrix))
        current = got


@st.composite
def _banded_dense(draw, n=None):
    """A dense n x n matrix whose nonzero diagonals are a drawn offset set,
    sometimes with the corner offsets +/-(n - 1), real or complex."""
    if n is None:
        n = draw(st.integers(1, 40))
    offsets = draw(st.sets(st.integers(1 - n, n - 1), max_size=6))
    if draw(st.booleans()):
        offsets |= {1 - n, n - 1}
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    complex_entries = draw(st.booleans())
    m = np.zeros((n, n), complex if complex_entries else float)
    for k in offsets:
        d = g.standard_normal(n - abs(k))
        if complex_entries:
            d = d + 1j * g.standard_normal(n - abs(k))
        m += np.diag(d, k)
    return m


@settings(max_examples=200, deadline=None)
@given(_banded_dense())
def test_from_dense_round_trips(m):
    op = _op(m)
    got = op.matrix
    assert got.dtype == m.dtype and np.array_equal(got, m)
    assert set(op.diagonals) == {0} | {k for k in range(1 - m.shape[0],
                                                        m.shape[0])
                                       if np.diagonal(m, k).any()}
    # one read-only copy: the cached matrix, with the diagonals its views
    assert got is not m and not got.flags.writeable
    assert all(np.shares_memory(d, got) for d in op.diagonals.values())
    rebuilt = OperatorMatrix(op.space, dict(op.diagonals)).matrix
    assert rebuilt.dtype == got.dtype and np.array_equal(rebuilt, got)


@settings(max_examples=200, deadline=None)
@given(_banded_dense(), st.booleans())
def test_apply_matches_the_dense_product(m, complex_field):
    n = m.shape[0]
    g = np.random.default_rng(n)
    f = g.standard_normal(n)
    if complex_field:
        f = f + 1j * g.standard_normal(n)
    op = _op(m)
    scale = np.max(np.abs(m) @ np.abs(f), initial=0.0)
    assert np.max(np.abs(op.apply(f) - m @ f)) <= 1e-13 * scale
    assert np.array_equal(op @ f, op.apply(f))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(_banded_dense(n), _banded_dense(n))))
def test_commutator_matches_the_dense_formula(pair):
    a, b = pair
    ref = _dense_commutator(a, b)
    got = commutator(_op(a), _op(b)).matrix
    scale = np.max(np.abs(a) @ np.abs(b) + np.abs(b) @ np.abs(a))
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale


def test_operator_rejects_malformed_diagonals():
    sp = _space(5)
    with pytest.raises(InputError, match="offset"):
        OperatorMatrix(sp, {5: np.ones(1)})
    with pytest.raises(InputError, match="offset"):
        OperatorMatrix(sp, {-7: np.ones(1)})
    with pytest.raises(InputError, match="shape"):
        OperatorMatrix(sp, {1: np.ones(5)})
    for bad in (np.nan, np.inf, -np.inf):
        d = np.ones(4)
        d[2] = bad
        with pytest.raises(InputError, match="finite"):
            OperatorMatrix(sp, {-1: d})
    with pytest.raises(InputError, match="finite"):
        OperatorMatrix.from_dense(sp, np.diag([1.0, np.nan, 0, 0, 0]))
    with pytest.raises(InputError, match="shape"):
        OperatorMatrix.from_dense(sp, np.eye(4))
    with pytest.raises(InputError, match="from_dense"):
        OperatorMatrix(sp, np.eye(5))


def test_dense_view_is_read_only_and_cached():
    op = _op(np.diag(np.arange(1.0, 6.0), 1))
    with pytest.raises(ValueError):
        op.matrix[0, 1] = 7.0
    assert op.matrix is op.matrix



@pytest.mark.parametrize("call", ["solve_schrodinger", "hamiltonian",
                                  "acceleration_function"])
def test_a_complex_potential_is_refused(call, ground, grid801, p_half):
    """A nonzero imaginary part of V is refused, not dropped, by each of
    the three callers of a potential; a zero one is a real potential."""
    from nelsonlab.fields import solve_schrodinger
    space = build_space(grid801, "H_t", ground.rho(0))
    run = {"solve_schrodinger": lambda V: solve_schrodinger(
               V, ground.psi[0], grid801, 1e-3, 2).psi,
           "hamiltonian": lambda V: hamiltonian(
               ground, p_half, V, space).diagonal(0),
           "acceleration_function": lambda V: acceleration_function(
               ground, p_half, V).from_potential}[call]
    V = 0.5 * grid801.x ** 2
    with pytest.raises(InputError, match="V must be real"):
        run(V + 0.3j * grid801.x)
    assert np.array_equal(run(V + 0j), run(V))
