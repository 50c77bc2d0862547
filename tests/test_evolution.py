import numpy as np
import pytest

from nelsonlab import (Grid1D, InputError, UnsupportedConfigError,
                       diffusion_params, continue_to_imaginary)
from nelsonlab.algebra import (OperatorMatrix, build_space, correlation,
                               hamiltonian, heisenberg_action,
                               heisenberg_operator, mapped_velocity_operator,
                               momentum_operator, position_operator,
                               stationary_generator, taylor_heisenberg,
                               time_derivative_recursion,
                               two_time_position_correlation)
from nelsonlab.fields import analytic_oracle
from nelsonlab.harness.checks import CheckContext, _hamiltonian_two_time
from nelsonlab.harness.config import ExperimentConfig
from nelsonlab.params import HBAR


@pytest.fixture(scope="module")
def cont():
    grid = Grid1D(-8.0, 8.0, 1025)   # dyadic spacing for the exact identities
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    sp = build_space(grid, "L2")
    V = 0.5 * grid.x ** 2
    H = hamiltonian(None, pc, V, sp)
    X = position_operator(sp)
    return grid, pc, sp, V, H, X


def _packets(grid):
    out = []
    for x0, k0 in ((0.0, 0.0), (1.0, -1.0), (-1.5, 0.5)):
        psi = np.exp(-(grid.x - x0) ** 2 / 2) * np.exp(1j * k0 * grid.x)
        out.append(psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx))
    return out


def test_recursion_seed_equals_mapped_velocity(cont):
    grid, pc, sp, V, H, X = cont
    X1 = time_derivative_recursion(X, H, pc, 1)[0]
    mv = mapped_velocity_operator(pc, sp)
    assert np.max(np.abs((X1.matrix - mv.matrix)[1:-1, :])) < 1e-12


def test_free_particle_series_terminates(cont):
    grid, pc, sp, V, H, X = cont
    H0 = hamiltonian(None, pc, np.zeros(grid.n), sp)
    X1, X2 = time_derivative_recursion(X, H0, pc, 2)
    P = momentum_operator(pc, sp)
    assert np.max(np.abs((X1.matrix - P.matrix)[1:-1, :])) < 1e-12  # m = 1
    # X^2 vanishes identically away from the finite-section corner layer
    assert np.max(np.abs(X2.matrix[3:-3, 3:-3])) == 0.0
    inner = np.ones(grid.n, dtype=bool)
    inner[:3] = inner[-3:] = False
    for psi in _packets(grid):
        assert np.max(np.abs((X2.matrix @ psi)[inner])) < 1e-12


def test_oscillator_second_derivative_is_minus_position(cont):
    grid, pc, sp, V, H, X = cont
    _, X2 = time_derivative_recursion(X, H, pc, 2)
    for psi in _packets(grid):
        assert np.max(np.abs((X2.matrix + X.matrix) @ psi)) < 2e-3


def test_real_mode_recursion_needs_stationary_density():
    """The real-mode H and the two-time element of every member refuse a
    state whose density moves, and a single snapshot that carries a
    current (the coherent packet at t = 0.7, current up to 0.64)."""
    grid = Grid1D(-8.0, 8.0, 401)
    p = diffusion_params("nu", 0.5)
    pm = continue_to_imaginary(p, "minus")
    moving = analytic_oracle("ho_coherent", {"x0": 1.0}, grid, [0.0, 0.7])
    current = analytic_oracle("ho_coherent", {"x0": 1.0}, grid, [0.7])
    for ws, why in ((moving, "density moves"), (current, "current")):
        sp = build_space(grid, "H_t", ws.rho(0))
        with pytest.raises(UnsupportedConfigError, match=why):
            hamiltonian(ws, p, 0.5 * grid.x ** 2, sp)
        for member in (p, pm):
            with pytest.raises(UnsupportedConfigError, match=why):
                two_time_position_correlation(ws, member, 0.7)
    # the continued H needs no state, so it refuses none
    hamiltonian(current, pm, 0.5 * grid.x ** 2, build_space(grid, "L2"))


def test_heisenberg_identity_cases(cont):
    grid, pc, sp, V, H, X = cont
    X0 = heisenberg_operator(X, H, 0.0, pc)
    assert np.max(np.abs(X0.matrix - X.matrix)) < 1e-12
    T0 = taylor_heisenberg(X, H, 0.3, 0, pc)
    assert np.array_equal(T0.matrix, X.matrix.astype(complex))
    p = diffusion_params("nu", 0.5)
    with pytest.raises(UnsupportedConfigError):
        heisenberg_operator(X, H, 0.1, p)


def test_free_particle_heisenberg_is_linear_in_time(cont):
    grid, pc, sp, V, H, X = cont
    H0 = hamiltonian(None, pc, np.zeros(grid.n), sp)
    P = momentum_operator(pc, sp)
    s = 0.7
    Xs = heisenberg_operator(X, H0, s, pc)
    model = X.matrix + s * P.matrix
    for psi in _packets(grid):
        # wall-reflected high modes limit free-particle fidelity in the box
        assert np.max(np.abs((Xs.matrix - model) @ psi)) < 5e-3


def test_oscillator_heisenberg_closed_form(cont):
    grid, pc, sp, V, H, X = cont
    P = momentum_operator(pc, sp)
    for s in (0.1, 1.0):
        Xs = heisenberg_operator(X, H, s, pc)
        model = X.matrix * np.cos(s) + P.matrix * np.sin(s)
        for psi in _packets(grid):
            assert np.max(np.abs((Xs.matrix - model) @ psi)) < 5e-3


def test_taylor_matches_exact_on_resolved_grid():
    grid = Grid1D(-6.0, 6.0, 25)
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    sp = build_space(grid, "L2")
    H = hamiltonian(None, pc, 0.5 * grid.x ** 2, sp)
    X = position_operator(sp)
    T10 = taylor_heisenberg(X, H, 0.1, 10, pc)
    E = heisenberg_operator(X, H, 0.1, pc)
    assert np.max(np.abs(T10.matrix - E.matrix)) < 1e-8


def test_correlation_contracts(cont, grid801):
    grid, pc, sp, V, H, X = cont
    psi = _packets(grid)[0]
    val = correlation(psi, [X, X], sp)
    # <x^2> of a unit-width packet at the origin
    assert val.real == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(InputError):
        correlation(2 * psi, [X], sp)             # not normalized
    other = build_space(Grid1D(-4.0, 4.0, 101), "L2")
    with pytest.raises(InputError):
        correlation(psi, [position_operator(other)], sp)


def test_equal_time_value_is_nu_independent(grid801):
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    sp = build_space(grid801, "L2")
    X = position_operator(sp)
    vals = []
    theta = sp.normalize(np.exp(ws.R[0]))
    vals.append(correlation(theta, [X, X], sp))
    for sign in ("minus", "plus"):
        psi = sp.normalize(np.exp(ws.R[0] + 1j * np.where(
            np.isnan(ws.S[0]), 0.0, ws.S[0])))
        vals.append(correlation(psi, [X, X], sp))
    for v in vals:
        assert abs(v - 0.5) < 1e-6


def _dense_generator(ws):
    diag, off, theta = stationary_generator(ws)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), theta


def _members():
    """Three real members and both continued ones."""
    pm = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    return [diffusion_params("nu", nu) for nu in (0.5, 0.7, 2.0)] \
        + [pm, continue_to_imaginary(pm, "plus")]


def test_stationary_generator_annihilates_sqrt_density(grid801):
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    M, theta = _dense_generator(ws)
    assert np.max(np.abs(M @ theta)) < 1e-12
    assert np.max(np.abs(M - M.T)) < 1e-12


def test_stationary_generator_matches_dense_laplacian(grid801):
    """M is nu-free, and every member's element is the dense-oracle sum
    ``dx sum_k w_k^2 exp(conj(nu) mu_k s)`` over all of M's spectrum.

    ``eigh``'s eigenvalues miss those of ``ref`` by up to 0.4 eps ||M||
    (4.8e-13 on the mode that carries x theta), which the lag 10 turns
    into 1.2e-12; the oracle takes the Rayleigh quotients of its
    eigenvectors in long double instead, exact to about 1e-15."""
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    M, theta = _dense_generator(ws)
    m, inv = grid801.n - 2, 1.0 / grid801.dx ** 2
    lap = (np.diag(np.full(m, -2.0 * inv)) + np.diag(np.full(m - 1, inv), 1)
           + np.diag(np.full(m - 1, inv), -1))
    ref = lap - np.diag((lap @ theta) / theta)
    assert np.array_equal(theta, np.exp(ws.R[0])[1:-1])
    assert np.max(np.abs(M - ref)) < 1e-13 * np.max(np.abs(ref))
    _, U = np.linalg.eigh(ref)
    Ul = U.astype(np.longdouble)
    d, e = (np.diag(ref, k).astype(np.longdouble)[:, None] for k in (0, 1))
    refU = d * Ul
    refU[:-1] += e * Ul[1:]
    refU[1:] += e * Ul[:-1]
    lam = (np.sum(Ul * refU, axis=0) / np.sum(Ul * Ul, axis=0)).astype(float)
    w = U.T @ (grid801.x[1:-1] * theta
               / np.sqrt(np.sum(theta ** 2) * grid801.dx))
    for p in _members():
        lags = (0.0, 0.01, 0.05, 0.25, 1.0, 2.5, 10.0)
        if not p.is_real:
            lags += (-1.0, -10.0)
        for s in lags:
            val = two_time_position_correlation(ws, p, s)
            dense = np.sum(w * np.exp(np.conj(p.nu) * lam * s) * w)
            assert abs(val - dense * grid801.dx) < 1e-12


def test_two_time_real_mode_matches_autocovariance(grid801):
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    for nu in (0.5, 1.0):
        p = diffusion_params("nu", nu)
        for s in (0.25, 1.0):
            val = two_time_position_correlation(ws, p, s)
            ref = 0.5 * np.exp(-2 * nu * s)
            assert abs(val - ref) < 5e-4
    # s = 0 reduces to the stationary variance for every member
    assert abs(two_time_position_correlation(
        ws, diffusion_params("nu", 2.0), 0.0) - 0.5) < 1e-6


def test_real_two_time_depends_only_on_nu_s(grid801):
    """nu sets only the clock: the element at (nu, s) is the one at
    (1/2, 2 nu s) bit for bit, at power-of-two ratios and every lag."""
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    lags = np.array([0.0, 0.1, 0.25, 0.5, 1.0, 3.0])
    half = two_time_position_correlation(ws, diffusion_params("nu", 0.5),
                                         lags)
    for nu in (0.25, 1.0, 2.0, 4.0):
        got = two_time_position_correlation(ws, diffusion_params("nu", nu),
                                            lags / (2 * nu))
        assert np.array_equal(got, half), nu
    # and it does depend on s: another lag at the same nu is another value
    assert np.all(np.diff(half.real) < 0)


def test_two_time_continued_matches_quantum_ladder(grid801):
    """The sign convention: the minus branch is the standard two-point
    function ``0.5 exp(-i s)``, not its conjugate, and the plus branch is
    the conjugate of the minus branch bit for bit."""
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    pm = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    pp = continue_to_imaginary(diffusion_params("nu", 0.5), "plus")
    lags = [-1.0, 0.25, 0.5, 1.0, 2.5]
    cm = two_time_position_correlation(ws, pm, lags)
    cp = two_time_position_correlation(ws, pp, lags)
    assert np.max(np.abs(cm - 0.5 * np.exp(-1j * np.array(lags)))) < 2e-4
    assert np.array_equal(cp, np.conj(cm))


def test_two_time_error_is_second_order_in_dx():
    """The gaps of the minus and the real (nu = 1) elements to their
    closed forms fall as dx^2 over three halvings of dx."""
    pm = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    pr = diffusion_params("nu", 1.0)
    lags = np.array([0.25, 0.5, 1.0])
    gaps = []
    for n in (801, 1601, 3201):
        ws = analytic_oracle("ho_ground", None, Grid1D(-8.0, 8.0, n), [0.0])
        gaps.append([
            np.abs(two_time_position_correlation(ws, pm, lags)
                   - 0.5 * np.exp(-1j * lags)),
            np.abs(two_time_position_correlation(ws, pr, lags)
                   - 0.5 * np.exp(-2.0 * lags))])
    order = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all((1.8 < order) & (order < 2.2)), order


def test_real_mode_matrix_element_vs_wave_reference(grid801):
    """The semigroup element agrees with the recursion-based Taylor sum for
    short lags, tying the two evolution routes together."""
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    p = diffusion_params("nu", 0.5)
    sp = build_space(grid801, "L2")
    Ht = build_space(grid801, "H_t", ws.rho(0))
    H = hamiltonian(ws, p, 0.5 * grid801.x ** 2, Ht)
    X = position_operator(Ht)
    s = 0.05
    Xs = taylor_heisenberg(X, H, s, 6, p)
    theta = sp.normalize(np.exp(ws.R[0]))
    # earliest-leftmost pairing: (theta, X(0) X(s) theta)
    val = sp.inner(theta, X.matrix @ (Xs.matrix @ theta))
    ref = two_time_position_correlation(ws, p, s)
    assert abs(val - ref) < 1e-4


def test_free_particle_taylor_terminates_at_order_one(cont):
    """One Taylor term is the whole series for the free particle."""
    grid, pc, sp, V, H, X = cont
    H0 = hamiltonian(None, pc, np.zeros(grid.n), sp)
    P = momentum_operator(pc, sp)
    for s in (0.5, 2.0):
        T1 = taylor_heisenberg(X, H0, s, 1, pc)
        model = X.matrix + s * P.matrix
        assert np.max(np.abs((T1.matrix - model)[1:-1, :])) < 1e-12


def test_real_mode_second_derivative_is_acceleration_multiplication():
    """Ground-state recursion: X^2 acts as multiplication by the
    acceleration field (= x at nu = 1/2) on trapped smooth states."""
    from nelsonlab.algebra import acceleration_function
    grid = Grid1D(-8.0, 8.0, 801)
    p = diffusion_params("nu", 0.5)
    ws = analytic_oracle("ho_ground", None, grid, [0.0])
    sp = build_space(grid, "H_t", np.exp(2 * ws.R[0]))
    H = hamiltonian(ws, p, 0.5 * grid.x ** 2, sp)
    X = position_operator(sp)
    _, X2 = time_derivative_recursion(X, H, p, 2)
    acc = acceleration_function(ws, p, 0.5 * grid.x ** 2)
    sel = acc.mask
    for psi in _packets(grid):
        lhs = (X2.matrix @ psi)[sel]
        rhs = (acc.from_drift * psi)[sel]
        assert np.max(np.abs(lhs - rhs)) < 5e-3


def test_two_time_continued_equals_dense_conjugation(grid801):
    """The Hamiltonian route of ``continued_two_time``, through the state
    action, equals the sandwich with the dense evolved operator."""
    ctx = CheckContext(ExperimentConfig())
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    V = 0.5 * grid801.x ** 2
    sp = build_space(grid801, "L2")
    X = position_operator(sp)
    psi = sp.normalize(np.exp(ws.R[0] + 1j * np.where(
        np.isnan(ws.S[0]), 0.0, ws.S[0])))
    for sign in ("minus", "plus"):
        pc = continue_to_imaginary(diffusion_params("nu", 0.5), sign)
        H = hamiltonian(None, pc, V, sp)
        for s in (0.25, 1.0):
            ref = correlation(psi, [heisenberg_operator(X, H, s, pc), X], sp)
            got = _hamiltonian_two_time(ws, ctx.continued(grid801, sign),
                                        [s])[0]
            assert abs(got - ref) < 1e-12


def test_heisenberg_needs_tridiagonal_h_and_diagonal_x():
    grid = Grid1D(-6.0, 6.0, 41)
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    sp = build_space(grid, "L2")
    H = hamiltonian(None, pc, 0.5 * grid.x ** 2, sp)
    X = position_operator(sp)
    wide = H.matrix.copy()
    wide[5, 7] = wide[7, 5] = 0.1
    with pytest.raises(InputError, match="tridiagonal"):
        heisenberg_operator(X, OperatorMatrix.from_dense(sp, wide), 0.3, pc)
    skew = H.matrix.copy()
    skew[5, 6] += 0.1
    with pytest.raises(InputError, match="symmetric"):
        heisenberg_operator(X, OperatorMatrix.from_dense(sp, skew), 0.3, pc)
    smeared = X.matrix.copy()
    smeared[5, 6] = smeared[6, 5] = 0.1
    with pytest.raises(InputError, match="diagonal"):
        heisenberg_operator(OperatorMatrix.from_dense(sp, smeared), H, 0.3,
                            pc)
    # X(s) of a complex diagonal is not the adjoint pair the sectors form
    with pytest.raises(InputError, match="real position"):
        heisenberg_operator(OperatorMatrix(sp, {0: grid.x + 0.1j}), H, 0.3,
                            pc)
    # the state action shares these checks
    states = np.ones((1, grid.n))
    with pytest.raises(InputError, match="tridiagonal"):
        heisenberg_action(X, OperatorMatrix.from_dense(sp, wide), 0.3, pc,
                          states)
    with pytest.raises(InputError, match="diagonal"):
        heisenberg_action(OperatorMatrix.from_dense(sp, smeared), H, 0.3, pc,
                          states)


@pytest.fixture(scope="module")
def small():
    grid = Grid1D(-8.0, 8.0, 201)
    sp = build_space(grid, "L2")
    rng = np.random.default_rng(7)
    states = rng.standard_normal((3, grid.n)) \
        + 1j * rng.standard_normal((3, grid.n))
    return grid, sp, position_operator(sp), states


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_heisenberg_action_equals_dense_conjugation(small, sign):
    """Boundary rows included: the states do not vanish at the walls."""
    grid, sp, X, states = small
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), sign)
    H = hamiltonian(None, pc, 0.5 * grid.x ** 2, sp)
    for s in (0.3, 1.7):
        got = heisenberg_action(X, H, s, pc, states)
        ref = heisenberg_operator(X, H, s, pc).matrix @ states.T
        assert got.shape == states.shape
        assert np.max(np.abs(got - ref.T)) < 1e-12


@pytest.mark.parametrize("sign, i_sign", [("minus", 1), ("plus", -1)],
                         ids=["minus", "plus"])
def test_conjugation_matches_expm_of_dense_hamiltonian(solves, sign, i_sign):
    """Independent oracle for the exact conjugation: on the interior,
    ``X(s) = L X L^H`` with ``L = expm(+i H s / hbar)`` of the dense
    interior H on the minus branch and ``expm(-i H s / hbar)`` on the plus
    branch, no eigensystem involved.  Odd (n = 61) and even (n = 62)
    interior counts, on the mirrored oscillator, which is solved as its
    two sectors, and on a tilted one, which is solved whole."""
    from scipy.linalg import expm
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), sign)
    for n, tilt in ((61, 0.0), (62, 0.0), (61, 0.3), (62, 0.3)):
        grid = Grid1D(-8.0, 8.0, n)
        sp = build_space(grid, "L2")
        X = position_operator(sp)
        H = hamiltonian(None, pc, 0.5 * grid.x ** 2 + tilt * grid.x, sp)
        states = np.random.default_rng(3).standard_normal((3, grid.n)) + 0j
        count = len(solves)
        for s in (0.3, 1.7):
            L = expm(i_sign * 1j * s / HBAR * H.matrix[1:-1, 1:-1].real)
            ref = np.diag(grid.x.astype(complex))
            ref[1:-1, 1:-1] = (L * grid.x[1:-1]) @ L.conj().T
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(
                heisenberg_operator(X, H, s, pc).matrix - ref)) < 1e-12 * scale
            got = heisenberg_action(X, H, s, pc, states)
            assert np.max(np.abs(got - states @ ref.T)) \
                < 1e-12 * np.max(np.abs(states @ ref.T))
        m = n - 2
        assert solves[count:] == ([m] if tilt else [(m + 1) // 2, m // 2])


@pytest.mark.parametrize("n, tilt", [(21, 0.0), (22, 0.0), (201, 0.0),
                                     (201, 0.3)])
def test_dense_conjugation_equals_the_expand_unfold_bit_for_bit(n, tilt):
    """The dense X(s), written into its output quadrant by quadrant,
    equals the sector block unfolded by ``_expand`` twice and added to its
    adjoint, on the same sectors, bit for bit: odd (n = 21) and even
    (n = 22) interior counts, n = 201, and a tilted H, which is one
    sector."""
    from nelsonlab.algebra.evolution import (_conjugation_eigensystem,
                                             _expand, _real_right_matmul)
    from nelsonlab.params import MASS
    grid = Grid1D(-8.0, 8.0, n)
    sp = build_space(grid, "L2")
    X = position_operator(sp)
    for sign in ("minus", "plus"):
        pc = continue_to_imaginary(diffusion_params("nu", 0.5), sign)
        H = hamiltonian(None, pc, 0.5 * grid.x ** 2 + tilt * grid.x, sp)
        sectors, (r, c, a) = _conjugation_eigensystem(X, H, pc)
        assert len(sectors) == (1 if tilt else 2)
        (parity_r, lam_r, U_r), (parity_c, lam_c, U_c) = (sectors[r],
                                                          sectors[c])
        for s in (0.3, 1.7):
            # the sector block, as heisenberg_operator forms it
            scale = s / (2.0 * MASS * pc.nu)
            inner = U_r[:a.size].T @ (a[:, None] * U_c[:a.size])
            inner = np.exp(lam_r * scale)[:, None] * inner \
                * np.exp(-lam_c * scale)
            block = _real_right_matmul(
                _real_right_matmul(inner.T, U_r.T).T, U_c.T)
            # the reference unfold: Q_r B Q_c^T, then its adjoint added
            block = _expand(_expand(block, parity_c, n - 2), parity_r, n - 2,
                            axis=0)
            ref = np.diag(X.diagonal(0).astype(complex))
            interior = ref[1:-1, 1:-1]
            if r == c:
                interior[...] = block
            else:
                np.conjugate(block.T, out=interior)
                interior += block
            assert np.array_equal(heisenberg_operator(X, H, s, pc).matrix,
                                  ref)


@pytest.mark.parametrize("n", [201, 801, 1601])
@pytest.mark.parametrize("well", ["oscillator", "double_well"])
def test_sector_driver_gives_orthonormal_eigenpairs(solves, well, n):
    """Every sector that ``_SECTOR_DRIVER`` solves has orthonormal
    eigenvectors, ``max|U^T U - I| < 1e-11``, and a residual
    ``max|T U - U Lambda| < 1e-13 ||T||``, with
    ``||T|| = max|d| + 2 max|e|``, on the oscillator and on the double
    well ``(x^2 - 4)^2 / 16``."""
    from nelsonlab.algebra.evolution import (_eigh_bands, _interior_bands,
                                             _mirrored, _sector_bands)
    grid = Grid1D(-8.0, 8.0, n)
    sp = build_space(grid, "L2")
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    V = (0.5 * grid.x ** 2 if well == "oscillator"
         else (grid.x ** 2 - 4.0) ** 2 / 16.0)
    diag, off = _interior_bands(hamiltonian(None, pc, V, sp))
    assert _mirrored(diag, off, grid.x[1:-1])
    for (parity, d, e), (_, lam, U) in zip(
            _sector_bands(diag, off, True), _eigh_bands(diag, off, True)):
        norm = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
        TU = d[:, None] * U
        TU[:-1] += e[:, None] * U[1:]
        TU[1:] += e[:, None] * U[:-1]
        assert np.max(np.abs(U.T @ U - np.eye(d.size))) < 1e-11
        assert np.max(np.abs(TU - U * lam)) < 1e-13 * norm
    assert solves == [(n - 1) // 2, (n - 2) // 2]


def test_heisenberg_action_at_zero_lag_is_position(small):
    grid, sp, X, states = small
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    H = hamiltonian(None, pc, 0.5 * grid.x ** 2, sp)
    got = heisenberg_action(X, H, 0.0, pc, states)
    assert np.max(np.abs(got - grid.x * states)) < 1e-12


def test_lag_sequences_match_scalar_calls_bit_for_bit(small, grid801):
    grid, sp, X, states = small
    lags = [0.0, 0.25, 1.0, 2.5]
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "plus")
    H = hamiltonian(None, pc, 0.5 * grid.x ** 2, sp)
    seq = heisenberg_action(X, H, lags, pc, states)
    assert seq.shape == (len(lags), *states.shape)
    for j, s in enumerate(lags):
        assert np.array_equal(seq[j], heisenberg_action(X, H, s, pc, states))
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    for p in _members():
        seq = two_time_position_correlation(ws, p, lags)
        assert seq.shape == (len(lags),)
        for j, s in enumerate(lags):
            one = two_time_position_correlation(ws, p, s)
            assert type(one) is complex and one == seq[j]


def test_heisenberg_action_contracts(small):
    grid, sp, X, states = small
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    H = hamiltonian(None, pc, 0.5 * grid.x ** 2, sp)
    with pytest.raises(UnsupportedConfigError):
        heisenberg_action(X, H, 0.1, diffusion_params("nu", 0.5), states)
    other = position_operator(build_space(Grid1D(-8.0, 8.0, 101), "L2"))
    with pytest.raises(InputError, match="grids"):
        heisenberg_action(other, H, 0.1, pc, states[:, :101])
    for bad in (states[:, :-1], states[0], states[None]):
        with pytest.raises(InputError, match="states"):
            heisenberg_action(X, H, 0.1, pc, bad)
    with pytest.raises(InputError, match="lags"):
        heisenberg_action(X, H, [[0.1]], pc, states)


def test_closed_form_checks_build_no_dense_evolved_operator(monkeypatch):
    """heisenberg_closed_form and continued_two_time pass on the state
    action alone: the dense conjugation and from_dense are never called."""
    from nelsonlab.algebra import evolution
    from nelsonlab.harness import checks
    from nelsonlab.harness.config import ExperimentConfig

    def forbidden(*args, **kwargs):
        raise AssertionError("dense X(s) formed")

    for owner in (evolution, checks):
        monkeypatch.setattr(owner, "heisenberg_operator", forbidden)
    monkeypatch.setattr(OperatorMatrix, "from_dense", forbidden)
    ctx = checks.CheckContext(ExperimentConfig())
    for check in (checks.check_heisenberg_closed_form,
                  checks.check_continued_two_time):
        assert [r.status for r in check(ctx)] == ["pass"]


@pytest.fixture()
def solves(monkeypatch):
    """Sizes of the eigensolves, in call order; starts from an empty held
    eigensystem and no kept solve of the stationary generator."""
    from scipy import linalg

    from nelsonlab.algebra import evolution
    calls = []

    def counted(diag, off, **kwargs):
        calls.append(diag.size)
        return linalg.eigh_tridiagonal(diag, off, **kwargs)

    monkeypatch.setattr(evolution, "eigh_tridiagonal", counted)
    monkeypatch.setattr(evolution, "_last_eigensystem", None)
    monkeypatch.setattr(evolution, "_last_generator", None)
    return calls


def _fresh(H, split):
    """``(parity, lam, U)`` of each sector of H from fresh solves that
    bypass the kept eigensystem."""
    from scipy import linalg

    from nelsonlab.algebra.evolution import (_SECTOR_DRIVER, _interior_bands,
                                             _sector_bands)
    return [(parity, *linalg.eigh_tridiagonal(d, e,
                                              lapack_driver=_SECTOR_DRIVER))
            for parity, d, e in _sector_bands(*_interior_bands(H), split)]


def _same_sectors(got, ref):
    return len(got) == len(ref) and all(
        pg == pr and np.array_equal(lg, lr) and np.array_equal(ug, ur)
        for (pg, lg, ug), (pr, lr, ur) in zip(got, ref))


def test_conjugation_paths_share_one_eigensolve(solves):
    """The dense and state conjugations and the Hamiltonian route of both
    continued two-time branches on one grid and V diagonalize H once, as
    its two mirror sectors of 100 and 99 nodes, and every result equals
    the one from fresh sector solves bit for bit."""
    from nelsonlab.algebra import evolution
    ctx = CheckContext(ExperimentConfig())
    grid = Grid1D(-8.0, 8.0, 201)
    ws = analytic_oracle("ho_ground", None, grid, [0.0])
    V = 0.5 * grid.x ** 2
    sp = build_space(grid, "L2")
    X = position_operator(sp)
    pm = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    H = hamiltonian(None, pm, V, sp)
    calls = (lambda: heisenberg_operator(X, H, 0.3, pm).matrix,
             lambda: heisenberg_action(X, H, [0.3, 1.0], pm,
                                       [X.apply(ws.R[0])]),
             lambda: _hamiltonian_two_time(ws, ctx.continued(grid, "minus"),
                                           [0.25, 1.0]),
             lambda: _hamiltonian_two_time(ws, ctx.continued(grid, "plus"),
                                           [0.25, 1.0]))
    shared = [call() for call in calls]
    assert solves == [100, 99]
    bands = evolution._interior_bands(H)
    assert evolution._mirrored(*bands, grid.x[1:-1])
    assert _same_sectors(evolution._eigh_bands(*bands, True), _fresh(H, True))
    assert solves == [100, 99]
    for call, got in zip(calls, shared):
        evolution._last_eigensystem = None
        assert np.array_equal(got, call())
    assert solves == [100, 99] * 5


def test_one_ulp_change_in_v_is_a_new_eigensolve(solves):
    grid = Grid1D(-8.0, 8.0, 201)
    sp = build_space(grid, "L2")
    X = position_operator(sp)
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    V = 0.5 * grid.x ** 2
    bumped = V.copy()
    bumped[151] = np.nextafter(bumped[151], np.inf)
    H, Hb = (hamiltonian(None, pc, v, sp) for v in (V, bumped))
    assert not np.array_equal(H.diagonal(0), Hb.diagonal(0))
    states = [X.apply(np.exp(-grid.x ** 2))]
    heisenberg_action(X, H, 0.5, pc, states)
    got = heisenberg_action(X, Hb, 0.5, pc, states)
    assert solves == [100, 99] * 2     # both mirrored to rounding
    from nelsonlab.algebra import evolution
    evolution._last_eigensystem = None
    assert np.array_equal(got, heisenberg_action(X, Hb, 0.5, pc, states))


def test_alternating_hamiltonians_match_fresh_solves(solves):
    """Mirrored Hamiltonians give their fresh sector solves and a tilted
    one its fresh full solve, bit for bit, whatever was kept before."""
    from nelsonlab.algebra.evolution import (_eigh_bands, _interior_bands,
                                             _mirrored)
    grid = Grid1D(-8.0, 8.0, 201)
    sp = build_space(grid, "L2")
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    A = hamiltonian(None, pc, 0.5 * grid.x ** 2, sp)
    B = hamiltonian(None, pc, 0.25 * grid.x ** 2, sp)
    T = hamiltonian(None, pc, 0.5 * grid.x ** 2 + 0.3 * grid.x, sp)
    for H, split in ((A, True), (T, False), (B, True), (A, True)):
        bands = _interior_bands(H)
        assert _mirrored(*bands, grid.x[1:-1]) == split
        assert _same_sectors(_eigh_bands(*bands, split), _fresh(H, split))
    assert solves == [100, 99, 199, 100, 99, 100, 99]


def test_held_eigensystem_is_read_only(solves):
    from nelsonlab.algebra.evolution import _eigh_bands
    for diag, split in ((np.arange(5.0), False),
                        (np.array([1.0, 2.0, 3.0, 2.0, 1.0]), True)):
        count = len(solves)
        sectors = _eigh_bands(diag, np.ones(4), split)
        for _, lam, U in sectors:
            assert not lam.flags.writeable and not U.flags.writeable
            with pytest.raises(ValueError):
                U[0, 0] = 1.0
        again = _eigh_bands(diag, np.ones(4), split)
        assert all(a[1] is b[1] and a[2] is b[2]
                   for a, b in zip(again, sectors))
        assert len(solves) == count + len(sectors)
    assert solves == [5, 3, 2]


def test_held_eigensystem_is_keyed_on_both_bands(solves):
    from nelsonlab.algebra.evolution import _eigh_bands
    diag, off = np.arange(5.0), np.ones(4)
    for bands in ((diag, off), (diag, 2.0 * off), (diag + 1.0, 2.0 * off),
                  (diag + 1.0, 2.0 * off)):
        _eigh_bands(*bands, False)
    assert len(solves) == 3


def test_threads_on_different_grids_get_their_serial_results():
    from concurrent.futures import ThreadPoolExecutor
    lags = [0.25, 1.0]
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    actions = []
    for n, tilt in ((201, 0.0), (241, 0.3)):     # two sectors, and one
        grid = Grid1D(-8.0, 8.0, n)
        sp = build_space(grid, "L2")
        X = position_operator(sp)
        H = hamiltonian(None, pc, 0.5 * grid.x ** 2 + tilt * grid.x, sp)
        actions.append((X, H, [X.apply(np.exp(-grid.x ** 2))]))
    serial = [heisenberg_action(X, H, lags, pc, st) for X, H, st in actions]

    def act(job):
        X, H, st = job
        return [heisenberg_action(X, H, lags, pc, st) for _ in range(20)]

    with ThreadPoolExecutor(2) as pool:
        for runs, ref in zip(pool.map(act, actions), serial):
            assert all(np.array_equal(r, ref) for r in runs)
    jobs = []
    for grid, p in ((Grid1D(-8.0, 8.0, 201), pc),      # odd sectors, and
                    (Grid1D(-8.0, 8.0, 241), diffusion_params("nu", 0.7)),
                    (Grid1D(-7.0, 9.0, 221), pc)):     # one full solve
        jobs.append((analytic_oracle("ho_ground", None, grid, [0.0]), p))
    serial = [two_time_position_correlation(ws, p, lags) for ws, p in jobs]

    def repeat(job):
        return [two_time_position_correlation(*job, lags) for _ in range(20)]

    with ThreadPoolExecutor(3) as pool:
        for runs, ref in zip(pool.map(repeat, jobs), serial):
            assert all(np.array_equal(r, ref) for r in runs)


def test_fast_suite_makes_three_conjugation_eigensolves_per_run(solves):
    """Heisenberg Taylor (n = 25 and 31) and the n = 801 Hamiltonian shared
    by the closed-form and continued two-time checks: three Hamiltonians,
    each mirrored and solved as its two sectors (interior counts 23, 29
    and 799), and as many again on a second run, so no Hamiltonian is
    reused across runs.  The continued two-time check solves the 399-node
    odd sector of the stationary generator, which the second run finds
    kept."""
    from nelsonlab.harness.suite import verify_suite
    run = [12, 11, 15, 14, 400, 399]
    verify_suite("fast")
    assert solves == run + [399]
    verify_suite("fast")
    assert solves == run + [399] + run


def test_lags_must_be_finite(small, grid801):
    grid, sp, X, states = small
    pc = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    H = hamiltonian(None, pc, 0.5 * grid.x ** 2, sp)
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    for bad in (np.nan, np.inf, [0.5, -np.inf]):
        with pytest.raises(InputError, match="finite"):
            heisenberg_action(X, H, bad, pc, states)
        for p in (diffusion_params("nu", 0.5), pc):
            with pytest.raises(InputError, match="finite"):
                two_time_position_correlation(ws, p, bad)


def test_real_two_time_rejects_negative_lags(grid801):
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    p = diffusion_params("nu", 0.5)
    for bad in (-1.0, [0.5, -1e-3]):
        with pytest.raises(InputError, match="s >= 0"):
            two_time_position_correlation(ws, p, bad)
    # the unitary continued branch is defined for either sign
    pc = continue_to_imaginary(p, "minus")
    got = two_time_position_correlation(ws, pc, -1.0)
    assert abs(got - 0.5 * np.exp(1j)) < 5e-3


def test_real_lags_solve_only_the_window_they_see(solves, grid801):
    """Every lag, 0, short or long, on every member, is served by one solve
    of the only sector x theta sees, the 399-node odd sector of M: no lag
    solves all 799 nodes, and no lag after the first solves anything."""
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    m = grid801.n - 2
    two_time_position_correlation(ws, diffusion_params("nu", 1.0), 0.5)
    assert solves == [m // 2]
    for p in _members():
        for s in (0.0, 0.005, 0.5, 10.0):
            two_time_position_correlation(ws, p, s)
    assert solves == [m // 2]


def test_real_lag_sweep_shares_its_windows(solves, grid801):
    """Twenty lags from 0.05 to 5 take one odd-sector solve of 399 nodes
    and no full solve, on any member; the other members on the same state
    take none."""
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    sweep = np.geomspace(0.05, 5.0, 20)
    for p in _members():
        two_time_position_correlation(ws, p, sweep)
    assert solves == [(grid801.n - 2) // 2]


def test_mixed_real_lag_sequence_matches_scalar_calls_bit_for_bit(
        solves, grid801):
    """A sequence of zero, short and long lags takes one odd-sector solve
    on every member, and every element is its scalar call."""
    from nelsonlab.algebra import evolution
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    lags = [0.5, 0.0, 0.005, 5.0, 0.52, 0.01, 1.0, 0.5]
    for p in _members():
        evolution._last_generator = None
        count = len(solves)
        seq = two_time_position_correlation(ws, p, lags)
        assert solves[count:] == [(grid801.n - 2) // 2]
        for j, s in enumerate(lags):
            one = two_time_position_correlation(ws, p, s)
            assert type(one) is complex and one == seq[j]
        assert len(solves) == count + 1


def test_real_call_keeps_the_held_hamiltonian(solves, grid801):
    """Two-time calls on any member after a Hamiltonian solve on the same
    grid leave the kept eigensystem in place: the Hamiltonian route of the
    other branch diagonalizes nothing new."""
    from nelsonlab.algebra import evolution
    ctx = CheckContext(ExperimentConfig())
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    _hamiltonian_two_time(ws, ctx.continued(grid801, "minus"), [0.5])
    held = evolution._last_eigensystem
    assert solves == [400, 399]
    for p in _members():
        for lag in (0.5, 0.005):
            two_time_position_correlation(ws, p, lag)
            assert evolution._last_eigensystem is held
            _hamiltonian_two_time(ws, ctx.continued(grid801, "plus"), [0.5])
    assert solves == [400, 399, 399]


@pytest.mark.parametrize("n", [400, 401, 801, 3201])
def test_mirrored_state_solves_exactly_symmetric_bands(monkeypatch, n):
    """On the oscillator ground state the bands that reach the solve equal
    their mirror image exactly, for either parity of m, and v is exactly
    mirror-odd, so its even sector is exactly zero."""
    from nelsonlab.algebra import evolution
    seen = []
    solve = evolution._generator_eigenpairs

    def spy(diag, off, v, split):
        seen.append((diag, off, v, split))
        return solve(diag, off, v, split)

    monkeypatch.setattr(evolution, "_generator_eigenpairs", spy)
    monkeypatch.setattr(evolution, "_last_generator", None)
    ws = analytic_oracle("ho_ground", None, Grid1D(-8.0, 8.0, n), [0.0])
    two_time_position_correlation(ws, diffusion_params("nu", 1.0), 0.5)
    [(diag, off, v, split)] = seen
    assert split and diag.size == n - 2
    assert np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1])
    assert np.array_equal(v, -v[::-1])
    assert not evolution._restrict(v, 1).any()


def test_off_mirror_state_takes_one_full_solve(solves):
    """A state on a box that is not centred at 0 takes one solve of all of
    M's 799 nodes and matches the dense oracle on every member."""
    grid = Grid1D(-7.0, 9.0, 801)
    ws = analytic_oracle("ho_ground", None, grid, [0.0])
    M, theta = _dense_generator(ws)
    lam, U = np.linalg.eigh(M)
    v = grid.x[1:-1] * theta / np.sqrt(np.sum(theta ** 2) * grid.dx)
    w = U.T @ v
    lags = np.array([0.5, 1.0, 2.5])
    for p in _members():
        got = two_time_position_correlation(ws, p, lags)
        for s, g in zip(lags, got):
            ref = np.sum(w * np.exp(np.conj(p.nu) * lam * s) * w)
            assert abs(g / grid.dx - ref) < 1e-12 * np.sum(v * v)
    assert solves == [grid.n - 2]


@pytest.mark.parametrize("stretch", [1.01, 0.99])
def test_eigenvectors_that_are_not_orthonormal_are_a_numerical_breakdown(
        monkeypatch, grid801, stretch):
    """Stretched or shrunk eigenvectors keep their residual small but
    carry more or less weight than x theta has: Parseval sees both."""
    from scipy import linalg

    from nelsonlab import NumericalBreakdownError
    from nelsonlab.algebra import evolution

    def solve(diag, off, **kwargs):
        lam, U = linalg.eigh_tridiagonal(diag, off, **kwargs)
        return lam, stretch * U

    monkeypatch.setattr(evolution, "eigh_tridiagonal", solve)
    monkeypatch.setattr(evolution, "_last_generator", None)
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    with pytest.raises(NumericalBreakdownError, match="not orthonormal"):
        two_time_position_correlation(ws, diffusion_params("nu", 1.0), 0.5)


def test_failed_generator_solve_is_a_numerical_breakdown(monkeypatch,
                                                         grid801):
    from nelsonlab import NumericalBreakdownError
    from nelsonlab.algebra import evolution

    def failing(diag, off, **kwargs):
        raise np.linalg.LinAlgError("1 eigenvectors failed to converge")

    monkeypatch.setattr(evolution, "eigh_tridiagonal", failing)
    monkeypatch.setattr(evolution, "_last_generator", None)
    ws = analytic_oracle("ho_ground", None, grid801, [0.0])
    with pytest.raises(NumericalBreakdownError, match="eigendecomposition"):
        two_time_position_correlation(ws, diffusion_params("nu", 1.0), 0.5)
