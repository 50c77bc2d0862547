import numpy as np
import pytest

from nelsonlab import InputError, diffusion_params, continue_to_imaginary
from nelsonlab.algebra import WeightedSpace, build_space
from nelsonlab.fields import analytic_oracle, ho_ground_density


def test_flat_space(grid801):
    sp = build_space(grid801, "L2")
    assert np.all(sp.weight == 1.0)
    f = np.exp(-grid801.x ** 2)
    assert sp.inner(f, f).real == pytest.approx(float(np.sum(f * f) * grid801.dx))


def test_density_weight(grid801, ground):
    sp = build_space(grid801, "H_t", ground.rho(0))
    ref = np.exp(-grid801.x ** 2) / np.sqrt(np.pi)
    assert np.max(np.abs(sp.weight - ref)) < 1e-12


def test_gauge_image_weight_real_mode(grid801):
    ws = analytic_oracle("ho_coherent", {"x0": 1.0}, grid801, [0.4])
    p = diffusion_params("nu", 1.0)
    sp = build_space(grid801, "I_t", ws.S[0], p)
    m = ws.mask[0]
    ref = np.exp(-2 * ws.S[0][m] / p.z.real)
    assert np.max(np.abs(sp.weight[m] - ref)) < 1e-12
    assert np.all(sp.weight[~m] == 1.0)   # NaN phase falls back to flat


def test_gauge_image_collapses_to_flat_in_continued_mode(grid801):
    ws = analytic_oracle("ho_coherent", {"x0": 1.0}, grid801, [0.4])
    pc = continue_to_imaginary(diffusion_params("nu", 1.0), "minus")
    sp = build_space(grid801, "I_t", ws.S[0], pc)
    assert np.max(np.abs(sp.weight - 1.0)) == 0.0


def test_inner_product_properties(grid801, rng):
    sp = build_space(grid801, "H_t", ho_ground_density(grid801.x))
    f = rng.standard_normal(grid801.n) + 1j * rng.standard_normal(grid801.n)
    g = rng.standard_normal(grid801.n) + 1j * rng.standard_normal(grid801.n)
    assert sp.inner(f, g) == pytest.approx(np.conj(sp.inner(g, f)))
    assert sp.inner(f, f).real > 0
    n = sp.norm(f)
    assert sp.norm(sp.normalize(f)) == pytest.approx(1.0)
    assert n > 0


def test_rejects_bad_weights(grid801):
    with pytest.raises(InputError):
        build_space(grid801, "H_t", None)
    with pytest.raises(InputError):
        build_space(grid801, "nonsense")
    with pytest.raises(InputError):
        build_space(grid801, "H_t", -np.ones(grid801.n))
    with pytest.raises(InputError):
        build_space(grid801, "I_t", np.zeros(grid801.n))  # needs params


def test_space_is_its_grid_and_weight(grid801):
    """The kind names a recipe for the weight; the space stores only the
    weight it produced."""
    with pytest.raises(TypeError):
        WeightedSpace(grid801, np.ones(grid801.n), kind="L2")
