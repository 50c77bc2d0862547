import pytest
from hypothesis import given, strategies as st

from nelsonlab import DomainError, InputError, diffusion_params, continue_to_imaginary
from nelsonlab.params import (HBAR, MASS, MODE_MINUS, MODE_PLUS, MODE_REAL,
                              DiffusionParams)


def test_reference_members():
    p = diffusion_params("beta", 0.0)
    assert p.nu == 0.5 and p.z == 1.0          # nu = hbar/2m
    p = diffusion_params("beta", 1.5)
    assert abs(p.z - 2.0) < 1e-15 and abs(p.nu - 1.0) < 1e-15


def test_beta_upper_bound_rejected():
    with pytest.raises(DomainError):
        diffusion_params("beta", 2.0)
    with pytest.raises(DomainError):
        diffusion_params("beta", 2.5)


def test_nonpositive_nu_rejected():
    with pytest.raises(DomainError):
        diffusion_params("nu", 0.0)
    with pytest.raises(DomainError):
        diffusion_params("nu", -1.0)


def test_unknown_kind_and_mode():
    with pytest.raises(InputError):
        diffusion_params("gamma", 1.0)
    with pytest.raises(InputError):
        DiffusionParams("0.5")


def test_inconsistent_triples_cannot_be_built():
    with pytest.raises(TypeError):
        DiffusionParams(nu=1.0, z=7.0, beta=0.0, mode="real")
    with pytest.raises(TypeError):
        DiffusionParams(nu=5j, z=1j, beta=4.0, mode="continued-plus")
    for name, value in (("z", 2.0), ("beta", 1.5), ("mode", MODE_REAL)):
        with pytest.raises(TypeError):
            DiffusionParams(nu=1.0, **{name: value})


def test_nu_outside_the_family_rejected():
    for nu in (5j, 0.3j, 0, -1, 0.5 + 0.5j, float("nan"), float("inf"),
               1e300):                    # beta rounds to 2 at nu = 1e300
        with pytest.raises(DomainError):
            DiffusionParams(nu)
    assert DiffusionParams(0.5j).mode == MODE_PLUS
    assert DiffusionParams(-0.5j).mode == MODE_MINUS


@given(st.one_of(st.floats(), st.complex_numbers(),
                 st.sampled_from([0.5j, -0.5j])))
def test_every_member_keeps_the_family_relations(nu):
    try:
        p = DiffusionParams(nu)
    except DomainError:
        return
    assert 2 * p.nu / p.z == HBAR / MASS
    assert p.is_real == (p.beta < 2)
    assert p.is_real == (p.mode == MODE_REAL)
    assert p.z == 2 * MASS * p.nu / HBAR


@given(st.floats(min_value=-10.0, max_value=1.99, exclude_max=True,
                 allow_nan=False))
def test_consistency_across_parameterizations(beta):
    p = diffusion_params("beta", beta)
    q = diffusion_params("nu", p.nu.real)
    assert abs(q.beta - beta) < 1e-10
    # fixed ratio across the family
    assert abs(2 * p.nu / p.z - HBAR / MASS) < 1e-15


def test_continued_branches():
    base = diffusion_params("nu", 0.5)
    pm = continue_to_imaginary(base, "minus")
    assert pm.mode == MODE_MINUS and pm.z == -1j and pm.nu == -0.5j
    pp = continue_to_imaginary(base, "plus")
    assert pp.mode == MODE_PLUS and pp.z == 1j and pp.nu == 0.5j
    assert abs(2 * pm.nu / pm.z - 1.0) < 1e-15
    assert 1 / pm.z == 1j                   # S/z = +i S on the minus branch
    with pytest.raises(InputError):
        continue_to_imaginary(base, "sideways")


def test_continued_members_only_from_continue_to_imaginary():
    base = diffusion_params("nu", 0.5)
    for spelling in (-1, "-", 1, "+"):
        with pytest.raises(InputError):
            continue_to_imaginary(base, spelling)
    with pytest.raises(TypeError):
        diffusion_params("nu", -1, mode=MODE_MINUS)
    # every member continues to the same two points
    for sign in ("minus", "plus"):
        assert continue_to_imaginary(diffusion_params("nu", 2.0), sign) \
            == continue_to_imaginary(base, sign)


def test_nu_real_guard():
    pm = continue_to_imaginary(diffusion_params("nu", 0.5), "minus")
    from nelsonlab import UnsupportedConfigError
    with pytest.raises(UnsupportedConfigError):
        _ = pm.nu_real
