import numpy as np
import pytest

from nelsonlab import Grid1D, InputError


def test_nodes_and_spacing():
    g = Grid1D(-2.0, 2.0, 5)
    assert g.dx == 1.0
    assert np.allclose(g.x, [-2, -1, 0, 1, 2])
    assert g.x.flags.writeable is False


def test_quadratures():
    g = Grid1D(0.0, 1.0, 101)
    f = g.x ** 2
    assert abs(g.trapezoid(f) - 1 / 3) < 1e-4


@pytest.mark.parametrize("bad", [
    dict(x_min=0.0, x_max=1.0, n=2),
    dict(x_min=1.0, x_max=1.0, n=10),
    dict(x_min=2.0, x_max=1.0, n=10),
    dict(x_min=-np.inf, x_max=np.inf, n=5),
    dict(x_min=0.0, x_max=np.inf, n=5),
    dict(x_min=-np.inf, x_max=0.0, n=5),
    dict(x_min=np.nan, x_max=1.0, n=5),
])
def test_invalid_grids_rejected(bad):
    with pytest.raises(InputError):
        Grid1D(**bad)


def test_contains():
    g = Grid1D(-1.0, 1.0, 3)
    assert g.contains(np.array([-1.0, 0.3, 1.0])).all()
    assert not g.contains(np.array([1.5])).any()
