import numpy as np
import pytest

from wirescat import DomainError
from wirescat.numerics import neville_diagonal


def scalar_tableau(x, y):
    """Neville's tableau one Python scalar at a time: the reference the
    array form is held to, bit for bit."""
    x = [np.float64(v) for v in x]
    col = list(y)
    diag = [col[0]]
    for order in range(1, len(col)):
        col = [(x[i] * col[i + 1] - x[i + order] * col[i]) / (x[i] - x[i + order])
               for i in range(len(col) - 1)]
        diag.append(col[0])
    return diag


@pytest.mark.parametrize("rungs", range(3, 9))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_array_ladder_equals_scalar_tableau(rungs, kind):
    rng = np.random.default_rng(rungs)
    for trial in range(20):
        if trial % 2:
            x = np.sort(rng.uniform(1e-6, 1.0, rungs))[::-1]
        else:
            x = (0.04 * 0.5 ** np.arange(rungs)) ** 2
        y = rng.standard_normal((rungs, 6)) * 10.0 ** rng.uniform(-8, 3)
        if kind == "complex":
            y = y + 1j * rng.standard_normal((rungs, 6))
        diag = neville_diagonal(x, y)
        assert len(diag) == rungs
        for j in range(y.shape[1]):
            ref = scalar_tableau(x, y[:, j].tolist())
            one = neville_diagonal(x, y[:, j].tolist())
            for k in range(rungs):
                assert diag[k][j] == ref[k] == one[k], (trial, j, k)


def test_exact_on_polynomials_in_x():
    x = np.array([0.16, 0.04, 0.01, 0.0025])
    y = np.stack([2.0 + 3.0 * x - x * x, (1.0 - 2.0j) * np.ones(4)], axis=1)
    assert neville_diagonal(x, y)[-1] == pytest.approx([2.0, 1.0 - 2.0j], abs=1e-12)


def test_one_value_per_rung():
    with pytest.raises(DomainError, match="one value per ladder point"):
        neville_diagonal([0.04, 0.01], np.ones((3, 2)))
    with pytest.raises(DomainError, match="strictly decreasing"):
        neville_diagonal([0.01, 0.04], [1.0, 2.0])
