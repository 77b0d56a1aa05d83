"""The numpy '%.17g' kernel of the field CSV against Python's own '%'."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirescat import _fmt17


def texts(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _fmt17.cells(np.asarray(values, dtype=np.float64))
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in rows]


def expected(values):
    return ["%.17g" % v for v in values]


@settings(max_examples=2000, deadline=None, database=None)
@given(v=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_one_value_matches_python(v):
    assert texts([v]) == expected([v])


@settings(max_examples=300, deadline=None, database=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                       min_size=1, max_size=40))
def test_mixed_batch_matches_python(values):
    # cells of one batch share a width; fallback and kernel rows mix
    assert texts(values) == expected(values)


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-300, 301):
        p = float(f"1e{k}")
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    values += [-v for v in values]
    assert texts(values) == expected(values)


@pytest.mark.parametrize("value, text", [
    (1234567890123456.25, "1234567890123456.2"),  # exact ties round to even
    (1234567890123456.75, "1234567890123456.8"),
    (99999999999999999.0, "1e+17"),  # the carry into the next decade
    (1e16, "10000000000000000"),  # integer zeros are kept
    (-0.0, "-0"),
    (0.0, "0"),
    (1.5e-300, "1.5000000000000001e-300"),  # three-digit exponents
    (-2.5e250, "-2.5000000000000001e+250"),
    (1e-5, "1.0000000000000001e-05"),
    (0.0001, "0.0001"),
    (5e-324, "4.9406564584124654e-324"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (math.nan, "nan"),
])
def test_hand_cases(value, text):
    assert texts([value]) == [text] == expected([value])


def test_random_doubles_every_decade():
    rng = np.random.default_rng(26)
    bits = rng.integers(0, 2**63, 20000, dtype=np.uint64).view(np.float64)
    scaled = rng.random(20000) * 10.0 ** rng.integers(-20, 21, 20000)
    short = np.round(rng.random(20000) * 1e6) / 10.0 ** rng.integers(0, 8, 20000)
    values = np.concatenate([bits, -bits, scaled, -scaled, short]).tolist()
    assert texts(values) == expected(values)


def test_width_is_bounded_and_tight():
    assert _fmt17.cells([1.5, 2.25]).shape == (2, 4)
    assert _fmt17.cells([-1.5, 2.25]).shape == (2, 5)  # NUL for the sign of 2.25
    assert _fmt17.cells([-1.2345678901234567e-100]).shape == (1, 24)
    assert _fmt17.cells(np.empty(0)).shape[0] == 0
    assert _fmt17.cells(np.ones((3, 4))).shape[0] == 12
