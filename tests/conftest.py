import contextlib
import math
import signal

import numpy as np
import pytest

from wirescat import Impurity

PI2 = math.pi**2


@pytest.fixture(scope="session")
def canonical_impurity():
    """The (eps, rho0) pair most of the worked comparisons use."""
    return Impurity(epsilon=0.3, rho0=0.01)


@pytest.fixture(scope="session")
def alarm():
    """``with alarm(seconds):`` raises TimeoutError inside the block once
    ``seconds`` have passed, for checks that a call returns promptly."""

    @contextlib.contextmanager
    def run(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"did not return within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return run


def brute_force_cut_sum(eps, omega, m, rho, n_terms):
    """Direct partial sum of the Gaussian-damped evanescent series,
    independent of the library kernels."""
    n = np.arange(m + 1, m + 1 + n_terms, dtype=float)
    npi = n * np.pi
    return 2 * np.pi * float(np.sum(
        np.sin(npi * eps) ** 2 / np.sqrt(npi**2 - omega) * np.exp(-(npi * rho / 2) ** 2)
    ))


def brute_force_log_scale(eps, omega, m, start=1e-3, levels=7):
    """ln(rho_bar) from raw partial sums plus a hand-rolled Neville table;
    shares no code with the library implementation."""
    rhos = [start * 0.5**k for k in range(levels)]
    vals = [math.log(r) + brute_force_cut_sum(eps, omega, m, r, int(4.8 / r) + 50)
            for r in rhos]
    xs = [r * r for r in rhos]
    for order in range(1, levels):
        vals = [
            (xs[i] * vals[i + 1] - xs[i + order] * vals[i]) / (xs[i] - xs[i + order])
            for i in range(levels - order)
        ]
    return vals[0]
