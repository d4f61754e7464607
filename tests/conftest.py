from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from drgf import oracle


@pytest.fixture(scope="session")
def catalog_graphs():
    """All seven witness graphs, built once per session."""
    return {name: oracle.build(name) for name, _arr in oracle.CATALOG}


@pytest.fixture(scope="session")
def poly_eval_frac():
    """Sign-faithful integer evaluation of sum c_i x^i, scaled by den(x)^deg."""
    def evaluate(coeffs: list[int], x: Fraction) -> int:
        acc, qpow = 0, 1
        for coef in reversed(coeffs):
            acc, qpow = acc * x.numerator + coef * qpow, qpow * x.denominator
        return acc
    return evaluate


@pytest.fixture(scope="session")
def intersection_matrix():
    """L as a dense (D+1)x(D+1) integer matrix: diag a_i, super b_i, sub c_i,
    for oracles that take a whole matrix (sympy's charpoly, numpy's eigvals)."""
    return lambda arr: sum(np.diag(np.array(x, dtype=np.int64), d)
                           for x, d in ((arr.a, 0), (arr.b, 1), (arr.c, -1)))


@pytest.fixture(scope="session")
def consistent():
    """Whether a PruningStats accounts for every array it generated: each
    one either survives or is killed by exactly one check."""
    return lambda st: st.generated == st.survivors + sum(st.killed.values())


@pytest.fixture(scope="session")
def standard_u():
    """The standard sequence u_0, ..., u_D of theta by its own recurrence
    [BCN 4.1], apart from drgf's minor kernel: u_0 = 1, u_1 = theta/k and
    b_i u_{i+1} = (theta - a_i) u_i - c_i u_{i-1}; exact Fractions at an int
    or Fraction theta, else mpf values at 50 digits."""
    def sequence(arr, theta) -> tuple:
        with mp.workdps(50):
            th = Fraction(theta) if isinstance(theta, (int, Fraction)) else mp.mpf(theta)
            u = [th ** 0, th / arr.k]
            for i in range(1, arr.D):
                u.append(((th - arr.a[i]) * u[i] - arr.c[i - 1] * u[i - 1]) / arr.b[i])
            return tuple(u)
    return sequence
