from fractions import Fraction

import pytest

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
def consistent():
    """Whether a PruningStats accounts for every array it generated: each
    one either survives or is killed by exactly one check."""
    return lambda st: st.generated == st.survivors + sum(st.killed.values())
