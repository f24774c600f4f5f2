"""Relations between invariants that hold by theorem, each tying two code paths.

Hom into a simple reads the top: a map M -> S_v factors through M / rad M, so
dim Hom(M, S_v) = S_0[v] at every point.  Hom out of a simple reads the socle: a map
S_v -> M lands in soc M, so dim Hom(S_v, M) = soc_v M, and at a generic point that is
``generic_socle``, counted off the layering with no module built.
"""

import pytest
from hypothesis import given, settings, strategies as st

from genrep.matrix_rep import RATIONALS, FieldSpec, generic_hom_dim, generic_socle

from conftest import realizable_layerings, seq

ORACLE_FIXTURES = ["double_back", "loop_out", "relay", "kronecker"]


def simple(alg, v):
    """The layering of the simple module at the vertex in position ``v``."""
    return seq(*([tuple(int(j == v) for j in range(alg.n))] + [(0,) * alg.n] * alg.L))


def draw_case(request, fixture, data):
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg).filter(lambda S: S.total_dim))
    return alg, S, data.draw(st.integers(0, alg.n - 1))


@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
@pytest.mark.parametrize("fs", [FieldSpec(), RATIONALS], ids=["Fp", "Q"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hom_into_a_simple_reads_the_top(request, fixture, fs, data):
    alg, S, v = draw_case(request, fixture, data)
    assert generic_hom_dim(alg, S, simple(alg, v), fs=fs) == S.top[v]


@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hom_out_of_a_simple_reads_the_socle(request, fixture, data):
    # over F_p only: the seeded points over Q are the first primes, which need not be
    # generic, and there the left side may exceed the generic socle
    alg, S, v = draw_case(request, fixture, data)
    assert generic_hom_dim(alg, simple(alg, v), S) == generic_socle(alg, S)[v]
