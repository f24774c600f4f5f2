"""The transfer-matrix path-count table against path enumeration."""

from hypothesis import given, settings, strategies as st

from genrep.algebra_core import truncated_dim_vector
from genrep.homology import CyclicType, is_projective, syzygy_of_cyclic

from conftest import (
    _alg,
    endpoint_tally,
    enum_cyclic_dim_vector,
    enum_is_projective,
    enum_projective_layering,
    enum_syzygy_of_cyclic,
    projective_layering,
)


@st.composite
def small_algebras(draw):
    """Quivers on at most 3 vertices, loops and parallel arrows allowed, L <= 4."""
    vertices = [str(i) for i in range(1, draw(st.integers(1, 3)) + 1)]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         max_size=5))
    arrows = [(f"x{k}", s, t) for k, (s, t) in enumerate(ends)]
    return _alg(vertices, arrows, draw(st.integers(1, 4)))


@given(small_algebras())
@settings(max_examples=80, deadline=None)
def test_table_is_endpoint_tally_of_enumeration(alg):
    for v in alg.vertices:
        assert len(alg.path_counts[v]) == alg.L + 1
        for l in range(alg.L + 1):
            assert alg.path_counts[v][l] == endpoint_tally(alg, v, l)


@given(small_algebras())
@settings(max_examples=80, deadline=None)
def test_cyclic_invariants_match_enumeration(alg):
    for v in alg.vertices:
        for m in range(1, alg.L + 2):
            c = CyclicType(v, m)
            assert truncated_dim_vector(alg, v, m) == enum_cyclic_dim_vector(alg, v, m)
            assert is_projective(alg, c) == enum_is_projective(alg, v, m)
            assert syzygy_of_cyclic(alg, c) == enum_syzygy_of_cyclic(alg, v, m)


@given(small_algebras(), st.lists(st.integers(0, 2), min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_projective_layering_matches_enumeration(alg, top):
    S0 = tuple(top[:alg.n])
    assert projective_layering(alg, S0).layers == enum_projective_layering(alg, S0)


def test_table_is_cached_per_algebra(relay):
    assert relay.path_counts is relay.path_counts
    assert relay.path_counts["1"] == ((1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 4, 0))
