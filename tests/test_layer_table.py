"""The functions that count off a layering S all read ``algebra_core._layer_table``.

Each must raise what its own per-level loop raised (the oracles in ``conftest``), in the
same order and with the same message, return what that loop returned, and compute the
one-arrow extension counts of S at most once per level.
"""

import pytest
from hypothesis import given, settings, strategies as st

from genrep.algebra_core import TruncatedAlgebra, _layer_table, realizable
from genrep.components import annihilating_arrows
from genrep.errors import GenrepError, UnrealizableError, ValidationError
from genrep.generic_builder import bundle_tower
from genrep.homology import first_syzygy
from genrep.matrix_rep import RATIONALS, FieldSpec, generic_socle
from genrep.skeleta import count_skeleta

from conftest import (
    annihilating_arrows_by_levels,
    bundle_N,
    bundle_tower_by_levels,
    count_skeleta_by_levels,
    drawn_algebras,
    first_syzygy_by_levels,
    generic_socle_by_levels,
    invariants_N_by_levels,
    realizable_by_levels,
    realizable_layerings,
    seq,
)

# (function, its per-level oracle); generic_socle's take a field too
READERS = [(realizable, realizable_by_levels), (count_skeleta, count_skeleta_by_levels),
           (bundle_N, invariants_N_by_levels), (first_syzygy, first_syzygy_by_levels),
           (bundle_tower, bundle_tower_by_levels),
           (annihilating_arrows, annihilating_arrows_by_levels)]
FIELDS = [FieldSpec(), RATIONALS, FieldSpec(7)]


@st.composite
def layerings(draw, alg):
    """A malformed S (a layer too many or too few, or a row too wide or too narrow), an
    S of small entries, mostly unrealizable, or a realizable S."""
    kind = draw(st.sampled_from(["length", "width", "any", "realizable"]))
    if kind == "realizable":
        return draw(realizable_layerings(alg))
    height = alg.L + 1 + (draw(st.sampled_from([-1, 1])) if kind == "length" else 0)
    width = alg.n + (draw(st.sampled_from([-1, 1])) if kind == "width" else 0)
    row = st.lists(st.integers(0, 3), min_size=width, max_size=width)
    return seq(*draw(st.lists(row, min_size=height, max_size=height)))


def outcome(fn, *args):
    """("value", what ``fn`` returns), or the class and message of the error it raises."""
    try:
        return "value", fn(*args)
    except GenrepError as exc:
        return type(exc), str(exc)


def assert_readers_match_oracles(alg, S, fs):
    for fn, oracle in READERS:
        assert outcome(fn, alg, S) == outcome(oracle, alg, S), fn.__name__
    assert outcome(generic_socle, alg, S, fs) == outcome(generic_socle_by_levels, alg, S, fs)


@pytest.mark.parametrize("fixture", ["loop_out", "double_back", "relay", "line_swing"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_readers_match_per_level_oracles_on_fixtures(request, fixture, data):
    alg = request.getfixturevalue(fixture)
    assert_readers_match_oracles(alg, data.draw(layerings(alg)), data.draw(st.sampled_from(FIELDS)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_readers_match_per_level_oracles_on_drawn_quivers(data):
    alg = data.draw(drawn_algebras())
    assert_readers_match_oracles(alg, data.draw(layerings(alg)), data.draw(st.sampled_from(FIELDS)))


def test_layer_table_of_a_layering(relay):
    # relay: a1, a2: 1->2, b: 2->3, g1, g2: 3->2, L = 3
    S = seq((1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 3, 0))
    A, tail = _layer_table(relay, S)
    assert A == [(0, 2, 0), (0, 0, 2), (0, 4, 0)]
    assert tail == [(1, 5, 2), (0, 5, 2), (0, 3, 2), (0, 3, 0), (0, 0, 0)]
    with pytest.raises(UnrealizableError, match=r"^\(\[1, 0, 0\], \[0, 3, 0\], .* is not realizable$"):
        _layer_table(relay, seq((1, 0, 0), (0, 3, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValidationError, match="sequence has 3 layers, algebra needs 4"):
        _layer_table(relay, seq((1, 0, 0), (0, 3, 0), (0, 0, 0)))


@pytest.mark.parametrize("fixture, layers", [
    ("relay", [(1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 3, 0)]),    # realizable
    ("relay", [(1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 5, 0)]),    # short at the last level
    ("relay", [(1, 0, 0), (0, 3, 0), (0, 0, 0), (0, 0, 0)]),    # short at the first level
    ("loop_out", [(2, 0), (2, 2), (1, 1)]),                     # realizable, with a loop
    ("loop_out", [(1, 0), (0, 0), (1, 0)]),                     # short at the last level
])
def test_each_reader_counts_extensions_at_most_once_per_level(request, monkeypatch,
                                                             fixture, layers):
    alg, S = request.getfixturevalue(fixture), seq(*layers)
    calls, original = [], TruncatedAlgebra.extension_counts

    def counted(self, layer):
        calls.append(layer)
        return original(self, layer)

    monkeypatch.setattr(TruncatedAlgebra, "extension_counts", counted)
    for fn, _ in READERS + [(generic_socle, None)]:
        calls.clear()
        outcome(fn, alg, S)
        assert 0 < len(calls) <= alg.L, fn.__name__
