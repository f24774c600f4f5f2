"""Cross-checks of the linear-algebra layer: the two Hom routes, the two
fields, the sparse elimination and the dense row-space oracle against exact
rank, and the sparse row space against that oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrep.algebra_core import enumerate_sequences
from genrep.generic_builder import generic_presentation
from genrep.matrix_rep import (
    RATIONALS,
    FieldSpec,
    RowSpace,
    _presented_hom_dim,
    ext_dim,
    generic_end_dim,
    generic_socle,
    hom_dim,
    mat_rank,
    materialize,
    module_point,
    seeded_assignment,
    socle,
)

from conftest import DenseRowSpace, bareiss_rank, fs_sub, seq

CASES = [("double_back", (2, 2)), ("double_back", (3, 2)), ("relay", (1, 2, 1)),
         ("loop_out", (3, 2))]  # a loop: two unknowns of one equation can share a column


def _layerings(request, name, dimvec):
    alg = request.getfixturevalue(name)
    return alg, enumerate_sequences(alg, dimvec)


@pytest.mark.parametrize("name,dimvec", CASES)
def test_rationals_agree_with_mod_p(request, name, dimvec):
    # socle, End and self-Ext^1 of every realizable layering, exact vs F_p
    alg, seqs = _layerings(request, name, dimvec)
    assert seqs
    for S in seqs:
        values = []
        for fs in (RATIONALS, FieldSpec()):
            pres = generic_presentation(alg, S)
            rep = materialize(pres, seeded_assignment(pres, 0, fs), fs)
            values.append((generic_socle(alg, S, fs=fs), generic_end_dim(alg, S, fs=fs),
                           ext_dim(alg, S, rep, 1, seeds=[0], fs=fs)))
        assert values[0] == values[1], S


@pytest.mark.parametrize("fs", [RATIONALS, FieldSpec()], ids=["Q", "Fp"])
@pytest.mark.parametrize("name,dimvec", CASES)
def test_generic_socle_is_the_socle_of_seeded_points(request, name, dimvec, fs):
    # the term rank of the socle rows against the rank at seeded scalars, every layering
    alg, seqs = _layerings(request, name, dimvec)
    for S in seqs:
        pres = generic_presentation(alg, S)
        soc = generic_socle(alg, S, fs)
        for sd in (0, 1, 2):
            assert soc == socle(materialize(pres, seeded_assignment(pres, sd, fs), fs)), S


@pytest.mark.parametrize("fs", [RATIONALS, FieldSpec()], ids=["Q", "Fp"])
@pytest.mark.parametrize("graded", [False, True], ids=["ungraded", "graded"])
@pytest.mark.parametrize("name,dimvec", CASES)
def test_relation_matrix_hom_matches_intertwiner(request, name, dimvec, graded, fs):
    # Hom(M, N) as the kernel of the relation matrix of M's presentation,
    # against the intertwiner system, on every ordered pair of layerings
    alg, seqs = _layerings(request, name, dimvec)
    points = []
    for sd, S in enumerate(seqs):
        pres = generic_presentation(alg, S, graded=graded)
        assign = seeded_assignment(pres, sd, fs)
        points.append((pres, assign, materialize(pres, assign, fs)))
    for pres, assign, rep_m in points:
        for _, _, rep_n in points:
            assert _presented_hom_dim(pres, assign, rep_n) == hom_dim(rep_m, rep_n)


@pytest.mark.parametrize("fs", [RATIONALS, FieldSpec()], ids=["Q", "Fp"])
def test_intertwiner_hom_sees_relation_signs(triangle, fs):
    # M = P_1 / (ba - c), M' = P_1 / (ba + c).  e_1 M' is spanned by z', and
    # ba - c sends z' to -2c z' != 0, so Hom(M, M') = 0 while End M = K.
    # Generic modules cannot tell a sign slip in the system: negating every
    # arrow of N only moves N to another generic point.
    M = module_point(triangle, ("1",), [[(1, 1, ("b", "a")), (-1, 1, ("c",))]], fs)
    M2 = module_point(triangle, ("1",), [[(1, 1, ("b", "a")), (1, 1, ("c",))]], fs)
    assert (hom_dim(M, M), hom_dim(M, M2), hom_dim(M2, M2)) == (1, 0, 1)


def test_exact_intertwiner_hom_on_relay_d28(relay):
    # the d = 28 point of the relay ladder; its intertwiner system is 532 x 312
    S = seq((4, 2, 2), (0, 10, 2), (0, 0, 6), (0, 2, 0))
    pres = generic_presentation(relay, S)
    values = []
    for fs in (RATIONALS, FieldSpec()):
        assign = seeded_assignment(pres, 0, fs)
        rep = materialize(pres, assign, fs)
        values += [hom_dim(rep, rep), _presented_hom_dim(pres, assign, rep)]
    assert values == [33] * 4


# entries that vanish in F_5 or F_(2^61 - 1) as well as small and large ones
entries = st.one_of(st.integers(-6, 6), st.sampled_from([5, -10, 25, 2**61 - 1, 2**62 - 2, 3**40]))


@st.composite
def shaped_matrices(draw):
    """(columns, rows): wide or tall, with zero rows and duplicated rows mixed in."""
    cols = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=12))
    rows += [[0] * cols] * draw(st.integers(0, 2))
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    return cols, draw(st.permutations(rows))


@pytest.mark.parametrize("fs", [RATIONALS, FieldSpec(), FieldSpec(5)], ids=["Q", "F61", "F5"])
@settings(max_examples=150, deadline=None)
@given(shaped_matrices())
def test_sparse_rank_matches_row_space_and_bareiss(fs, shaped):
    cols, rows = shaped
    space = DenseRowSpace(fs, cols)
    for r in rows:
        space.add(r)
    assert mat_rank(fs, rows) == space.dim == bareiss_rank(fs, rows)


matrices = st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-5, 5), min_size=cols, max_size=cols), min_size=0, max_size=7))


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_row_space_rank_matches_exact_rank(rows):
    # entries this small keep every minor below 2^61 - 1, so ranks agree
    fp = FieldSpec()
    assert mat_rank(fp, rows) == mat_rank(RATIONALS, rows)
    for fs in (fp, RATIONALS):
        if not rows:
            continue
        space = DenseRowSpace(fs, len(rows[0]))
        for r in rows:
            space.add(r)
        assert space.dim == mat_rank(fs, rows)
        assert space.pivots == sorted(space.pivots)
        for r in rows:
            reduced = space.reduce(r)
            assert not any(reduced)
        probe = [1] * len(rows[0])
        reduced = space.reduce(probe)
        assert all(reduced[p] == 0 for p in space.pivots)
        # probe - reduced lies in the span
        diff = [fs_sub(fs, fs.element(a), b) for a, b in zip(probe, reduced)]
        assert mat_rank(fs, space.rows + [diff]) == space.dim


@st.composite
def unreduced_rows(draw, fs):
    """(width, rows) with entries p, -1, 2p + 3 and -p over F_p (fractions over Q),
    zero rows and duplicated rows mixed in."""
    p = fs.modulus
    odd = [Fraction(1, 3), Fraction(-5, 2), 7, -1] if p is None else [p, -1, 2 * p + 3, -p]
    width = draw(st.integers(1, 7))
    cell = st.one_of(st.integers(-3, 3), st.sampled_from(odd))
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=8))
    rows += [[0] * width] * draw(st.integers(0, 2))
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    return width, draw(st.permutations(rows))


@pytest.mark.parametrize("fs", [RATIONALS, FieldSpec(), FieldSpec(5)], ids=["Q", "F61", "F5"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_row_space_matches_dense_oracle(fs, data):
    # same pivots, basis rows and reduced vectors read densely; add is None on
    # the same rows, and add on a space sharing the rows leaves the original as it was
    width, rows = data.draw(unreduced_rows(fs))
    sparse, dense = RowSpace(fs), DenseRowSpace(fs, width)

    def read(vec):
        return [vec.get(i, 0) for i in range(width)]

    for r in rows:
        vec = {i: x for i, x in enumerate(r) if x}
        before = ([dict(row) for row in sparse.rows], list(sparse.pivots))
        probe = RowSpace(fs)
        probe.rows, probe.pivots = list(sparse.rows), list(sparse.pivots)
        assert (probe.add(vec) is None) == (dense.copy().add(r) is None)
        assert ([dict(row) for row in sparse.rows], sparse.pivots) == before
        assert read(sparse.reduce(vec)) == dense.reduce(r)
        got, want = sparse.add(vec), dense.add(r)
        assert (got is None) == (want is None)
        assert got is None or read(got) == want
        assert sparse.dim == dense.dim and sparse.pivots == dense.pivots
        assert [read(row) for row in sparse.rows] == dense.rows
    for r in rows + [[1] * width, [fs.modulus or 2] * width]:
        assert read(sparse.reduce({i: x for i, x in enumerate(r) if x})) == dense.reduce(r)
