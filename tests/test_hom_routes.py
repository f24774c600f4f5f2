"""Cross-checks of the linear-algebra layer: Hom(M, N) out of two presentations
of M on one relation matrix (the generic P/C and M's own basis, the intertwiner
equations), the two fields, the sparse elimination and the dense row-space
oracle against exact rank, and the sparse row space against that oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genrep import matrix_rep
from genrep.algebra_core import (Arrow, Quiver, TruncatedAlgebra, enumerate_paths,
                                 enumerate_sequences)
from genrep.errors import MethodDisagreementError, ValidationError
from genrep.generic_builder import generic_presentation
from genrep.homology import CyclicType
from genrep.matrix_rep import (
    MERSENNE_61,
    PAIR_SEED_OFFSET,
    RATIONALS,
    FieldSpec,
    Representation,
    RowSpace,
    _basis_hom_dims,
    _cyclic_dims,
    _hom_out_of,
    _module,
    _path_columns,
    _presented_hom_dims,
    _rank,
    _rank3,
    decomposability,
    ext_dim_detail,
    generic_end_dim,
    generic_hom_dim,
    generic_socle,
    hom_dim,
    mat_rank,
    materialize,
    module_point,
    seeded_assignment,
    socle,
)

from conftest import FIXTURES, DenseRowSpace, bareiss_rank, fs_sub, realizable_layerings, seq

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
                           ext_dim_detail(alg, S, rep, 1, seeds=[0], fs=fs)["value"]))
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
            assert _presented_hom_dims(pres, rep_n, [assign]) == [hom_dim(rep_m, rep_n)]


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
        values += [hom_dim(rep, rep), *_presented_hom_dims(pres, rep, [assign])]
    assert values == [33] * 4


def test_ext_cross_check_catches_a_wrong_presentation(double_back, monkeypatch):
    # the restriction method takes Hom(M, N) out of P/C and the alternating method out of
    # M's basis presentation; P/C without its relation 0, at the same materialized point,
    # presents a larger module, and the two methods must then disagree
    S = seq((1, 1), (0, 1), (1, 0))  # the README layering
    presented = matrix_rep._presented_hom_dims

    def without_relation_0(pres, rep_n, points):
        assert pres.sequence == S and pres.relations and len(points) == 3
        return presented(pres._replace(relations=pres.relations[1:]), rep_n, points)

    monkeypatch.setattr(matrix_rep, "_presented_hom_dims", without_relation_0)
    with pytest.raises(MethodDisagreementError):
        ext_dim_detail(double_back, S, None, 1, (0, 1, 2))


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
def test_rank_of_unreduced_rows_matches_bareiss(fs, data):
    # _rank's input contract: any representatives, negative and unreduced ones
    # included, and zero entries kept in a row (0 over Q, 0 and p over F_p)
    width, rows = data.draw(unreduced_rows(fs))
    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    sparse = [{i: x for i, x in enumerate(r) if x or zeros}
              for r, zeros in zip(rows, keep)]
    assert _rank(fs.modulus, sparse) == bareiss_rank(fs, rows)


@pytest.mark.parametrize("p", [MERSENNE_61, 5])
def test_rank_reduces_a_cancelled_entry_when_its_row_is_taken(p):
    # clearing column 0 leaves 2p in column 1 of the second row, nonzero as an
    # integer, zero as a field element; a multiplier that is 0 mod p adds nothing
    assert _rank(p, [{0: 1, 1: 1}, {0: 1, 1: 1 + p}]) == 1
    assert _rank(p, [{0: 1, 1: 1}, {0: p, 1: 3}]) == 2


@pytest.mark.parametrize("p", [None, MERSENNE_61, 5], ids=["Q", "F61", "F5"])
def test_rank_when_every_taken_row_is_a_lone_pivot(p):
    # rows are taken by initial length; each holds only its pivot once the earlier
    # lone pivots' columns are deleted from it, and the last, left with an explicit
    # zero, is empty when taken
    zero = Fraction(0) if p is None else 0
    rows = [{0: 1, 1: zero, 2: 6, 3: zero}, {0: 7, 1: 5, 2: -4}, {0: 3}, {0: 2, 1: -1}]
    assert _rank(p, rows) == 3
    assert _rank(p, [{0: 1}, {0: 1, 1: 1}, {1: 1}]) == 2


def _walked(monkeypatch, kernel, p, rows):
    """(the kernel's rank of ``rows``, the pivot columns ``_pivots`` yielded to it)."""
    columns, walk = [], matrix_rep._pivots

    def spy(rows, reduced):
        for step in walk(rows, reduced):
            columns.append(step[2])
            yield step

    monkeypatch.setattr(matrix_rep, "_pivots", spy)
    return kernel(p, rows), columns


def test_the_walk_over_q_by_hand(monkeypatch):
    # order r1, r2, r0, r3 (shortest first, ties kept in place).  r1 pivots on column 0,
    # held by r0 alone (column 3 by r0 and r2), and cancels r0's column 3 to 0, which
    # stays; r2 pivots on 2 (a tie with 3, taken in row order) and fills in r3's column 3;
    # r0, reduced to {1: 1}, is a lone pivot whose column is deleted from r3; then r3
    # pivots on 4, the first of its two entries, held by no row
    rows = [{0: 1, 1: 1, 3: -1}, {0: 1, 3: -1}, {2: 1, 3: 1}, {1: 2, 2: 3, 4: 2}]
    assert _walked(monkeypatch, _rank, None, rows) == (4, [0, 2, 1, 4])
    assert rows[3] == {4: 2, 3: -3} and rows[0] == {1: 1, 3: 0}


def test_the_walk_over_f5_by_hand(monkeypatch):
    # order r1, r0, r2, r3, r4.  r1 is a lone pivot, so column 2 is deleted from r4;
    # r0 pivots on 1 (a tie with 4), leaves 5 = 0 in r3's column 4 and fills in r4's
    # column 4; r2 pivots on 0, held by no row (column 4 by r3 and r4); r3 is zero mod
    # 5 when taken and is skipped; r4 pivots on 4
    rows = [{1: 1, 4: 1}, {2: 1}, {0: -1, 4: 1}, {1: 1, 4: 1}, {1: -1, 2: 1}]
    assert _walked(monkeypatch, _rank, 5, rows) == (4, [2, 1, 0, 4])
    assert rows[3] == {4: 5} and rows[4] == {4: 1}


@pytest.mark.parametrize("p", [MERSENNE_61, 5], ids=["F61", "F5"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_three_equal_points_take_the_pivots_of_one(p, data):
    # _rank3 on rows whose three values are one point's takes _rank's pivots, in order
    _, rows = data.draw(unreduced_rows(FieldSpec(p)))
    sparse = [{i: x for i, x in enumerate(r) if x} for r in rows]
    triples = [{i: (x, x, x) for i, x in r.items()} for r in sparse]
    with pytest.MonkeyPatch.context() as patch:
        one = _walked(patch, _rank, p, sparse)
    with pytest.MonkeyPatch.context() as patch:
        assert _walked(patch, _rank3, p, triples) == one


# -- three points of F_p ranked as one matrix of value triples ---------------------

@st.composite
def same_support_points(draw, p):
    """(width, three dense matrices with one support): the support is drawn, and each
    point's entries on it come from a stream of a drawn seed, in [1, p), some moved by -p
    or p.  The stream is not shrunk towards small entries, so they stay generic."""
    width = draw(st.integers(1, 6))
    support = draw(st.lists(st.lists(st.booleans(), min_size=width, max_size=width),
                            max_size=8))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    return width, [[[rnd.randrange(1, p) + p * rnd.choice((0, 0, -1, 1)) if held else 0
                     for held in row] for row in support] for _ in range(3)]


def _sparse(mat):
    """Sparse rows of a dense matrix, every entry that is not the integer 0 kept."""
    return [{c: x for c, x in enumerate(row) if x != 0} for row in mat]


def _point_systems(a2, p, width, mats):
    """(tops, N, relations) of ``_hom_out_of`` whose relation matrix at point k is
    ``mats[k]``: N a module of three points with ``width`` unknowns at vertex 1, and one
    relation whose lead column c holds column c of the three, as value triples."""
    rep, rows = Representation(a2, FieldSpec(p), (width, 0), {}, _three=True), range(len(mats[0]))
    return [("1", 0)], rep, [([{i: t for i in rows if (t := tuple(mat[i][c] for mat in mats))
                                != (0, 0, 0)} for c in range(width)], 0, ())]


@pytest.mark.parametrize("p", [MERSENNE_61, 5], ids=["F61", "F5"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_three_points_ranked_as_one_match_each_point(a2, p, data):
    # with entries drawn in F_(2^61 - 1) the three ranks agree and nothing vanishes at one
    # point alone, so _rank3 gives their rank; in F_5 it may give up, never a wrong rank
    width, mats = data.draw(same_support_points(p))
    ranks = [bareiss_rank(FieldSpec(p), mat) for mat in mats]
    assert ranks == [_rank(p, _sparse(mat)) for mat in mats]
    triples = [dict(zip(r0, zip(r0.values(), r1.values(), r2.values())))
               for r0, r1, r2 in zip(*map(_sparse, mats))]
    rank = _rank3(p, triples)
    assert rank == ranks[0] == ranks[1] == ranks[2] or (p == 5 and rank is None)
    assert _hom_out_of(*_point_systems(a2, p, width, mats)) == [width - r for r in ranks]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_three_points_fall_back_where_one_point_vanishes(a2, data):
    # one point's entry or whole row is moved to a multiple of p (support kept: a pivot or
    # a taken row zero at that point alone) or dropped (supports differ); each point's
    # dimension is still its own
    p = MERSENNE_61
    width, mats = data.draw(same_support_points(p))
    held = [(i, c) for i, row in enumerate(mats[0]) for c, x in enumerate(row) if x]
    if held:
        k, (i, c) = data.draw(st.integers(0, 2)), data.draw(st.sampled_from(held))
        how, dropped = data.draw(st.sampled_from(["entry", "row"])), data.draw(st.booleans())
        row = mats[k][i]
        for j in (c,) if how == "entry" else range(width):
            row[j] = 0 if dropped else p * data.draw(st.sampled_from([1, -1, 2]))
    ranks = [bareiss_rank(FieldSpec(p), mat) for mat in mats]
    assert _hom_out_of(*_point_systems(a2, p, width, mats)) == [width - r for r in ranks]


def test_supports_that_differ_are_ranked_as_one_matrix(a2, monkeypatch):
    # point 1 lacks an entry that points 0 and 2 hold, yet no pivot vanishes at any point:
    # one _rank3 call ranks the three points, rank 2 at each, and no point is ranked alone
    p, calls = MERSENNE_61, []
    for kernel in ("_rank", "_rank3"):
        real = getattr(matrix_rep, kernel)
        monkeypatch.setattr(matrix_rep, kernel,
                            lambda *args, _k=kernel, _real=real: calls.append(_k) or _real(*args))
    mats = [[[1, 2], [3, 4]], [[1, 0], [3, 4]], [[1, 2], [3, 5]]]
    assert [bareiss_rank(FieldSpec(p), mat) for mat in mats] == [2, 2, 2]
    assert _hom_out_of(*_point_systems(a2, p, 2, mats)) == [0, 0, 0] and calls == ["_rank3"]


def test_a_row_vanishing_at_one_point_reranks_each_point(a2, monkeypatch):
    # row 1 is row 0 at point 0 and independent of it elsewhere: _rank3 gives up when it
    # takes row 1, and _rank ranks each point alone
    p, calls = MERSENNE_61, []
    rank_of = matrix_rep._rank
    monkeypatch.setattr(matrix_rep, "_rank", lambda *args: calls.append(1) or rank_of(*args))
    mats = [[[1, 2], [1, 2]], [[1, 2], [1, 3]], [[1, 2], [3, 1]]]
    triples = [dict(zip(r0, zip(r0.values(), r1.values(), r2.values())))
               for r0, r1, r2 in zip(*map(_sparse, mats))]
    assert _rank3(p, triples) is None
    assert _hom_out_of(*_point_systems(a2, p, 2, mats)) == [1, 0, 0] and len(calls) == 3


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("p", [MERSENNE_61, 1000003, 5], ids=["F61", "Fp", "F5"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_the_module_of_three_points_matches_each_point(request, fixture, p, data):
    # at three drawn points, the module of value triples against each point's own module:
    # Hom out of the presentation, out of the basis and out of every cyclic, and every
    # path's columns read at each point; in F_5 _rank3 may give up, and each point is
    # then ranked alone
    alg, fs = request.getfixturevalue(fixture), FieldSpec(p)
    S = data.draw(realizable_layerings(alg))
    assume(any(S.top))
    pres = generic_presentation(alg, S, graded=data.draw(st.booleans()))
    points = [tuple(data.draw(st.integers(1, p - 1)) for _ in pres.scalar_ids) for _ in range(3)]
    three, ones = (_module(pres.skeleton, pres.relations, points, fs),
                   [_module(pres.skeleton, pres.relations, [a], fs) for a in points])
    assert three._three and not any(rep._three for rep in ones)
    assert _presented_hom_dims(pres, three, points) == [
        _presented_hom_dims(pres, rep, [a])[0] for a, rep in zip(points, ones)]
    assert _basis_hom_dims(three, three) == [_basis_hom_dims(rep, rep)[0] for rep in ones]
    for v in alg.vertices:
        for m in range(1, alg.L + 2):
            c = CyclicType(v, m)
            assert _cyclic_dims(alg, c, three) == [_cyclic_dims(alg, c, rep)[0] for rep in ones]
        for length in range(alg.L + 1):
            for path in enumerate_paths(alg, v, length):
                cols = _path_columns(three, path)
                for k, rep in enumerate(ones):
                    assert _path_columns(rep, path) == [
                        {i: t[k] % p for i, t in col.items() if t[k] % p} for col in cols]


@pytest.mark.parametrize("stage, run", [
    ("generic_end_dim", lambda alg, S: generic_end_dim(alg, S, seeds=())),
    ("generic_hom_dim", lambda alg, S: generic_hom_dim(alg, S, S, seeds=())),
    ("ext", lambda alg, S: ext_dim_detail(alg, S, None, 1, ())),
    ("decomposability", lambda alg, S: decomposability(alg, S, seeds=())),
], ids=["end", "hom", "ext", "decompose"])
def test_no_seeds_is_refused_naming_the_stage(relay, stage, run):
    # no seed draws no point: a value or a verdict read off none is refused, never empty
    S = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))
    with pytest.raises(ValidationError, match=f"^{stage}: no seeds given"):
        run(relay, S)


@pytest.mark.parametrize("run", [
    lambda alg, S, N, seeds: generic_end_dim(alg, S, seeds=seeds),
    lambda alg, S, N, seeds: generic_hom_dim(alg, S, S, seeds=seeds),
    lambda alg, S, N, seeds: ext_dim_detail(alg, S, None, 1, seeds),
    lambda alg, S, N, seeds: ext_dim_detail(alg, S, N, 1, seeds),
    lambda alg, S, N, seeds: decomposability(alg, S, seeds=seeds),
], ids=["end", "hom", "ext", "ext-given", "decompose"])
def test_seeds_may_be_read_only_once(relay, run):
    # seeds are read once, so a one-shot iterator gives what the tuple of its seeds gives
    S = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))
    pres = generic_presentation(relay, S)
    N = materialize(pres, seeded_assignment(pres, 7 + PAIR_SEED_OFFSET))
    assert run(relay, S, N, iter((0, 1, 2))) == run(relay, S, N, (0, 1, 2))


def test_end_k_witness_from_seeds_read_only_once(double_back):
    # the End = K witness is found on the first seed an iterator gives
    S = seq((0, 2), (3, 0), (0, 0))
    for seeds in [(5, 6, 7), iter((5, 6, 7))]:
        verdict = decomposability(double_back, S, seeds=seeds)
        assert verdict.verdict == "indecomposable-certified"
        assert verdict.witness == {"reason": "endomorphism ring K at a verified point",
                                   "seed": 5, "end_dim": 1}


def _renamed(alg, names):
    """``alg`` with arrows renamed by ``names``, each keeping its ends."""
    return TruncatedAlgebra(Quiver(alg.vertices, [
        Arrow(names.get(a.name, a.name), a.source, a.target) for a in alg.quiver.arrows]), alg.L)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("over, refused", [
    ("algebra", "representations live over different algebras"),
    ("field", "representations live over different fields"),
])
def test_ext_refuses_a_given_n_over_another_algebra_or_field(relay, k, over, refused):
    # N must live over the algebra and the field of the Ext it enters: an N whose arrows
    # a1, a2 are named c1, c2, or an N over Q where the seeds draw over F_p, is refused
    # (k = 2 reads no a1 or a2 of N, so a renamed N would give a value)
    S = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))
    alg, fs = ((_renamed(relay, {"a1": "c1", "a2": "c2"}), FieldSpec()) if over == "algebra"
               else (relay, RATIONALS))
    pres = generic_presentation(alg, S)
    N = materialize(pres, seeded_assignment(pres, 7, fs), fs)
    with pytest.raises(ValidationError, match=f"^{refused}$"):
        ext_dim_detail(relay, S, N, k, (0, 1, 2))


@pytest.mark.parametrize("seeds", [(5,), (0, 1), (0, 1, 2, 3)], ids=["one", "two", "four"])
def test_any_seed_count_matches_each_seed_alone(relay, seeds, monkeypatch):
    # the distinct points are taken three at a time, then one at a time: any number of seeds
    # gives each seed's value and record as that seed alone does, N given or not
    S = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))
    pres = generic_presentation(relay, S)
    rep_n = materialize(pres, seeded_assignment(pres, 7 + PAIR_SEED_OFFSET))
    runs = [lambda sds: generic_end_dim(relay, S, seeds=sds),
            lambda sds: generic_hom_dim(relay, S, S, seeds=sds),
            lambda sds: ext_dim_detail(relay, S, None, 1, sds),
            lambda sds: ext_dim_detail(relay, S, rep_n, 1, sds)]
    built, module_of = [], matrix_rep._module
    monkeypatch.setattr(matrix_rep, "_module",
                        lambda sk, relations, points, fs: built.append(len(points)) or module_of(
                            sk, relations, points, fs))
    ns, presented = [], matrix_rep._presented_hom_dims
    monkeypatch.setattr(matrix_rep, "_presented_hom_dims",
                        lambda pres, n, points: ns.append(n) or presented(pres, n, points))
    for run in runs:
        alone = [run((seed,)) for seed in seeds]
        built.clear()
        ns.clear()
        together = run(seeds)
        assert built == [3] * (len(seeds) // 3) + [1] * (len(seeds) % 3)
        if isinstance(together, dict):
            assert together["per_seed"] == [r for a in alone for r in a["per_seed"]]
            assert [together["value"]] * len(seeds) == [a["value"] for a in alone]
        else:
            assert [together] * len(seeds) == alone
    for n in ns:  # the last run's: the given N, read at each point it is met at, is N
        if n._three:
            for k in range(3):
                assert {a: [{i: t[k] for i, t in col.items()} for col in cols]
                        for a, cols in n.columns.items()} == rep_n.columns
        else:
            assert n is rep_n


@pytest.mark.parametrize("fs", [RATIONALS, FieldSpec(), FieldSpec(5)], ids=["Q", "F61", "F5"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_row_space_matches_dense_oracle(fs, data):
    # same pivots, basis rows and reduced vectors read densely; add is None on
    # the same rows, and add on a space sharing the rows leaves the original as it was;
    # the rows added in a second order give the same pivots and reduced vectors
    width, rows = data.draw(unreduced_rows(fs))
    sparse, dense = RowSpace(fs), DenseRowSpace(fs, width)

    def read(vec):
        return [vec.get(i, 0) for i in range(width)]

    for r in rows:
        vec = {i: x for i, x in enumerate(r) if x}
        before = {piv: dict(row) for piv, row in sparse.rows.items()}
        probe = RowSpace(fs)
        probe.rows = dict(sparse.rows)
        assert (probe.add(vec) is None) == (dense.copy().add(r) is None)
        assert {piv: dict(row) for piv, row in sparse.rows.items()} == before
        assert read(sparse.reduce(vec)) == dense.reduce(r)
        got, want = sparse.add(vec), dense.add(r)
        assert (got is None) == (want is None)
        assert got is None or read(got) == want
        assert sparse.dim == dense.dim and sorted(sparse.rows) == dense.pivots
        assert [read(sparse.rows[piv]) for piv in sorted(sparse.rows)] == dense.rows
    reordered = RowSpace(fs)
    for r in data.draw(st.permutations(rows)):
        reordered.add({i: x for i, x in enumerate(r) if x})
    assert sorted(reordered.rows) == sorted(sparse.rows)
    for r in rows + [[1] * width, [fs.modulus or 2] * width]:
        vec = {i: x for i, x in enumerate(r) if x}
        assert read(sparse.reduce(vec)) == dense.reduce(r)
        assert reordered.reduce(vec) == sparse.reduce(vec)


@pytest.mark.parametrize("fs", [RATIONALS, FieldSpec()], ids=["Q", "F61"])
def test_reduce_reads_only_the_rows_of_the_pivots_it_reaches(fs, monkeypatch):
    # 10,000 rows pivoting at the even columns; the vector holds pivots 0 and 5,000,
    # and row 0 adds an entry at pivot 2, so k = 3 rows of two entries are read:
    # each entry of v is looked up once per pivot popped and per row entry, not per row
    space = RowSpace(fs)
    for i in range(10_000):
        space.add({0: 1, 2: 1} if i == 0 else {2 * i: 1, 2 * i + 1: 1})
    gets = []

    class CountingGets(dict):
        def get(self, *args):
            gets.append(args[0])
            return super().get(*args)

    reduced = matrix_rep._reduced
    monkeypatch.setattr(matrix_rep, "_reduced", lambda p, acc: CountingGets(reduced(p, acc)))
    got = space.reduce({0: 1, 7: 1, 5000: 1})
    assert got == {3: 1, 7: 1, 5001: fs.element(-1)}
    assert len(gets) <= sum(1 + len(space.rows[piv]) for piv in (0, 2, 5000)) == 9
