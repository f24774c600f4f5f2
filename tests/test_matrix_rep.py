"""Materialized representations: layering, socle, Hom, Ext, decomposability."""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from genrep.algebra_core import enumerate_sequences, projective_layering
from genrep.errors import EnumerationCapError, SeedStabilityError, ValidationError
from genrep.generic_builder import generic_presentation
from genrep.homology import CyclicType, first_syzygy
from genrep.matrix_rep import (
    RATIONALS,
    FieldSpec,
    Representation,
    ScalarAssignment,
    decomposability,
    distinguished_skeleta_of,
    ext_dim,
    ext_dim_detail,
    generic_end_dim,
    generic_hom_dim,
    generic_socle,
    graded_decomposition,
    hom_dim,
    hom_dim_from_cyclic,
    materialize,
    mat_rank,
    module_point,
    path_action,
    projective_representation,
    radical_layering,
    seeded_assignment,
    socle,
    zero_matrix,
)
from genrep.skeleta import canonical_skeleton, enumerate_skeleta, invariants_N, iter_skeleta

from conftest import (
    distinguished_skeleta_by_path_action,
    fs_mul,
    representation_to_json,
    seq,
    user_assignment,
)

S_DEEP = seq((1, 1), (0, 1), (1, 0))
S_DIP = seq((0, 1), (2, 0), (0, 1))
S_DIM14 = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))


def mat_deep(double_back, sd=0, fs=FieldSpec()):
    pres = generic_presentation(double_back, S_DEEP)
    return materialize(pres, seeded_assignment(pres, sd, fs), fs)


# -- fields and linear algebra ----------------------------------------------

def test_field_validation():
    with pytest.raises(ValidationError):
        FieldSpec(15)
    FieldSpec(7)  # small primes are fine for user-supplied scalars


def test_seeded_assignment_needs_large_modulus(double_back):
    pres = generic_presentation(double_back, S_DEEP)
    with pytest.raises(ValidationError):
        seeded_assignment(pres, 0, FieldSpec(7))


def test_rank_exact_with_fractions():
    fs = RATIONALS
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)],
            [Fraction(2), Fraction(4, 3)]]
    assert mat_rank(fs, rows) == 1
    rows[1][1] = Fraction(7)
    assert mat_rank(fs, rows) == 2


def test_user_assignment_rejects_zero(double_back):
    pres = generic_presentation(double_back, S_DEEP)
    sid = pres.scalar_ids[0]
    with pytest.raises(ValidationError):
        user_assignment({sid: 0})


# -- materialization ---------------------------------------------------------

def test_materialize_deep_dims_and_depth(double_back):
    rep = mat_deep(double_back)
    assert rep.dims == (2, 2)
    # J^2 does not kill the top at vertex 1
    v, vec = rep.top_elements[0]
    assert v == "1"
    from genrep.algebra_core import enumerate_paths
    hits = []
    for p in enumerate_paths(double_back, "1", 2):
        img = [sum(r[j] * vec[j] for j in range(len(vec))) % rep.field.modulus
               for r in path_action(rep, p)]
        hits.append(any(img))
    assert any(hits)


def test_materialize_layering_three_seeds(double_back, relay, loop_out):
    cases = [(double_back, S) for S in enumerate_sequences(double_back, (2, 2))]
    cases.append((relay, S_DIM14))
    cases += [(loop_out, S) for S in enumerate_sequences(loop_out, (2, 1))]
    for alg, S in cases:
        pres = generic_presentation(alg, S)
        for sd in (11, 22, 33):
            rep = materialize(pres, seeded_assignment(pres, sd), FieldSpec())
            assert radical_layering(rep) == S


def test_materialize_relay_dims(relay):
    pres = generic_presentation(relay, S_DIM14)
    rep = materialize(pres, seeded_assignment(pres, 5), FieldSpec())
    assert rep.dims == (2, 7, 5)


def test_materialize_no_relations(a2):
    S = seq((1, 0), (0, 1))
    pres = generic_presentation(a2, S)
    assert pres.relations == ()
    rep = materialize(pres, seeded_assignment(pres, 0), FieldSpec())
    assert radical_layering(rep) == S


def test_layering_stable_on_whole_cell(double_back, relay, line_swing):
    # materialize checks nothing after its build: every point of the affine
    # cell of any skeleton of S has layering S, at any scalars, zero
    # included, because no arrow lowers the length of a basis element.
    # This test is where that claim is checked.
    rng = random.Random(0)
    draws = {
        RATIONALS: lambda: Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
        FieldSpec(): lambda: rng.randrange(FieldSpec().modulus),
        FieldSpec(5): lambda: rng.randrange(5),
    }
    cases = 0
    for alg, dimvec in ((double_back, (3, 3)), (relay, (2, 2, 1)), (line_swing, (2, 2, 1))):
        for S in enumerate_sequences(alg, dimvec):
            for sk in islice(iter_skeleta(alg, S), 4):
                for graded in (False, True):
                    pres = generic_presentation(alg, S, skeleton=sk, graded=graded)
                    for fs, draw in draws.items():
                        for scalar in (lambda: 0, lambda: 1, draw):
                            values = {sid: fs.element(scalar()) for sid in pres.scalar_ids}
                            rep = materialize(pres, ScalarAssignment(values, None, "test"), fs)
                            assert radical_layering(rep) == S
                            cases += 1
    assert cases == 18 * (66 + 29 + 16)  # skeleta visited, times modes, fields, scalars


def test_foreign_skeleton_rejected(relay):
    # a skeleton of another layering would present the wrong module
    others = [enumerate_sequences(relay, (2, 3, 2))[0],
              next(S for S in enumerate_sequences(relay, (2, 7, 5)) if S != S_DIM14)]
    for S in others:
        sk = canonical_skeleton(relay, S)
        calls = (
            lambda: generic_presentation(relay, S_DIM14, skeleton=sk),
            lambda: generic_presentation(relay, S_DIM14, skeleton=sk, graded=True),
            lambda: first_syzygy(relay, S_DIM14, skeleton=sk),
            lambda: invariants_N(relay, S_DIM14, skeleton=sk),
            lambda: graded_decomposition(relay, S_DIM14, skeleton=sk),
        )
        for call in calls:
            with pytest.raises(ValidationError):
                call()
        # the skeleton still serves its own layering
        assert generic_presentation(relay, S, skeleton=sk).skeleton is sk


def test_nilpotency_of_materialized(double_back):
    from genrep.algebra_core import enumerate_paths
    rep = mat_deep(double_back)
    # every composable (L+1)-fold arrow product vanishes
    for v in double_back.vertices:
        for arrows in [p.arrows for p in _long_paths(double_back, v)]:
            mat = None
            from genrep.matrix_rep import identity_matrix, mat_mul
            mat = identity_matrix(rep.field, rep.dim_at(v))
            for name in reversed(arrows):
                mat = mat_mul(rep.field, rep.matrices[name], mat)
            assert all(x == 0 for row in mat for x in row)


def _long_paths(alg, start):
    # composable arrow sequences of length L+1, built without the length cap
    paths = [(start, ())]
    for _ in range(alg.L + 1):
        paths = [
            (alg.quiver.arrow_by_name[a.name].target, (a.name,) + arrows)
            for v, arrows in paths
            for a in alg.quiver.arrows_from[v]
        ]
    from genrep.algebra_core import Path
    return [Path(start, arrows) for _, arrows in paths]


# -- layering and socle ------------------------------------------------------

def test_radical_layering_zero_arrows(double_back):
    fs = FieldSpec()
    rep = Representation(double_back, fs, (2, 1),
                         {a.name: zero_matrix(fs, *_shape(double_back, a, (2, 1)))
                          for a in double_back.quiver.arrows})
    assert radical_layering(rep) == seq((2, 1), (0, 0), (0, 0))
    assert socle(rep) == (2, 1)


def _shape(alg, arrow, dims):
    return dims[alg.vertex_pos(arrow.target)], dims[alg.vertex_pos(arrow.source)]


def test_radical_layering_projective(double_back):
    rep = projective_representation(double_back, ("1",), RATIONALS)
    assert radical_layering(rep) == seq((1, 0), (0, 1), (2, 0))


def test_socle_deep(double_back):
    assert generic_socle(double_back, S_DEEP, seeds=(3, 5, 7)) == (1, 0)


def test_socle_dip_contains_s2(double_back):
    soc = generic_socle(double_back, S_DIP)
    assert soc[1] >= 1
    assert soc == (1, 1)


# -- hom ----------------------------------------------------------------------

def test_end_deep_is_two(double_back):
    assert generic_end_dim(double_back, S_DEEP, seeds=(1, 2, 3)) == 2


def test_end_of_simple_is_one(double_back):
    S = seq((1, 0), (0, 0), (0, 0))
    assert generic_end_dim(double_back, S) == 1


def test_kronecker_distinct_copies_have_no_homs(kronecker):
    S = seq((1, 0), (0, 1))
    assert generic_hom_dim(kronecker, S, S, seeds=(0, 1, 2)) == 0
    assert generic_end_dim(kronecker, S) == 1


def test_hom_dim_from_cyclic_deep(double_back):
    rep = mat_deep(double_back)
    assert hom_dim_from_cyclic(double_back, CyclicType("1", 1), rep) == 1
    assert hom_dim_from_cyclic(double_back, CyclicType("1", 2), rep) == 1
    # projective cyclic imposes no condition
    assert hom_dim_from_cyclic(double_back, CyclicType("1", 3), rep) == rep.dim_at("1")


def test_hom_profile_matches_direct_sum(double_back):
    # Hom(Omega^1 G, G) for the deep sequence = 1 + 2*1 = 3
    from genrep.matrix_rep import hom_profile_dim
    rep = mat_deep(double_back)
    assert hom_profile_dim(double_back, first_syzygy(double_back, S_DEEP), rep) == 3


# -- ext ----------------------------------------------------------------------

def test_ext1_self_deep_both_methods(double_back):
    # the alternating formula gives 3 - 4 + 2 = 1 and the restriction-map
    # method must agree; the literature quotes 2 for this example, and the
    # two-method oracle is the arbiter here
    for sd in (0, 1, 2):
        rep = mat_deep(double_back, sd)
        detail = ext_dim_detail(double_back, S_DEEP, rep, 1, seeds=[sd])
        assert detail["value"] == 1
        rec = detail["per_seed"][0]
        assert rec["alternating"] == rec["restriction"] == 1


def test_ext1_from_projective_is_zero(double_back):
    S = projective_layering(double_back, (1, 1))
    rep = mat_deep(double_back, 9)
    assert ext_dim(double_back, S, rep, 1, seeds=(4, 5)) == 0


def test_ext1_kronecker_pair_is_zero(kronecker):
    S = seq((1, 0), (0, 1))
    pres = generic_presentation(kronecker, S)
    rep_n = materialize(pres, seeded_assignment(pres, 1000), FieldSpec())
    assert ext_dim(kronecker, S, rep_n, 1, seeds=(0, 1, 2)) == 0


def test_ext1_kronecker_self_is_one(kronecker):
    # the (1,1) generic Kronecker module is a brick with one self-extension
    S = seq((1, 0), (0, 1))
    pres = generic_presentation(kronecker, S)
    for sd in (0, 1, 2):
        rep = materialize(pres, seeded_assignment(pres, sd), FieldSpec())
        assert ext_dim(kronecker, S, rep, 1, seeds=[sd]) == 1
    assert generic_end_dim(kronecker, S) == 1


def test_ext2_stability(double_back):
    rep = mat_deep(double_back, 117)
    vals = {ext_dim(double_back, S_DEEP, rep, 2, seeds=[s]) for s in (5, 6, 7)}
    assert len(vals) == 1


def test_seed_stability_error_surfaces():
    with pytest.raises(SeedStabilityError):
        from genrep.matrix_rep import stable_over_seeds
        stable_over_seeds(lambda s: s, (1, 2))


def _drifting(monkeypatch, name):
    """Replace matrix_rep.<name> by a stand-in whose value changes with every call."""
    import genrep.matrix_rep as mr
    calls = iter(range(100))
    monkeypatch.setattr(mr, name, lambda *args: next(calls))


@pytest.mark.parametrize("stage, patched, run", [
    ("generic_socle", "socle", lambda alg: generic_socle(alg, S_DEEP, seeds=(4, 5, 6))),
    ("generic_end_dim", "_presented_hom_dim",
     lambda alg: generic_end_dim(alg, S_DEEP, seeds=(4, 5, 6))),
    ("generic_hom_dim", "_presented_hom_dim",
     lambda alg: generic_hom_dim(alg, S_DEEP, S_DIP, seeds=(4, 5, 6))),
])
def test_seed_stability_error_names_stage_sequence_and_seeds(double_back, monkeypatch,
                                                             stage, patched, run):
    _drifting(monkeypatch, patched)
    with pytest.raises(SeedStabilityError) as info:
        run(double_back)
    message = str(info.value)
    assert message.startswith(stage + ": ")
    assert str(S_DEEP) in message and "seeds [4, 5, 6]" in message
    assert "(4, 0), (5, 1), (6, 2)" in message
    if stage == "generic_hom_dim":
        assert str(S_DIP) in message


def test_ext_method_disagreement_names_stage_sequence_and_seeds(double_back, monkeypatch):
    from genrep.errors import MethodDisagreementError
    import genrep.matrix_rep as mr
    monkeypatch.setattr(mr, "hom_dim", lambda a, b: 100)
    with pytest.raises(MethodDisagreementError) as info:
        ext_dim_detail(double_back, S_DEEP, None, 1, [4, 5, 6])
    message = str(info.value)
    assert message.startswith("ext: ") and str(S_DEEP) in message
    assert "at seed 4 of seeds [4, 5, 6]" in message


def test_ext_seed_instability_names_stage_sequence_and_seeds(double_back, monkeypatch):
    # both Ext^1 methods shift by the same seed-dependent amount, so only the seeds disagree
    import genrep.matrix_rep as mr
    shift = {"by": 0}
    hom, restriction = mr.hom_dim, mr._ext1_restriction_method

    def shifted_restriction(*args):
        value = restriction(*args) + shift["by"]
        shift["by"] += 1
        return value

    monkeypatch.setattr(mr, "hom_dim", lambda a, b: hom(a, b) + shift["by"])
    monkeypatch.setattr(mr, "_ext1_restriction_method", shifted_restriction)
    with pytest.raises(SeedStabilityError) as info:
        ext_dim_detail(double_back, S_DEEP, None, 1, [4, 5, 6])
    message = str(info.value)
    assert message.startswith("ext: ") and str(S_DEEP) in message
    assert "seeds [4, 5, 6]: [(4, 1), (5, 2), (6, 3)]" in message


# -- kernel oracle for syzygy profiles ----------------------------------------

def test_syzygy_profile_matches_kernel_dims_relay(relay):
    # per-vertex dims of the kernel of P -> G equal the profile's dim vector
    prof = first_syzygy(relay, S_DIM14)
    want = prof.dim_vector(relay)
    pres = generic_presentation(relay, S_DIM14)
    from genrep.algebra_core import projective_dim_vector
    p_dims = [0] * relay.n
    for i, v in enumerate(relay.vertices):
        for _ in range(S_DIM14.top[i]):
            for j, d in enumerate(projective_dim_vector(relay, v)):
                p_dims[j] += d
    for sd in (0, 1, 2):
        rep = materialize(pres, seeded_assignment(pres, sd), FieldSpec())
        kernel_dims = tuple(p - g for p, g in zip(p_dims, rep.dims))
        assert kernel_dims == want == (0, 14, 5)


# -- module points and distinguished skeleta ----------------------------------

def label_set(sk):
    return frozenset(("".join(p.arrows) or "e") + f"@z{r}" for r, p in sk.elements)


WORKED_POINT = (
    ("1", "1", "2", "3"),
    [
        [(1, 1, ("b2", "al"))],
        [(1, 2, ("b1", "al"))],
        [(1, 3, ("g",)), (-1, 4, ("e", "d"))],
        [(1, 1, ("b1", "al")), (1, 2, ("b2", "al")), (1, 3, ("g",))],
    ],
)


def worked_module(six_vertex):
    return module_point(six_vertex, *WORKED_POINT, RATIONALS)


def test_module_point_layering(six_vertex):
    rep = worked_module(six_vertex)
    assert rep.total_dim == 9
    assert radical_layering(rep) == seq(
        (2, 1, 1, 0, 0, 0), (0, 0, 0, 2, 1, 0), (0, 0, 0, 0, 0, 2))


def test_distinguished_skeleta_worked_module(six_vertex):
    rep = worked_module(six_vertex)
    sks = distinguished_skeleta_of(rep)
    got = {label_set(sk) for sk in sks}
    assert got == {
        frozenset({"e@z1", "al@z1", "b1al@z1", "e@z2", "al@z2", "b2al@z2",
                   "e@z3", "e@z4", "d@z4"}),
        frozenset({"e@z1", "al@z1", "b1al@z1", "e@z2", "al@z2", "e@z3",
                   "e@z4", "d@z4", "ed@z4"}),
        frozenset({"e@z1", "al@z1", "e@z2", "al@z2", "b2al@z2", "e@z3",
                   "e@z4", "d@z4", "ed@z4"}),
    }


def test_distinguished_skeleta_semisimple(double_back):
    rep = module_point(double_back, ("1", "2"), [[(1, 1, ("a",))], [(1, 2, ("b1",))],
                                           [(1, 2, ("b2",))]], RATIONALS)
    sks = distinguished_skeleta_of(rep)
    assert len(sks) == 1
    assert all(p.length == 0 for _, p in sks[0].elements)


def test_generic_module_has_all_skeleta(double_back, relay):
    for alg, S in [(double_back, S_DEEP), (double_back, seq((1, 1), (1, 1), (0, 0))),
                   (relay, S_DIM14)]:
        pres = generic_presentation(alg, S)
        rep = materialize(pres, seeded_assignment(pres, 42), FieldSpec())
        assert {label_set(s) for s in distinguished_skeleta_of(rep)} == \
            {label_set(s) for s in enumerate_skeleta(alg, S)}


def test_tops_required(double_back):
    rep = mat_deep(double_back)
    rep2 = Representation(rep.algebra, rep.field, rep.dims, rep.matrices)
    with pytest.raises(ValidationError):
        distinguished_skeleta_of(rep2)


SMALL_PRIME = FieldSpec(1000003)


def outcome(compute):
    """Labels of the skeleta ``compute()`` returns, or the type of error it raises."""
    try:
        return [label_set(sk) for sk in compute()]
    except (ValidationError, EnumerationCapError) as exc:
        return type(exc)


@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME], ids=["Q", "Fp"])
def test_distinguished_skeleta_match_path_action_oracle(six_vertex, relay, fs):
    # memoised path images against p * m_r recomputed per skeleton
    worked = module_point(six_vertex, *WORKED_POINT, fs)
    pres = generic_presentation(relay, S_DIM14)
    generic = materialize(pres, seeded_assignment(pres, 3, fs), fs)
    for rep in (worked, generic):
        want = outcome(lambda: distinguished_skeleta_by_path_action(rep))
        assert outcome(lambda: distinguished_skeleta_of(rep)) == want
        assert want != [] and isinstance(want, list)


def naive_action(rep, p):
    """The action matrix of p as a product of arrow matrices, entry by entry."""
    fs = rep.field
    d = rep.dim_at(p.start)
    mat = [[fs.one() if i == j else fs.zero() for j in range(d)] for i in range(d)]
    for name in reversed(p.arrows):
        A = rep.matrices[name]
        prod = [[fs.zero()] * d for _ in A]
        for i, row in enumerate(A):
            for k, a in enumerate(row):
                for j in range(d):
                    prod[i][j] = fs.add(prod[i][j], fs_mul(fs, a, mat[k][j]))
        mat = prod
    return mat


@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME], ids=["Q", "Fp"])
def test_memoised_path_action_matches_naive_product(relay, fs):
    # longest paths first, so shorter ones are read back from the memo
    from genrep.algebra_core import enumerate_paths
    pres = generic_presentation(relay, S_DIM14)
    rep = materialize(pres, seeded_assignment(pres, 3, fs), fs)
    for v in relay.vertices:
        for length in range(relay.L, -1, -1):
            for p in enumerate_paths(relay, v, length):
                got = [list(row) for row in path_action(rep, p)]
                assert got == naive_action(rep, p)
                assert {type(x) for row in got for x in row} <= {type(fs.zero())}


@st.composite
def module_point_specs(draw, alg):
    """Tops and relations with small integer coefficients along composable paths."""
    tops = draw(st.lists(st.sampled_from(alg.vertices), min_size=1, max_size=3))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        rel = []
        for _ in range(draw(st.integers(1, 3))):
            r = draw(st.integers(1, len(tops)))
            v, arrows = tops[r - 1], []
            for _ in range(draw(st.integers(1, alg.L))):
                outgoing = [a for a in alg.quiver.arrows if a.source == v]
                if not outgoing:
                    break
                a = draw(st.sampled_from(outgoing))
                arrows.insert(0, a.name)
                v = a.target
            rel.append((draw(st.integers(-2, 2)), r, tuple(arrows)))
        relations.append(rel)
    return tops, relations


@pytest.mark.parametrize("fixture", ["double_back", "relay", "six_vertex"])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME], ids=["Q", "Fp"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_distinguished_skeleta_match_oracle_on_drawn_points(request, fixture, fs, data):
    alg = request.getfixturevalue(fixture)
    tops, relations = data.draw(module_point_specs(alg))
    rep = module_point(alg, tops, relations, fs)
    assert (outcome(lambda: distinguished_skeleta_of(rep, cap=60))
            == outcome(lambda: distinguished_skeleta_by_path_action(rep, cap=60)))


# -- decomposability -----------------------------------------------------------

def test_y_quiver_boundary(y_quiver):
    S = seq((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
    graded = decomposability(y_quiver, S, graded=True)
    assert graded.verdict == "decomposable-certified"
    dims = sorted(tuple(c["dim_vector"]) for c in graded.witness["components"])
    assert dims == [(0, 0, 0, 1), (1, 1, 1, 0)]
    ungraded = decomposability(y_quiver, S, graded=False)
    assert ungraded.verdict == "indecomposable-certified"
    assert ungraded.witness.get("end_dim") == 1


def test_single_top_certified(double_back):
    S = seq((1, 0), (0, 1), (1, 0))
    v = decomposability(double_back, S)
    assert v.verdict == "indecomposable-certified"
    assert v.confidence == "certified"


def test_graded_decomposition_relay(relay):
    comps = graded_decomposition(relay, S_DIM14)
    dims = sorted(dv for _, dv in comps)
    assert dims == [(0, 1, 1), (2, 6, 4)]


def test_graded_decomposition_double_back(double_back):
    comps = graded_decomposition(double_back, S_DEEP)
    assert len(comps) == 2  # no cross-tree equal-length members: z2 stays isolated
    tops = sorted(zs for zs, _ in comps)
    assert tops == [(1,), (2,)]


def test_graded_decomposition_no_zero_parts(a2):
    # single relation g@z2 = x*g@z1 has an equal-length member: one component
    comps = graded_decomposition(a2, seq((2, 0), (0, 1)))
    assert [zs for zs, _ in comps] == [(1, 2)]


def test_graded_partition_skeleton_independent(relay):
    parts = {tuple(sorted(zs for zs, _ in graded_decomposition(relay, S_DIM14, skeleton=sk)))
             for sk in enumerate_skeleta(relay, S_DIM14)}
    assert len(parts) == 1


def test_relay_ungraded_undecided_with_evidence(relay):
    # the 14-dimensional generic module is indecomposable but has a
    # 9-dimensional endomorphism ring, out of reach of the End = K
    # certificate: the honest verdict is undecided, with evidence
    v = decomposability(relay, S_DIM14)
    assert v.verdict == "undecided"
    assert v.confidence == "seeded-generic"
    assert {e["end_dim"] for e in v.witness["end_dims"]} == {9}


def test_graded_route_implies_connected_hypergraph(double_back, loop_out, y_quiver, a2):
    from genrep.generic_builder import hypergraph as hg_of
    for alg, dimvec in [(double_back, (2, 2)), (loop_out, (2, 1)), (y_quiver, (1, 1, 1, 1)),
                        (a2, (2, 1))]:
        for S in enumerate_sequences(alg, dimvec):
            v = decomposability(alg, S)
            if v.verdict == "indecomposable-certified" and "graded" in str(v.witness):
                pres = generic_presentation(alg, S)
                assert len(hg_of(pres).top_component_partition()) == 1


def test_representation_json_declares_field(double_back):
    data = representation_to_json(mat_deep(double_back))
    assert data["field_modulus"] == 2**61 - 1
    assert data["dims"] == {"1": 2, "2": 2}
    assert len(data["matrices"]["a"]) == 2 and len(data["matrices"]["a"][0]) == 2
    exact = representation_to_json(projective_representation(double_back, ("1",), RATIONALS))
    assert exact["field_modulus"] is None
    assert all(isinstance(x, str) for row in exact["matrices"]["a"] for x in row)


def test_partial_tops_rejected(six_vertex):
    rep = worked_module(six_vertex)
    clipped = Representation(rep.algebra, rep.field, rep.dims, rep.matrices,
                             top_elements=rep.top_elements[:2])
    with pytest.raises(ValidationError):
        distinguished_skeleta_of(clipped)


# -- independent cross-checks --------------------------------------------------

def test_exact_rational_mode_matches_mod_p(double_back):
    # the whole pipeline over exact rationals (distinct-prime scalars)
    pres = generic_presentation(double_back, S_DEEP)
    assign = seeded_assignment(pres, 0, RATIONALS)
    assert assign.provenance == "exact-primes"
    rep = materialize(pres, assign, RATIONALS)
    assert radical_layering(rep) == S_DEEP
    assert socle(rep) == (1, 0)
    assert hom_dim(rep, rep) == 2
    detail = ext_dim_detail(double_back, S_DEEP, rep, 1, seeds=[0], fs=RATIONALS)
    assert detail["value"] == 1


def test_hom_dim_against_sympy_nullspace(double_back):
    sympy = pytest.importorskip("sympy")
    pres = generic_presentation(double_back, S_DEEP)
    rep = materialize(pres, seeded_assignment(pres, 0, RATIONALS), RATIONALS)
    alg = double_back
    offsets, total = {}, 0
    for v in alg.vertices:
        offsets[v] = total
        total += rep.dim_at(v) ** 2
    rows = []
    for a in alg.quiver.arrows:
        A = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rep.matrices[a.name]])
        s, t = a.source, a.target
        ds, dt = rep.dim_at(s), rep.dim_at(t)
        for i in range(dt):
            for j in range(ds):
                row = [0] * total
                for k in range(dt):
                    row[offsets[t] + i * dt + k] += A[k, j]
                for k in range(ds):
                    row[offsets[s] + k * ds + j] -= A[i, k]
                rows.append(row)
    M = sympy.Matrix(rows)
    assert total - M.rank() == hom_dim(rep, rep) == 2


def test_socle_against_sympy(double_back):
    sympy = pytest.importorskip("sympy")
    pres = generic_presentation(double_back, S_DIP)
    rep = materialize(pres, seeded_assignment(pres, 3, RATIONALS), RATIONALS)
    for i, v in enumerate(double_back.vertices):
        stacked = []
        for a in double_back.quiver.arrows_from[v]:
            stacked.extend([list(r) for r in rep.matrices[a.name]])
        if stacked:
            M = sympy.Matrix([[sympy.Rational(x) for x in row] for row in stacked])
            expect = rep.dim_at(v) - M.rank()
        else:
            expect = rep.dim_at(v)
        assert socle(rep)[i] == expect


def test_module_point_noncomposable_relation(six_vertex):
    with pytest.raises(ValidationError):
        module_point(six_vertex, ("1",), [[(1, 1, ("b1",))]], RATIONALS)


def test_ext_k_zero_rejected(double_back):
    rep = mat_deep(double_back)
    with pytest.raises(ValidationError):
        ext_dim(double_back, S_DEEP, rep, 0, seeds=[0])


def test_kernel_basis_annihilates():
    from conftest import kernel_basis
    from genrep.matrix_rep import kernel_dim
    fs = FieldSpec()
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]
    basis = kernel_basis(fs, rows, 4)
    assert len(basis) == kernel_dim(fs, rows, 4) == 2
    for v in basis:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) % fs.modulus == 0


@pytest.mark.parametrize("sd", [0, 1, 2])
def test_syzygy_profile_matches_true_kernel_layering(double_back, relay, sd):
    from conftest import presentation_kernel_layering, profile_predicted_layering
    for alg, S in [(double_back, S_DEEP), (relay, S_DIM14)]:
        got = presentation_kernel_layering(alg, S, sd)
        want = profile_predicted_layering(alg, first_syzygy(alg, S))
        assert got == want


def test_socle_dim14_derived(relay):
    # hand derivation: at vertex 2 the beta-action on the 7-dim component
    # has rank 4, leaving gamma1*b*a1*z1 and two relation combinations in
    # the kernel; at vertex 3 the two gamma-actions cut the 4-dim non-top
    # part down by 2.  Socle = (0, 3, 2), identical in graded mode.
    for graded in (False, True):
        pres = generic_presentation(relay, S_DIM14, graded=graded)
        socs = {socle(materialize(pres, seeded_assignment(pres, sd), FieldSpec()))
                for sd in (0, 1, 2)}
        assert socs == {(0, 3, 2)}


def test_hom_from_cyclic_matches_explicit_cyclic_rep(double_back):
    # dual route: build Lambda e / J^m as an explicit quotient and compare
    # Hom dimensions computed by the intertwiner solver
    from genrep.algebra_core import enumerate_paths
    from genrep.matrix_rep import hom_dim as hom
    pres = generic_presentation(double_back, S_DEEP)
    rep_n = materialize(pres, seeded_assignment(pres, 4, RATIONALS), RATIONALS)
    for v in double_back.vertices:
        for m in range(1, double_back.L + 2):
            rels = [[(1, 1, u.arrows)]
                    for u in enumerate_paths(double_back, v, min(m, double_back.L))
                    if u.length == m]
            cyc = module_point(double_back, (v,), rels, RATIONALS)
            assert cyc.total_dim == sum(
                len(enumerate_paths(double_back, v, l)) for l in range(min(m, 3)))
            got = hom(cyc, rep_n)
            want = hom_dim_from_cyclic(double_back, CyclicType(v, m), rep_n)
            assert got == want
