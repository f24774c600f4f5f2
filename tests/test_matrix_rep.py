"""Materialized representations: layering, socle, Hom, Ext, decomposability."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import count, islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from genrep import matrix_rep
from genrep.algebra_core import TruncatedAlgebra, enumerate_sequences
from genrep.errors import EnumerationCapError, SeedStabilityError, ValidationError
from genrep.generic_builder import generic_presentation
from genrep.homology import CyclicType, first_syzygy
from genrep.matrix_rep import (
    MERSENNE_61,
    MIN_RANDOM_MODULUS,
    RATIONALS,
    FieldSpec,
    Representation,
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
    quotient_representation,
    radical_layering,
    seeded_assignment,
    socle,
    _path_columns,
    _rank,
)
from genrep.skeleta import (
    Skeleton,
    canonical_skeleton,
    count_skeleta,
    enumerate_skeleta,
    iter_skeleta,
)

from conftest import (
    FIXTURES,
    _alg,
    _socle_supports,
    _term_rank,
    arrow_matrix,
    distinguished_skeleta_by_path_action,
    ext_dims_by_two_profiles,
    first_primes_by_trial,
    fs_add,
    fs_mul,
    hom_dim_by_stacking,
    hom_dim_from_cyclic_by_stacking,
    projective_layering,
    quotient_representation_by_dense,
    realizable_layerings,
    representation_from_matrices,
    representation_to_json,
    seeded_assignment_by_randrange,
    seq,
    skeleton_module_by_lookup,
    socle_by_stacking,
    top_vectors,
    user_assignment,
    zero_matrix,
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


def test_strong_pseudoprime_to_bases_up_to_37_is_refused():
    # 399165290221 * 798330580441 passes Miller-Rabin to every prime base up to 37;
    # base 41 makes the test exact below 3.317e24
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    with pytest.raises(ValidationError, match=f"^{n} is not prime$"):
        FieldSpec(n)
    for prime in (2**61 - 1, 2**31 - 1, 1000003):
        assert FieldSpec(prime).modulus == prime


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233), k = 1..13,
# each with its factors
PSI = {2047: (23, 89), 1373653: (829, 1657), 25326001: (2251, 11251),
       3215031751: (151, 751, 28351), 2152302898747: (6763, 10627, 29947),
       3474749660383: (1303, 16927, 157543), 341550071728321: (10670053, 32010157),
       3825123056546413051: (149491, 747451, 34233211),
       318665857834031151167461: (399165290221, 798330580441),
       3317044064679887385961981: (1287836182261, 2575672364521)}
PSI_K = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
         341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
         3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    """n odd > a passes the strong test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


def is_prime_by_13_bases(n):
    """Trial division by the 13 bases, then the strong test to all 13."""
    if n < 2:
        return False
    if any(n % a == 0 for a in MR_BASES):
        return n in MR_BASES
    return all(strong_probable_prime(n, a) for a in MR_BASES)


@pytest.mark.parametrize("k", range(1, 13))
def test_each_least_strong_pseudoprime_is_refused(k):
    # psi_k is composite and passes the first k bases, so the test must take more than k
    # of them at psi_k: a bound written one place off lets it pass as prime
    n = PSI_K[k - 1]
    assert math.prod(PSI[n]) == n and all(strong_probable_prime(n, a) for a in MR_BASES[:k])
    with pytest.raises(ValidationError, match=f"^{n} is not prime$"):
        FieldSpec(n)


def test_primality_takes_the_bases_its_size_needs(monkeypatch):
    # the bases a prime takes, counted as the pow calls modulo it: k + 1 from psi_k on,
    # as few as 1 below psi_1, and all 13 from psi_12 on (so 3.317e24, psi_13, stays the
    # exact bound); the first prime from each bound on and the last one below it
    def primes_near(b):
        up = next(n for n in count(b) if is_prime_by_13_bases(n))
        down = next(n for n in count(b - 1, -1) if is_prime_by_13_bases(n))
        return up, down

    calls = []
    monkeypatch.setattr(matrix_rep, "pow", lambda *args: calls.append(args[2]) or pow(*args),
                        raising=False)
    for b in sorted(set(PSI_K)):
        for n in primes_near(b):
            calls.clear()
            assert matrix_rep._is_prime(n)
            assert len(calls) == min(13, 1 + sum(n > psi for psi in PSI_K)) and set(calls) == {n}
    for n in (2**89 - 1, 2**127 - 1):
        calls.clear()
        assert matrix_rep._is_prime(n) and len(calls) == 13


# odd draws, Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1), and the least strong
# pseudoprimes with their neighbours, all up to 10^25
prime_candidates = st.one_of(
    st.integers(0, 10**25),
    st.integers(0, 5 * 10**24).map(lambda n: 2 * n + 1),
    st.integers(1, 10**7).map(lambda k: (6 * k + 1) * (12 * k + 1) * (18 * k + 1)),
    st.sampled_from(PSI_K[:12]).flatmap(lambda n: st.integers(n - 10**4, n + 10**4)))


@settings(max_examples=300, deadline=None)
@given(n=prime_candidates)
def test_primality_agrees_with_all_13_bases(n):
    assert matrix_rep._is_prime(n) == is_prime_by_13_bases(n)


def test_seeded_assignment_needs_large_modulus(double_back):
    pres = generic_presentation(double_back, S_DEEP)
    with pytest.raises(ValidationError):
        seeded_assignment(pres, 0, FieldSpec(7))


RANDOM_MODULI = (1000003, 2**31 - 1, 2**61 - 1, 2**89 - 1)


@pytest.mark.parametrize("fixture", FIXTURES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_seeded_assignment_matches_randrange_oracle(request, fixture, data):
    alg = request.getfixturevalue(fixture)
    pres = generic_presentation(alg, data.draw(realizable_layerings(alg)))
    for fs in map(FieldSpec, RANDOM_MODULI):
        for sd in range(51):
            assert seeded_assignment(pres, sd, fs) == seeded_assignment_by_randrange(pres, sd, fs)
    assert seeded_assignment(pres, 0, RATIONALS) == seeded_assignment_by_randrange(
        pres, 0, RATIONALS)


@pytest.mark.parametrize("fixture, S", [("double_back", S_DEEP), ("relay", S_DIM14)])
def test_seeded_assignment_matches_randrange_oracle_on_large_presentations(request,
                                                                          fixture, S):
    pres = generic_presentation(request.getfixturevalue(fixture), S)
    for fs in [*map(FieldSpec, RANDOM_MODULI), RATIONALS]:
        for sd in range(51):
            assert seeded_assignment(pres, sd, fs) == seeded_assignment_by_randrange(pres, sd, fs)


def test_seeded_assignment_redraws_p_minus_one(relay):
    # at seed 21195 the 18th raw 20-bit draw is 1000002 = p - 1, whose value 1 + r would
    # be p = 0 in F_p; it is redrawn, as randrange redraws it
    pres, fs = generic_presentation(relay, S_DIM14), FieldSpec(1000003)
    assert len(pres.scalar_ids) >= 18
    draws = random.Random(21195).getrandbits
    assert [draws(20) for _ in range(18)][-1] == fs.modulus - 1
    values = seeded_assignment(pres, 21195, fs)
    assert values == seeded_assignment_by_randrange(pres, 21195, fs)
    assert 0 < min(values) and max(values) < fs.modulus


def test_more_scalars_than_nonzero_values_are_refused_before_any_draw(monkeypatch):
    # p scalars cannot take distinct values among the p - 1 nonzero ones of F_p, so the
    # redraw loop would never end: they are refused before the first draw, p - 1 are not
    class Drawn(Exception):
        pass

    class NoDraws(random.Random):
        def getrandbits(self, k):
            raise Drawn

    monkeypatch.setattr(matrix_rep.random, "Random", NoDraws)
    p = 1000003
    with pytest.raises(ValidationError, match=f"^{p} distinct nonzero scalars exceed the "
                                              f"{p - 1} of F_{p}$"):
        seeded_assignment(SimpleNamespace(scalar_ids=range(p)), 0, FieldSpec(p))
    with pytest.raises(Drawn):
        seeded_assignment(SimpleNamespace(scalar_ids=range(p - 1)), 0, FieldSpec(p))


def test_first_primes_match_trial_division_oracle():
    primes = first_primes_by_trial(2000)
    for n in range(2001):
        assert matrix_rep._first_primes(n) == primes[:n]


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
    v, vec = top_vectors(rep)[0]
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
                            rep = materialize(pres, values, fs)
                            assert radical_layering(rep) == S
                            cases += 1
    assert cases == 18 * (66 + 29 + 16)  # skeleta visited, times modes, fields, scalars


def test_foreign_skeleton_rejected(relay):
    # a skeleton of another layering would present the wrong module
    others = [enumerate_sequences(relay, (2, 3, 2))[0],
              next(S for S in enumerate_sequences(relay, (2, 7, 5)) if S != S_DIM14)]
    unrealizable = seq((1, 0, 0), (0, 0, 0), (1, 0, 0), (0, 0, 0))  # nothing to extend
    for S in others:
        sk = canonical_skeleton(relay, S)
        for target in (S_DIM14, unrealizable):  # refused before S is found unrealizable
            calls = (
                lambda: generic_presentation(relay, target, skeleton=sk),
                lambda: generic_presentation(relay, target, skeleton=sk, graded=True),
                lambda: graded_decomposition(relay, target, skeleton=sk),
            )
            for call in calls:
                with pytest.raises(ValidationError, match="skeleton is compatible with"):
                    call()
        # the skeleton still serves its own layering
        assert generic_presentation(relay, S, skeleton=sk).skeleton is sk


def test_nilpotency_of_materialized(double_back):
    from genrep.algebra_core import enumerate_paths
    rep = mat_deep(double_back)
    # every composable (L+1)-fold arrow product vanishes
    for v in double_back.vertices:
        for arrows in [p.arrows for p in _long_paths(double_back, v)]:
            from genrep.matrix_rep import mat_mul
            d = rep.dim_at(v)
            mat = [[int(i == j) for j in range(d)] for i in range(d)]
            for name in reversed(arrows):
                mat = mat_mul(rep.field, arrow_matrix(rep, name), mat)
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
    rep = representation_from_matrices(double_back, fs, (2, 1),
                                       {a.name: zero_matrix(fs, *_shape(double_back, a, (2, 1)))
                                        for a in double_back.quiver.arrows})
    assert radical_layering(rep) == seq((2, 1), (0, 0), (0, 0))
    assert socle(rep) == (2, 1)


def _shape(alg, arrow, dims):
    return dims[alg.vertex_pos(arrow.target)], dims[alg.vertex_pos(arrow.source)]


def test_radical_layering_projective(double_back):
    rep = projective_representation(double_back, ("1",), RATIONALS)
    assert radical_layering(rep) == seq((1, 0), (0, 1), (2, 0))


def test_projective_extends_each_path_once(monkeypatch):
    # one loop at L = 50: every basis path but the tops is built once, as one
    # extension of a shorter one, where enumerating each length afresh takes
    # L(L+1)/2 per top
    from genrep.algebra_core import Path
    alg, calls, then = _alg(["1"], [("x", "1", "1")], 50), [], Path.then
    monkeypatch.setattr(Path, "then", lambda p, a: calls.append(p) or then(p, a))
    tops = ("1", "1")
    rep = projective_representation(alg, tops, RATIONALS)
    assert rep.dims == (102,)
    assert len(calls) == rep.total_dim - len(tops) == 100
    assert len(set(calls)) == 50  # each path of length 0..49 extended once per top


def test_socle_deep(double_back):
    assert generic_socle(double_back, S_DEEP) == (1, 0)


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
    from conftest import hom_profile_dim
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


@pytest.mark.parametrize("fixture", ["double_back", "relay", "line_swing"])
@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_ext_merged_profile_matches_two_profiles(request, fixture, k, data):
    # Omega^k and Omega^(k-1) ranked as one profile give the two-profile sum, for
    # N = G(S) at each seed and for a separately drawn N
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg))
    seeds = (0, 1, 2)
    detail = ext_dim_detail(alg, S, None, k, seeds)
    assert [r["alternating"] for r in detail["per_seed"]] == ext_dims_by_two_profiles(
        alg, S, None, k, seeds, FieldSpec())
    pres = generic_presentation(alg, data.draw(realizable_layerings(alg)))
    rep_n = materialize(pres, seeded_assignment(pres, 1000), FieldSpec())
    detail = ext_dim_detail(alg, S, rep_n, k, seeds)
    assert [r["alternating"] for r in detail["per_seed"]] == ext_dims_by_two_profiles(
        alg, S, rep_n, k, seeds, FieldSpec())


def test_seed_stability_error_surfaces():
    # the one agreement check returns the value every seed holds, or names the stage, its
    # subject and each seed's value
    where = ("generic_end_dim", f"sequence {S_DEEP}")
    assert matrix_rep._agreed(where, [(1, 7), (2, 7)]) == 7
    with pytest.raises(SeedStabilityError) as info:
        matrix_rep._agreed(where, [(1, 7), (2, 8)])
    assert str(info.value) == (f"generic_end_dim: seeded values disagree for sequence {S_DEEP} "
                               "at seeds [1, 2]: [(1, 7), (2, 8)]")


def _drifting(monkeypatch, name):
    """Replace the batched route matrix_rep.<name> by a stand-in whose value changes with
    every point it is handed (its last argument), in order."""
    import genrep.matrix_rep as mr
    calls = iter(range(100))
    monkeypatch.setattr(mr, name, lambda *args: [next(calls) for _ in args[-1]])


@pytest.mark.parametrize("stage, patched, run", [
    ("generic_end_dim", "_presented_hom_dims",
     lambda alg: generic_end_dim(alg, S_DEEP, seeds=(4, 5, 6))),
    ("generic_hom_dim", "_presented_hom_dims",
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
    monkeypatch.setattr(mr, "_basis_hom_dims",
                        lambda rep_a, rep_b: [100] * (3 if rep_b._three else 1))
    with pytest.raises(MethodDisagreementError) as info:
        ext_dim_detail(double_back, S_DEEP, None, 1, [4, 5, 6])
    message = str(info.value)
    assert message.startswith("ext: ") and str(S_DEEP) in message
    assert "at seed 4 of seeds [4, 5, 6]" in message


def test_ext_seed_instability_names_stage_sequence_and_seeds(double_back, monkeypatch):
    # both Ext^1 methods shift by the same seed-dependent amount, so only the seeds disagree:
    # the point at seed 4 + i gains i in both batched routes
    import genrep.matrix_rep as mr
    hom, presented = mr._basis_hom_dims, mr._presented_hom_dims

    def shifted(route):
        return lambda *args: [d + i for i, d in enumerate(route(*args))]

    monkeypatch.setattr(mr, "_basis_hom_dims", shifted(hom))
    monkeypatch.setattr(mr, "_presented_hom_dims", shifted(presented))
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
    rep2 = Representation(rep.algebra, rep.field, rep.dims, rep.columns)
    with pytest.raises(ValidationError):
        distinguished_skeleta_of(rep2)


def test_labels_required(six_vertex):
    # a module with tops but no graded basis: no layering can be read off it
    rep = worked_module(six_vertex)
    unlabelled = Representation(rep.algebra, rep.field, rep.dims, rep.columns,
                                top_elements=rep.top_elements)
    with pytest.raises(ValidationError, match="no basis labels"):
        distinguished_skeleta_of(unlabelled)


SMALL_PRIME = FieldSpec(1000003)


def outcome(compute):
    """Labels of the skeleta ``compute()`` returns, or the type of error it raises."""
    try:
        return [label_set(sk) for sk in compute()]
    except (ValidationError, EnumerationCapError) as exc:
        return type(exc)


@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME], ids=["Q", "Fp"])
def test_distinguished_skeleta_match_path_action_oracle(six_vertex, relay, loop_out, fs):
    # memoised path images against p * m_r recomputed per skeleton; in the loop_out
    # point b z_3 = -b a z_3 lies in J^2 M, not in J^3 M = 0, so a layer-1 block
    # holding b z_3 is dependent, which only its length-1 coordinates show
    worked = module_point(six_vertex, *WORKED_POINT, fs)
    pres = generic_presentation(relay, S_DIM14)
    generic = materialize(pres, seeded_assignment(pres, 3, fs), fs)
    deep = module_point(loop_out, ("1", "2", "1"), [[(1, 3, ("b",)), (1, 3, ("b", "a"))]], fs)
    assert len(distinguished_skeleta_of(deep)) == 1
    for rep in (worked, generic, deep):
        want = outcome(lambda: distinguished_skeleta_by_path_action(rep))
        assert outcome(lambda: distinguished_skeleta_of(rep)) == want
        assert want != [] and isinstance(want, list)


def naive_action(rep, p):
    """The action matrix of p as a product of arrow matrices, entry by entry."""
    fs = rep.field
    d = rep.dim_at(p.start)
    mat = [[fs.one() if i == j else fs.zero() for j in range(d)] for i in range(d)]
    for name in reversed(p.arrows):
        A = arrow_matrix(rep, name)
        prod = [[fs.zero()] * d for _ in A]
        for i, row in enumerate(A):
            for k, a in enumerate(row):
                for j in range(d):
                    prod[i][j] = fs_add(fs, prod[i][j], fs_mul(fs, a, mat[k][j]))
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
def module_point_specs(draw, alg, coeffs=st.integers(-2, 2)):
    """Tops and relations with drawn coefficients (small integers by default)
    along composable paths."""
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
            rel.append((draw(coeffs), r, tuple(arrows)))
        relations.append(rel)
    return tops, relations


@pytest.mark.parametrize("fixture", ["double_back", "relay", "six_vertex", "loop_out"])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME], ids=["Q", "Fp"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_distinguished_skeleta_match_oracle_on_drawn_points(request, fixture, fs, data):
    alg = request.getfixturevalue(fixture)
    tops, relations = data.draw(module_point_specs(alg))
    rep = module_point(alg, tops, relations, fs)
    assert (outcome(lambda: distinguished_skeleta_of(rep, cap=60))
            == outcome(lambda: distinguished_skeleta_by_path_action(rep, cap=60)))


def test_distinguished_skeleta_eliminate_no_radical(six_vertex, relay, monkeypatch):
    # the layering and every J^(l+1)M_v come from the basis labels
    import genrep.matrix_rep
    points = [module_point(six_vertex, *WORKED_POINT), module_point(relay, *GENERIC_POINT_14)]
    want = [distinguished_skeleta_by_path_action(rep) for rep in points]

    def refuse(rep):
        raise AssertionError("the radical filtration was eliminated")

    monkeypatch.setattr(genrep.matrix_rep, "_radical_spaces", refuse)
    assert [distinguished_skeleta_of(rep) for rep in points] == want
    assert [len(sks) for sks in want] == [3, 360]


def assert_labels_grade_the_radical(rep):
    """Each vertex's labels are sorted by length, and the eliminated J^l M_v is the
    span of the coordinates whose labels have length >= l."""
    from genrep.matrix_rep import _radical_spaces
    for l, spaces in enumerate(_radical_spaces(rep)):
        for v, space in spaces.items():
            lengths = [p.length for _, p in rep.basis_labels[v]]
            assert lengths == sorted(lengths) and len(lengths) == rep.dim_at(v)
            graded = [i for i, n in enumerate(lengths) if n >= l]
            assert space.dim == len(graded)
            assert all(i >= graded[0] for row in space.rows.values() for i in row)


@pytest.mark.parametrize("fixture, dimvec", [("double_back", (2, 2)), ("relay", (2, 2, 1)),
                                             ("six_vertex", (1, 1, 1, 1, 1, 2))],
                         ids=["double_back", "relay", "six_vertex"])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME, FieldSpec(5)], ids=["Q", "Fp", "F5"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_basis_labels_grade_the_radical_filtration(request, fixture, dimvec, fs, data):
    # drawn module points, their quotients by drawn generators, and skeleton
    # modules at drawn and at all-zero scalars
    alg = request.getfixturevalue(fixture)
    point = module_point(alg, *data.draw(module_point_specs(alg)), fs)
    quotient = quotient_representation(point, [
        (w, {i: x for i, x in enumerate(vec) if x}) for w, vec in data.draw(sub_vectors(point))])
    S = data.draw(st.sampled_from(enumerate_sequences(alg, dimvec)))
    pres = generic_presentation(alg, S, graded=data.draw(st.booleans()))
    for rep in (point, quotient, materialize(pres, drawn_assignment(data, pres, fs), fs),
                materialize(pres, [fs.zero()] * len(pres.scalar_ids), fs)):
        assert_labels_grade_the_radical(rep)


def assert_hom_out_of_matches_stacking(rep):
    alg = rep.algebra
    assert socle(rep) == socle_by_stacking(rep)
    for v in alg.vertices:
        for m in range(1, alg.L + 2):
            c = CyclicType(v, m)
            assert hom_dim_from_cyclic(alg, c, rep) == hom_dim_from_cyclic_by_stacking(alg, c, rep)


@pytest.mark.parametrize("fixture, dimvec", [("double_back", (2, 2)), ("relay", (2, 2, 1)),
                                             ("six_vertex", (1, 1, 1, 1, 1, 2))],
                         ids=["double_back", "relay", "six_vertex"])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME, FieldSpec(5)], ids=["Q", "Fp", "F5"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_socle_off_arrow_columns_matches_cyclic_hom(request, fixture, dimvec, fs, data):
    # socle is Hom out of Lambda e_v / J e_v, one relation per arrow out of v read off
    # the arrow's columns; the dense oracle stacks those arrows' matrices instead.
    # Drawn module points, skeleton modules at drawn and at all-zero scalars, and a
    # hand-built copy of the point without basis labels; vertex 6 of six_vertex is a sink
    alg = request.getfixturevalue(fixture)
    point = module_point(alg, *data.draw(module_point_specs(alg)), fs)
    S = data.draw(st.sampled_from(enumerate_sequences(alg, dimvec)))
    pres = generic_presentation(alg, S, graded=data.draw(st.booleans()))
    hand = representation_from_matrices(alg, fs, point.dims, {
        name: arrow_matrix(point, name) for name in point.columns})
    assert hand.basis_labels is None
    for rep in (point, hand, materialize(pres, drawn_assignment(data, pres, fs), fs),
                materialize(pres, [fs.zero()] * len(pres.scalar_ids), fs)):
        assert socle(rep) == socle_by_stacking(rep)


def test_socle_of_a_sink_is_its_whole_space(six_vertex):
    # P_6 + P_4: all of P_6 and the two arrow images of e_4 at 6 lie in the socle
    rep = module_point(six_vertex, ["6", "4"], [], RATIONALS)
    assert not six_vertex.quiver.arrows_from["6"]
    assert socle(rep) == (0, 0, 0, 0, 0, 3)


GENERIC_FIELDS = pytest.mark.parametrize("fs", [FieldSpec(), RATIONALS, SMALL_PRIME],
                                         ids=["F_2^61-1", "Q", "F_1000003"])


def assert_socle_of_seeded_points(alg, S, fs, seeds):
    """The generic socle equals the socle of the point materialized at each seed."""
    pres = generic_presentation(alg, S)
    soc = generic_socle(alg, S, fs)
    for sd in seeds:
        assert soc == socle(materialize(pres, seeded_assignment(pres, sd, fs), fs)), (S, sd)


@pytest.mark.parametrize("fixture", ["double_back", "line_swing", "loop_out", "relay"])
@GENERIC_FIELDS
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_socle_rows_match_socle_of_materialized_point(request, fixture, fs, data):
    # the component fixtures: the term rank of the socle rows' supports is the rank at
    # seeded scalars, so the generic socle is the socle of each seeded point
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg).filter(lambda S: any(S.top)))
    seed = data.draw(st.integers(0, 10**6))
    assert_socle_of_seeded_points(alg, S, fs, (seed, seed + 1, seed + 2))


@pytest.mark.parametrize("fixture, layers, shape", [
    # a row peels when its support alone fixes its share of the rank: it holds a single
    # column, or a column no other row holds.  The row of b1 z1 at 1 is empty (its one
    # arrow leads past the last layer), and the row of z1 at 2 (b1 z1 and a unit, b2 z1
    # critical) peels
    ("double_back", ((0, 1), (1, 0), (0, 0)), [(1, 0), (1, 1)]),
    ("loop_out", ((1, 0), (0, 1), (0, 0)), [(1, 1), (1, 0)]),
    # no row at 2 peels: z1 and z2 both hold the columns of b1 and b2 at 1
    ("double_back", ((0, 2), (1, 0), (0, 0)), [(1, 0), (2, 2)]),
    # at 1 the row of a*z1 holds a single column and the other two share theirs
    ("loop_out", ((2, 0), (1, 1), (0, 1)), [(3, 3), (2, 0)]),
], ids=["all-peel", "all-peel-loop", "none-peel", "some-peel"])
@GENERIC_FIELDS
def test_socle_rows_peel(request, fixture, layers, shape, fs):
    # (dim M_v, term rank of the socle rows) per vertex, and the socle of seeded points
    alg = request.getfixturevalue(fixture)
    S = seq(*layers)
    supports = _socle_supports(canonical_skeleton(alg, S))
    assert [(len(rows), _term_rank(rows)) for rows in supports] == shape
    assert_socle_of_seeded_points(alg, S, fs, (0, 1, 2))


@pytest.mark.parametrize("fixture", ["double_back", "line_swing", "loop_out", "relay",
                                     "triangle", "kronecker", "six_vertex"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_socle_supports_hold_one_unit_per_column(request, fixture, data):
    # on any compatible skeleton, not only the canonical one: the supports are those of
    # the point materialized on it (a unit where its column holds 1, a scalar where it
    # holds a drawn value, never 1 but with odds 1/p), each column holds at most one
    # unit (a member's parent is unique), and the term rank is the point's rank
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg).filter(lambda S: any(S.top)))
    sk = data.draw(st.sampled_from(list(islice(iter_skeleta(alg, S), 20))))
    pres = generic_presentation(alg, S, skeleton=sk)
    point = materialize(pres, seeded_assignment(pres, data.draw(st.integers(0, 2**32))))
    supports = _socle_supports(sk)
    for v, rows in zip(alg.vertices, supports):
        assert rows == [{(a.name, i): x == 1 for a in alg.quiver.arrows_from[v]
                         for i, x in point.columns[a.name][j].items()}
                        for j in range(point.dim_at(v))]
        units = [c for row in rows for c, unit in row.items() if unit]
        assert len(units) == len(set(units))
    assert tuple(len(rows) - _term_rank(rows) for rows in supports) == socle(point)


def test_term_rank_needs_one_unit_per_column():
    # two units in one column can cancel: [[1, 1], [1, 1]] has term rank 2 and rank 1
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1}]
    assert _term_rank(rows) == 2 and _rank(MERSENNE_61, rows) == 1


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_term_rank_is_the_rank_of_independent_scalars(data, seed):
    # supports with at most one unit per column, every other entry its own scalar: the
    # term rank is the rank.  The scalars come from a drawn seed, never drawn one by
    # one, which would shrink them to equal values that cancel
    width = data.draw(st.integers(1, 7))
    supports = data.draw(st.lists(st.sets(st.integers(0, width - 1), max_size=5), max_size=8))
    unit_row = {c: data.draw(st.none() | st.sampled_from(holders))
                for c in range(width)
                if (holders := [j for j, cols in enumerate(supports) if c in cols])}
    rng = random.Random(seed)
    rows = [{c: 1 if unit_row.get(c) == j else rng.randrange(1, MERSENNE_61) for c in cols}
            for j, cols in enumerate(supports)]
    assert _term_rank(rows) == _rank(MERSENNE_61, [dict(row) for row in rows])


# quivers beside the fixtures: three loops, and parallel arrows next to a loop
SOCLE_QUIVERS = {
    "three_loops": _alg(["1"], [(x, "1", "1") for x in "xyz"], 1).quiver,
    "parallel_and_loop": _alg(["1", "2"], [("a1", "1", "2"), ("a2", "1", "2"),
                                           ("c", "2", "2"), ("d", "2", "1")], 1).quiver,
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generic_socle_is_the_term_rank_on_every_skeleton(request, data):
    # the count off S equals dim M_v minus the maximum matching of the socle rows'
    # supports, on the canonical skeleton and on up to 40 others, at L <= 8
    name = data.draw(st.sampled_from(["double_back", "relay", "line_swing", "six_vertex",
                                      *SOCLE_QUIVERS]), label="quiver")
    quiver = SOCLE_QUIVERS.get(name) or request.getfixturevalue(name).quiver
    alg = TruncatedAlgebra(quiver, data.draw(st.integers(1, 8), label="L"))
    S = data.draw(realizable_layerings(alg))
    soc = generic_socle(alg, S)
    for sk in [canonical_skeleton(alg, S), *islice(iter_skeleta(alg, S), 1, 41)]:
        assert tuple(len(rows) - _term_rank(rows) for rows in _socle_supports(sk)) == soc


@pytest.mark.parametrize("fixture", ["double_back", "relay", "six_vertex"])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME, FieldSpec(5)], ids=["Q", "Fp", "F5"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_relation_matrix_hom_matches_stacking_on_drawn_points(request, fixture, fs, data):
    # drawn coefficients include 0, so relations may vanish or lose terms
    alg = request.getfixturevalue(fixture)
    assert_hom_out_of_matches_stacking(module_point(alg, *data.draw(module_point_specs(alg)), fs))


@pytest.mark.parametrize("fixture, dimvec", [("double_back", (2, 2)), ("relay", (2, 2, 1)),
                                             ("line_swing", (2, 2, 1))])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME], ids=["Q", "Fp"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_relation_matrix_hom_matches_stacking_on_generic_points(request, fixture, dimvec, fs,
                                                                 data):
    alg = request.getfixturevalue(fixture)
    S = data.draw(st.sampled_from(enumerate_sequences(alg, dimvec)))
    pres = generic_presentation(alg, S, graded=data.draw(st.booleans()))
    assign = seeded_assignment(pres, data.draw(st.integers(0, 2**32)), fs)
    assert_hom_out_of_matches_stacking(materialize(pres, assign, fs))


def unlabelled(rep):
    return dataclasses.replace(rep, basis_labels=None)


@pytest.mark.parametrize("fixture, dimvec", [("double_back", (2, 2)), ("relay", (2, 2, 1)),
                                             ("line_swing", (2, 2, 1))])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME, FieldSpec(5)], ids=["Q", "Fp", "F5"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pruned_hom_dim_matches_unpruned_and_stacking(request, fixture, dimvec, fs, data):
    # hom_dim leaves out the unknowns J^l A -> J^l B makes zero when both modules carry
    # basis labels: generic and graded points at drawn and at zero scalars, and module
    # points; the same modules without labels, and a hand-built one, keep every unknown
    alg = request.getfixturevalue(fixture)
    reps = []
    for _ in range(2):
        S = data.draw(st.sampled_from(enumerate_sequences(alg, dimvec)))
        pres = generic_presentation(alg, S, graded=data.draw(st.booleans()))
        reps.append(materialize(pres, drawn_assignment(data, pres, fs), fs))
    reps.append(materialize(pres, [fs.zero()] * len(pres.scalar_ids), fs))
    reps.append(module_point(alg, *data.draw(module_point_specs(alg)), fs))
    hand = representation_from_matrices(alg, fs, reps[-1].dims, {
        name: arrow_matrix(reps[-1], name) for name in reps[-1].columns})
    for rep_a in reps:
        for rep_b in reps:
            want = hom_dim(rep_a, rep_b)
            assert want == hom_dim(unlabelled(rep_a), unlabelled(rep_b))
            assert want == hom_dim(unlabelled(rep_a), rep_b) == hom_dim(rep_a, unlabelled(rep_b))
        assert hom_dim(hand, rep_a) == hom_dim(reps[-1], rep_a)
        assert hom_dim(rep_a, hand) == hom_dim(rep_a, reps[-1])
    assert hand.basis_labels is None
    for rep_a, rep_b in ((reps[0], reps[1]), (reps[2], reps[0]), (reps[0], reps[3]),
                         (reps[3], reps[1])):  # the dense oracle, on the smaller pairs
        assert hom_dim(rep_a, rep_b) == hom_dim_by_stacking(rep_a, rep_b)


@pytest.mark.parametrize("fixture, S", [("double_back", S_DEEP), ("relay", S_DIM14)],
                         ids=["readme", "relay-d14"])
def test_hom_dim_keeps_only_the_unknowns_the_labels_allow(request, fixture, S, monkeypatch):
    # the generator z_k maps into the basis elements of M at its vertex no shorter than
    # it; without labels every (k, i) at one vertex is an unknown.  The width is hom_dim
    # plus the rank of the rows handed to the kernel, every row inside it: _rank at one
    # point, and _rank3 at the three points of seeds 0, 1, 2, ranked as one matrix
    alg = request.getfixturevalue(fixture)
    pres = generic_presentation(alg, S)
    points = [seeded_assignment(pres, sd) for sd in (0, 1, 2)]
    reps = [materialize(pres, points[0]),
            matrix_rep._module(pres.skeleton, pres.relations, points, FieldSpec())]
    calls = []
    for kernel in ("_rank", "_rank3"):
        def spy(p, rows, _rank_of=getattr(matrix_rep, kernel), _kernel=kernel):
            top = max((c for row in rows for c in row), default=-1)
            calls.append((_kernel, top, _rank_of(p, rows)))
            return calls[-1][2]

        monkeypatch.setattr(matrix_rep, kernel, spy)
    M = reps[0]
    lengths = [[q.length for _, q in M.basis_labels[v]] for v in alg.vertices]
    pruned = sum(sum(i >= k for i in ls) for ls in lengths for k in ls)
    full = sum(d * d for d in M.dims)
    for at, width in ((reps, pruned), (list(map(unlabelled, reps)), full)):
        for rep, kernel, n in zip(at, ("_rank", "_rank3"), (1, 3)):
            dims = matrix_rep._basis_hom_dims(rep, rep)
            used, top, rank = calls.pop()
            assert used == kernel and dims == [width - rank] * n and top < width
    assert pruned < full and not calls


def dense_columns(fs, mat, width):
    """Columns {row: entry} of a dense matrix, entries as field elements, zeros dropped."""
    return [{i: x for i, row in enumerate(mat) if (x := fs.element(row[j]))}
            for j in range(width)]


def assert_columns_match_dense(rep):
    fs, alg = rep.field, rep.algebra
    for a in alg.quiver.arrows:
        cols = rep.columns[a.name]
        assert cols == dense_columns(fs, arrow_matrix(rep, a.name), rep.dim_at(a.source))
    from genrep.algebra_core import enumerate_paths
    for v in alg.vertices:
        for length in range(alg.L + 1):
            for p in enumerate_paths(alg, v, length):
                cols = _path_columns(rep, p)
                assert cols == dense_columns(fs, naive_action(rep, p), rep.dim_at(v))
                assert {type(x) for col in cols for x in col.values()} <= {type(fs.zero())}


def unreduced(rep, shift):
    """The same module with every entry moved by ``shift`` times p, or over Q
    with integral entries as ints: equal matrices in other representatives."""
    p = rep.field.modulus
    entry = (lambda x: int(x) if x.denominator == 1 else x) if p is None else (
        lambda x: x + shift * p)
    return representation_from_matrices(rep.algebra, rep.field, rep.dims, {
        name: tuple(tuple(entry(x) for x in row) for row in arrow_matrix(rep, name))
        for name in rep.columns})


@pytest.mark.parametrize("fixture", ["double_back", "relay", "line_swing"])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME, FieldSpec(5)], ids=["Q", "Fp", "F5"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sparse_columns_match_dense_on_drawn_points(request, fixture, fs, data):
    # module points (coefficients include 0), the same points with unreduced
    # entries, and seeded generic and graded points (drawn scalars over F_5)
    alg = request.getfixturevalue(fixture)
    point = module_point(alg, *data.draw(module_point_specs(alg)), fs)
    assert_columns_match_dense(point)
    assert_columns_match_dense(unreduced(point, data.draw(st.sampled_from([-1, 1, 2]))))
    dimvec = {"double_back": (2, 2)}.get(fixture, (2, 2, 1))
    S = data.draw(st.sampled_from(enumerate_sequences(alg, dimvec)))
    pres = generic_presentation(alg, S, graded=data.draw(st.booleans()))
    if fs.exact or fs.modulus > MIN_RANDOM_MODULUS:
        assign = seeded_assignment(pres, data.draw(st.integers(0, 2**32)), fs)
    else:
        assign = {sid: fs.element(data.draw(st.integers(0, 4))) for sid in pres.scalar_ids}
    assert_columns_match_dense(materialize(pres, assign, fs))


def snapshot(rep):
    """Everything a module exposes, as plain values: dims, labels, tops, arrow
    columns and their dense matrices (the order of arrow names included)."""
    return (rep.dims, dict(rep.basis_labels), rep.top_elements,
            {name: [dict(c) for c in cols] for name, cols in rep.columns.items()},
            [(name, arrow_matrix(rep, name)) for name in rep.columns])


def drawn_assignment(data, pres, fs):
    """Seeded generic scalars where the field allows them, else (and also on
    request) small drawn values, zero included."""
    if (fs.exact or fs.modulus > MIN_RANDOM_MODULUS) and data.draw(st.booleans()):
        return seeded_assignment(pres, data.draw(st.integers(0, 2**32)), fs)
    return {sid: fs.element(data.draw(st.integers(0, 4))) for sid in pres.scalar_ids}


@pytest.mark.parametrize("fixture", ["double_back", "relay", "line_swing"])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME, FieldSpec(5)], ids=["Q", "Fp", "F5"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_template_modules_match_rebuilt_oracle(request, fixture, fs, data):
    # generic and graded presentations at seeded, small and zero scalars, two
    # points per presentation, each built afresh on the presentation's skeleton;
    # on the canonical skeleton and, where S has another, on a drawn one
    alg = request.getfixturevalue(fixture)
    dimvec = {"double_back": (2, 2)}.get(fixture, (2, 2, 1))
    S = data.draw(st.sampled_from(enumerate_sequences(alg, dimvec)))
    graded = data.draw(st.booleans())
    others = list(islice(iter_skeleta(alg, S), 1, 8))
    for skeleton in [None] + ([data.draw(st.sampled_from(others))] if others else []):
        pres = generic_presentation(alg, S, skeleton=skeleton, graded=graded)
        for _ in range(2):
            assign = drawn_assignment(data, pres, fs)
            rep = materialize(pres, assign, fs)
            oracle = skeleton_module_by_lookup(pres.skeleton, pres.relations, assign, fs)
            assert snapshot(rep) == snapshot(oracle)
            assert all(arrow_matrix(rep, a) == arrow_matrix(oracle, a) for a in oracle.columns)
            assert list(rep.columns) == [a.name for a in alg.quiver.arrows]
    tops = data.draw(st.lists(st.sampled_from(alg.vertices), min_size=1, max_size=2))
    P = projective_representation(alg, tops, fs)
    sk = Skeleton(alg, tops, [el for labels in P.basis_labels.values() for el in labels])
    assert snapshot(P) == snapshot(skeleton_module_by_lookup(sk, (), {}, fs))


def test_building_a_module_leaves_its_presentation_as_built(relay):
    # materialize and the module of three points keep nothing on the presentation: it
    # has no attribute dict to keep it in, and it equals a fresh presentation of the same S
    pres = generic_presentation(relay, S_DIM14)
    points = [seeded_assignment(pres, sd) for sd in (0, 1, 2)]
    materialize(pres, points[0])
    matrix_rep._module(pres.skeleton, pres.relations, points, FieldSpec())
    assert not hasattr(pres, "__dict__")
    assert pres == generic_presentation(relay, S_DIM14)


def test_next_seed_leaves_earlier_module_unchanged(relay):
    pres = generic_presentation(relay, S_DIM14)
    rep0 = materialize(pres, seeded_assignment(pres, 0))
    before = snapshot(rep0)
    rep1 = materialize(pres, seeded_assignment(pres, 1))
    assert snapshot(rep0) == before != snapshot(rep1)
    assert socle(rep0) == socle(rep1)
    oracle = skeleton_module_by_lookup(pres.skeleton, pres.relations,
                                       seeded_assignment(pres, 0), FieldSpec())
    assert snapshot(rep0) == snapshot(oracle)


def test_assignment_missing_a_scalar_is_rejected(relay):
    pres = generic_presentation(relay, S_DIM14)
    values = seeded_assignment(pres, 0)
    dropped = pres.scalar_ids[-1]
    del values[dropped]
    with pytest.raises(ValidationError, match=f"assignment missing scalar x_{dropped}$"):
        materialize(pres, values)


def test_materialized_module_is_freed_without_the_cycle_collector(relay):
    # a module holds its columns, tops and path memo, none of which refers back
    # to it, so reference counting alone frees it once its last name is gone
    import gc
    import weakref
    pres = generic_presentation(relay, S_DIM14)
    gc.disable()
    try:
        rep = materialize(pres, seeded_assignment(pres, 0))
        assert len(arrow_matrix(rep, "b")) == rep.dim_at("3")
        socle(rep)
        ref = weakref.ref(rep)
        del rep
        assert ref() is None
    finally:
        gc.enable()


def test_generic_invariants_build_no_dense_matrix(double_back, relay, six_vertex, monkeypatch):
    # path_action is the one dense view of a module: no invariant, module
    # point or distinguished-skeleta search may call it
    import genrep.matrix_rep
    from genrep.algebra_core import Path
    pres = generic_presentation(relay, S_DIM14)
    stacked = socle_by_stacking(materialize(pres, seeded_assignment(pres, 0)))
    points = ((relay, GENERIC_POINT_14), (six_vertex, WORKED_POINT))
    want = [distinguished_skeleta_by_path_action(module_point(alg, *point))
            for alg, point in points]

    def refuse(*args):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(genrep.matrix_rep, "path_action", refuse)
    assert generic_socle(double_back, S_DEEP) == (1, 0)
    assert generic_end_dim(double_back, S_DEEP) == 2
    assert generic_socle(relay, S_DIM14) == stacked
    generic_end_dim(relay, S_DIM14)
    generic_hom_dim(relay, S_DIM14, S_DIM14)
    generic_hom_dim(double_back, S_DEEP, seq((1, 1), (1, 1), (0, 0)))
    for (alg, point), skeleta in zip(points, want):
        rep = module_point(alg, *point)
        assert radical_layering(rep) == skeleta[0].sequence()
        assert distinguished_skeleta_of(rep) == skeleta != []
    with pytest.raises(AssertionError, match="dense"):
        genrep.matrix_rep.path_action(rep, Path("1", ("al",)))


@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME, FieldSpec(7)], ids=["Q", "Fp", "F7"])
def test_zero_dimensional_vertex_matches_stacking(relay, fs):
    # vertex 1, then vertex 3, is zero: its arrows have no rows or no columns,
    # and the F_7 entries 7 and -1 stand for 0 and 6
    no_1 = representation_from_matrices(relay, fs, (0, 2, 1), {
        "a1": ((), ()), "a2": ((), ()), "b": ((1, 7),),
        "g1": ((0,), (-1,)), "g2": ((0,), (0,))})
    no_3 = representation_from_matrices(relay, fs, (1, 2, 0), {
        "a1": ((1,), (0,)), "a2": ((7,), (-1,)), "b": (), "g1": ((), ()), "g2": ((), ())})
    for rep in (no_1, no_3):
        assert_columns_match_dense(rep)
        assert_hom_out_of_matches_stacking(rep)
        for other in (no_1, no_3):
            assert hom_dim(rep, other) == hom_dim_by_stacking(rep, other)
    assert socle(no_1) == (0, 1, 0) and socle(no_3) == (0, 2, 0)


def assert_quotient_matches_dense(rep, sub_vectors):
    # the generators go in sparse, with their unreduced entries kept
    got = quotient_representation(rep, [(v, {i: x for i, x in enumerate(vec) if x})
                                        for v, vec in sub_vectors])
    want = quotient_representation_by_dense(rep, sub_vectors)
    assert got.dims == want.dims and got.top_elements == want.top_elements
    assert all(arrow_matrix(got, a) == arrow_matrix(want, a) for a in want.columns)
    assert_columns_match_dense(got)
    return got


@st.composite
def sub_vectors(draw, rep):
    """Generators (vertex, dense vector) with entries such as p, -1 and 2p + 3."""
    p = rep.field.modulus
    cell = st.one_of(st.integers(-2, 2), st.sampled_from(
        [Fraction(1, 2), 7] if p is None else [p, -1, 2 * p + 3]))
    return [(v, draw(st.lists(cell, min_size=rep.dim_at(v), max_size=rep.dim_at(v))))
            for v in draw(st.lists(st.sampled_from(rep.algebra.vertices), max_size=3))]


def assert_stored_form(rep):
    """A module as ``Representation`` stores it: arrow columns in arrow order, one
    dict per source basis element, and sparse tops, every index below its
    vertex's dimension and every value a nonzero, reduced field element of the
    field's own type."""
    fs, alg = rep.field, rep.algebra

    def check(vec, height):
        assert type(vec) is dict
        for i, x in vec.items():
            assert type(i) is int and 0 <= i < height
            assert type(x) is type(fs.zero()) and x != 0
            assert fs.exact or 0 < x < fs.modulus

    assert list(rep.columns) == [a.name for a in alg.quiver.arrows]
    for a in alg.quiver.arrows:
        assert len(rep.columns[a.name]) == rep.dim_at(a.source)
        for col in rep.columns[a.name]:
            check(col, rep.dim_at(a.target))
    for v, vec in rep.top_elements or ():
        check(vec, rep.dim_at(v))


@pytest.mark.parametrize("fixture", ["double_back", "relay", "line_swing"])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME, FieldSpec(5), FieldSpec(7)],
                         ids=["Q", "Fp", "F5", "F7"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_built_module_has_the_stored_form(request, fixture, fs, data):
    # materialized generic and graded points at seeded, small and zero scalars,
    # projectives, module points (coefficients 7 and -1 among them, a simple
    # with zero-dimensional vertices) and quotients by unreduced generators
    alg = request.getfixturevalue(fixture)
    dimvec = {"double_back": (2, 2)}.get(fixture, (2, 2, 1))
    S = data.draw(st.sampled_from(enumerate_sequences(alg, dimvec)))
    pres = generic_presentation(alg, S, graded=data.draw(st.booleans()))
    points = [materialize(pres, drawn_assignment(data, pres, fs), fs) for _ in range(2)]
    tops, relations = data.draw(module_point_specs(
        alg, st.one_of(st.integers(-2, 2), st.sampled_from([7, -1]))))
    v = data.draw(st.sampled_from(alg.vertices))
    simple = module_point(alg, (v,), [[(1, 1, (a.name,))] for a in alg.quiver.arrows_from[v]], fs)
    assert simple.dims == tuple(int(w == v) for w in alg.vertices)
    points += [projective_representation(alg, tuple(tops), fs),
               module_point(alg, tops, relations, fs), simple]
    for rep in points[:]:
        subs = [(w, {i: x for i, x in enumerate(vec) if x})
                for w, vec in data.draw(sub_vectors(rep))]
        points.append(quotient_representation(rep, subs))
    for rep in points:
        assert_stored_form(rep)


@pytest.mark.parametrize("fixture", ["double_back", "relay", "six_vertex"])
@pytest.mark.parametrize("fs", [RATIONALS, SMALL_PRIME, FieldSpec(5)], ids=["Q", "Fp", "F5"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_quotients_match_dense_oracle_on_drawn_points(request, fixture, fs, data):
    # a drawn module point, and quotients of it and of its projective cover by
    # drawn generators with unreduced entries
    alg = request.getfixturevalue(fixture)
    tops, relations = data.draw(module_point_specs(alg))
    point = module_point(alg, tops, relations, fs)
    assert_columns_match_dense(point)
    for rep in (projective_representation(alg, tuple(tops), fs), point):
        assert_quotient_matches_dense(rep, data.draw(sub_vectors(rep)))


def test_quotients_of_hand_built_f7_module_match_dense_oracle(relay):
    # entries 7 and -1 stand for 0 and 6; vertex 1 has dimension 0, and its
    # empty generator is the zero vector.  b kills the first basis vector at 2
    # and g1 sends vertex 3 back onto it, so a quotient may keep a coordinate
    # that follows a pivot
    fs = FieldSpec(7)
    rep = representation_from_matrices(relay, fs, (0, 2, 1), {
        "a1": ((), ()), "a2": ((), ()), "b": ((7, 1),),
        "g1": ((-1,), (0,)), "g2": ((0,), (14,))},
        top_elements=(("2", (7, -1)), ("2", (1, 14))))
    dims = {(): (0, 2, 1), (("1", ()),): (0, 2, 1), (("2", (1, 7)),): (0, 1, 1),
            (("2", (8, -7)), ("1", ())): (0, 1, 1), (("3", (-1,)),): (0, 1, 0),
            (("2", (7, 1)),): (0, 0, 0)}
    for subs, want in dims.items():
        assert assert_quotient_matches_dense(rep, [(v, list(vec)) for v, vec in subs]).dims == want
    q = quotient_representation(rep, [("2", {0: 1, 1: 7})])
    assert q.top_elements == (("2", {0: 6}), ("2", {}))
    assert arrow_matrix(q, "b") == ((1,),) and arrow_matrix(q, "g1") == ((0,),)


def test_socle_reduces_unreduced_entries_mod_p(double_back):
    # entries p and -1 stand for 0 and p - 1: a has rank 1, b1 and b2 together rank 2
    fs = FieldSpec(7)
    rep = representation_from_matrices(double_back, fs, (2, 2), {
        "a": ((7, -1), (0, 14)), "b1": ((-1, 7), (0, 0)), "b2": ((7, -8), (14, 0))})
    assert socle(rep) == socle_by_stacking(rep) == (1, 0)
    assert [hom_dim_from_cyclic(double_back, CyclicType(v, 1), rep) for v in "12"] == [1, 0]


# the 14-dimensional generic point of the relay fixture: one relation per
# critical path of the canonical skeleton, small integer scalars
GENERIC_POINT_14 = (
    ("1", "1", "2", "3"),
    [[(c, r, tuple(arrows.split())) for c, r, arrows in rel] for rel in (
        [(1, 4, "g2"), (2, 1, "a1"), (-1, 1, "a2"), (3, 2, "a1"), (-1, 2, "a2"),
         (3, 4, "g1"), (3, 1, "g1 b a1")],
        [(1, 2, "b a2"), (3, 1, "b a1"), (2, 1, "b a2"), (-3, 2, "b a1")],
        [(1, 3, "g1 b"), (1, 1, "g1 b a1")],
        [(1, 3, "g2 b"), (-2, 1, "g1 b a1")],
        [(1, 4, "b g1"), (3, 1, "b a1"), (-3, 1, "b a2"), (-2, 2, "b a1")],
        [(1, 1, "g2 b a1"), (-3, 1, "g1 b a1")],
        [(1, 1, "g1 b a2"), (-1, 1, "g1 b a1")],
        [(1, 1, "g2 b a2"), (1, 1, "g1 b a1")],
        [(1, 2, "g1 b a1"), (-2, 1, "g1 b a1")],
        [(1, 2, "g2 b a1"), (1, 1, "g1 b a1")],
    )],
)


def test_distinguished_block_test_is_memoised(relay, monkeypatch):
    # 360 skeleta, all distinguished: one probe, a rank, per distinct (layer, vertex,
    # block) and per vertex of the tops check, not one per skeleton and layer
    rep = module_point(relay, *GENERIC_POINT_14)
    assert radical_layering(rep) == S_DIM14
    probes = []
    original = matrix_rep._rank
    monkeypatch.setattr(matrix_rep, "_rank",
                        lambda *args: probes.append(1) or original(*args))
    sks = distinguished_skeleta_of(rep)
    assert sks == enumerate_skeleta(relay, S_DIM14)
    assert 0 < len(probes) <= 50


def test_caps_are_decided_by_the_abstract_count(six_vertex, relay):
    # the worked point has 10 compatible abstract skeleta, 3 of them
    # distinguished: a cap between the two raises, as the abstract count says
    worked = module_point(six_vertex, *WORKED_POINT)
    generic = module_point(relay, *GENERIC_POINT_14)
    for rep in (worked, generic):
        alg, S = rep.algebra, radical_layering(rep)
        total = count_skeleta(alg, S)
        for cap in sorted({0, 1, 3, 5, total - 1, total, total + 1}):
            for compute in (lambda: enumerate_skeleta(alg, S, cap=cap),
                            lambda: distinguished_skeleta_of(rep, cap=cap)):
                if total > cap:
                    with pytest.raises(EnumerationCapError):
                        compute()
                else:
                    assert len(compute()) <= total
    assert (count_skeleta(six_vertex, radical_layering(worked)), len(
        distinguished_skeleta_of(worked, cap=10))) == (10, 3)


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
    clipped = Representation(rep.algebra, rep.field, rep.dims, rep.columns,
                             basis_labels=rep.basis_labels, top_elements=rep.top_elements[:2])
    with pytest.raises(ValidationError, match="do not form a full sequence"):
        distinguished_skeleta_of(clipped)


# -- independent cross-checks --------------------------------------------------

def test_exact_rational_mode_matches_mod_p(double_back):
    # the whole pipeline over exact rationals (distinct-prime scalars)
    pres = generic_presentation(double_back, S_DEEP)
    assign = seeded_assignment(pres, 0, RATIONALS)
    assert list(assign)[:3] == [2, 3, 5]
    assert {type(x) for x in assign} == {Fraction}
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
        A = sympy.Matrix([[sympy.Rational(x) for x in row] for row in arrow_matrix(rep, a.name)])
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
            stacked.extend([list(r) for r in arrow_matrix(rep, a.name)])
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
    fs = FieldSpec()
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]
    basis = kernel_basis(fs, rows, 4)
    assert len(basis) == 4 - mat_rank(fs, rows) == 2
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
    # Hom dimensions out of its basis presentation (hom_dim)
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
