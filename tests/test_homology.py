"""Syzygy profiles, the cyclic recursion, projective dimension."""

import math
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from genrep.algebra_core import TruncatedAlgebra, enumerate_sequences, truncated_dim_vector
from genrep.errors import EnumerationCapError, UnrealizableError, ValidationError
from genrep.generic_builder import bundle_tower, generic_presentation
from genrep.homology import (
    CyclicType,
    SyzygyProfile,
    _syzygy_row,
    cyclic_dim,
    first_syzygy,
    is_projective,
    iterated_syzygy,
    last_two_syzygies,
    profile_to_json,
    projective_dimension,
    syzygy_of_cyclic,
)
from genrep import homology
from genrep.skeleta import iter_skeleta

from conftest import (
    FIXTURES,
    _alg,
    bundle_N,
    enumerate_skeleta,
    first_syzygy_by_critical_paths,
    invariants_N_by_critical_paths,
    iterated_syzygy_by_steps,
    last_two_syzygies_by_steps,
    profile_dim_vector,
    projective_dimension_by_dfs,
    projective_dimension_by_level_sets,
    projective_layering,
    realizable_layerings,
    seq,
)

S_DEEP = seq((1, 1), (0, 1), (1, 0))
S_DIM14 = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))


def as_dict(profile):
    return {(c.vertex, c.truncation): m for c, m in profile.items()}


def test_first_syzygy_deep(double_back):
    prof = first_syzygy(double_back, S_DEEP)
    assert as_dict(prof) == {("1", 2): 2, ("1", 1): 1}
    assert sum(profile_dim_vector(double_back, prof)) == 5


def test_first_syzygy_of_projective_layering(double_back):
    S = projective_layering(double_back, (1, 1))
    assert not first_syzygy(double_back, S).items()


def test_first_syzygy_relay(relay):
    prof = first_syzygy(relay, S_DIM14)
    assert as_dict(prof) == {("2", 1): 5, ("2", 2): 2, ("2", 3): 1, ("3", 2): 2}
    P = {v: cyclic_dim(relay, CyclicType(v, relay.L + 1)) for v in relay.vertices}
    total_p = 2 * P["1"] + P["2"] + P["3"]
    assert total_p == 33
    assert sum(profile_dim_vector(relay, prof)) == total_p - S_DIM14.total_dim == 19
    assert profile_dim_vector(relay, prof) == (0, 14, 5)


def test_first_syzygy_skeleton_independent(relay, double_back):
    # the count off S is the critical-path multiset of every compatible skeleton
    for alg, S in [(relay, S_DIM14), (double_back, S_DEEP)]:
        base = first_syzygy(alg, S)
        for sk in enumerate_skeleta(alg, S):
            assert first_syzygy_by_critical_paths(alg, sk) == base


@pytest.mark.parametrize("quiver", ["double_back", "relay", "line_swing", "loop_out",
                                    "kronecker", "two_loops"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_counts_off_the_layering_match_critical_paths(request, quiver, data):
    # Omega^1 and (N, N0, N1) read off S equal the sums over the critical paths of each
    # of the first 50 skeleta, at L = 6..12; the bundle tower's factors sum to N0
    fixed = (_alg(["1"], [("x", "1", "1"), ("y", "1", "1")], 1) if quiver == "two_loops"
             else request.getfixturevalue(quiver))
    alg = TruncatedAlgebra(fixed.quiver, data.draw(st.integers(6, 12), label="L"))
    S = data.draw(realizable_layerings(alg))
    omega1, N = first_syzygy(alg, S), bundle_N(alg, S)
    tower = bundle_tower(alg, S)
    assert (tower.N, tower.N0, tower.N1) == N
    assert sum(f.dim for level in tower.levels for f in level) == N[1]
    skeleta = list(islice(iter_skeleta(alg, S), 50))
    assert skeleta
    for sk in skeleta:
        assert first_syzygy_by_critical_paths(alg, sk) == omega1
        assert invariants_N_by_critical_paths(alg, sk) == N


@pytest.mark.parametrize("count", [first_syzygy, bundle_N], ids=["first_syzygy", "invariants_N"])
def test_counts_raise_as_the_skeleton_route(double_back, count):
    unrealizable = seq((1, 0), (0, 0), (1, 0))  # layer 2 has nothing to extend
    message = r"^\(\[1, 0\], \[0, 0\], \[1, 0\]\) is not realizable$"
    with pytest.raises(UnrealizableError, match=message):
        count(double_back, unrealizable)
    for malformed in (seq((1, 0, 0), (0, 0, 0), (0, 0, 0)), seq((1, 0), (0, 1))):
        with pytest.raises(ValidationError):  # wrong width, too few layers
            count(double_back, malformed)


def test_dim_identity_small_sequences(double_back, loop_out):
    for alg, dimvec in [(double_back, (2, 2)), (double_back, (3, 2)), (loop_out, (2, 1)), (loop_out, (3, 2))]:
        for S in enumerate_sequences(alg, dimvec):
            prof = first_syzygy(alg, S)
            dim_p = sum(S.top[i] * cyclic_dim(alg, CyclicType(v, alg.L + 1))
                        for i, v in enumerate(alg.vertices))
            assert sum(profile_dim_vector(alg, prof)) == dim_p - S.total_dim


def test_syzygy_of_cyclic_double_back(double_back):
    assert as_dict(syzygy_of_cyclic(double_back, CyclicType("1", 1))) == {("2", 2): 1}
    assert as_dict(syzygy_of_cyclic(double_back, CyclicType("1", 2))) == {("1", 1): 2}
    assert not syzygy_of_cyclic(double_back, CyclicType("1", 3)).items()


def test_cyclic_dim_plus_syzygy_is_projective_dim(double_back, relay):
    for alg in (double_back, relay):
        for v in alg.vertices:
            for m in range(1, alg.L + 2):
                c = CyclicType(v, m)
                assert cyclic_dim(alg, c) + sum(profile_dim_vector(alg, syzygy_of_cyclic(alg, c))) \
                    == cyclic_dim(alg, CyclicType(v, alg.L + 1))


def test_simple_at_sink_is_projective(with_isolated):
    assert is_projective(with_isolated, CyclicType("2", 1))
    assert is_projective(with_isolated, CyclicType("3", 1))
    assert not is_projective(with_isolated, CyclicType("1", 1))


def test_iterated_syzygy_deep(double_back):
    # Omega^2 = Omega(S1) + 2 Omega(Lambda e1/J^2)
    assert as_dict(iterated_syzygy(double_back, S_DEEP, 2)) == {("2", 2): 1, ("1", 1): 4}


def test_iterated_syzygy_projective_truncation(a2):
    # layering (S1, S2) over 1->2 is the projective P(1); all syzygies vanish
    S = seq((1, 0), (0, 1))
    assert not iterated_syzygy(a2, S, 1).items()
    assert not iterated_syzygy(a2, S, 2).items()


def test_iterated_syzygy_all_projective_first(a2):
    # two tops: Omega^1 = P(2) is projective, so Omega^2 = 0
    S = seq((2, 0), (0, 1))
    prof = iterated_syzygy(a2, S, 1)
    assert as_dict(prof) == {("2", 1): 1}
    assert is_projective(a2, CyclicType("2", 1))
    assert not iterated_syzygy(a2, S, 2).items()


def test_projdim_deep_infinite(double_back):
    assert projective_dimension(double_back, S_DEEP) == math.inf


def test_projdim_relay_infinite(relay):
    assert projective_dimension(relay, S_DIM14) == math.inf


def test_projdim_projective_is_zero(double_back):
    assert projective_dimension(double_back, projective_layering(double_back, (1, 1))) == 0


def test_projdim_finite_values(a2, with_isolated):
    assert projective_dimension(a2, seq((2, 0), (0, 1))) == 1
    # over 1->2 with isolated 3: S1 has a length-1 resolution
    S = seq((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert projective_dimension(with_isolated, S) == 1


def test_projdim_consistent_with_profiles(double_back, loop_out, a2, with_isolated):
    for alg, dimvec in [(double_back, (2, 2)), (loop_out, (2, 1)), (a2, (2, 1)),
                        (with_isolated, (1, 1, 1))]:
        for S in enumerate_sequences(alg, dimvec):
            pd = projective_dimension(alg, S)
            if pd == math.inf:
                assert iterated_syzygy(alg, S, alg.n * alg.L + 2).items()
            elif pd == 0:
                assert not first_syzygy(alg, S).items()
            else:
                assert iterated_syzygy(alg, S, pd).items()
                assert not iterated_syzygy(alg, S, pd + 1).items()


@pytest.mark.parametrize("fixture", FIXTURES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_projdim_walk_matches_dfs_oracle(request, fixture, data):
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg))
    pd = projective_dimension(alg, S)
    assert pd == projective_dimension_by_dfs(alg, S) == projective_dimension_by_level_sets(alg, S)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), L=st.integers(6, 12))
def test_projdim_walk_matches_dfs_oracle_two_loops(data, L):
    alg = _alg(["1"], [("x", "1", "1"), ("y", "1", "1")], L)
    S = data.draw(realizable_layerings(alg))
    pd = projective_dimension(alg, S)
    assert pd == projective_dimension_by_dfs(alg, S) == projective_dimension_by_level_sets(alg, S)


def _cycles(lengths):
    """Separate cycles of the given lengths at L = 1, with one simple on each as the top."""
    vertices, arrows, top = [], [], []
    for n in lengths:
        names = [f"{n}.{i}" for i in range(n)]
        vertices += names
        arrows += [(f"a{n}.{i}", names[i], names[(i + 1) % n]) for i in range(n)]
        top += [1] + [0] * (n - 1)
    alg = _alg(vertices, arrows, 1)
    return alg, seq(top, [0] * alg.n)


def _line(n):
    """The line 1 -> 2 -> ... -> n at L = 1 and the simple at 1: pd n - 1."""
    names = [str(i) for i in range(1, n + 1)]
    alg = _alg(names, [(f"a{i}", names[i], names[i + 1]) for i in range(n - 1)], 1)
    return alg, seq([1] + [0] * (n - 1), [0] * n)


@pytest.mark.parametrize("case, expected", [
    # Omega moves each simple one step round its cycle, so the set of types
    # repeats only after lcm(2, 3, ..., 19) = 9,699,690 steps
    (_cycles((2, 3, 5, 7, 11, 13, 17, 19)), math.inf),
    # every step meets one new type, the longest finite walk per type
    (_line(40), 39),
])
def test_projdim_steps_each_type_once(monkeypatch, case, expected):
    alg, S = case
    assert projective_dimension_by_dfs(alg, S) == expected
    stepped = []

    def counting(alg, c):
        stepped.append(c)
        assert len(stepped) <= alg.n * (alg.L + 1), "a type was stepped twice"
        return _syzygy_row(alg, c)

    monkeypatch.setattr(homology, "_syzygy_row", counting)
    assert projective_dimension(alg, S) == expected
    assert len(stepped) == len(set(stepped))


def _stepped(monkeypatch, walk, alg, S):
    """(walk(alg, S), the cyclic types it stepped, in order)."""
    stepped = []

    def counting(alg, c):
        stepped.append(c)
        return _syzygy_row(alg, c)

    with monkeypatch.context() as patch:
        patch.setattr(homology, "_syzygy_row", counting)
        return walk(alg, S), stepped


def test_projdim_stops_at_the_first_cycle(monkeypatch):
    # a 2-cycle a0 <-> a1 and the line b1 -> ... -> b40 at L = 1, with the simples at a0
    # and b1 as the top: Omega^1 is a1/J^1 (walked first) and b2/J^1, whose chain the
    # level sets step to its end before their count passes the number of types
    line = [f"b{i}" for i in range(1, 41)]
    alg = _alg(["a0", "a1", *line],
               [("x0", "a0", "a1"), ("x1", "a1", "a0")]
               + [(f"y{i}", line[i], line[i + 1]) for i in range(39)], 1)
    S = seq([1, 0, 1] + [0] * 39, [0] * alg.n)
    assert [c for c, _ in first_syzygy(alg, S).items()] == [CyclicType("a1", 1),
                                                            CyclicType("b2", 1)]
    pd, stepped = _stepped(monkeypatch, projective_dimension, alg, S)
    assert pd == math.inf and stepped == [CyclicType("a1", 1), CyclicType("a0", 1)]
    pd, by_sets = _stepped(monkeypatch, projective_dimension_by_level_sets, alg, S)
    assert pd == math.inf and len(by_sets) == 41 > len(stepped)
    assert projective_dimension_by_dfs(alg, S) == math.inf


@pytest.mark.parametrize("fixture", FIXTURES)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.integers(1, 64))
def test_iterated_syzygy_matches_step_oracle(request, fixture, data, k):
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg))
    assert iterated_syzygy(alg, S, k) == iterated_syzygy_by_steps(alg, S, k)
    assert last_two_syzygies(alg, S, k) == last_two_syzygies_by_steps(alg, S, k)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), L=st.integers(6, 8), k=st.integers(1, 64))
def test_iterated_syzygy_matches_step_oracle_two_loops(data, L, k):
    alg = _alg(["1"], [("x", "1", "1"), ("y", "1", "1")], L)
    S = data.draw(realizable_layerings(alg))
    assert iterated_syzygy(alg, S, k) == iterated_syzygy_by_steps(alg, S, k)


README = (_alg(["1", "2"], [("a", "1", "2"), ("b1", "2", "1"), ("b2", "2", "1")], 2), S_DEEP)
LONG_WALKS = [_cycles((2, 3, 5, 7, 11, 13, 17, 19)), _line(40)]


@pytest.mark.parametrize("case", LONG_WALKS)
def test_iterated_syzygy_matches_step_oracle_on_long_walks(case):
    alg, S = case
    for k in range(1, 65):
        assert iterated_syzygy(alg, S, k) == iterated_syzygy_by_steps(alg, S, k)


@pytest.mark.parametrize("case", LONG_WALKS + [README])
@pytest.mark.parametrize("k", [2, 7, 64, 100_000])
def test_iterated_syzygy_steps_each_type_once(monkeypatch, case, k):
    alg, S = case
    stepped = []

    def counting(alg, c):
        stepped.append(c)
        return _syzygy_row(alg, c)

    monkeypatch.setattr(homology, "_syzygy_row", counting)
    iterated_syzygy(alg, S, k)
    assert len(stepped) == len(set(stepped)), "a type was stepped twice"
    monkeypatch.undo()
    if k <= 7:
        # no type beyond those the step loop steps, the types of Omega^1, ..., Omega^(k-1)
        assert set(stepped) <= {c for j in range(1, k)
                                for c, _ in iterated_syzygy_by_steps(alg, S, j).items()}


def test_iterated_syzygy_stops_before_the_size_guard(monkeypatch):
    # one vertex with two loops at L = 1: Omega^k of the radical-length-2 module is
    # the simple, 2^(k-1) times
    alg, S = _alg(["1"], [("x", "1", "1"), ("y", "1", "1")], 1), seq([1], [1])
    monkeypatch.setattr(homology, "_MAX_BITS", 64)
    answers = {}
    for k in range(1, 80):
        try:
            answers[k] = as_dict(iterated_syzygy(alg, S, k))
        except EnumerationCapError as exc:
            assert f"Omega^{k} " in str(exc)
            break
    # every answer is the step loop's, and the guard stops within a few bits of 2^64
    assert answers == {k: {("1", 1): 2 ** (k - 1)} for k in answers}
    assert 60 <= len(answers) < 64


def test_iterated_syzygy_at_huge_k():
    # over k[x]/x^2 the simple is its own syzygy
    alg = _alg(["1"], [("x", "1", "1")], 1)
    assert as_dict(iterated_syzygy(alg, seq([1], [0]), 10**9)) == {("1", 1): 1}
    # on the README algebra the multiplicities double every other step
    with pytest.raises(EnumerationCapError, match=r"Omega\^1000000000 "):
        iterated_syzygy(*README, 10**9)
    with pytest.raises(EnumerationCapError, match=r"Omega\^1000000000 "):
        last_two_syzygies(*README, 10**9)


def test_unrealizable_rejected(double_back):
    with pytest.raises(UnrealizableError):
        first_syzygy(double_back, seq((1, 0), (0, 0), (1, 0)))


def test_profile_json(double_back):
    data = profile_to_json(first_syzygy(double_back, S_DEEP))
    assert {"vertex": "1", "truncation": 2, "multiplicity": 2} in data


def test_cyclic_dim_vector(relay):
    assert truncated_dim_vector(relay, "2", 3) == (0, 3, 1)
    assert truncated_dim_vector(relay, "3", 2) == (0, 2, 1)


def test_iterated_syzygy_dim_recursion_relay(relay):
    # dim Omega^2 = sum over non-projective Omega^1 summands of
    # (dim of their projective cover - their dim)
    omega1 = first_syzygy(relay, S_DIM14)
    omega2 = iterated_syzygy(relay, S_DIM14, 2)
    P = {v: cyclic_dim(relay, CyclicType(v, relay.L + 1)) for v in relay.vertices}
    expected = sum(m * (P[c.vertex] - cyclic_dim(relay, c))
                   for c, m in omega1.items() if not is_projective(relay, c))
    assert sum(profile_dim_vector(relay, omega2)) == expected
    # and the same identity per summand, as kernel ranks of the covers
    for c, _ in omega1.items():
        if not is_projective(relay, c):
            ker = sum(profile_dim_vector(relay, syzygy_of_cyclic(relay, c)))
            assert ker == P[c.vertex] - cyclic_dim(relay, c)


def test_iterated_syzygy_k_zero_rejected(double_back):
    from genrep.errors import ValidationError
    with pytest.raises(ValidationError):
        iterated_syzygy(double_back, S_DEEP, 0)
    with pytest.raises(ValidationError):
        last_two_syzygies(double_back, S_DEEP, 0)


@pytest.mark.parametrize("fixture, dimvec", [("double_back", (3, 3)), ("relay", (2, 2, 1)),
                                             ("line_swing", (2, 2, 1))])
def test_relation_cyclics_are_the_first_syzygy(request, fixture, dimvec):
    # the Ext^1 restriction method reads Hom(Omega^1, N) off the relations'
    # cyclic modules, the alternating method off first_syzygy
    alg = request.getfixturevalue(fixture)
    for S in enumerate_sequences(alg, dimvec):
        pres = generic_presentation(alg, S)
        cyclics = [CyclicType(alg.path_end(rel.critical.path(alg)),
                              alg.L - len(rel.critical.parent[1].arrows))
                   for rel in pres.relations]
        assert SyzygyProfile(cyclics) == first_syzygy(alg, S)


def test_cyclic_type_is_a_tuple_with_its_fields_and_text():
    # a NamedTuple, so it hashes in C; a profile still counts a bare type once
    c = CyclicType("1", 2)
    assert isinstance(c, tuple) and c._fields == ("vertex", "truncation")
    assert hash(c) == hash(("1", 2))
    assert str(c) == "1/J^2" and repr(c) == "CyclicType(vertex='1', truncation=2)"
    profile = SyzygyProfile([c, (c, 2), CyclicType("1", 1)])
    assert profile_to_json(profile) == [{"vertex": "1", "truncation": 1, "multiplicity": 1},
                                        {"vertex": "1", "truncation": 2, "multiplicity": 3}]
