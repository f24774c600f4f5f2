"""Path combinatorics, dominance, realizability, sequence enumeration."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from genrep.algebra_core import (
    Arrow,
    Path,
    Quiver,
    SemisimpleSequence,
    TruncatedAlgebra,
    dominates,
    enumerate_paths,
    enumerate_sequences,
    realizable,
    sequence_from_json,
    top_elements,
    truncated_dim_vector,
)
from genrep.errors import EnumerationCapError, GenrepError, ValidationError

from conftest import (brute_force_paths, canonical_sort, drawn_algebras,
                      enumerate_sequences_unpruned, seq, traced_peak)


def test_enumerate_paths_double_back(double_back):
    paths = enumerate_paths(double_back, "1", 2)
    assert [(p.start, p.arrows) for p in paths] == [("1", ("b1", "a")), ("1", ("b2", "a"))]


def test_enumerate_paths_trivial(relay):
    paths = enumerate_paths(relay, "2", 0)
    assert len(paths) == 1 and paths[0].arrows == ()


def test_enumerate_paths_relay(relay):
    paths = enumerate_paths(relay, "3", 3)
    assert [p.arrows for p in paths] == [
        ("g1", "b", "g1"), ("g1", "b", "g2"), ("g2", "b", "g1"), ("g2", "b", "g2")]


@pytest.mark.parametrize("start,length", [("1", l) for l in range(4)] + [("3", l) for l in range(4)])
def test_paths_match_brute_force(relay, start, length):
    got = [p.arrows for p in enumerate_paths(relay, start, length)]
    assert got == brute_force_paths(relay, start, length)


@settings(max_examples=50, deadline=None)
@given(alg=drawn_algebras())
def test_enumerate_paths_is_the_canonical_sort_on_drawn_algebras(alg):
    # each level is its parents' extensions taken arrow by arrow, with no sort after: at
    # every vertex and length it is every composable arrow tuple in canonical order
    for v in alg.vertices:
        for l in range(alg.L + 1):
            want = canonical_sort(alg, [(1, Path(v, c)) for c in brute_force_paths(alg, v, l)])
            assert [(1, p) for p in enumerate_paths(alg, v, l)] == want


def test_path_count_recursion(relay):
    # count(v, l+1) at vertex j equals sum_i #(i->j) * count ending at i of length l
    for start in relay.vertices:
        for l in range(relay.L):
            by_end = [0] * relay.n
            for p in enumerate_paths(relay, start, l):
                by_end[relay.vertex_pos(relay.path_end(p))] += 1
            expected = relay.extension_counts(tuple(by_end))
            nxt = [0] * relay.n
            for p in enumerate_paths(relay, start, l + 1):
                nxt[relay.vertex_pos(relay.path_end(p))] += 1
            assert tuple(nxt) == expected


def test_then_is_extend_without_the_check(double_back):
    # Path.then prepends the arrow as TruncatedAlgebra.extend does; only extend checks it
    p = enumerate_paths(double_back, "1", 1)[0]
    for a in double_back.quiver.arrows_from[double_back.path_end(p)]:
        assert p.then(a) == double_back.extend(p, a) == Path("1", (a.name,) + p.arrows)
    bad = double_back.quiver.arrows_from["1"][0]
    with pytest.raises(ValidationError):
        double_back.extend(p, bad)
    assert p.then(bad).arrows == (bad.name,) + p.arrows


@pytest.mark.parametrize("entry", [1.9, "2", True], ids=["float", "str", "bool"])
def test_sequence_refuses_an_entry_that_is_no_int(entry):
    # each was coerced once: 1.9 read as 1, "2" as 2 and True as 1
    with pytest.raises(ValidationError, match="^semisimple sequence entries must be int, "
                                              f"got {type(entry).__name__}$"):
        SemisimpleSequence(((entry, 0), (0, 0)))


def test_sequence_keeps_int_entries_as_tuples():
    S = SemisimpleSequence([[1, 0], [0, 2]])
    assert S.layers == ((1, 0), (0, 2)) and type(S.layers[1]) is tuple


def test_enumerate_paths_unknown_vertex(double_back):
    with pytest.raises(ValidationError):
        enumerate_paths(double_back, "9", 1)


def test_projective_dims_relay(relay):
    # the projective at v is Lambda e_v / J^(L+1) e_v
    assert sum(truncated_dim_vector(relay, "1", relay.L + 1)) == 9
    assert sum(truncated_dim_vector(relay, "2", relay.L + 1)) == 6
    assert truncated_dim_vector(relay, "1", relay.L + 1) == (1, 6, 2)
    assert truncated_dim_vector(relay, "2", relay.L + 1) == (0, 3, 3)
    assert truncated_dim_vector(relay, "3", relay.L + 1) == (0, 6, 3)


def test_projective_dim_isolated(with_isolated):
    assert sum(truncated_dim_vector(with_isolated, "3", with_isolated.L + 1)) == 1


def test_dominates_reflexive(double_back):
    S = seq((1, 1), (0, 1), (1, 0))
    assert dominates(S, S)


def test_dominates_incomparable_tops(double_back):
    S3 = seq((1, 1), (1, 1), (0, 0))
    S1 = seq((2, 0), (0, 2), (0, 0))
    assert not dominates(S3, S1)
    assert not dominates(S1, S3)


def test_dominates_loop_quiver():
    S = seq((1, 0), (1, 0), (0, 1))
    S2 = seq((1, 0), (1, 1), (0, 0))
    assert dominates(S, S2)
    assert not dominates(S2, S)


def test_dominates_dimension_mismatch(double_back):
    with pytest.raises(ValidationError):
        dominates(seq((1, 0), (0, 0), (0, 0)), seq((1, 1), (0, 0), (0, 0)))


def test_realizable_relay(relay):
    S = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))
    assert realizable(relay, S)


def test_realizable_zero_gap(double_back):
    assert not realizable(double_back, seq((1, 0), (0, 0), (1, 0)))


def test_realizable_diamond(diamond):
    assert realizable(diamond, seq((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))


def test_enumerate_sequences_small_tops(double_back):
    got = enumerate_sequences(double_back, (2, 2))
    small_top = {s.layers for s in got if sum(s.top) <= 2}
    expected = {
        ((2, 0), (0, 2), (0, 0)),
        ((0, 2), (2, 0), (0, 0)),
        ((1, 1), (1, 1), (0, 0)),
        ((0, 1), (2, 0), (0, 1)),
        ((1, 1), (0, 1), (1, 0)),
        ((1, 1), (1, 0), (0, 1)),
    }
    assert small_top == expected


def test_enumerate_sequences_single_simple(double_back):
    got = enumerate_sequences(double_back, (0, 1))
    assert [s.layers for s in got] == [((0, 1), (0, 0), (0, 0))]


def brute_force_sequences(alg, dimvec, top=None):
    """Oracle: all layer matrices summing to dimvec, filtered by realizable().

    Their layers in lexicographic order of the flattened matrix.
    """
    L = alg.L
    out = []

    def rec(layers, remaining):
        if len(layers) == L + 1:
            if not any(remaining):
                out.append(SemisimpleSequence(tuple(layers)))
            return
        for row in product(*(range(r + 1) for r in remaining)):
            rec(layers + [row], tuple(a - b for a, b in zip(remaining, row)))

    rec([], tuple(dimvec))
    keep = [s for s in out if realizable(alg, s) and any(s.top)]
    if top is not None:
        keep = [s for s in keep if s.top == tuple(top)]
    return [s.layers for s in keep]


def test_enumerate_sequences_against_oracle(loop_out):
    got = enumerate_sequences(loop_out, (2, 1), top=(1, 0))
    assert [s.layers for s in got] == brute_force_sequences(loop_out, (2, 1), top=(1, 0))
    assert {s.layers for s in got} == {
        ((1, 0), (1, 0), (0, 1)),
        ((1, 0), (1, 1), (0, 0)),
    }


@pytest.mark.parametrize("fixture", ["double_back", "loop_out", "relay", "a2",
                                     "kronecker", "with_isolated"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_enumerate_sequences_against_oracle_drawn(request, fixture, data):
    # a drawn top may be zero or exceed the dimension vector
    alg = request.getfixturevalue(fixture)
    vectors = st.tuples(*[st.integers(0, 3)] * alg.n)
    dimvec = data.draw(vectors.filter(any))
    top = data.draw(st.none() | vectors)
    cap = data.draw(st.none() | st.integers(0, 8))
    want = brute_force_sequences(alg, dimvec, top)
    if cap is not None and len(want) > cap:
        with pytest.raises(EnumerationCapError) as err:
            enumerate_sequences(alg, dimvec, top=top, cap=cap)
        assert err.value.cap == cap
        assert str(err.value) == f"realizable sequences exceed cap of {cap}"
    else:
        got = enumerate_sequences(alg, dimvec, top=top, cap=cap)
        assert [s.layers for s in got] == want


@pytest.mark.parametrize("fixture", ["double_back", "loop_out", "relay", "a2",
                                     "kronecker", "with_isolated"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_max_top_dim_skips_tops_before_the_cap(request, fixture, data):
    # the filtered enumeration is the unfiltered one filtered afterwards, and the
    # cap counts only the sequences kept; a negative bound is refused, not an empty answer
    alg = request.getfixturevalue(fixture)
    vectors = st.tuples(*[st.integers(0, 3)] * alg.n)
    dimvec = data.draw(vectors.filter(any))
    top = data.draw(st.none() | vectors)
    max_top_dim = data.draw(st.integers(-1, 4))
    cap = data.draw(st.none() | st.integers(0, 8))
    if max_top_dim < 0:
        with pytest.raises(ValidationError, match=r"^max_top_dim must be >= 0, got -1$"):
            enumerate_sequences(alg, dimvec, top=top, cap=cap, max_top_dim=max_top_dim)
        return
    want = [S for S in enumerate_sequences(alg, dimvec, top=top) if sum(S.top) <= max_top_dim]
    if cap is not None and len(want) > cap:
        with pytest.raises(EnumerationCapError, match=f"cap of {cap}$"):
            enumerate_sequences(alg, dimvec, top=top, cap=cap, max_top_dim=max_top_dim)
    else:
        assert enumerate_sequences(alg, dimvec, top=top, cap=cap,
                                   max_top_dim=max_top_dim) == want


def test_enumerate_sequences_keeps_no_scanned_top(double_back):
    # each coordinate is bisected, so the 6 sequences of (5000, 1) cost a few dozen
    # probes and no memory (2.6 MB when every probe of the 5,001 tops scanned was kept)
    found, peak = traced_peak(lambda: enumerate_sequences(double_back, (5000, 1), cap=10))
    assert len(found) == 6
    assert peak < 1_000_000


def test_enumerate_sequences_draws_few_vectors(double_back, monkeypatch):
    # the last layer takes what remains, a given top is the only top, and each coordinate
    # of a layer is bisected below a live one, so the cap trips, and the empty answer
    # comes, after few probes (184 and 2 extension counts when each vector of a layer's
    # box was drawn and probed)
    from genrep.algebra_core import TruncatedAlgebra
    probed, real = [], TruncatedAlgebra.extension_counts
    monkeypatch.setattr(TruncatedAlgebra, "extension_counts",
                        lambda self, layer: probed.append(layer) or real(self, layer))
    with pytest.raises(EnumerationCapError):
        enumerate_sequences(double_back, (60, 60), cap=1)
    assert len(probed) == 30
    probed.clear()
    assert enumerate_sequences(double_back, (200, 200), top=(1, 0)) == []
    assert len(probed) == 2


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_live_layers_form_an_up_set(data):
    # if a layer of a sequence can grow at v within its box (d at the top, the extensions
    # of the layer above capped by what remains below it), some sequence starts with the
    # grown layer: the fact each coordinate's bisection rests on
    alg = data.draw(drawn_algebras())
    dimvec = data.draw(st.tuples(*[st.integers(0, 3)] * alg.n).filter(any))
    found = [S.layers for S in enumerate_sequences(alg, dimvec)]
    starts = {S[:k] for S in found for k in range(1, alg.L + 2)}
    for S in found:
        remaining = box = dimvec
        for l, layer in enumerate(S):
            for v in range(alg.n):
                if layer[v] < box[v]:
                    assert S[:l] + (layer[:v] + (layer[v] + 1,) + layer[v + 1:],) in starts
            remaining = tuple(r - x for r, x in zip(remaining, layer))
            box = tuple(map(min, alg.extension_counts(layer), remaining))


def walk_outcome(walk, *args, **kwargs):
    """The layers ``walk`` returns, or the class and message of the error it raises."""
    try:
        return [S.layers for S in walk(*args, **kwargs)]
    except GenrepError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pruned_walk_matches_the_unpruned_walk(data):
    # same sequences in the same order, or the same error: a malformed or negative
    # dimension vector or top, or the cap
    alg = data.draw(drawn_algebras(max_L=6))
    width = data.draw(st.sampled_from([alg.n] * 5 + [alg.n + 1]))
    dimvec = data.draw(st.lists(st.integers(0, 3) | st.just(-1), min_size=width,
                                max_size=width))
    top = data.draw(st.none() | st.lists(st.integers(0, 2), min_size=alg.n, max_size=alg.n)
                    | st.lists(st.integers(-1, 2), min_size=width, max_size=width))
    options = {"top": top, "cap": data.draw(st.none() | st.integers(0, 30)),
               "max_top_dim": data.draw(st.none() | st.integers(0, 5))}
    assert (walk_outcome(enumerate_sequences, alg, dimvec, **options)
            == walk_outcome(enumerate_sequences_unpruned, alg, dimvec, **options))


@pytest.mark.parametrize("fixture, dimvec, expanded", [
    ("relay", (4, 5, 4), 309),
    ("double_back", (8, 8), 363),
    ("loop_out", (3, 2), None),
    ("kronecker", (3, 4), None),
])
def test_every_expanded_prefix_yields_a_sequence(request, monkeypatch, fixture, dimvec,
                                                 expanded):
    # the walk asks for the options of exactly the proper prefixes of its sequences,
    # each once; the unpruned walk expanded 3,545 and 1,035 prefixes on the first two.
    # The first walk is the one over layers; the walks over a layer's coordinates come
    # after it, and their prefixes are not recorded
    from genrep import algebra_core
    alg, asked, walk = request.getfixturevalue(fixture), [], algebra_core._depth_first
    walks = []

    def recording(options, depth):
        walks.append(depth)
        if len(walks) > 1:
            return walk(options, depth)
        return walk(lambda prefix: asked.append(tuple(x for x, _ in prefix)) or options(prefix),
                    depth)

    monkeypatch.setattr(algebra_core, "_depth_first", recording)
    layers = [S.layers for S in enumerate_sequences(alg, dimvec)]
    assert sorted(asked) == sorted({S[:k] for S in layers for k in range(alg.L + 1)})
    assert expanded in (None, len(asked)) and walks[0] == alg.L + 1


def test_enumerate_sequences_oracle_double_back(double_back):
    assert [s.layers for s in enumerate_sequences(double_back, (2, 2))] == \
        brute_force_sequences(double_back, (2, 2))


def test_enumerate_sequences_pairwise_comparable_or_not(double_back):
    seqs = enumerate_sequences(double_back, (2, 2))
    for a in seqs:
        for b in seqs:
            dominates(a, b)  # must never raise


def test_top_elements(relay):
    S = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))
    assert top_elements(relay, S) == ("1", "1", "2", "3")


def test_sequence_json_rejects_all_zero(double_back):
    with pytest.raises(ValidationError):
        sequence_from_json({"layers": [[0, 0], [0, 0], [0, 0]]}, double_back)


def test_quiver_validation():
    with pytest.raises(ValidationError):
        Quiver(["1", "1"], [])
    with pytest.raises(ValidationError):
        Quiver(["1"], [Arrow("a", "1", "2")])
    with pytest.raises(ValidationError):
        TruncatedAlgebra(Quiver(["1"], []), 0)


# -- dominance is a partial order ------------------------------------------

layer_matrices = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
    min_size=3, max_size=3,
).map(lambda rows: SemisimpleSequence(tuple(tuple(r) for r in rows)))


@given(layer_matrices, layer_matrices, layer_matrices)
def test_dominance_partial_order(a, b, c):
    assert dominates(a, a)
    if a.total_dim == b.total_dim:
        if dominates(a, b) and dominates(b, a):
            assert a.layers == b.layers
        if a.total_dim == c.total_dim and dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def test_dominance_exhaustive_small(double_back):
    seqs = enumerate_sequences(double_back, (2, 1))
    for a in seqs:
        assert dominates(a, a)
        for b in seqs:
            if dominates(a, b) and dominates(b, a):
                assert a == b
            for c in seqs:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


def test_enumerate_sequences_canonical_order(double_back):
    got = enumerate_sequences(double_back, (2, 2))
    flat = [tuple(x for row in s.layers for x in row) for s in got]
    assert flat == sorted(flat)
