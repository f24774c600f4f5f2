"""Skeleton enumeration, critical paths, sigma-sets, N-invariants."""

import json
from itertools import islice, product

import pytest

from genrep.algebra_core import enumerate_sequences, realizable
from genrep.components import component_report
from genrep.errors import EnumerationCapError, UnrealizableError, ValidationError
from genrep.matrix_rep import distinguished_skeleta_of, module_point
from genrep.skeleta import (
    canonical_skeleton,
    capped_count,
    count_skeleta,
    critical_paths,
    iter_skeleta,
)

from conftest import (
    FIXTURES,
    _alg,
    bundle_N,
    canonical_sort,
    critical_paths_by_scan,
    drawn_algebras,
    enumerate_skeleta,
    invariants_N_by_critical_paths,
    iter_skeleta_by_product,
    projective_layering,
    realizable_layerings,
    seq,
    skeleta_to_json,
    skeleton_from_json,
    skeleton_layer,
    skeleton_sequence,
    sorted_skeleton,
    traced_peak,
)


def label(el):
    r, p = el
    return ("".join(p.arrows) or "e") + f"@z{r}"


S_DEEP = seq((1, 1), (0, 1), (1, 0))   # (S1+S2, S2, S1)
S_FLAT = seq((1, 1), (1, 0), (0, 1))   # (S1+S2, S1, S2)
S_DIM14 = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))


def test_trivial_sequence_single_skeleton(double_back):
    sks = enumerate_skeleta(double_back, seq((1, 1), (0, 0), (0, 0)))
    assert len(sks) == 1
    assert all(p.length == 0 for _, p in sks[0].elements)


def test_count_skeleta_matches_enumeration_double_back(double_back):
    for S in enumerate_sequences(double_back, (2, 2)):
        assert count_skeleta(double_back, S) == len(enumerate_skeleta(double_back, S))


def test_count_skeleta_values(double_back, relay):
    assert count_skeleta(double_back, S_DEEP) == 2
    assert count_skeleta(relay, S_DIM14) == 360
    assert count_skeleta(double_back, seq((1, 0), (0, 0), (1, 0))) == 0  # unrealizable


def test_count_skeleta_matches_enumeration_relay(relay):
    assert len(enumerate_skeleta(relay, S_DIM14)) == 360


def test_enumeration_cap(relay):
    with pytest.raises(EnumerationCapError):
        enumerate_skeleta(relay, S_DIM14, cap=100)
    # lazy iteration is unaffected by large totals
    it = iter_skeleta(relay, S_DIM14)
    assert next(it) is not None


# each entry point on double_back, the README algebra; the unrealizable layering has 0
# skeleta, and the dimension vector (2, 2, 2) does not fit two vertices
U = seq((1, 0), (0, 0), (1, 0))
README_POINT = (("1", "2"), [[(1, 1, ("b1", "a")), (-1, 2, ("b2",))]])
NEGATIVE_CAP_CALLS = {
    "capped_count": lambda alg: capped_count(alg, U, -1),
    "enumerate_skeleta": lambda alg: enumerate_skeleta(alg, U, cap=-1),
    "enumerate_sequences": lambda alg: enumerate_sequences(alg, (2, 2, 2), cap=-1),
    "distinguished_skeleta_of": lambda alg: distinguished_skeleta_of(
        module_point(alg, *README_POINT), cap=-1),
    "component_report": lambda alg: component_report(alg, (2, 2), cap=-1),
}


@pytest.mark.parametrize("entry", NEGATIVE_CAP_CALLS)
def test_negative_cap_is_refused_before_any_work(double_back, entry):
    # a cap below 0 is no cap: refused as invalid input, not reported as exceeded
    # (by 0 skeleta) or checked after the dimension vector
    with pytest.raises(ValidationError, match=r"^cap must be >= 0, got -1$"):
        NEGATIVE_CAP_CALLS[entry](double_back)


def test_skeleton_closure_and_compatibility(double_back):
    for S in enumerate_sequences(double_back, (2, 2)):
        for sk in enumerate_skeleta(double_back, S):
            for r, p in sk.elements:
                for l in range(p.length + 1):
                    assert (r, p.initial_subpath(l)) in sk.elements
            assert skeleton_sequence(sk) == S


def test_six_vertex_skeleta_contains_distinguished(six_vertex):
    # layering of the 9-dimensional worked module: 10 compatible skeleta,
    # among them the three distinguished ones of the module itself
    S = seq((2, 1, 1, 0, 0, 0), (0, 0, 0, 2, 1, 0), (0, 0, 0, 0, 0, 2))
    sks = enumerate_skeleta(six_vertex, S)
    assert len(sks) == 10
    seen = {frozenset(map(label, sk.elements)) for sk in sks}
    listed = [
        {"e@z1", "al@z1", "b1al@z1", "e@z2", "al@z2", "b2al@z2", "e@z3", "e@z4", "d@z4"},
        {"e@z1", "al@z1", "b1al@z1", "e@z2", "al@z2", "e@z3", "e@z4", "d@z4", "ed@z4"},
        {"e@z1", "al@z1", "e@z2", "al@z2", "b2al@z2", "e@z3", "e@z4", "d@z4", "ed@z4"},
    ]
    for want in listed:
        assert frozenset(want) in seen


def test_critical_paths_double_back(double_back):
    sk = canonical_skeleton(double_back, S_DEEP)
    assert {label(el) for el in sk.elements} == {"e@z1", "e@z2", "a@z1", "b1a@z1"}
    sets = critical_paths(double_back, sk)
    crits = {(s.critical.arrow, label(s.critical.parent)) for s in sets}
    assert crits == {("b1", "e@z2"), ("b2", "e@z2"), ("b2", "a@z1")}
    for s in sets:
        assert [label(m) for m in s.members] == ["b1a@z1"]
        if s.critical.arrow == "b2" and s.critical.parent[1].length == 1:
            assert len(s.zero_part) == 1 and not s.one_part
        else:
            assert len(s.one_part) == 1 and not s.zero_part


def test_no_critical_paths_for_projective_layering(double_back):
    S = projective_layering(double_back, (1, 1))
    sk = canonical_skeleton(double_back, S)
    assert critical_paths(double_back, sk) == []


def test_critical_paths_relay_counts(relay):
    sk = canonical_skeleton(relay, S_DIM14)
    sets = critical_paths(relay, sk)
    assert len(sets) == 10
    by_len_end = {}
    for s in sets:
        key = (len(s.critical.parent[1].arrows) + 1, relay.path_end(s.critical.path(relay)))
        by_len_end[key] = by_len_end.get(key, 0) + 1
    assert by_len_end == {(1, "2"): 1, (2, "2"): 2, (2, "3"): 2, (3, "2"): 5}


def test_invariants_N_double_back(double_back):
    assert bundle_N(double_back, S_DEEP) == (3, 1, 2)
    assert bundle_N(double_back, S_FLAT) == (2, 1, 1)


def test_invariants_N_loop_quiver(loop_out):
    assert bundle_N(loop_out, seq((1, 0), (1, 0), (0, 1)))[0] == 1
    assert bundle_N(loop_out, seq((1, 0), (1, 1), (0, 0)))[0] == 0


def test_invariants_N_unrealizable(double_back):
    with pytest.raises(UnrealizableError):
        bundle_N(double_back, seq((1, 0), (0, 0), (1, 0)))


def closed_form_N(alg, S):
    """Oracle: N and N0 from layer counts alone."""
    N = N0 = 0
    for l in range(alg.L):
        avail = alg.extension_counts(S.layers[l])
        for j in range(alg.n):
            crit = avail[j] - S.layers[l + 1][j]
            tail = sum(S.layers[m][j] for m in range(l + 1, alg.L + 1))
            N += crit * tail
            N0 += crit * S.layers[l + 1][j]
    return N, N0


@pytest.mark.parametrize("dimvec", [(2, 2), (3, 1), (2, 3)])
def test_invariants_match_closed_form_and_all_skeleta(double_back, dimvec):
    for S in enumerate_sequences(double_back, dimvec):
        n, n0, n1 = bundle_N(double_back, S)
        cn, cn0 = closed_form_N(double_back, S)
        assert (n, n0) == (cn, cn0)
        assert n == n0 + n1
        sks = enumerate_skeleta(double_back, S)
        if len(sks) <= 500:
            for sk in sks:
                assert invariants_N_by_critical_paths(double_back, sk) == (n, n0, n1)


def test_invariants_skeleton_independent_relay(relay):
    # the count off S is the critical-path sum of every compatible skeleton
    base = bundle_N(relay, S_DIM14)
    for sk in enumerate_skeleta(relay, S_DIM14):
        assert invariants_N_by_critical_paths(relay, sk) == base


def test_realizable_iff_skeleton_exists_small(double_back, relay, loop_out, y_quiver):
    from itertools import product as iproduct

    for alg in (double_back, relay, loop_out, y_quiver):
        n, L = alg.n, alg.L
        cells = n * (L + 1)
        # all layer matrices with total dimension <= 8 would be huge for wide
        # quivers; cap per-cell values and total
        for flat in iproduct(range(3), repeat=cells):
            if not 0 < sum(flat) <= 8:
                continue
            S = seq(*[flat[l * n:(l + 1) * n] for l in range(L + 1)])
            has_skel = next(iter(iter_skeleta(alg, S)), None) is not None
            assert realizable(alg, S) == has_skel


def test_skeleton_json_roundtrip(double_back):
    sk = canonical_skeleton(double_back, S_DEEP)
    data = skeleta_to_json([sk])[0]
    assert {"r": 1, "arrows": []} in data["elements"]
    back = skeleton_from_json(data, double_back)
    assert back == sk


from hypothesis import assume, given, settings, strategies as st

random_layers = st.lists(
    st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2),
    min_size=3, max_size=3,
)


@given(random_layers)
@settings(max_examples=60, deadline=None)
def test_count_matches_enumeration_random(double_back, rows):
    S = seq(*rows)
    assert count_skeleta(double_back, S) == len(enumerate_skeleta(double_back, S))


def test_skeleta_json_encodes_each_element_once(relay, monkeypatch):
    # the cli writer encodes each distinct top and element once per report, keeps its text
    # by value, and writes, skeleton by skeleton, the stdlib's text of the reference's dicts
    from genrep import cli

    def stdlib(skeleta):
        return json.dumps({"count": len(skeleta), "skeleta": skeleta_to_json(skeleta)},
                          indent=2)

    sks = enumerate_skeleta(relay, S_DIM14)
    made, to_json, tops, dumps = [], cli.element_to_json, [], cli._dumps
    monkeypatch.setattr(cli, "element_to_json", lambda el: made.append(el) or to_json(el))
    monkeypatch.setattr(cli, "_dumps", lambda obj, pad: (type(obj) is list and obj and type(
        obj[0]) is dict and "vertex" in obj[0] and tops.append(obj)) or dumps(obj, pad))
    rows = list(cli._skeleta_rows(len(sks), iter(sks)))
    assert len(rows) == len(sks) + 1 > 2 and "".join(rows) == stdlib(sks)
    assert len(tops) == len({sk.top for sk in sks}) == 1
    distinct = {el for sk in sks for el in sk.elements}
    assert sorted(made) == sorted(distinct)
    assert len(distinct) < sum(len(sk.elements) for sk in sks)
    # no skeleton; the vertex-less quiver's skeleton, with no top and no element, twice; and
    # one loop's free module, whose skeleton has no critical path
    empty = canonical_skeleton(_alg([], [], 2), seq((), (), ()))
    loop = _alg(["1"], [("x", "1", "1")], 2)
    free = canonical_skeleton(loop, seq((1,), (1,), (1,)))
    assert critical_paths(loop, free) == []
    for skeleta in ([], [empty, empty], [free]):
        assert "".join(cli._skeleta_rows(len(skeleta), iter(skeleta))) == stdlib(skeleta)


def test_skeleton_json_errors(double_back):
    sk = canonical_skeleton(double_back, S_DEEP)
    from genrep.errors import ValidationError
    data = skeleta_to_json([sk])[0]
    bad = {"top": data["top"], "elements": [{"r": 9, "arrows": []}]}
    with pytest.raises(ValidationError):
        skeleton_from_json(bad, double_back)
    bad = {"top": data["top"], "elements": [{"r": 1, "arrows": ["nope"]}]}
    with pytest.raises(ValidationError):
        skeleton_from_json(bad, double_back)


def test_count_skeleta_layer_mismatch(double_back):
    from genrep.errors import ValidationError
    with pytest.raises(ValidationError):
        count_skeleta(double_back, seq((1, 0), (0, 1)))


@pytest.mark.parametrize("fixture", FIXTURES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lazy_descent_matches_eager_oracle(request, fixture, data):
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg))
    assume(count_skeleta(alg, S) <= 500)
    assert list(iter_skeleta(alg, S)) == list(iter_skeleta_by_product(alg, S))


@pytest.mark.parametrize("fixture", FIXTURES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_descent_builds_skeleta_in_canonical_order(request, fixture, data):
    # the walk hands its elements over already ordered; sorting them again changes nothing
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg))
    assume(count_skeleta(alg, S) <= 500)
    for got, want in zip(iter_skeleta(alg, S), iter_skeleta_by_product(alg, S)):
        resorted = sorted_skeleton(alg, got.top, reversed(got.elements))
        assert got.elements == want.elements == resorted.elements
        assert got == resorted and hash(got) == hash(resorted)
    assert canonical_skeleton(alg, S).elements == next(iter_skeleta_by_product(alg, S)).elements


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_walked_skeleta_are_the_canonical_sort_on_drawn_algebras(data):
    # each layer is sorted once, when the walk completes it, and kept while the subtree
    # below is walked: every skeleton's members equal their canonical sort
    alg = data.draw(drawn_algebras())
    S = data.draw(realizable_layerings(alg))
    for sk in islice(iter_skeleta(alg, S), 200):
        assert list(sk.elements) == canonical_sort(alg, sk.elements)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_canonical_skeleton_is_the_walks_first(request, fixture):
    # the canonical skeleton is the eager oracle's first skeleton, element for
    # element, on every realizable layering of total dimension 1..4
    alg = request.getfixturevalue(fixture)
    count = 0
    for dimvec in product(range(3), repeat=alg.n):
        if not 0 < sum(dimvec) <= 4:
            continue
        for S in enumerate_sequences(alg, dimvec):
            first, sk = next(iter_skeleta_by_product(alg, S)), canonical_skeleton(alg, S)
            assert (sk.top, sk.elements) == (first.top, first.elements)
            count += 1
    assert count


@pytest.mark.parametrize("fixture", FIXTURES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_critical_paths_match_scan_oracle(request, fixture, data):
    # any skeleton of a drawn layering, not only the canonical one
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg))
    sks = list(islice(iter_skeleta(alg, S), 20))
    assume(sks)
    sk = data.draw(st.sampled_from(sks))
    assert critical_paths(alg, sk) == critical_paths_by_scan(alg, sk)


def test_accept_prunes_subtrees_in_order(relay):
    # rejecting every block at vertex 3 of layer 2 that uses the first
    # candidate keeps exactly the oracle's skeleta without it, in order
    first = skeleton_layer(next(iter_skeleta_by_product(relay, S_DIM14)), 2)[0]
    seen = []

    def accept(l, v, chosen):
        seen.append((l, v))
        return not (l == 2 and first in chosen)

    want = [sk for sk in iter_skeleta_by_product(relay, S_DIM14) if first not in sk.elements]
    assert list(iter_skeleta(relay, S_DIM14, accept=accept)) == want
    assert 0 < len(want) < 360
    assert {l for l, _ in seen} == {1, 2, 3}


def test_unrealizable_sequence_is_not_walked(double_back):
    calls = []
    S = seq((1, 0), (0, 0), (1, 0))
    assert list(iter_skeleta(double_back, S, accept=lambda *b: calls.append(b))) == []
    assert calls == []
    with pytest.raises(UnrealizableError):
        canonical_skeleton(double_back, S)


def test_canonical_skeleton_is_one_pass_deep():
    # one loop, L = 2, layering ((40), (20), (0)): C(40, 20) ~ 1.4e11 skeleta;
    # the first yield takes the first 20 candidates and never tuples the rest
    loop = _alg(["1"], [("x", "1", "1")], 2)
    S = seq((40,), (20,), (0,))
    sk, peak = traced_peak(lambda: canonical_skeleton(loop, S))
    assert peak < 1_000_000
    assert skeleton_sequence(sk) == S
    assert [r for r, _ in skeleton_layer(sk, 1)] == list(range(1, 21))


def test_quiver_without_vertices_has_the_empty_skeleton():
    # no vertex means no block to choose: the walk yields one skeleton, with no elements
    empty = _alg([], [], 2)
    S = seq((), (), ())
    assert [sk.elements for sk in iter_skeleta(empty, S)] == [()]
    assert canonical_skeleton(empty, S).top == ()
