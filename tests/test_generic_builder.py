"""Generic presentations, hypergraphs, bundle towers."""

import json

import pytest

from genrep.algebra_core import enumerate_sequences
from genrep.errors import UnrealizableError
from genrep.generic_builder import (
    bundle_tower,
    generic_presentation,
    hypergraph,
    presentation_to_json,
)
from genrep.skeleta import canonical_skeleton, critical_paths, element_to_json

from conftest import (_alg, bundle_N, enumerate_skeleta, hypergraph_at, present, seq,
                      skeleton_layer)


def rel_strings(pres):
    alg = pres.algebra
    out = []
    for rel in pres.relations:
        crit = rel.sigma_set.critical
        lhs = "".join(crit.path(alg).arrows) + f"@z{crit.r}"
        rhs = ["".join(mem[1].arrows) + f"@z{mem[0]}" for mem, _ in rel.terms]
        out.append((lhs, tuple(rhs)))
    return out


def test_a2_two_tops(a2):
    # two tops over 1 -> 2: the generic module is free on z1 plus one relation
    pres = generic_presentation(a2, seq((2, 0), (0, 1)))
    assert rel_strings(pres) == [("g@z2", ("g@z1",))]


def test_kronecker(kronecker):
    pres = generic_presentation(kronecker, seq((1, 0), (0, 1)))
    assert rel_strings(pres) == [("be@z1", ("al@z1",))]


def test_double_back_graded_vs_ungraded(double_back):
    S = seq((1, 1), (0, 1), (1, 0))
    graded = generic_presentation(double_back, S, graded=True)
    assert rel_strings(graded) == [
        ("b1@z2", ()), ("b2@z2", ()), ("b2a@z1", ("b1a@z1",))]
    full = generic_presentation(double_back, S)
    assert rel_strings(full) == [
        ("b1@z2", ("b1a@z1",)), ("b2@z2", ("b1a@z1",)), ("b2a@z1", ("b1a@z1",))]
    # graded relations are the ungraded ones with sigma_1 terms deleted
    for grel, frel in zip(graded.relations, full.relations):
        kept = {mem for mem, _ in grel.terms}
        longer = {mem for mem in frel.sigma_set.one_part}
        assert kept == {mem for mem, _ in frel.terms} - longer


def test_scalar_counts_match_invariants(double_back, relay, loop_out):
    cases = [(double_back, S) for S in enumerate_sequences(double_back, (2, 2))]
    cases += [(relay, seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0)))]
    cases += [(loop_out, S) for S in enumerate_sequences(loop_out, (2, 1))]
    for alg, S in cases:
        n, n0, _ = bundle_N(alg, S)
        assert len(generic_presentation(alg, S).scalar_ids) == n
        assert len(generic_presentation(alg, S, graded=True).scalar_ids) == n0


def test_unrealizable_rejected(double_back):
    with pytest.raises(UnrealizableError):
        generic_presentation(double_back, seq((1, 0), (0, 0), (1, 0)))


def test_hypergraph_generic_and_assigned(double_back):
    S = seq((1, 1), (0, 1), (1, 0))
    pres = generic_presentation(double_back, S)
    hg = hypergraph(pres)
    for sset, members in hg.edges:
        assert members == tuple(m for m, _ in
                                next(r for r in pres.relations if r.sigma_set is sset).terms)
    zeroed = hypergraph_at(pres, {sid: 0 for sid in pres.scalar_ids})
    assert all(members == () for _, members in zeroed.edges)


def test_hypergraph_worked_module(six_vertex):
    # two tops at vertex 1; the module P/C with b2al*z1 = b1al*z1 and
    # b2al*z2 = b1al*z1 + b1al*z2, entered as an explicit assignment
    S = seq((2, 0, 0, 0, 0, 0), (0, 0, 0, 2, 0, 0), (0, 0, 0, 0, 0, 2))
    wanted = {("b1al", 1), ("b1al", 2)}
    sk = next(s for s in enumerate_skeleta(six_vertex, S)
              if {("".join(p.arrows), r) for r, p in skeleton_layer(s, 2)} == wanted)
    pres = present(six_vertex, S, sk)
    coeffs = {("b2al", 1, "b1al", 1): 1, ("b2al", 1, "b1al", 2): 0,
              ("b2al", 2, "b1al", 1): 1, ("b2al", 2, "b1al", 2): 1}
    assignment = {}
    for rel in pres.relations:
        crit = rel.sigma_set.critical
        for mem, sid in rel.terms:
            key = ("".join(crit.path(six_vertex).arrows), crit.r,
                   "".join(mem[1].arrows), mem[0])
            assignment[sid] = coeffs[key]
    hg = hypergraph_at(pres, assignment)
    labels = {
        ("".join(s.critical.path(six_vertex).arrows), s.critical.r):
            tuple(("".join(m[1].arrows), m[0]) for m in members)
        for s, members in hg.edges
    }
    assert labels[("b2al", 1)] == (("b1al", 1),)
    assert labels[("b2al", 2)] == (("b1al", 1), ("b1al", 2))


def test_presentation_json_shape(double_back):
    S = seq((1, 1), (0, 1), (1, 0))
    data = presentation_to_json(generic_presentation(double_back, S))
    assert data["mode"] == "ungraded"
    assert {r["critical"]["arrows"][0] for r in data["relations"]} >= {"b1", "b2"}
    scalars = [t["scalar"] for r in data["relations"] for t in r["terms"]]
    assert scalars == [f"x_{i}" for i in range(len(scalars))]


def test_critical_report_encodes_each_element_once_per_pad(relay, monkeypatch):
    # the cli writer encodes each skeleton element once per pad it takes (a parent's, and a
    # sigma-set, zero or one part member's), keeps its text by value, and writes the
    # stdlib's text of the report made with a fresh object per occurrence
    from genrep import cli

    def stdlib(alg, sk):
        return json.dumps([{
            "arrow": s.critical.arrow, "parent": element_to_json(s.critical.parent),
            "path": {"r": s.critical.r, "arrows": list(s.critical.path(alg).arrows)},
            "sigma_set": [element_to_json(m) for m in s.members],
            "zero_part": [element_to_json(m) for m in s.zero_part],
            "one_part": [element_to_json(m) for m in s.one_part],
        } for s in critical_paths(alg, sk)], indent=2)

    S = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))
    made, to_json = [], cli.element_to_json
    monkeypatch.setattr(cli, "element_to_json", lambda el: made.append(el) or to_json(el))
    for sk in enumerate_skeleta(relay, S)[:3]:
        made.clear()
        rows = list(cli._critical_rows(relay, sk))
        sets = critical_paths(relay, sk)
        assert len(rows) == len(sets) + 1 > 2 and "".join(rows) == stdlib(relay, sk)
        parents = {s.critical.parent for s in sets}
        members = {el for s in sets for el in (*s.members, *s.zero_part, *s.one_part)}
        assert sorted(made) == sorted([*parents, *members])
        assert len(made) < sum(1 + len(s.members) + len(s.zero_part) + len(s.one_part)
                               for s in sets)
    # no critical path: the vertex-less quiver's skeleton, with no top and no element, and
    # one loop's free module
    for alg, S in ((_alg([], [], 2), seq((), (), ())),
                   (_alg(["1"], [("x", "1", "1")], 2), seq((1,), (1,), (1,)))):
        sk = canonical_skeleton(alg, S)
        assert "".join(cli._critical_rows(alg, sk)) == "[]" == stdlib(alg, sk)


def test_bundle_tower_double_back(double_back):
    S = seq((1, 1), (0, 1), (1, 0))
    rep = bundle_tower(double_back, S)
    assert (rep.N, rep.N0, rep.N1) == (3, 1, 2)
    assert rep.N1 == 2
    level0 = [(f.subspace_dim, f.ambient_dim) for f in rep.levels[0]]
    assert level0 == [(2, 2), (0, 1)]           # two point factors
    assert all(f.dim == 0 for f in rep.levels[0])
    level1 = [(f.subspace_dim, f.ambient_dim, f.dim) for f in rep.levels[1]]
    assert (1, 2, 1) in level1                  # Gr(1,2) = P^1
    assert sum(f.dim for lv in rep.levels for f in lv) == 1

    S6 = seq((1, 1), (1, 0), (0, 1))
    rep6 = bundle_tower(double_back, S6)
    assert (rep6.N, rep6.N0, rep6.N1) == (2, 1, 1)


def test_bundle_tower_semisimple(double_back):
    rep = bundle_tower(double_back, seq((2, 2), (0, 0), (0, 0)))
    assert (rep.N, rep.N0, rep.N1) == (0, 0, 0)
    assert all(f.dim == 0 for lv in rep.levels for f in lv)


def test_bundle_tower_loop_quiver(loop_out):
    rep = bundle_tower(loop_out, seq((1, 0), (1, 0), (0, 1)))
    assert rep.N == 1
    assert sum(f.dim for lv in rep.levels for f in lv) == rep.N0


def test_bundle_tower_skeleton_independent(double_back, relay):
    S = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))
    base = bundle_tower(relay, S)
    for sk in enumerate_skeleta(relay, S):
        counts = []
        for l in range(relay.L):
            row = [0] * relay.n
            for el in skeleton_layer(sk, l):
                for a in relay.quiver.arrows_from[relay.path_end(el[1])]:
                    row[relay.vertex_pos(a.target)] += 1
            counts.append(tuple(row))
        assert counts == [tuple(f.ambient_dim for f in lv) for lv in base.levels]


def test_tower_sums_to_n0_on_fixture_sequences(double_back, loop_out):
    for alg, dimvec in [(double_back, (2, 2)), (double_back, (3, 2)), (loop_out, (2, 1)), (loop_out, (2, 2))]:
        for S in enumerate_sequences(alg, dimvec):
            rep = bundle_tower(alg, S)
            assert sum(f.dim for lv in rep.levels for f in lv) == rep.N0


def test_graded_is_ungraded_minus_longer_terms_everywhere(double_back, loop_out):
    for alg, dimvec in [(double_back, (2, 2)), (loop_out, (2, 1))]:
        for S in enumerate_sequences(alg, dimvec):
            full = generic_presentation(alg, S)
            graded = generic_presentation(alg, S, graded=True)
            for frel, grel in zip(full.relations, graded.relations):
                fmembers = [mem for mem, _ in frel.terms]
                gmembers = [mem for mem, _ in grel.terms]
                longer = set(frel.sigma_set.one_part)
                assert gmembers == [m for m in fmembers if m not in longer]
