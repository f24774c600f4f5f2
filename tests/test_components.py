"""Annihilating arrows, containment pruning, component reports."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from genrep import components
from genrep.algebra_core import dominates, enumerate_sequences
from genrep.components import (
    _DOMINANCE,
    _SiftFacts,
    _bits,
    _poset,
    annihilating_arrows,
    closure_containment_test,
    component_report,
    sequence_poset,
)
from genrep.errors import UnrealizableError, ValidationError
from genrep.matrix_rep import generic_socle

from conftest import (
    COMPONENT_ALGEBRAS,
    _alg,
    annihilating_arrows_by_skeleton,
    enumerate_skeleta,
    projective_layering,
    report_to_json,
    seq,
    sequence_poset_by_sets,
    verdicts,
)

S_TOP1 = seq((2, 0), (0, 2), (0, 0))
S_TOP2 = seq((0, 2), (2, 0), (0, 0))
S_LEVEL = seq((1, 1), (1, 1), (0, 0))
S_DIP = seq((0, 1), (2, 0), (0, 1))
S_DEEP = seq((1, 1), (0, 1), (1, 0))
S_FLAT = seq((1, 1), (1, 0), (0, 1))


def test_annihilating_arrows_chain(chain_with_returns):
    S = seq((2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    ann = annihilating_arrows(chain_with_returns, S)
    assert "b65" in ann
    # the deeper sequence with S6 pulled up to layer 1 frees that arrow
    S2 = seq((2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0),
             (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0))
    assert "b65" not in annihilating_arrows(chain_with_returns, S2)


def test_annihilating_arrows_line_swing(line_swing):
    S = seq((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert "w" in annihilating_arrows(line_swing, S)


def test_annihilating_arrows_full_projective(double_back):
    S = projective_layering(double_back, (1, 1))
    assert annihilating_arrows(double_back, S) == frozenset()


def test_annihilating_arrows_skeleton_independent(double_back, loop_out):
    for alg, dimvec in [(double_back, (2, 2)), (loop_out, (2, 1))]:
        for S in enumerate_sequences(alg, dimvec):
            closed = annihilating_arrows(alg, S)
            for sk in enumerate_skeleta(alg, S):
                assert annihilating_arrows_by_skeleton(alg, S, sk) == closed


def test_annihilating_arrows_unrealizable(double_back):
    with pytest.raises(UnrealizableError):
        annihilating_arrows(double_back, seq((1, 0), (0, 0), (1, 0)))


def test_containment_reflexive_is_possible(double_back):
    v = closure_containment_test(double_back, S_DEEP, S_DEEP)
    assert v.verdict == "possible"


def test_containment_socle_exclusion(double_back):
    # the top-two stratum cannot sit inside the dip stratum: the dip's generic
    # socle contains S2, the other does not
    v = closure_containment_test(double_back, S_TOP2, S_DIP)
    assert v.verdict == "excluded-socle"
    assert v.evidence["socle_outer"][1] > v.evidence["socle_inner"][1]
    assert v.confidence == "seeded-generic"


def test_containment_c6_in_c4_possible(double_back):
    assert closure_containment_test(double_back, S_FLAT, S_DIP).verdict == "possible"


def test_containment_dominance_exclusion(double_back):
    # dominance is antisymmetric with exclusion: the outer must lie below
    v = closure_containment_test(double_back, S_DIP, S_FLAT)
    assert v.verdict == "excluded-dominance"
    assert v.confidence == "certified"


def test_containment_dimension_mismatch(double_back):
    with pytest.raises(ValidationError):
        closure_containment_test(double_back, S_DEEP, seq((1, 0), (0, 1), (1, 0)))


def test_containment_annihilator_exclusion(chain_with_returns):
    # S sits below S2 in dominance, but the arrow 6->5 kills all modules of
    # the outer stratum and not the inner one
    S = seq((2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    S2 = seq((2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0),
             (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0))
    v = closure_containment_test(chain_with_returns, S2, S)
    assert v.verdict == "excluded-annihilator"
    assert "b65" in v.evidence["arrows"]


def test_report_small_tops(double_back):
    rep = component_report(double_back, (2, 2), max_top_dim=2)
    seqs = {S.layers: i for i, S in enumerate(rep.sequences)}
    assert len(rep.sequences) == 6
    cands = {rep.sequences[i].layers for i in rep.candidates}
    assert cands == {S_TOP1.layers, S_TOP2.layers, S_DIP.layers, S_DEEP.layers}
    redundant = {rep.sequences[i].layers: {rep.sequences[j].layers for j in js}
                 for i, js in rep.possibly_redundant.items()}
    assert redundant[S_LEVEL.layers] == {S_DIP.layers, S_DEEP.layers, S_FLAT.layers}
    assert redundant[S_FLAT.layers] == {S_DIP.layers}
    class0 = {rep.sequences[i].layers for i in rep.class0}
    assert class0 == {S_TOP1.layers, S_DIP.layers, S_DEEP.layers}
    assert rep.lower_bound == 3 and rep.upper_bound == 6
    assert rep.lower_bound <= len(rep.candidates) <= rep.upper_bound
    # the specific socle exclusion shows up among the pair verdicts
    pair = next(v for v in verdicts(rep)
                if v.inner.layers == S_TOP2.layers and v.outer.layers == S_DIP.layers)
    assert pair.verdict == "excluded-socle"


def test_report_single_simple(double_back):
    rep = component_report(double_back, (1, 0))
    assert len(rep.sequences) == 1
    assert rep.candidates == (0,)
    assert rep.class0 == (0,)
    assert rep.possibly_redundant == {}


def test_report_loop_quiver_fixed_top(loop_out):
    rep = component_report(loop_out, (2, 1), top=(1, 0))
    assert len(rep.sequences) == 2
    deep = seq((1, 0), (1, 0), (0, 1)).layers
    flat = seq((1, 0), (1, 1), (0, 0)).layers
    class0 = {rep.sequences[i].layers for i in rep.class0}
    assert class0 == {deep}
    redundant = {rep.sequences[i].layers: {rep.sequences[j].layers for j in js}
                 for i, js in rep.possibly_redundant.items()}
    assert redundant == {flat: {deep}}


def test_class0_never_redundant(double_back, loop_out):
    for alg, dimvec in [(double_back, (2, 2)), (loop_out, (2, 1)), (loop_out, (3, 1))]:
        rep = component_report(alg, dimvec)
        assert not set(rep.class0) & set(rep.possibly_redundant)


def test_excluded_dominance_everywhere_it_must_be(double_back):
    rep = component_report(double_back, (2, 2), max_top_dim=2)
    from genrep.algebra_core import dominates
    for v in verdicts(rep):
        if not dominates(v.outer, v.inner):
            assert v.verdict == "excluded-dominance"


def test_poset_hasse(double_back):
    seqs = [S_TOP1, S_TOP2, S_LEVEL, S_DIP, S_DEEP, S_FLAT]
    poset = sequence_poset(double_back, seqs)
    idx = {S.layers: i for i, S in enumerate(poset.sequences)}
    edges = set(poset.hasse_edges)
    # covers: S4 < S2, S4 < S6, S6 < S3, S5 < S3; S4 < S3 is not a cover
    assert (idx[S_DIP.layers], idx[S_TOP2.layers]) in edges
    assert (idx[S_DIP.layers], idx[S_FLAT.layers]) in edges
    assert (idx[S_FLAT.layers], idx[S_LEVEL.layers]) in edges
    assert (idx[S_DEEP.layers], idx[S_LEVEL.layers]) in edges
    assert (idx[S_DIP.layers], idx[S_LEVEL.layers]) not in edges
    assert set(poset.minimal) == {idx[S_TOP1.layers], idx[S_DIP.layers], idx[S_DEEP.layers]}


def test_report_json_embeds_seed(double_back):
    data = report_to_json(component_report(double_back, (1, 1)))
    assert "seed" in data and "field_modulus" in data and "confidence" in data


SIFT_SEEDS = (5,)
SIFT_CASES = [pytest.param(fixture, dv, id=fixture + "-" + "".join(map(str, dv)))
              for fixture, bound in (("double_back", (4, 4)), ("relay", (2, 3, 2)))
              for dv in itertools.product(*(range(x + 1) for x in bound)) if any(dv)]


@pytest.mark.parametrize("fixture,dimvec", SIFT_CASES)
def test_report_matches_pairwise_oracle(request, fixture, dimvec):
    # the report shares per-sequence facts across pairs; every verdict, cover
    # and minimal element must match one standalone test per ordered pair
    alg = request.getfixturevalue(fixture)
    rep = component_report(alg, dimvec, seeds=SIFT_SEEDS)
    seqs = rep.sequences
    assert verdicts(rep) == tuple(closure_containment_test(alg, a, b)
                                  for i, a in enumerate(seqs)
                                  for j, b in enumerate(seqs) if i != j)
    oracle = sequence_poset_by_sets(seqs)
    assert rep.poset == oracle == sequence_poset(alg, seqs)
    assert rep.class0 == oracle.minimal


def test_sequence_poset_rejects_mixed_totals(double_back):
    with pytest.raises(ValidationError):
        sequence_poset(double_back, [S_DEEP, seq((1, 0), (0, 1), (0, 0))])


@settings(max_examples=300, deadline=None)
@given(mask=st.one_of(st.integers(0, 1 << 12),
                      st.integers(0, 1 << 700),
                      st.sets(st.integers(0, 700)).map(lambda js: sum(1 << j for j in js))))
def test_bits_match_the_binary_string(mask):
    assert _bits(mask) == [j for j, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rows_bitsets_and_poset_match_pairwise_oracles(data):
    # each row holds the codes of the outer sequences dominance admits, equal to the
    # per-pair reference, and the bitsets are dominance itself
    alg = _alg(*COMPONENT_ALGEBRAS[data.draw(st.sampled_from(sorted(COMPONENT_ALGEBRAS)))])
    dimvec = tuple(data.draw(st.lists(st.integers(0, 3), min_size=alg.n, max_size=alg.n)
                             .filter(lambda dv: 0 < sum(dv) <= 6)))
    options = {}
    if data.draw(st.booleans()):
        options["top"] = tuple(data.draw(st.integers(0, x)) for x in dimvec)
    if data.draw(st.booleans()):
        options["max_top_dim"] = data.draw(st.integers(0, 4))
    rep = component_report(alg, dimvec, **options)
    seqs, n = rep.sequences, len(rep.sequences)
    facts = _SiftFacts(alg, seqs)
    for i, inner in enumerate(seqs):
        for j, outer in enumerate(seqs):
            assert facts.le[i] >> j & 1 == dominates(outer, inner)
            assert facts.ge[i] >> j & 1 == dominates(inner, outer)
            if i != j:
                assert (j in rep.rows[i]) == dominates(outer, inner)
                code = rep.rows[i].get(j, _DOMINANCE)
                assert code == tuple(closure_containment_test(alg, inner, outer))[2:]
    assert len(verdicts(rep)) == n * (n - 1)
    assert _poset(seqs, facts) == rep.poset == sequence_poset_by_sets(seqs)


def test_annihilator_pairs_share_evidence_per_missing_arrows(relay):
    rep = component_report(relay, (1, 2, 2))
    found = [v for v in verdicts(rep) if v.verdict == "excluded-annihilator"]
    assert len(found) == 8
    assert all(v.evidence is found[0].evidence for v in found)
    pairs = [p for p in report_to_json(rep)["pairs"] if p["verdict"] == "excluded-annihilator"]
    assert {json.dumps({k: p[k] for k in ("verdict", "evidence", "confidence")})
            for p in pairs} == {'{"verdict": "excluded-annihilator", '
                                '"evidence": {"arrows": ["g1", "g2"]}, '
                                '"confidence": "certified"}'}


def test_verdicts_are_built_once_from_the_rows(double_back):
    # the report holds only the rows of the pairs dominance admits; every ordered pair's
    # verdict, the dominance-excluded ones too, is read off them by the reader
    rep = component_report(double_back, (2, 2))
    assert not hasattr(rep, "verdicts")
    assert sum(len(row) for row in rep.rows) < len(verdicts(rep))


def test_report_makes_one_code_per_class_pair(double_back, monkeypatch):
    # a code reads only the two classes (annihilators, generic socle); double_back 6,6
    # has 126 sequences and 3,257 admitted pairs in 30 classes, and each pair of classes
    # that some admitted pair meets is coded once (one code per admitted pair was 3,257)
    calls, code = [], _SiftFacts.code
    monkeypatch.setattr(_SiftFacts, "code", lambda self, at_out, at_in: (
        calls.append((at_out, at_in)) or code(self, at_out, at_in)))
    rep = component_report(double_back, (6, 6))
    cls = [(annihilating_arrows(double_back, S), generic_socle(double_back, S))
           for S in rep.sequences]
    met = {(cls[j], cls[i]) for i, row in enumerate(rep.rows) for j in row}
    assert (len(cls), sum(map(len, rep.rows)), len(set(cls))) == (126, 3257, 30)
    assert len(calls) == len({(cls[j], cls[i]) for j, i in calls}) == len(met)
    assert all((cls[j], cls[i]) in met for j, i in calls)


@pytest.mark.parametrize("fixture,dimvec", [("double_back", (5, 5)), ("relay", (3, 4, 3))])
def test_rows_match_the_per_pair_reference_beyond_the_oracle(request, fixture, dimvec):
    # past the exhaustive cases, every admitted pair's code, read off its classes, is the
    # per-pair reference's, and every other pair is excluded by dominance
    alg = request.getfixturevalue(fixture)
    rep = component_report(alg, dimvec)
    seqs = rep.sequences
    assert sum(map(len, rep.rows)) > len(seqs)
    assert verdicts(rep) == tuple(closure_containment_test(alg, a, b)
                                  for i, a in enumerate(seqs)
                                  for j, b in enumerate(seqs) if i != j)


def test_report_reads_tails_off_the_sums_and_the_reference_checks_its_pair(relay, monkeypatch):
    # the report's sequences are enumerated, so realizable by construction: their tails are
    # read off the partial sums, with no _layer_table, and give the verdicts of the per-pair
    # reference, which takes its two sequences from outside, so reads _layer_table's and
    # still checks them
    def refused(alg, S):
        raise AssertionError("component_report checked an enumerated sequence")

    monkeypatch.setattr(components, "_layer_table", refused)
    rep = component_report(relay, (1, 2, 2))
    monkeypatch.undo()
    seqs = rep.sequences
    assert verdicts(rep) == tuple(closure_containment_test(relay, a, b)
                                  for i, a in enumerate(seqs)
                                  for j, b in enumerate(seqs) if i != j)
    unrealizable = seq((1, 0, 0), (0, 3, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(UnrealizableError, match="is not realizable$"):
        closure_containment_test(relay, unrealizable, unrealizable)
    short = seq((1, 0, 0), (0, 3, 0), (0, 0, 0))
    with pytest.raises(ValidationError, match="sequence has 3 layers, algebra needs 4"):
        closure_containment_test(relay, short, short)


def test_negative_max_top_dim_is_refused(double_back):
    # a negative bound admits no top: refused as invalid input, not an empty report
    for call in (enumerate_sequences, component_report):
        with pytest.raises(ValidationError, match=r"^max_top_dim must be >= 0, got -1$"):
            call(double_back, (2, 2), max_top_dim=-1)
