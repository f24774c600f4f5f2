"""Acceptance suite: one check per criterion, one PASS/FAIL line each.

All values here are exact integer facts; there are no tolerances to tune.
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import functools
import math

from genrep.algebra_core import (
    enumerate_sequences,
    projective_dim,
    realizable,
)
from genrep.components import component_report
from genrep.generic_builder import bundle_tower, generic_presentation
from genrep.homology import first_syzygy, projective_dimension
from genrep.matrix_rep import (
    FieldSpec,
    decomposability,
    distinguished_skeleta_of,
    ext_dim_detail,
    generic_end_dim,
    generic_socle,
    graded_decomposition,
    materialize,
    module_point,
    seeded_assignment,
    socle,
)
from genrep.skeleta import (
    count_skeleta,
    enumerate_skeleta,
    invariants_N,
    iter_skeleta,
)

from conftest import seq

S5 = seq((1, 1), (0, 1), (1, 0))
S6 = seq((1, 1), (1, 0), (0, 1))
S_DIM14 = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))
SEEDS = (101, 202, 303)


def criterion(n, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL — {desc}")
                raise
            print(f"criterion {n}: PASS — {desc}")
        return run
    return wrap


@criterion(1, "3-arrow quiver geometry: (N,N0,N1) and bundle tower")
def test_criterion_1(double_back):
    assert invariants_N(double_back, S5) == (3, 1, 2)
    rep = bundle_tower(double_back, S5)
    assert (rep.N, rep.N0, rep.N1) == (3, 1, 2)
    assert all(f.dim == 0 for f in rep.levels[0])            # point x point
    level1 = [(f.subspace_dim, f.ambient_dim) for f in rep.levels[1] if f.dim > 0]
    assert level1 == [(1, 2)]                                # Gr(1,2)
    assert invariants_N(double_back, S6) == (2, 1, 1)
    rep6 = bundle_tower(double_back, S6)
    assert (rep6.N, rep6.N0, rep6.N1) == (2, 1, 1)


@criterion(2, "loop-plus-arrow quiver: N = 1 and N = 0")
def test_criterion_2(loop_out):
    assert invariants_N(loop_out, seq((1, 0), (1, 0), (0, 1)))[0] == 1
    assert invariants_N(loop_out, seq((1, 0), (1, 1), (0, 0)))[0] == 0


@criterion(3, "homology of the depth-3 sequence: syzygy, projdim, socle, End")
def test_criterion_3(double_back):
    prof = first_syzygy(double_back, S5)
    assert {(c.vertex, c.truncation): m for c, m in prof.items()} == \
        {("1", 1): 1, ("1", 2): 2}
    assert projective_dimension(double_back, S5) == math.inf
    assert generic_socle(double_back, S5) == (1, 0)
    assert generic_end_dim(double_back, S5, seeds=SEEDS) == 2


@criterion(4, "14-dimensional example: syzygy dim 19, kernel oracle, projdim, "
              "graded summands (0,1,1)+(2,6,4); quoted multiset has dim 21")
def test_criterion_4(relay):
    prof = first_syzygy(relay, S_DIM14)
    dim_p = 2 * projective_dim(relay, "1") + projective_dim(relay, "2") \
        + projective_dim(relay, "3")
    assert dim_p == 33
    assert prof.total_dim(relay) == dim_p - S_DIM14.total_dim == 19
    assert {(c.vertex, c.truncation): m for c, m in prof.items()} == \
        {("2", 1): 5, ("2", 2): 2, ("2", 3): 1, ("3", 2): 2}
    # kernel-rank oracle: the kernel of the cover P -> G, computed as
    # explicit matrices at three seeds, has the per-vertex dimensions and
    # the radical layering the profile predicts
    from conftest import presentation_kernel_layering, profile_predicted_layering
    want_layers = profile_predicted_layering(relay, prof)
    for sd in SEEDS:
        got_layers = presentation_kernel_layering(relay, S_DIM14, sd)
        assert got_layers == want_layers
        got_dims = tuple(sum(col) for col in zip(*got_layers))
        assert got_dims == prof.dim_vector(relay) == (0, 14, 5)
    assert projective_dimension(relay, S_DIM14) == math.inf
    comps = sorted(dv for _, dv in graded_decomposition(relay, S_DIM14))
    assert comps == [(0, 1, 1), (2, 6, 4)]
    # the multiset quoted in the literature for this example,
    # S1^5 + (e2/J^2)^3 + e2/J^3 + (e3/J^2)^2, has total dimension 21, not
    # 19; the combinatorial rule and the kernel oracle agree on dim 19
    quoted_dim = 5 * 1 + 3 * 2 + 4 + 2 * 3
    assert quoted_dim == 21 != prof.total_dim(relay)


@criterion(5, "9-dimensional worked module: exactly the three distinguished skeleta")
def test_criterion_5(six_vertex):
    rep = module_point(
        six_vertex,
        ("1", "1", "2", "3"),
        [
            [(1, 1, ("b2", "al"))],
            [(1, 2, ("b1", "al"))],
            [(1, 3, ("g",)), (-1, 4, ("e", "d"))],
            [(1, 1, ("b1", "al")), (1, 2, ("b2", "al")), (1, 3, ("g",))],
        ],
    )
    sks = distinguished_skeleta_of(rep)
    labels = {
        frozenset(("".join(p.arrows) or "e") + f"@z{r}" for r, p in sk.elements)
        for sk in sks
    }
    assert labels == {
        frozenset({"e@z1", "al@z1", "b1al@z1", "e@z2", "al@z2", "b2al@z2",
                   "e@z3", "e@z4", "d@z4"}),
        frozenset({"e@z1", "al@z1", "b1al@z1", "e@z2", "al@z2", "e@z3",
                   "e@z4", "d@z4", "ed@z4"}),
        frozenset({"e@z1", "al@z1", "e@z2", "al@z2", "b2al@z2", "e@z3",
                   "e@z4", "d@z4", "ed@z4"}),
    }


@criterion(6, "component sifting at dimension vector (2,2): candidates and verdicts")
def test_criterion_6(double_back):
    rep = component_report(double_back, (2, 2), max_top_dim=2, seeds=SEEDS)
    S1 = seq((2, 0), (0, 2), (0, 0))
    S2 = seq((0, 2), (2, 0), (0, 0))
    S3 = seq((1, 1), (1, 1), (0, 0))
    S4 = seq((0, 1), (2, 0), (0, 1))
    cands = {rep.sequences[i].layers for i in rep.candidates}
    assert cands == {S1.layers, S2.layers, S4.layers, S5.layers}
    redundant = {rep.sequences[i].layers: {rep.sequences[j].layers for j in js}
                 for i, js in rep.possibly_redundant.items()}
    assert set(redundant) == {S3.layers, S6.layers}
    assert redundant[S3.layers] == {S4.layers, S5.layers, S6.layers}
    assert redundant[S6.layers] == {S4.layers}
    pair = next(v for v in rep.verdicts
                if v.inner.layers == S2.layers and v.outer.layers == S4.layers)
    assert pair.verdict == "excluded-socle"


@criterion(7, "1->2->3<-4 boundary case: graded decomposes, ungraded End = K")
def test_criterion_7(y_quiver):
    S = seq((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
    graded = decomposability(y_quiver, S, graded=True, seeds=SEEDS)
    assert graded.verdict == "decomposable-certified"
    ungraded = decomposability(y_quiver, S, graded=False, seeds=SEEDS)
    assert ungraded.verdict == "indecomposable-certified"
    assert ungraded.witness.get("end_dim") == 1


def _sequences_up_to(alg, dmax):
    cells = alg.n * (alg.L + 1)

    def rec(idx, left, flat):
        if idx == cells:
            if left < dmax:
                yield seq(*[flat[l * alg.n:(l + 1) * alg.n] for l in range(alg.L + 1)])
            return
        for x in range(left + 1):
            yield from rec(idx + 1, left - x, flat + [x])

    # budget dmax means total dimension in 1..dmax
    for S in rec(0, dmax, []):
        if S.total_dim >= 1:
            yield S


@criterion(8, "property suites: invariance, counting, realizability, syzygy "
              "dimension, seeded stability, two-method Ext")
def test_criterion_8(double_back, relay, loop_out, kronecker, y_quiver, a2):
    # (a) (N, N0, N1) identical over all skeleta where count <= 500
    small = [(double_back, S) for S in enumerate_sequences(double_back, (2, 2))]
    small += [(loop_out, S) for S in enumerate_sequences(loop_out, (2, 1))]
    small += [(relay, S_DIM14)]
    small += [(y_quiver, seq((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)))]
    for alg, S in small:
        if count_skeleta(alg, S) <= 500:
            base = invariants_N(alg, S)
            for sk in enumerate_skeleta(alg, S):
                assert invariants_N(alg, S, skeleton=sk) == base

    # (b) count_skeleta equals the enumeration exactly
    for alg, S in small:
        assert count_skeleta(alg, S) == len(enumerate_skeleta(alg, S))

    # (c) realizability criterion <=> a compatible skeleton exists, d <= 8
    for alg in (double_back, loop_out, kronecker, a2, y_quiver):
        for S in _sequences_up_to(alg, 8):
            has_skel = next(iter(iter_skeleta(alg, S)), None) is not None
            assert realizable(alg, S) == has_skel

    # (d) dim Omega^1 = dim P - d for every realizable sequence, d <= 8
    for alg in (double_back, loop_out, kronecker, a2, y_quiver):
        for S in _sequences_up_to(alg, 8):
            if not realizable(alg, S) or not any(S.top):
                continue
            dim_p = sum(S.top[i] * projective_dim(alg, v)
                        for i, v in enumerate(alg.vertices))
            assert first_syzygy(alg, S).total_dim(alg) == dim_p - S.total_dim

    # (e) + (f) the generic socle is the socle of the point at every seed, End and
    # Ext are seed-stable (generic_end_dim raises if any seed disagrees), and the two
    # Ext^1 methods agree
    fixtures = [(double_back, S5), (double_back, S6), (relay, S_DIM14),
                (loop_out, seq((1, 0), (1, 0), (0, 1))),
                (kronecker, seq((1, 0), (0, 1))),
                (y_quiver, seq((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)))]
    for alg, S in fixtures:
        soc = generic_socle(alg, S)
        generic_end_dim(alg, S, seeds=SEEDS)
        pres = generic_presentation(alg, S)
        per_seed = []
        for sd in SEEDS:
            rep_n = materialize(pres, seeded_assignment(pres, sd), FieldSpec())
            assert socle(rep_n) == soc
            detail = ext_dim_detail(alg, S, rep_n, 1, [sd])
            rec = detail["per_seed"][0]
            assert rec["alternating"] == rec["restriction"]
            per_seed.append(detail["value"])
        assert len(set(per_seed)) == 1

    # the recorded self-Ext of the depth-3 sequence: both methods give 1;
    # the value 2 quoted in the literature for this example disagrees
    rep_n = materialize(generic_presentation(double_back, S5),
                        seeded_assignment(generic_presentation(double_back, S5), 7), FieldSpec())
    detail = ext_dim_detail(double_back, S5, rep_n, 1, [7])
    rec = detail["per_seed"][0]
    assert (rec["alternating"], rec["restriction"]) == (1, 1)
    print("criterion 8 note: Ext^1(G,G) for the depth-3 sequence = 1 by both "
          "methods (the literature quotes 2 for this example)")
