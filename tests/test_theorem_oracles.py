"""Relations between invariants that hold by theorem, each tying two code paths.

Hom into a simple reads the top: a map M -> S_v factors through M / rad M, so
dim Hom(M, S_v) = S_0[v] at every point.  Hom out of a simple reads the socle: a map
S_v -> M lands in soc M, so dim Hom(S_v, M) = soc_v M, and at a generic point that is
``generic_socle``, counted off the layering with no module built.

Pair mode is at most the diagonal: Hom and Ext^1 are upper semicontinuous on
Rep_S x Rep_S, so the generic pair takes their least values there, and (G, G) is one of
its points.  A split module has a larger End: each of c summands has its own projection.
Voigt's tangent bound: Grass(S) is irreducible of dimension N, and its tangent space at
C = Omega^1 G in P is Hom(C, P/C), of dimension Ext^1(G, G) + dim Hom(P, G) - dim End(G)
by the long exact sequence of Hom(-, G) on 0 -> C -> P -> G -> 0.

The seeded End has an oracle free of randomness on tiny presentations: every point of
F_q^n lies in Rep_S, zeros included, Rep_S is irreducible (BHT 2009) and dim End is upper
semicontinuous, so the least dim End over all q^n points is the generic value in
characteristic q, which one generic F_q-point reaches.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from genrep.algebra_core import enumerate_sequences, realizable
from genrep.cli import main
from genrep.generic_builder import generic_presentation
from genrep.matrix_rep import (RATIONALS, FieldSpec, _pair_assignment, decomposability,
                               ext_dim_detail, generic_end_dim, generic_hom_dim, generic_socle,
                               hom_dim, materialize)

from conftest import bundle_N, realizable_layerings, seq

ORACLE_FIXTURES = ["double_back", "loop_out", "relay", "kronecker"]


def simple(alg, v):
    """The layering of the simple module at the vertex in position ``v``."""
    return seq(*([tuple(int(j == v) for j in range(alg.n))] + [(0,) * alg.n] * alg.L))


def draw_case(request, fixture, data):
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg).filter(lambda S: S.total_dim))
    return alg, S, data.draw(st.integers(0, alg.n - 1))


@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
@pytest.mark.parametrize("fs", [FieldSpec(), RATIONALS], ids=["Fp", "Q"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hom_into_a_simple_reads_the_top(request, fixture, fs, data):
    alg, S, v = draw_case(request, fixture, data)
    assert generic_hom_dim(alg, S, simple(alg, v), fs=fs) == S.top[v]


@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hom_out_of_a_simple_reads_the_socle(request, fixture, data):
    # over F_p only: the seeded points over Q are the first primes, which need not be
    # generic, and there the left side may exceed the generic socle
    alg, S, v = draw_case(request, fixture, data)
    assert generic_hom_dim(alg, simple(alg, v), S) == generic_socle(alg, S)[v]


def pair_point(alg, S, fs):
    """The second module of pair mode beside M = G(S) at seed 0: a point of G(S) at seed
    PAIR_SEED_OFFSET over F_p, at the primes after M's over Q."""
    pres = generic_presentation(alg, S)
    return materialize(pres, _pair_assignment(len(pres.scalar_ids), pres, 0, fs), fs)


@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
@pytest.mark.parametrize("fs", [FieldSpec(), RATIONALS], ids=["Fp", "Q"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_pair_mode_is_at_most_the_diagonal(request, fixture, fs, data):
    alg, S, _ = draw_case(request, fixture, data)
    assert generic_hom_dim(alg, S, S, fs=fs) <= generic_end_dim(alg, S, fs=fs)
    seeds = (0, 1, 2)
    assert ext_dim_detail(alg, S, pair_point(alg, S, fs), 1, seeds, fs)["value"] <= \
        ext_dim_detail(alg, S, None, 1, seeds, fs)["value"]


@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
@pytest.mark.parametrize("fs", [FieldSpec(), RATIONALS], ids=["Fp", "Q"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_split_module_has_a_larger_end(request, fixture, fs, data):
    alg, S, _ = draw_case(request, fixture, data)
    verdict = decomposability(alg, S, fs=fs)
    if verdict.verdict == "decomposable-certified":
        assert generic_end_dim(alg, S, fs=fs) >= len(verdict.witness["components"]) > 1


@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
@pytest.mark.parametrize("fs", [FieldSpec(), RATIONALS], ids=["Fp", "Q"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_voigt_tangent_bound(request, fixture, fs, data):
    alg, S, _ = draw_case(request, fixture, data)
    hom_p = sum(t * d for t, d in zip(S.top, S.dim_vector))  # dim Hom(P, G)
    ext = ext_dim_detail(alg, S, None, 1, (0, 1, 2), fs)["value"]
    assert bundle_N(alg, S)[0] <= ext + hom_p - generic_end_dim(alg, S, fs=fs)


@st.composite
def unrealizable_layerings(draw, alg):
    """Any layers of entries 0..2 that no module realizes."""
    return draw(st.lists(st.tuples(*[st.integers(0, 2)] * alg.n), min_size=alg.L + 1,
                         max_size=alg.L + 1).map(lambda rows: seq(*rows))
                .filter(lambda S: not realizable(alg, S)))


def algebra_doc(alg):
    return {"vertices": list(alg.vertices), "max_path_length": alg.L,
            "arrows": [{"name": a.name, "source": a.source, "target": a.target}
                       for a in alg.quiver.arrows]}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracles")


@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_unrealizable_draws_exit_2_on_both_sides(request, fixture, workdir, data):
    # every subcommand a relation above reads, with the unrealizable layering U on either
    # side of a pair: an error on stderr, exit 2 and nothing on stdout, over F_p and Q
    alg = request.getfixturevalue(fixture)
    U = data.draw(unrealizable_layerings(alg))
    files = {"alg": algebra_doc(alg), "U": {"layers": U.layers},
             "simple": {"layers": simple(alg, 0).layers}}
    path = {}
    for name, doc in files.items():
        path[name] = workdir / f"{fixture}-{name}.json"
        path[name].write_text(json.dumps(doc))
    on_U = ["--algebra", path["alg"], "--layers", json.dumps(U.layers)]
    seeded = [["hom", *on_U], ["hom", *on_U, "--seq2", path["U"]], ["ext", "--k", "1", *on_U],
              ["ext", "--k", "1", *on_U, "--seq2", path["U"]], ["decompose", *on_U],
              ["socle", *on_U], ["hom", *on_U, "--seq2", path["simple"]],
              *([command, "--algebra", path["alg"], "--seq", path["simple"], "--seq2", path["U"]]
                for command in ("hom", "ext"))]
    for argv in [["geometry", *on_U], *seeded, *(command + ["--exact"] for command in seeded)]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(map(str, argv)))
        assert (code, out.getvalue()) == (2, ""), argv
        assert err.getvalue().startswith("error: ")


def small_presentations(alg, q, most_points):
    """Each realizable layering of dimension 1..5 and entries <= 3, with its generic
    presentation, when that has n scalars and q^n <= ``most_points``."""
    for dimvec in itertools.product(range(6), repeat=alg.n):
        if not 0 < sum(dimvec) <= 5:
            continue
        for S in enumerate_sequences(alg, dimvec):
            pres = generic_presentation(alg, S)
            if max(map(max, S.layers)) <= 3 and q ** len(pres.scalar_ids) <= most_points:
                yield S, pres


@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
def test_seeded_end_is_the_least_end_over_every_small_field_point(request, fixture, workdir):
    # the CLI's seeded ``hom`` against the least dim End, through ``hom_dim``, over every
    # point of F_5^n; above it the seeded route overstated, below it F_5 has no generic
    # point or 5 is special for the minor
    alg, F5 = request.getfixturevalue(fixture), FieldSpec(5)
    path = workdir / f"{fixture}-end-oracle.json"
    path.write_text(json.dumps(algebra_doc(alg)))
    seen = []
    for S, pres in small_presentations(alg, 5, 625):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["hom", "--algebra", str(path), "--layers", json.dumps(S.layers)]) == 0
        least = min(hom_dim(M, M) for M in (
            materialize(pres, point, F5)
            for point in itertools.product(range(5), repeat=len(pres.scalar_ids))))
        seen.append((S.layers, json.loads(out.getvalue())["hom_dim"], least))
    assert len(seen) == {"double_back": 62, "loop_out": 69, "relay": 154, "kronecker": 27}[fixture]
    assert [case for case in seen if case[1] != case[2]] == []
