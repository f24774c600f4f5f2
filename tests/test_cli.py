"""End-to-end CLI checks: subcommands, formats, exit codes, determinism."""

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from genrep import cli, matrix_rep
from genrep.algebra_core import algebra_from_json
from genrep.cli import _dumps, build_parser, hasse_dot, main, skeleton_text
from genrep.homology import profile_to_json

from conftest import (
    COMPONENT_ALGEBRAS,
    FIXTURES,
    iterated_syzygy_by_steps,
    last_two_syzygies_by_steps,
    realizable_layerings,
    seq,
    skeleton_text_by_walk,
)


@pytest.fixture()
def double_back_file(tmp_path):
    path = tmp_path / "double_back.json"
    path.write_text(json.dumps({
        "vertices": ["1", "2"],
        "arrows": [
            {"name": "a", "source": "1", "target": "2"},
            {"name": "b1", "source": "2", "target": "1"},
            {"name": "b2", "source": "2", "target": "1"},
        ],
        "max_path_length": 2,
    }))
    return str(path)


@pytest.fixture()
def deep_file(tmp_path):
    path = tmp_path / "s5.json"
    path.write_text(json.dumps({"layers": [[1, 1], [0, 1], [1, 0]]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_geometry(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["geometry", "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0
    data = json.loads(out)
    assert (data["N"], data["N0"], data["N1"]) == (3, 1, 2)


def test_realizable_inline(double_back_file, capsys):
    code, out = run(capsys, ["realizable", "--algebra", double_back_file,
                             "--layers", "[[1,1],[0,1],[1,0]]"])
    assert code == 0 and json.loads(out) == {"realizable": True}


def test_realizable_all_zero_exits_2(double_back_file, capsys):
    code = main(["realizable", "--algebra", double_back_file,
                 "--layers", "[[0,0],[0,0],[0,0]]"])
    assert code == 2


def test_syzygy_profile(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["syzygy", "--k", "1",
                             "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0
    data = json.loads(out)
    assert {"vertex": "1", "truncation": 2, "multiplicity": 2} in data
    assert {"vertex": "1", "truncation": 1, "multiplicity": 1} in data


def test_projdim_infinity(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["projdim", "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and json.loads(out) == {"projdim": "infinity"}


def test_skeleta_count_only(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["skeleta", "--count-only",
                             "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and json.loads(out) == {"count": 2}


def test_skeleta_cap_exit_3(double_back_file, deep_file, capsys):
    code = main(["skeleta", "--algebra", double_back_file, "--seq", deep_file, "--cap", "1"])
    assert code == 3


def test_skeleta_cap_exits_3_without_a_walk(tmp_path, capsys):
    # one loop, L = 2, layering ((40), (20), (0)): C(40, 20) ~ 1.4e11 skeleta, so
    # only the closed-form count, taken before any walk, can answer in time
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"vertices": ["1"], "arrows": [
        {"name": "x", "source": "1", "target": "1"}], "max_path_length": 2}))
    code = main(["skeleta", "--algebra", str(path), "--layers", "[[40],[20],[0]]",
                 "--cap", "1"])
    assert code == 3
    assert "cap of 1" in capsys.readouterr().err


def test_skeleta_text(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["skeleta", "--format", "text",
                             "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0
    assert out == ("# skeleton 0\nz1 <1>\n  a -> 2\n    b1 -> 1\nz2 <2>\n"
                   "# skeleton 1\nz1 <1>\n  a -> 2\n    b2 -> 1\nz2 <2>\n")


@pytest.mark.parametrize("fixture", FIXTURES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_skeleton_text_matches_recursive_walk(request, fixture, data):
    # a drawn skeleton of a drawn layering, and the projective's skeleton of every
    # path on drawn tops, where siblings branch at every member
    from genrep.matrix_rep import projective_representation
    from genrep.skeleta import Skeleton, iter_skeleta
    alg = request.getfixturevalue(fixture)
    S = data.draw(realizable_layerings(alg))
    sks = list(islice(iter_skeleta(alg, S), 20))
    tops = data.draw(st.lists(st.sampled_from(alg.vertices), min_size=1, max_size=2))
    labels = projective_representation(alg, tops).basis_labels
    sks.append(Skeleton(alg, tops, [el for els in labels.values() for el in els]))
    sk = data.draw(st.sampled_from(sks))
    assert skeleton_text(alg, sk) == skeleton_text_by_walk(alg, sk)


def test_socle_embeds_seed(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["socle", "--algebra", double_back_file, "--seq", deep_file,
                             "--seed", "7"])
    assert code == 0
    data = json.loads(out)
    assert data["socle"] == [1, 0]
    assert data["seed"] == 7
    assert data["field_modulus"] == 2**61 - 1
    assert data["confidence"] == "seeded-generic"


def test_socle_output_is_seed_independent(double_back_file, deep_file, capsys):
    # the generic socle is a term rank: nothing is drawn, so only the stamp moves
    argv = ["socle", "--algebra", double_back_file, "--seq", deep_file, "--seed"]
    (code4, out4), (code5, out5) = run(capsys, argv + ["4"]), run(capsys, argv + ["5"])
    data4, data5 = json.loads(out4), json.loads(out5)
    assert code4 == code5 == 0 and (data4["seed"], data5["seed"]) == (4, 5)
    assert {k: v for k, v in data4.items() if k != "seed"} == \
        {k: v for k, v in data5.items() if k != "seed"}


def test_socle_modulus_below_random_threshold_exits_2(double_back_file, deep_file, capsys):
    # a field too small for randomized evaluation is refused as seeded_assignment
    # refuses it, when the first socle is needed
    code = main(["socle", "--algebra", double_back_file, "--seq", deep_file,
                 "--modulus", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: field modulus must exceed 1000000 for randomized "
                            "evaluation\n")


def test_hom_end(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["hom", "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and json.loads(out)["hom_dim"] == 2


def test_ext_self(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["ext", "--k", "1",
                             "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0
    data = json.loads(out)
    assert data["ext_dim"] == 1
    assert all(r["alternating"] == r["restriction"] for r in data["per_seed"])


def test_ext_self_materializes_once_per_seed(double_back_file, deep_file, capsys, monkeypatch):
    # the intertwiner term reuses the point N = G(S) drawn at each seed: the three seeds'
    # points are built once, as one module of three points, and nothing else is built
    import genrep.cli
    import genrep.matrix_rep
    calls = []
    # materialize takes its point at argument 1, _module its points at argument 2
    for name, at in (("materialize", 1), ("_module", 2)):
        original = getattr(genrep.matrix_rep, name)

        def counting(*args, _name=name, _at=at, _original=original, **kwargs):
            calls.append((_name, len(args[_at])))
            return _original(*args, **kwargs)

        monkeypatch.setattr(genrep.matrix_rep, name, counting)
        monkeypatch.setattr(genrep.cli, name, counting, raising=False)
    code, out = run(capsys, ["ext", "--k", "1", "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and json.loads(out)["ext_dim"] == 1
    assert calls == [("_module", 3)]


def test_ext_self_builds_one_presentation(double_back_file, deep_file, capsys, monkeypatch):
    # one presentation for all seeds, one assignment per seed, shared by both Ext^1 methods
    import genrep.cli
    import genrep.matrix_rep
    calls = {"generic_presentation": 0, "seeded_assignment": 0}
    for name in calls:
        original = getattr(genrep.matrix_rep, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(genrep.matrix_rep, name, counting)
        monkeypatch.setattr(genrep.cli, name, counting)
    code, out = run(capsys, ["ext", "--k", "1", "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and json.loads(out)["ext_dim"] == 1
    assert calls == {"generic_presentation": 1, "seeded_assignment": 3}


@pytest.mark.parametrize("k", [1, 2])
def test_ext_self_output_unchanged(double_back_file, deep_file, capsys, k):
    # self-Ext is Ext of G(S) against the point drawn from the same seed
    from genrep.algebra_core import algebra_from_json, sequence_from_json
    from genrep.matrix_rep import FieldSpec, ext_dim_detail, materialize, seeded_assignment
    from genrep.generic_builder import generic_presentation
    alg = algebra_from_json(json.loads(Path(double_back_file).read_text()))
    S = sequence_from_json(json.loads(Path(deep_file).read_text()), alg)
    pres = generic_presentation(alg, S)
    per_seed = []
    for sd in (4, 5, 6):
        rep_n = materialize(pres, seeded_assignment(pres, sd, FieldSpec()))
        per_seed.extend(ext_dim_detail(alg, S, rep_n, k, [sd])["per_seed"])
    code, out = run(capsys, ["ext", "--k", str(k), "--seed", "4",
                             "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and json.loads(out)["per_seed"] == per_seed


def test_decompose(tmp_path, double_back_file, deep_file, capsys):
    # S5 over the 3-arrow quiver is beyond the implemented certificates
    code, out = run(capsys, ["decompose", "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0
    assert json.loads(out)["verdict"] == "undecided"
    # 1 -> 2 -> 3 <- 4 certifies both ways
    alg_path = tmp_path / "y.json"
    alg_path.write_text(json.dumps({
        "vertices": ["1", "2", "3", "4"],
        "arrows": [
            {"name": "a", "source": "1", "target": "2"},
            {"name": "b", "source": "2", "target": "3"},
            {"name": "c", "source": "4", "target": "3"},
        ],
        "max_path_length": 2,
    }))
    layers = "[[1,0,0,1],[0,1,0,0],[0,0,1,0]]"
    code, out = run(capsys, ["decompose", "--algebra", str(alg_path),
                             "--layers", layers])
    assert code == 0
    assert json.loads(out)["verdict"] == "indecomposable-certified"
    code, out = run(capsys, ["decompose", "--graded", "--algebra", str(alg_path),
                             "--layers", layers])
    assert code == 0
    assert json.loads(out)["verdict"] == "decomposable-certified"


def test_components(double_back_file, capsys):
    code, out = run(capsys, ["components", "--algebra", double_back_file,
                             "--dimvec", "2,2", "--max-top-dim", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["upper_bound"] == 6 and data["lower_bound"] == 3
    assert len(data["candidates"]) == 4


def test_components_dot(double_back_file, capsys):
    code, out = run(capsys, ["components", "--algebra", double_back_file,
                             "--dimvec", "2,2", "--format", "dot"])
    assert code == 0 and out.startswith("digraph dominance")


def test_sequences_cap_stops_at_cap_plus_one(double_back_file, capsys, monkeypatch):
    # dimension vector (2, 2) has 9 realizable sequences
    from genrep import algebra_core
    built = []
    real = algebra_core.SemisimpleSequence
    monkeypatch.setattr(algebra_core, "SemisimpleSequence",
                        lambda layers: built.append(layers) or real(layers))
    argv = ["sequences", "--algebra", double_back_file, "--dimvec", "2,2", "--cap"]
    assert main(argv + ["3"]) == 3
    assert len(built) == 4
    assert "realizable sequences exceed cap of 3" in capsys.readouterr().err
    code, out = run(capsys, argv + ["9"])
    assert code == 0 and json.loads(out)["count"] == 9


def test_components_cap_bounds_sequences_then_pairs(double_back_file, capsys, monkeypatch):
    # 9 sequences make 72 ordered pairs; a cap below either exits 3 before any socle
    from genrep import components

    def no_socle(*args, **kwargs):
        raise AssertionError("socle computed under an exceeded cap")

    monkeypatch.setattr(components, "_socle_of_tail", no_socle)
    argv = ["components", "--algebra", double_back_file, "--dimvec", "2,2", "--cap"]
    assert main(argv + ["8"]) == 3
    assert "realizable sequences exceed cap of 8" in capsys.readouterr().err
    assert main(argv + ["71"]) == 3
    assert "72 ordered pairs exceed cap of 71" in capsys.readouterr().err
    monkeypatch.undo()
    code, out = run(capsys, argv + ["72"])
    assert code == 0 and len(json.loads(out)["pairs"]) == 72


def test_max_top_dim_applies_before_the_cap(double_back_file, capsys):
    # --max-top-dim 1 leaves one of the 9 sequences and no pair, so a cap of 8 holds;
    # at --max-top-dim 2 the 6 sequences pass it and their 30 pairs exceed it
    argv = ["components", "--algebra", double_back_file, "--dimvec", "2,2", "--cap", "8"]
    code, out = run(capsys, argv + ["--max-top-dim", "1"])
    data = json.loads(out)
    assert code == 0 and data["sequences"] == [[[0, 1], [2, 0], [0, 1]]]
    assert data["upper_bound"] == 1 and data["pairs"] == []
    code, out = run(capsys, argv + ["--max-top-dim", "1", "--format", "dot"])
    assert code == 0 and out == ('digraph dominance {\n  rankdir=BT;\n'
                                 '  "s0" [label="01|20|01"];\n}\n')
    for fmt in ("json", "dot"):
        assert main(argv + ["--max-top-dim", "2", "--format", fmt]) == 3
        assert "30 ordered pairs exceed cap of 8" in capsys.readouterr().err


def test_components_dot_sifts_no_pair(double_back_file, capsys, monkeypatch):
    # the Hasse diagram is the full report's, with no verdict and no socle behind it;
    # both caps still exit 3
    from genrep import components
    from genrep.algebra_core import algebra_from_json

    alg = algebra_from_json(json.loads(Path(double_back_file).read_text()))
    expected = hasse_dot(components.component_report(alg, (2, 2)).poset) + "\n"

    def no_pairs(*args, **kwargs):
        raise AssertionError("pair verdict computed for the Hasse diagram")

    monkeypatch.setattr(components, "closure_containment_test", no_pairs)
    monkeypatch.setattr(components, "_socle_of_tail", no_pairs)
    argv = ["components", "--algebra", double_back_file, "--dimvec", "2,2", "--format", "dot"]
    code, out = run(capsys, argv)
    assert code == 0 and out == expected
    # no seeded evaluation, so a prime too small to draw scalars from is no error here
    code, out = run(capsys, argv + ["--modulus", "7"])
    assert code == 0 and out == expected
    assert main(argv + ["--cap", "8"]) == 3
    assert "realizable sequences exceed cap of 8" in capsys.readouterr().err
    assert main(argv + ["--cap", "71"]) == 3
    assert "72 ordered pairs exceed cap of 71" in capsys.readouterr().err


@pytest.fixture(scope="module")
def component_algebras(tmp_path_factory):
    """name -> (algebra file, algebra) for each of ``COMPONENT_ALGEBRAS``."""
    from genrep.algebra_core import algebra_from_json

    out = {}
    for name, (vertices, arrows, L) in COMPONENT_ALGEBRAS.items():
        data = {"vertices": vertices, "max_path_length": L,
                "arrows": [{"name": n, "source": s, "target": t} for n, s, t in arrows]}
        path = tmp_path_factory.mktemp("components") / f"{name}.json"
        path.write_text(json.dumps(data))
        out[name] = (str(path), algebra_from_json(data))
    return out


def components_stdout_matches_stdlib(path, alg, dimvec, seed=0, top=None, max_top_dim=None,
                                     field=()):
    """The report ``components`` sifts, after checking that its stdout is the stdlib's
    ``json.dumps(indent=2)`` of ``report_to_json`` plus the version."""
    import contextlib
    import io

    from genrep import __version__
    from genrep.components import component_report, report_to_json
    from genrep.matrix_rep import RATIONALS, FieldSpec

    argv = ["components", "--algebra", path, "--dimvec", ",".join(map(str, dimvec)),
            "--seed", str(seed), *field]
    if top is not None:
        argv += ["--top", ",".join(map(str, top))]
    if max_top_dim is not None:
        argv += ["--max-top-dim", str(max_top_dim)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    fs = (RATIONALS if "--exact" in field else
          FieldSpec(int(field[1])) if field else FieldSpec())
    rep = component_report(alg, dimvec, top=top, max_top_dim=max_top_dim,
                           seeds=(seed, seed + 1, seed + 2), fs=fs)
    expected = json.dumps(report_to_json(rep) | {"version": __version__}, indent=2) + "\n"
    got = out.getvalue()
    if got != expected:
        # a window around the first difference: pytest's own diff of two texts of megabytes
        # runs for minutes
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        window = slice(max(at - 200, 0), at + 200)
        pytest.fail(f"components stdout ({len(got)} characters) differs from json.dumps "
                    f"({len(expected)} characters) first at offset {at}:\n"
                    f"stdout:   {got[window]!r}\njson.dumps: {expected[window]!r}")
    return rep


@pytest.mark.parametrize("name, dimvec, options, sequences, verdicts", [
    ("double_back", (2, 2), {"max_top_dim": 0}, 0, set()),
    ("double_back", (1, 0), {}, 1, set()),
    ("relay", (1, 2, 2), {}, 13, {"excluded-dominance", "excluded-annihilator",
                                  "excluded-socle", "possible"}),
    ("double_back", (2, 2), {"top": (1, 1), "seed": 3}, None, {"excluded-dominance"}),
    ("line_swing", (1, 2, 2), {"field": ("--modulus", "1000003")}, 10, {"excluded-socle"}),
    ("double_back", (2, 2), {"field": ("--exact",), "max_top_dim": 2}, 6, {"possible"}),
    ("double_back", (4, 4), {}, 42, {"excluded-dominance", "excluded-socle", "possible"}),
], ids=["no-sequence", "one-sequence", "all-verdicts", "top", "modulus", "exact", "large"])
def test_components_stdout_is_stdlib_json(component_algebras, name, dimvec, options,
                                          sequences, verdicts):
    rep = components_stdout_matches_stdlib(*component_algebras[name], dimvec, **options)
    assert sequences in (None, len(rep.sequences))
    assert verdicts <= {v.verdict for v in rep.verdicts}
    assert len(rep.verdicts) == len(rep.sequences) * (len(rep.sequences) - 1)


def test_a_reader_closing_stdout_early_gets_exit_1_and_no_traceback(component_algebras):
    # the relay report at 3,4,3 is some 4 MB, far more than a pipe holds, so the writer
    # meets the closed pipe mid-report
    path, _ = component_algebras["relay"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "genrep.cli", "components", "--algebra", path,
            "--dimvec", "3,4,3"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert len(proc.stdout.read(64)) == 64
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=30) == 1
    assert err == b""  # no traceback, and no message either


def test_components_modulus_below_random_threshold_exits_2(component_algebras, capsys):
    # the socle test refuses a field too small for randomized evaluation
    path, _ = component_algebras["double_back"]
    code = main(["components", "--algebra", path, "--dimvec", "2,2", "--modulus", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: field modulus must exceed 1000000 for randomized "
                            "evaluation\n")


def test_components_too_small_modulus_exits_2_only_where_socles_are_compared(
        component_algebras, capsys):
    # 1,0 has one sequence and no pair, so no socle is compared and the report prints;
    # the six sequences of 2,2 within top dimension 2 have pairs that reach the socle test
    path, _ = component_algebras["double_back"]
    argv = ["components", "--algebra", path, "--modulus", "7", "--dimvec"]
    code, out = run(capsys, argv + ["1,0"])
    data = json.loads(out)
    assert code == 0 and len(data["sequences"]) == 1 and data["pairs"] == []
    assert data["field_modulus"] == 7
    assert main(argv + ["2,2", "--max-top-dim", "2"]) == 2
    assert capsys.readouterr() == ("", "error: field modulus must exceed 1000000 for "
                                       "randomized evaluation\n")


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_components_stdout_is_stdlib_json_on_drawn_inputs(component_algebras, data):
    name = data.draw(st.sampled_from(sorted(COMPONENT_ALGEBRAS)))
    path, alg = component_algebras[name]
    dimvec = tuple(data.draw(st.lists(st.integers(0, 2), min_size=alg.n, max_size=alg.n)
                             .filter(lambda dv: 0 < sum(dv) <= 4)))
    options = {"seed": data.draw(st.integers(0, 50))}
    top = [data.draw(st.integers(0, x)) for x in dimvec]
    if any(top) and data.draw(st.booleans()):
        options["top"] = tuple(top)
    if data.draw(st.booleans()):
        options["max_top_dim"] = data.draw(st.integers(0, 4))
    options["field"] = data.draw(st.sampled_from([(), ("--exact",), ("--modulus", "1000003")]))
    components_stdout_matches_stdlib(path, alg, dimvec, **options)


def test_hypergraph_dot(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["hypergraph", "--dot",
                             "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0
    assert "style=solid" in out and "style=dashed" in out and "style=dotted" in out
    assert "shape=point" in out


def test_generic_json(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["generic", "--algebra", double_back_file, "--seq", deep_file])
    data = json.loads(out)
    assert code == 0 and data["mode"] == "ungraded" and len(data["relations"]) == 3
    code, out = run(capsys, ["generic", "--graded",
                             "--algebra", double_back_file, "--seq", deep_file])
    data = json.loads(out)
    assert data["mode"] == "graded"


def test_critical_report(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["critical", "--algebra", double_back_file, "--seq", deep_file])
    data = json.loads(out)
    assert code == 0 and len(data) == 3
    assert all({"arrow", "parent", "path", "sigma_set", "zero_part", "one_part"}
               <= set(entry) for entry in data)


def test_sequences(double_back_file, capsys):
    code, out = run(capsys, ["sequences", "--algebra", double_back_file, "--dimvec", "2,2"])
    data = json.loads(out)
    assert code == 0
    small = [s for s in data["sequences"] if sum(s["layers"][0]) <= 2]
    assert len(small) == 6


@pytest.fixture()
def point_files(tmp_path):
    """The 9-dimensional worked module point over the six-vertex quiver."""
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps({
        "vertices": ["1", "2", "3", "4", "5", "6"],
        "arrows": [
            {"name": "al", "source": "1", "target": "4"},
            {"name": "b1", "source": "4", "target": "6"},
            {"name": "b2", "source": "4", "target": "6"},
            {"name": "g", "source": "2", "target": "6"},
            {"name": "d", "source": "3", "target": "5"},
            {"name": "e", "source": "5", "target": "6"},
        ],
        "max_path_length": 2,
    }))
    mod_path = tmp_path / "module.json"
    mod_path.write_text(json.dumps({
        "tops": [{"vertex": "1"}, {"vertex": "1"}, {"vertex": "2"}, {"vertex": "3"}],
        "relations": [
            [{"coeff": 1, "r": 1, "arrows": ["b2", "al"]}],
            [{"coeff": 1, "r": 2, "arrows": ["b1", "al"]}],
            [{"coeff": 1, "r": 3, "arrows": ["g"]},
             {"coeff": -1, "r": 4, "arrows": ["e", "d"]}],
            [{"coeff": 1, "r": 1, "arrows": ["b1", "al"]},
             {"coeff": 1, "r": 2, "arrows": ["b2", "al"]},
             {"coeff": 1, "r": 3, "arrows": ["g"]}],
        ],
    }))
    return ["--algebra", str(alg_path), "--module", str(mod_path)]


def test_point_skeleta(point_files, capsys):
    code, out = run(capsys, ["point-skeleta"] + point_files)
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_skeleta_stdout_is_stdlib_json(point_files, double_back_file, capsys):
    # the skeleta of one output share their element dicts; the text is unchanged
    from genrep.algebra_core import algebra_from_json, sequence_from_json
    from genrep.matrix_rep import distinguished_skeleta_of, module_point_from_json
    from genrep.skeleta import enumerate_skeleta, skeleton_to_json

    code, out = run(capsys, ["point-skeleta"] + point_files)
    alg = algebra_from_json(json.loads(Path(point_files[1]).read_text()))
    sks = distinguished_skeleta_of(module_point_from_json(
        json.loads(Path(point_files[3]).read_text()), alg))
    expected = {"count": len(sks), "skeleta": [skeleton_to_json(sk) for sk in sks]}
    assert code == 0 and out == json.dumps(expected, indent=2) + "\n"

    layers = [[1, 1], [0, 1], [1, 0]]
    code, out = run(capsys, ["skeleta", "--algebra", double_back_file,
                             "--layers", json.dumps(layers)])
    alg = algebra_from_json(json.loads(Path(double_back_file).read_text()))
    sks = enumerate_skeleta(alg, sequence_from_json({"layers": layers}, alg))
    expected = {"count": len(sks), "skeleta": [skeleton_to_json(sk) for sk in sks]}
    assert code == 0 and len(sks) == 2 and out == json.dumps(expected, indent=2) + "\n"


def test_point_skeleta_of_the_free_module_on_one_loop(tmp_path, capsys):
    # P = k[x]/x^(L+1) at L = 300: one skeleton, the L+1 powers of x on z_1
    L = 300
    alg_path, mod_path = tmp_path / "loop.json", tmp_path / "free.json"
    alg_path.write_text(json.dumps({"vertices": ["1"], "arrows": [
        {"name": "x", "source": "1", "target": "1"}], "max_path_length": L}))
    mod_path.write_text(json.dumps({"tops": [{"vertex": "1"}], "relations": []}))
    code, out = run(capsys, ["point-skeleta", "--algebra", str(alg_path),
                             "--module", str(mod_path)])
    assert code == 0
    assert json.loads(out) == {"count": 1, "skeleta": [{
        "top": [{"r": 1, "vertex": "1"}],
        "elements": [{"r": 1, "arrows": ["x"] * l} for l in range(L + 1)]}]}


def test_point_skeleta_zero_module_exits_2(point_files, capsys):
    # like the all-zero sequence, a module point without tops is rejected
    with open(point_files[-1], "w") as fh:
        json.dump({"tops": [], "relations": []}, fh)
    assert main(["point-skeleta"] + point_files) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "zero module" in captured.err


def test_env_seed_fallback(double_back_file, deep_file, capsys, monkeypatch):
    monkeypatch.setenv("GENREP_SEED", "99")
    code, out = run(capsys, ["socle", "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and json.loads(out)["seed"] == 99


def test_byte_identical_output(double_back_file, deep_file, capsys):
    _, out1 = run(capsys, ["socle", "--algebra", double_back_file, "--seq", deep_file,
                           "--seed", "3"])
    _, out2 = run(capsys, ["socle", "--algebra", double_back_file, "--seq", deep_file,
                           "--seed", "3"])
    assert out1 == out2


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["realizable", "--algebra", str(bad), "--layers", "[[1]]"]) == 2


@pytest.mark.parametrize("flag", ["--algebra", "--seq", "--seq2", "--module"])
@pytest.mark.parametrize("encoding, message", [
    ("utf-16", "cannot decode {} as UTF-8: 'utf-8' codec can't decode byte 0xff"),
    ("utf-8-sig", "malformed JSON in {}: Unexpected UTF-8 BOM"),  # a byte order mark
])
def test_input_file_not_utf8_exits_2(tmp_path, double_back_file, deep_file, point_files,
                                      capsys, flag, encoding, message):
    argv = (["point-skeleta", *point_files] if flag == "--module" else
            ["hom", "--algebra", double_back_file, "--seq", deep_file, "--seq2", deep_file])
    i = argv.index(flag) + 1
    path = tmp_path / "encoded.json"
    path.write_text(Path(argv[i]).read_text(), encoding=encoding)
    argv[i] = str(path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: " + message.format(path))


def test_inconsistent_dimensions_exit_2(double_back_file, capsys):
    assert main(["realizable", "--algebra", double_back_file,
                 "--layers", "[[1,1],[0,1]]"]) == 2


def test_hom_pair_mode(tmp_path, double_back_file, deep_file, capsys):
    other = tmp_path / "s6.json"
    other.write_text(json.dumps({"layers": [[1, 1], [1, 0], [0, 1]]}))
    code, out = run(capsys, ["hom", "--algebra", double_back_file, "--seq", deep_file,
                             "--seq2", str(other)])
    assert code == 0
    assert isinstance(json.loads(out)["hom_dim"], int)


def test_ext_pair_mode(tmp_path, capsys):
    alg_path = tmp_path / "kron.json"
    alg_path.write_text(json.dumps({
        "vertices": ["1", "2"],
        "arrows": [{"name": "al", "source": "1", "target": "2"},
                   {"name": "be", "source": "1", "target": "2"}],
        "max_path_length": 1,
    }))
    s_path = tmp_path / "s.json"
    s_path.write_text(json.dumps({"layers": [[1, 0], [0, 1]]}))
    code, out = run(capsys, ["ext", "--k", "1", "--algebra", str(alg_path),
                             "--seq", str(s_path), "--seq2", str(s_path)])
    assert code == 0
    assert json.loads(out)["ext_dim"] == 0


def test_generic_dot_and_critical_dot(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["generic", "--format", "dot",
                             "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and out.startswith("digraph skeleton")
    code, out = run(capsys, ["critical", "--format", "dot",
                             "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and "style=dashed" in out and "shape=point" not in out


RELAY = {"vertices": ["1", "2", "3"], "max_path_length": 3, "arrows": [
    {"name": n, "source": s, "target": t} for n, s, t in
    (("a1", "1", "2"), ("a2", "1", "2"), ("b", "2", "3"), ("g1", "3", "2"), ("g2", "3", "2"))]}
DOT_LAYERS = {"double_back": "[[1,1],[0,1],[1,0]]", "relay": "[[1,0,0],[0,1,0],[0,0,1],[0,1,0]]"}
DOT_COMMANDS = {"skeleta": ["skeleta", "--format", "dot"],
                "critical": ["critical", "--format", "dot"],
                "generic": ["generic", "--format", "dot"],
                "generic-graded": ["generic", "--graded", "--format", "dot"],
                "hypergraph": ["hypergraph", "--dot"]}
# exact DOT output; hypergraph --dot draws the generic presentation
DOT = {
    ("double_back", "skeleta"): """\
digraph skeleton {
  rankdir=TB;
  "z1" [label="1"];
  "z2" [label="2"];
  "z1_a" [label="2"];
  "z1_b1_a" [label="1"];
  "z1" -> "z1_a" [label="a", style=solid];
  "z1_a" -> "z1_b1_a" [label="b1", style=solid];
}
""",
    ("double_back", "critical"): """\
digraph skeleton {
  rankdir=TB;
  "z1" [label="1"];
  "z2" [label="2"];
  "z1_a" [label="2"];
  "z1_b1_a" [label="1"];
  "z1" -> "z1_a" [label="a", style=solid];
  "z1_a" -> "z1_b1_a" [label="b1", style=solid];
  "crit0" [label="1"];
  "z2" -> "crit0" [label="b1", style=dashed];
  "crit1" [label="1"];
  "z2" -> "crit1" [label="b2", style=dashed];
  "crit2" [label="1"];
  "z1_a" -> "crit2" [label="b2", style=dashed];
}
""",
    ("double_back", "generic"): """\
digraph skeleton {
  rankdir=TB;
  "z1" [label="1"];
  "z2" [label="2"];
  "z1_a" [label="2"];
  "z1_b1_a" [label="1"];
  "z1" -> "z1_a" [label="a", style=solid];
  "z1_a" -> "z1_b1_a" [label="b1", style=solid];
  "crit0" [label="1"];
  "z2" -> "crit0" [label="b1", style=dashed];
  "hyper0" [shape=point];
  "hyper0" -> "crit0" [style=dotted, dir=none];
  "hyper0" -> "z1_b1_a" [style=dotted, dir=none];
  "crit1" [label="1"];
  "z2" -> "crit1" [label="b2", style=dashed];
  "hyper1" [shape=point];
  "hyper1" -> "crit1" [style=dotted, dir=none];
  "hyper1" -> "z1_b1_a" [style=dotted, dir=none];
  "crit2" [label="1"];
  "z1_a" -> "crit2" [label="b2", style=dashed];
  "hyper2" [shape=point];
  "hyper2" -> "crit2" [style=dotted, dir=none];
  "hyper2" -> "z1_b1_a" [style=dotted, dir=none];
}
""",
    ("double_back", "generic-graded"): """\
digraph skeleton {
  rankdir=TB;
  "z1" [label="1"];
  "z2" [label="2"];
  "z1_a" [label="2"];
  "z1_b1_a" [label="1"];
  "z1" -> "z1_a" [label="a", style=solid];
  "z1_a" -> "z1_b1_a" [label="b1", style=solid];
  "crit0" [label="1"];
  "z2" -> "crit0" [label="b1", style=dashed];
  "crit1" [label="1"];
  "z2" -> "crit1" [label="b2", style=dashed];
  "crit2" [label="1"];
  "z1_a" -> "crit2" [label="b2", style=dashed];
  "hyper2" [shape=point];
  "hyper2" -> "crit2" [style=dotted, dir=none];
  "hyper2" -> "z1_b1_a" [style=dotted, dir=none];
}
""",
    ("relay", "skeleta"): """\
digraph skeleton {
  rankdir=TB;
  "z1" [label="1"];
  "z1_a1" [label="2"];
  "z1_b_a1" [label="3"];
  "z1_g1_b_a1" [label="2"];
  "z1" -> "z1_a1" [label="a1", style=solid];
  "z1_a1" -> "z1_b_a1" [label="b", style=solid];
  "z1_b_a1" -> "z1_g1_b_a1" [label="g1", style=solid];
}
""",
    ("relay", "critical"): """\
digraph skeleton {
  rankdir=TB;
  "z1" [label="1"];
  "z1_a1" [label="2"];
  "z1_b_a1" [label="3"];
  "z1_g1_b_a1" [label="2"];
  "z1" -> "z1_a1" [label="a1", style=solid];
  "z1_a1" -> "z1_b_a1" [label="b", style=solid];
  "z1_b_a1" -> "z1_g1_b_a1" [label="g1", style=solid];
  "crit0" [label="2"];
  "z1" -> "crit0" [label="a2", style=dashed];
  "crit1" [label="2"];
  "z1_b_a1" -> "crit1" [label="g2", style=dashed];
}
""",
    ("relay", "generic"): """\
digraph skeleton {
  rankdir=TB;
  "z1" [label="1"];
  "z1_a1" [label="2"];
  "z1_b_a1" [label="3"];
  "z1_g1_b_a1" [label="2"];
  "z1" -> "z1_a1" [label="a1", style=solid];
  "z1_a1" -> "z1_b_a1" [label="b", style=solid];
  "z1_b_a1" -> "z1_g1_b_a1" [label="g1", style=solid];
  "crit0" [label="2"];
  "z1" -> "crit0" [label="a2", style=dashed];
  "hyper0" [shape=point];
  "hyper0" -> "crit0" [style=dotted, dir=none];
  "hyper0" -> "z1_a1" [style=dotted, dir=none];
  "hyper0" -> "z1_g1_b_a1" [style=dotted, dir=none];
  "crit1" [label="2"];
  "z1_b_a1" -> "crit1" [label="g2", style=dashed];
  "hyper1" [shape=point];
  "hyper1" -> "crit1" [style=dotted, dir=none];
  "hyper1" -> "z1_g1_b_a1" [style=dotted, dir=none];
}
""",
    ("relay", "generic-graded"): """\
digraph skeleton {
  rankdir=TB;
  "z1" [label="1"];
  "z1_a1" [label="2"];
  "z1_b_a1" [label="3"];
  "z1_g1_b_a1" [label="2"];
  "z1" -> "z1_a1" [label="a1", style=solid];
  "z1_a1" -> "z1_b_a1" [label="b", style=solid];
  "z1_b_a1" -> "z1_g1_b_a1" [label="g1", style=solid];
  "crit0" [label="2"];
  "z1" -> "crit0" [label="a2", style=dashed];
  "hyper0" [shape=point];
  "hyper0" -> "crit0" [style=dotted, dir=none];
  "hyper0" -> "z1_a1" [style=dotted, dir=none];
  "crit1" [label="2"];
  "z1_b_a1" -> "crit1" [label="g2", style=dashed];
  "hyper1" [shape=point];
  "hyper1" -> "crit1" [style=dotted, dir=none];
  "hyper1" -> "z1_g1_b_a1" [style=dotted, dir=none];
}
""",
}


@pytest.mark.parametrize("command", DOT_COMMANDS)
@pytest.mark.parametrize("fixture", DOT_LAYERS)
def test_dot_output_is_pinned(double_back_file, tmp_path, capsys, fixture, command):
    alg_path = double_back_file
    if fixture == "relay":
        alg_path = tmp_path / "relay.json"
        alg_path.write_text(json.dumps(RELAY))
    code, out = run(capsys, DOT_COMMANDS[command] + ["--algebra", str(alg_path),
                                                     "--layers", DOT_LAYERS[fixture]])
    assert code == 0
    assert out == DOT[fixture, "generic" if command == "hypergraph" else command]


DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')  # a quoted DOT string, its escapes kept


def test_dot_ids_do_not_collide(tmp_path, capsys):
    # arrows a: 1 -> 2, b: 2 -> 3 and b_a: 1 -> 3: the members b_a z1 and b a z1 are two
    # nodes, and each edge ends on its own member
    alg_path = tmp_path / "collide.json"
    alg_path.write_text(json.dumps({"vertices": ["1", "2", "3"], "max_path_length": 2,
                                    "arrows": [{"name": n, "source": s, "target": t} for n, s, t
                                               in (("a", "1", "2"), ("b", "2", "3"),
                                                   ("b_a", "1", "3"))]}))
    argv = ["--algebra", str(alg_path), "--layers", "[[1,0,0],[0,1,1],[0,0,1]]"]
    code, out = run(capsys, ["skeleta", *argv])
    members = json.loads(out)["skeleta"][0]["elements"]
    code, out = run(capsys, ["skeleta", "--format", "dot", *argv])
    assert code == 0
    lines = out.splitlines()
    nodes = [DOT_STRING.findall(line)[0] for line in lines if "[label=" in line and "->" not in line]
    assert len(nodes) == len(set(nodes)) == len(members) == 4
    edges = [DOT_STRING.findall(line)[:2] for line in lines if " -> " in line]
    assert {end for edge in edges for end in edge} <= set(nodes)
    assert len({target for _, target in edges}) == len(edges) == 3


def test_dot_quotes_every_name(tmp_path, capsys):
    # a vertex name holding a double quote and an arrow name ending in a backslash: every
    # quote of the DOT is inside a balanced string, and the labels unescape to the names
    alg_path = tmp_path / "quoted.json"
    alg_path.write_text(json.dumps({"vertices": ['a"b', "2"], "max_path_length": 1, "arrows": [
        {"name": "x\\", "source": 'a"b', "target": "2"}]}))
    code, out = run(capsys, ["generic", "--format", "dot", "--algebra", str(alg_path),
                             "--layers", "[[1,0],[0,1]]"])
    assert code == 0
    strings = []
    for line in out.splitlines():
        assert '"' not in DOT_STRING.sub("", line)
        strings += [re.sub(r"\\(.)", r"\1", s) for s in DOT_STRING.findall(line)]
    assert {'a"b', "x\\"} <= set(strings)


# -- metamorphic: arrow order and arrow names reach no output -----------------------

@pytest.mark.parametrize("fixture, layers", [("double_back", "[[1,1],[0,1],[1,0]]"),
                                             ("relay", "[[2,1,1],[0,5,1],[0,0,3],[0,1,0]]")],
                         ids=["readme", "relay-d14"])
def test_arrow_reorder_and_rename_changes_no_output(tmp_path, capsys, fixture, layers):
    # the arrows reversed and renamed n0, n1, ...: the relation matrices the elimination
    # walk ranks can change (ext's do on relay), and every value, seeded ones included,
    # stays the same
    vertices, arrows, L = COMPONENT_ALGEBRAS[fixture]
    outputs = []
    for listed in (arrows, [(f"n{k}", s, t) for k, (_, s, t) in enumerate(reversed(arrows))]):
        path = tmp_path / f"{len(outputs)}.json"
        path.write_text(json.dumps({"vertices": vertices, "max_path_length": L, "arrows": [
            {"name": a, "source": s, "target": t} for a, s, t in listed]}))
        outputs.append([run(capsys, [*argv, "--algebra", str(path), "--layers", layers])
                        for argv in (["realizable"], ["skeleta", "--count-only"],
                                     ["geometry"], ["socle"], ["projdim"], ["syzygy"],
                                     ["hom"], ["ext", "--k", "1"], ["decompose"])])
    original, transformed = ([(code, json.loads(out)) for code, out in runs] for runs in outputs)
    assert all(code == 0 for code, _ in original)
    assert transformed == original


def test_disjoint_union_adds_its_parts(tmp_path, capsys):
    # relay at d = 14 and the README algebra at L = 3, joined with their vertices and arrows
    # renamed: counts multiply, dimensions add, socles and syzygies concatenate, and the
    # union, though each part is undecided, is certified decomposable
    parts = {"r": ("relay", [[2, 1, 1], [0, 5, 1], [0, 0, 3], [0, 1, 0]]),
             "d": ("double_back", [[1, 1], [0, 1], [1, 0], [0, 0]])}
    commands = {"count": ["skeleta", "--count-only"], "geometry": ["geometry"],
                "socle": ["socle"], "hom": ["hom"], "ext": ["ext", "--k", "1"],
                "decompose": ["decompose"], "syzygy": ["syzygy", "--k", "1"],
                "projdim": ["projdim"]}

    def outputs(name, vertices, arrows, layers):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"vertices": vertices, "max_path_length": 3, "arrows": [
            {"name": a, "source": s, "target": t} for a, s, t in arrows]}))
        runs = {key: run(capsys, [*argv, "--algebra", str(path), "--layers", json.dumps(layers)])
                for key, argv in commands.items()}
        assert all(code == 0 for code, _ in runs.values())
        return {key: json.loads(out) for key, (_, out) in runs.items()}

    alone, vertices, arrows = {}, [], []
    for tag, (fixture, layers) in parts.items():
        vs, arrs, _ = COMPONENT_ALGEBRAS[fixture]
        alone[tag] = outputs(fixture, vs, arrs, layers)
        vertices += [tag + v for v in vs]
        arrows += [(f"{tag}{a}", tag + s, tag + t) for a, s, t in arrs]
    union = outputs("union", vertices, arrows,
                    [a + b for a, b in zip(parts["r"][1], parts["d"][1])])
    r, d = alone["r"], alone["d"]
    assert union["count"] == {"count": 720} == {"count": r["count"]["count"] * d["count"]["count"]}
    for key, value in (("N", 22), ("N0", 17), ("N1", 5)):
        assert union["geometry"][key] == value == r["geometry"][key] + d["geometry"][key]
    assert union["socle"]["socle"] == [0, 3, 2, 1, 0] == r["socle"]["socle"] + d["socle"]["socle"]
    assert union["hom"]["hom_dim"] == 11 == r["hom"]["hom_dim"] + d["hom"]["hom_dim"]
    assert union["ext"]["ext_dim"] == 36 == r["ext"]["ext_dim"] + d["ext"]["ext_dim"]
    assert r["decompose"]["verdict"] == d["decompose"]["verdict"] == "undecided"
    assert union["decompose"]["verdict"] == "decomposable-certified"
    assert union["syzygy"] == sorted(
        ({**c, "vertex": tag + c["vertex"]} for tag in parts for c in alone[tag]["syzygy"]),
        key=lambda c: (c["vertex"], c["truncation"]))
    assert union["projdim"] == r["projdim"] == d["projdim"] == {"projdim": "infinity"}


RELAY_D14 = [[2, 1, 1], [0, 5, 1], [0, 0, 3], [0, 1, 0]]
NINE_COMMANDS = {"realizable": ["realizable"], "count": ["skeleta", "--count-only"],
                 "geometry": ["geometry"], "socle": ["socle"], "projdim": ["projdim"],
                 "syzygy": ["syzygy", "--k", "1"], "hom": ["hom"], "ext": ["ext", "--k", "1"],
                 "decompose": ["decompose"]}


def relay_outputs(tmp_path, capsys, vertices, L, layers):
    """The nine subcommands' parsed stdout on the relay quiver, vertices listed in the order
    given and paths bounded by L, each after checking that it exits 0."""
    path = tmp_path / f"relay-{''.join(vertices)}-{L}.json"
    path.write_text(json.dumps({"vertices": vertices, "max_path_length": L, "arrows": [
        {"name": a, "source": s, "target": t} for a, s, t in COMPONENT_ALGEBRAS["relay"][1]]}))
    runs = {key: run(capsys, [*argv, "--algebra", str(path), "--layers", json.dumps(layers)])
            for key, argv in NINE_COMMANDS.items()}
    assert all(code == 0 for code, _ in runs.values())
    return {key: json.loads(out) for key, (_, out) in runs.items()}


def test_vertex_permutation_permutes_socle_and_geometry_factors(tmp_path, capsys):
    # relay at d = 14, its vertices listed as 3, 1, 2 and the columns of S with them: the
    # socle and each level's geometry factors come in the new vertex order, and every other
    # value, the syzygy (sorted by vertex name) and the seeded ones included, is equal
    order = [2, 0, 1]
    original = relay_outputs(tmp_path, capsys, ["1", "2", "3"], 3, RELAY_D14)
    permuted = relay_outputs(tmp_path, capsys, ["3", "1", "2"], 3,
                             [[row[i] for i in order] for row in RELAY_D14])
    socle = original["socle"].pop("socle")
    assert permuted["socle"].pop("socle") == [socle[i] for i in order]
    for level in original["geometry"]["tower"]:
        level["factors"] = [level["factors"][i] for i in order]
    assert permuted == original


def test_zero_layer_appended_keeps_the_module_values(tmp_path, capsys):
    # relay at d = 14 against L = 4 and S + [0]: the modules are the same, so the skeleton
    # count, N, N0, N1, socle, projdim, hom and the decompose verdict are equal; the
    # projectives gain a layer, so each syzygy summand reappears one longer, beside new
    # simple summands, and ext changes (33 -> 49) and is not compared
    original = relay_outputs(tmp_path, capsys, ["1", "2", "3"], 3, RELAY_D14)
    padded = relay_outputs(tmp_path, capsys, ["1", "2", "3"], 4, RELAY_D14 + [[0, 0, 0]])
    for key in ("realizable", "count", "socle", "projdim", "hom"):
        assert padded[key] == original[key]
    for key in ("N", "N0", "N1"):
        assert padded["geometry"][key] == original["geometry"][key]
    assert padded["decompose"]["verdict"] == original["decompose"]["verdict"] == "undecided"
    longer = [{**c, "truncation": c["truncation"] + 1} for c in original["syzygy"]]
    assert [c for c in padded["syzygy"] if c not in longer] == [
        {"vertex": "3", "truncation": 1, "multiplicity": 1}]
    assert all(c in padded["syzygy"] for c in longer)


def test_sequences_with_top(double_back_file, capsys):
    code, out = run(capsys, ["sequences", "--algebra", double_back_file,
                             "--dimvec", "2,2", "--top", "2,0"])
    data = json.loads(out)
    assert code == 0 and data["count"] == 1
    assert data["sequences"][0]["layers"] == [[2, 0], [0, 2], [0, 0]]



@pytest.mark.parametrize("command", ["sequences", "components"])
@pytest.mark.parametrize("top", ["-1", "1,1,1", "-1,2"])
def test_malformed_top_exits_2(double_back_file, capsys, command, top):
    # a short top was an IndexError traceback, a negative entry a silent empty answer
    code = main([command, "--algebra", double_back_file, "--dimvec", "2,1", "--top=" + top])
    assert code == 2 and "top must have" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sequences", "components"])
def test_empty_top_exits_2(double_back_file, capsys, command):
    # an empty top is malformed, as an empty --dimvec is, not "no top" (all 9 sequences)
    code = main([command, "--algebra", double_back_file, "--dimvec", "2,2", "--top", ""])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: malformed dimension vector ''\n"

def test_bad_modulus_exits_2(double_back_file, deep_file):
    assert main(["socle", "--algebra", double_back_file, "--seq", deep_file,
                 "--modulus", "15"]) == 2


# 399165290221 * 798330580441, the least strong pseudoprime to every prime base up to 37
PSEUDOPRIME_TO_37 = 318665857834031151167461


def test_strong_pseudoprime_modulus_exits_2(double_back_file, deep_file, capsys):
    argv = ["hom", "--algebra", double_back_file, "--seq", deep_file, "--modulus"]
    assert main(argv + [str(PSEUDOPRIME_TO_37)]) == 2
    assert capsys.readouterr().err == f"error: {PSEUDOPRIME_TO_37} is not prime\n"
    assert main(argv + [str(2**31 - 1)]) == 0


@pytest.mark.parametrize("argv", [
    ["skeleta", "--layers", "[[1,0],[0,0],[1,0]]"],  # unrealizable: 0 skeleta
    ["skeleta", "--layers", "[[1,1],[0,1],[1,0]]"],
    ["sequences", "--dimvec", "2,2"],
    ["sequences", "--dimvec", "0,0"],  # an empty enumeration
    ["components", "--dimvec", "2,2"],
    ["point-skeleta", "--module", "missing.json"],  # refused before the file is read
], ids=["skeleta-unrealizable", "skeleta", "sequences", "sequences-empty", "components",
        "point-skeleta"])
def test_negative_cap_exits_2_before_any_work(double_back_file, capsys, argv):
    assert main(argv + ["--algebra", double_back_file, "--cap", "-1"]) == 2
    assert capsys.readouterr().err == "error: --cap must be >= 0, got -1\n"


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_negative_max_top_dim_exits_2_before_any_work(capsys, fmt):
    # refused before the algebra file is read, as a negative --cap is
    assert main(["components", "--algebra", "missing.json", "--dimvec", "2,2",
                 "--max-top-dim", "-1", "--format", fmt]) == 2
    assert capsys.readouterr().err == "error: --max-top-dim must be >= 0, got -1\n"


@pytest.mark.parametrize("cap", [[], ["--cap", "10"]], ids=["no-cap", "cap"])
def test_huge_dimvec_entry_answers(double_back_file, capsys, cap):
    # each coordinate is bisected, so an entry of 10**20 costs a few dozen probes: the
    # six layerings of (N, 1), as at N = 3
    N = 10**20
    code, out = run(capsys, ["sequences", "--algebra", double_back_file,
                             "--dimvec", f"{N},1"] + cap)
    assert code == 0
    assert [S["layers"] for S in json.loads(out)["sequences"]] == [
        [[N - 2, 0], [0, 1], [2, 0]], [[N - 2, 1], [2, 0], [0, 0]],
        [[N - 1, 0], [0, 1], [1, 0]], [[N - 1, 1], [1, 0], [0, 0]],
        [[N, 0], [0, 1], [0, 0]], [[N, 1], [0, 0], [0, 0]]]


@pytest.mark.parametrize("cap", [[], ["--cap", "10"]], ids=["no-cap", "cap"])
def test_huge_dimvec_entry_components(double_back_file, capsys, cap):
    # the same six layerings, sifted: their 30 ordered pairs are within the default cap,
    # and a cap of 10 stops at the pairs, not at the sequences or an overflow
    code = main(["components", "--algebra", double_back_file, "--dimvec", f"{10**20},1"] + cap)
    out, err = capsys.readouterr()
    if cap:
        assert code == 3 and out == "" and err == "error: 30 ordered pairs exceed cap of 10\n"
    else:
        assert code == 0 and len(json.loads(out)["sequences"]) == 6


def test_huge_dimvec_cap_exits_3(double_back_file, capsys):
    # (N, N) has more than 10 layerings: the cap stops the walk at once
    code = main(["sequences", "--algebra", double_back_file, "--dimvec", f"{10**20},{10**20}",
                 "--cap", "10"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "error: realizable sequences exceed cap of 10\n"


@pytest.mark.parametrize("command", ["skeleta", "critical"])
def test_huge_layer_entry_exits_3(double_back_file, capsys, command):
    # listing 10**20 top elements is refused by the interpreter (a list too long to
    # hold), which is an input too large to hold, not a traceback
    code = main([command, "--algebra", double_back_file,
                 "--layers", f"[[{10**20},0],[0,0],[0,0]]"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "error: input too large to hold (OverflowError)\n"


def test_sequences_cap_bounds_the_probes(double_back_file, capsys, monkeypatch):
    # the walk stops at the cap, not after a scan of all 200,002 tops of (100000, 1)
    # (400,006 extension counts when the tops were scanned)
    from genrep.algebra_core import TruncatedAlgebra
    calls, real = [], TruncatedAlgebra.extension_counts
    monkeypatch.setattr(TruncatedAlgebra, "extension_counts",
                        lambda self, layer: calls.append(layer) or real(self, layer))
    code, out = run(capsys, ["sequences", "--algebra", double_back_file,
                             "--dimvec", "100000,1", "--cap", "10"])
    assert code == 0 and json.loads(out)["count"] == 6
    assert len(calls) <= 100


def test_bad_dimvec_exits_2(double_back_file):
    assert main(["sequences", "--algebra", double_back_file, "--dimvec", "a,b"]) == 2


@pytest.mark.parametrize("command", ["sequences", "components"])
def test_mixed_sign_dimvec_exits_2(double_back_file, capsys, command):
    # one negative entry among positive ones is refused, not an empty answer
    code = main([command, "--algebra", double_back_file, "--dimvec=-1,3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: negative entry in dimension vector\n"


@pytest.mark.parametrize("bound", ['"x"', "1e999"])
def test_malformed_max_path_length_exits_2(tmp_path, capsys, bound):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": ["1"], "arrows": [], "max_path_length": %s}' % bound)
    code = main(["realizable", "--algebra", str(path), "--layers", "[[1],[0]]"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: malformed algebra input") and "Traceback" not in err


@pytest.mark.parametrize("layers", ["[[1.9,1],[0,1],[1,0]]", "[[1.0,1],[0,1],[1,0]]",
                                    "[[true,1],[0,1],[1,0]]", '[["1",1],[0,1],[1,0]]'])
def test_non_integer_layer_entry_exits_2(double_back_file, capsys, layers):
    code = main(["realizable", "--algebra", double_back_file, "--layers", layers])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: malformed sequence input") and "Traceback" not in err


@pytest.mark.parametrize("layers, got", [
    ("[[1.9,1],[0,1],[1,0]]", "1.9"), ('[["2",1],[0,1],[1,0]]', "'2'"),
    ("[[true,1],[0,1],[1,0]]", "True")], ids=["float", "str", "bool"])
def test_non_int_layer_entry_names_the_entry(double_back_file, capsys, layers, got):
    # the JSON reader refuses the entry before any sequence is built, so SemisimpleSequence's
    # own check leaves the message as it was
    code = main(["realizable", "--algebra", double_back_file, "--layers", layers])
    assert code == 2
    assert capsys.readouterr().err == f"error: malformed sequence input: expected int, got {got}\n"


@pytest.mark.parametrize("layers, got", [
    ('{"0": [1, 1], "1": [0, 1]}', "{'0': [1, 1], '1': [0, 1]}"),
    ('"110110"', "'110110'"),
    ('[[1,1],"01",[1,0]]', "'01'"),
    ('[[1,1],{"0": 0, "1": 1},[1,0]]', "{'0': 0, '1': 1}"),
], ids=["dict", "string", "string-row", "dict-row"])
def test_layers_and_rows_must_be_lists(double_back_file, capsys, layers, got):
    # neither a dict's keys nor a string's characters are read as layers or entries
    code = main(["realizable", "--algebra", double_back_file, "--layers", layers])
    assert code == 2
    assert capsys.readouterr().err == f"error: malformed sequence input: expected list, got {got}\n"


@pytest.mark.parametrize("bound", ["true", "2.0", '"2"'])
def test_non_integer_max_path_length_exits_2(tmp_path, capsys, bound):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": ["1"], "arrows": [], "max_path_length": %s}' % bound)
    assert main(["realizable", "--algebra", str(path), "--layers", "[[1],[0]]"]) == 2
    assert capsys.readouterr().err.startswith("error: malformed algebra input")


@pytest.mark.parametrize("vertices", ["3", "true", "null", '"12"', '{"1": 1}'])
def test_non_list_vertices_exit_2(tmp_path, capsys, vertices):
    # a string of vertex names was read as one vertex per character
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": %s, "arrows": [], "max_path_length": 1}' % vertices)
    code = main(["realizable", "--algebra", str(path), "--layers", "[[1],[0]]"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: malformed algebra input") and "Traceback" not in err


@pytest.mark.parametrize("vertices, arrow", [
    ('[null, true]', '{"name": "a", "source": null, "target": true}'),
    ('[1, 2]', '{"name": "a", "source": "1", "target": "2"}'),
    ('["1", "2"]', '{"name": null, "source": "1", "target": "2"}'),
    ('["1", "2"]', '{"name": [1], "source": "1", "target": "2"}'),
    ('["1", "2"]', '{"name": "a", "source": 1, "target": "2"}'),
], ids=["vertices-null-true", "vertices-int", "name-null", "name-list", "source-int"])
def test_non_string_identifiers_exit_2(tmp_path, capsys, vertices, arrow):
    # identifiers were turned into text: null and true became the vertices "None" and "True"
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": %s, "arrows": [%s], "max_path_length": 1}' % (vertices, arrow))
    code = main(["realizable", "--algebra", str(path), "--layers", "[[1,0],[0,1]]"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: malformed algebra input") and "Traceback" not in err


@pytest.mark.parametrize("mutate", [
    lambda data: data["tops"][0].__setitem__("vertex", 1),
    lambda data: data["tops"][2].__setitem__("vertex", None),
    lambda data: data["relations"][2][0].__setitem__("arrows", [None]),
    lambda data: data["relations"][0][0].__setitem__("arrows", ["b2", ["al"]]),
], ids=["vertex-int", "vertex-null", "arrow-null", "arrow-list"])
def test_non_string_module_point_identifiers_exit_2(point_files, capsys, mutate):
    mod_path = point_files[-1]
    data = json.loads(Path(mod_path).read_text())
    mutate(data)
    with open(mod_path, "w") as fh:
        json.dump(data, fh)
    assert main(["point-skeleta"] + point_files) == 2
    assert capsys.readouterr().err.startswith("error: malformed module point")

@pytest.mark.parametrize("mutate", [
    lambda data: data["relations"].__setitem__(0, {"coeff": 1, "r": 1, "arrows": ["b2", "al"]}),
    lambda data: data["relations"][0].__setitem__(0, [1, 1, ["b2", "al"]]),
    lambda data: data["relations"][2][0].__setitem__("arrows", "g"),
], ids=["relation-object", "term-list", "arrows-string"])
def test_malformed_module_point_containers_exit_2(point_files, capsys, mutate):
    # "arrows": "g" used to be read as the path g, character by character
    mod_path = point_files[-1]
    data = json.loads(Path(mod_path).read_text())
    mutate(data)
    with open(mod_path, "w") as fh:
        json.dump(data, fh)
    assert main(["point-skeleta"] + point_files) == 2
    assert capsys.readouterr().err.startswith("error: malformed module point")


@pytest.mark.parametrize("flags", [[], ["--exact"]])
def test_zero_denominator_coefficient_exits_2(point_files, capsys, flags):
    # Fraction("1/0") raised ZeroDivisionError out of the loader
    mod_path = point_files[-1]
    data = json.loads(Path(mod_path).read_text())
    data["relations"][2][1]["coeff"] = "1/0"
    with open(mod_path, "w") as fh:
        json.dump(data, fh)
    assert main(["point-skeleta"] + point_files + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: malformed module point: Fraction(1, 0)")


DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("flag", ["--algebra", "--seq", "--module", "--layers"])
def test_deeply_nested_json_exits_2(tmp_path, double_back_file, point_files, capsys, flag):
    # json raised RecursionError on nesting this deep; each loader names its input
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    argv = {
        "--algebra": ["realizable", "--algebra", str(deep), "--layers", "[[1]]"],
        "--seq": ["realizable", "--algebra", double_back_file, "--seq", str(deep)],
        "--module": ["point-skeleta", point_files[0], point_files[1], "--module", str(deep)],
        "--layers": ["realizable", "--algebra", double_back_file, "--layers", DEEP_JSON],
    }[flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    named = "--layers value" if flag == "--layers" else f"JSON in {deep}"
    assert captured.err.startswith(f"error: malformed {named}: maximum recursion depth")


OVER_DIGIT_LIMIT = "1" + "0" * 4999  # past the interpreter's 4300-digit default


@pytest.mark.parametrize("flag", ["--algebra", "--seq", "--seq2", "--module", "--layers"])
def test_integer_over_digit_limit_exits_2(tmp_path, double_back_file, deep_file, point_files,
                                          capsys, flag):
    # json.loads raises a plain ValueError on such an integer, not a JSONDecodeError
    argv = (["point-skeleta", *point_files] if flag == "--module" else
            ["hom", "--algebra", double_back_file, "--seq", deep_file, "--seq2", deep_file])
    if flag == "--layers":
        argv = ["hom", "--algebra", double_back_file,
                "--layers", f"[[{OVER_DIGIT_LIMIT},1],[0,1],[1,0]]"]
    else:
        data = json.loads(Path(argv[argv.index(flag) + 1]).read_text())
        if flag == "--algebra":
            data["max_path_length"] = "BIG"
        elif flag == "--module":
            data["relations"][0][0]["coeff"] = "BIG"
        else:
            data["layers"][0][0] = "BIG"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data).replace('"BIG"', OVER_DIGIT_LIMIT))
        argv[argv.index(flag) + 1] = str(path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    named = "--layers value" if flag == "--layers" else f"JSON in {tmp_path / 'big.json'}"
    assert captured.err.startswith(f"error: malformed {named}: Exceeds the limit")


@pytest.mark.parametrize("r", [1.0, True, "1"])
def test_non_integer_top_index_exits_2(point_files, capsys, r):
    mod_path = point_files[-1]
    data = json.loads(Path(mod_path).read_text())
    data["relations"][0][0]["r"] = r
    with open(mod_path, "w") as fh:
        json.dump(data, fh)
    assert main(["point-skeleta"] + point_files) == 2
    assert capsys.readouterr().err.startswith("error: malformed module point")


@pytest.mark.parametrize("command", ["hom", "socle", "point-skeleta"])
@pytest.mark.parametrize("flags", [["--modulus", "0"], ["--exact", "--modulus", "1000003"]])
def test_conflicting_or_zero_field_flags_exit_2(double_back_file, deep_file, point_files,
                                                capsys, command, flags):
    inputs = (point_files if command == "point-skeleta"
              else ["--algebra", double_back_file, "--seq", deep_file])
    assert main([command] + inputs + flags) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_point_skeleta_field_flags(point_files, capsys):
    # rationals by default and with --exact; F_p with a prime --modulus
    for flags in ([], ["--exact"], ["--modulus", "1000003"]):
        code, out = run(capsys, ["point-skeleta"] + point_files + flags)
        assert code == 0 and json.loads(out)["count"] == 3


# -- per-subcommand flag sets ---------------------------------------------------

@pytest.mark.parametrize("command,flags", [
    ("realizable", ["--modulus", "15"]),
    ("realizable", ["--format", "dot"]),
    ("geometry", ["--format", "dot"]),
    ("projdim", ["--exact"]),
    ("syzygy", ["--seed", "3"]),
    ("critical", ["--cap", "5"]),
    ("critical", ["--format", "text"]),
    ("socle", ["--format", "dot"]),
    ("hom", ["--cap", "5"]),
])
def test_sequence_command_rejects_foreign_flag(double_back_file, deep_file, capsys,
                                               command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--algebra", double_back_file, "--seq", deep_file] + flags)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments" in err or "invalid choice" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,flags", [
    ("sequences", ["--seed", "1"]),
    ("sequences", ["--max-top-dim", "2"]),
    ("components", ["--index", "0"]),
    ("components", ["--format", "text"]),
])
def test_dimvec_command_rejects_foreign_flag(double_back_file, capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--algebra", double_back_file, "--dimvec", "1,1"] + flags)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seed", "1"], ["--format", "dot"]])
def test_point_skeleta_rejects_foreign_flag(point_files, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["point-skeleta"] + point_files + flags)
    assert exc.value.code == 2


def test_honoured_flags_still_accepted(double_back_file, deep_file, point_files, capsys):
    seq_inputs = ["--algebra", double_back_file, "--seq", deep_file]
    for argv in (["skeleta", "--format", "text", "--cap", "5"],
                 ["generic", "--format", "dot"], ["hypergraph", "--format", "json"],
                 ["decompose", "--seed", "2", "--exact"], ["ext", "--modulus", "1000003"]):
        assert main(argv[:1] + seq_inputs + argv[1:]) == 0
    assert main(["components", "--algebra", double_back_file, "--dimvec", "1,1",
                 "--seed", "4", "--modulus", "1000003", "--format", "dot"]) == 0
    assert main(["point-skeleta"] + point_files + ["--exact", "--cap", "10"]) == 0


# -- module-point coefficients --------------------------------------------------

@pytest.mark.parametrize("field", [[], ["--modulus", "1000003"]], ids=["Q", "Fp"])
@pytest.mark.parametrize("coeff", [1.9, 1.0, True])
def test_non_integer_coefficient_exits_2(point_files, capsys, field, coeff):
    mod_path = point_files[-1]
    data = json.loads(Path(mod_path).read_text())
    data["relations"][0][0]["coeff"] = coeff
    with open(mod_path, "w") as fh:
        json.dump(data, fh)
    assert main(["point-skeleta"] + point_files + field) == 2
    assert capsys.readouterr().err.startswith("error: malformed module point")


@pytest.mark.parametrize("field", [[], ["--modulus", "1000003"]], ids=["Q", "Fp"])
@pytest.mark.parametrize("coeff", [1, "1"])
def test_integer_or_string_coefficient_accepted(point_files, capsys, field, coeff):
    mod_path = point_files[-1]
    data = json.loads(Path(mod_path).read_text())
    data["relations"][0][0]["coeff"] = coeff
    with open(mod_path, "w") as fh:
        json.dump(data, fh)
    code, out = run(capsys, ["point-skeleta"] + point_files + field)
    assert code == 0 and json.loads(out)["count"] == 3


# -- JSON emitter ---------------------------------------------------------------

ESCAPES = st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é \U0001F600ab')
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
    | st.floats() | st.text() | ESCAPES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text() | ESCAPES, inner, max_size=4)
                   | st.dictionaries(st.integers() | st.text(), inner, max_size=3)),
    max_leaves=30)


@given(JSON_VALUES)
def test_dumps_matches_json_dumps(value):
    assert _dumps(value, "\n", {}) == json.dumps(value, indent=2)


@given(JSON_VALUES, st.integers(), st.text() | ESCAPES)
def test_dumps_shared_blocks_at_every_depth(value, number, text):
    # one list or dict object reused at several depths encodes by its own depth each
    # time; ints, strs and blocks already encoded at that depth are put in place
    block = [value, [value]]
    entry = {"r": number, "arrows": [text, value], "block": block, "empty": {}, "none": []}
    data = {"a": block, "b": [block, {"c": block}], "d": (block, block),
            "rows": [entry, [entry, [entry]], {"e": entry}, (number, text, entry)],
            "entry": entry, "top": [entry, [], {}]}
    memo = {}
    assert _dumps(data, "\n", memo) == json.dumps(data, indent=2)
    # a second encoding reads every block back from the memo
    assert _dumps(data, "\n", memo) == json.dumps(data, indent=2)


@pytest.mark.parametrize("field, points", [(["--exact"], 1), ([], 3)])
def test_each_seeded_point_is_evaluated_once(double_back_file, deep_file, capsys,
                                             monkeypatch, field, points):
    # over Q seeded_assignment draws one point at every seed, so hom, hom --seq2,
    # decompose and ext evaluate it once; the records still name all three seeds
    calls, real = [], matrix_rep._presented_hom_dims
    monkeypatch.setattr(matrix_rep, "_presented_hom_dims", lambda pres, rep_n, points:
                        calls.extend(points) or real(pres, rep_n, points))
    per_seed = [{"seed": s, "alternating": 1, "restriction": 1} for s in (4, 5, 6)]
    end_dims = [{"seed": s, "end_dim": 2} for s in (4, 5, 6)]
    expected = [
        (["hom"], {"hom_dim": 2}),
        (["hom", "--seq2", deep_file], {"hom_dim": 2 if field else 1}),
        (["decompose"], {"verdict": "undecided", "witness": {"end_dims": end_dims}}),
        (["ext", "--k", "1"], {"ext_dim": 1, "k": 1, "per_seed": per_seed}),
    ]
    for command, data in expected:
        calls.clear()
        code, out = run(capsys, command + ["--algebra", double_back_file, "--seq", deep_file,
                                           "--seed", "4"] + field)
        data.update({"seed": 4, "field_modulus": None if field else matrix_rep.MERSENNE_61,
                     "confidence": "seeded-generic", "version": cli.__version__})
        assert code == 0 and out == json.dumps(data, indent=2) + "\n", command
        assert len(calls) == points, command


def _count_calls(monkeypatch, fn):
    """The argument tuples of every call of ``fn``, through any genrep module that holds it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "genrep" or name.startswith("genrep."):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("command, spied, expected", [
    # Omega^2 + Omega^1 of the README layering has three cyclic types that are not
    # projective; each type's paths are enumerated once for all three points
    (["ext", "--k", "2"], "algebra_core.enumerate_paths", 3),
    # decompose builds the graded and the ungraded presentation from one critical_paths
    (["decompose"], "skeleta.critical_paths", 1),
], ids=["ext-k2", "decompose"])
def test_seeded_jobs_do_shared_work_once(double_back_file, deep_file, capsys, monkeypatch,
                                         command, spied, expected):
    module, name = spied.split(".")
    calls = _count_calls(monkeypatch, getattr(importlib.import_module(f"genrep.{module}"), name))
    code, _ = run(capsys, command + ["--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and len(calls) == expected


@pytest.mark.parametrize("command, one_seed", [
    (["hom"], lambda alg, S: matrix_rep.generic_end_dim(alg, S, seeds=(0,))),
    (["decompose"], lambda alg, S: matrix_rep.decomposability(alg, S, seeds=(0,))),
    (["ext", "--k", "1"], lambda alg, S: matrix_rep.ext_dim_detail(alg, S, None, 1, (0,))),
], ids=["hom", "decompose", "ext-k1"])
def test_three_seeds_do_the_work_of_one(tmp_path, capsys, monkeypatch, command, one_seed):
    # over F_p the three seeds' points are one module of value triples: relay at d = 14
    # builds one module for its one presentation, and composes as many path columns
    # (_apply calls) as one seed's point alone, not three times as many
    path, layers = tmp_path / "relay.json", [[2, 1, 1], [0, 5, 1], [0, 0, 3], [0, 1, 0]]
    path.write_text(json.dumps(RELAY))
    built = _count_calls(monkeypatch, matrix_rep.Representation)
    applied = _count_calls(monkeypatch, matrix_rep._apply)
    one_seed(algebra_from_json(RELAY), seq(*layers))
    assert len(built) == 1
    once = len(applied)
    built.clear()
    applied.clear()
    code, _ = run(capsys, command + ["--algebra", str(path), "--layers", json.dumps(layers)])
    assert code == 0 and len(built) == 1 and len(applied) == once > 0


@pytest.mark.parametrize("command, patched, stage", [
    ("hom", "_presented_hom_dims", "generic_end_dim"),
    ("ext", "_basis_hom_dims", "ext"),
])
def test_seeded_errors_name_their_stage(double_back_file, deep_file, capsys, monkeypatch,
                                        command, patched, stage):
    # the batched route's stand-in gives each point of the module it is handed (N, its
    # second argument) a new value
    import genrep.matrix_rep
    calls = iter(range(100))
    monkeypatch.setattr(genrep.matrix_rep, patched,
                        lambda *args: [next(calls) for _ in range(3 if args[1]._three else 1)])
    code = main([command, "--seed", "4", "--algebra", double_back_file, "--seq", deep_file])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {stage}: ") and "([1, 1], [0, 1], [1, 0])" in err
    assert "4, 5, 6" in err

# -- one parser tree per process ------------------------------------------------

def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


COMMANDS = list(_subparsers(build_parser()).choices)


def _outcome(capsys, parse):
    """(exit code or parse result, stdout, stderr) of one parse or run."""
    try:
        result = parse()
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_every_subcommand_listed():
    assert len(COMMANDS) == 15 and "point-skeleta" in COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help_matches_full_parser(command, capsys):
    expected = _subparsers(build_parser()).choices[command].format_help()
    result, out, err = _outcome(capsys, lambda: main([command, "--help"]))
    assert result == ("exit", 0) and err == ""
    assert out == expected


@pytest.mark.parametrize("argv", [
    [], ["nosuch"], ["--version"], ["-h"], ["--help"], ["hom", "--cap", "5"],
    ["hom", "--algebra", "ALG", "--cap", "5"], ["hom", "--version"],
    ["components", "--algebra", "ALG"],
    ["skeleta", "--format", "xml", "--algebra", "ALG", "--layers", "[[1,1],[0,1],[1,0]]"],
    ["ext", "--k", "x", "--algebra", "ALG"], ["realizable", "surplus", "--algebra", "ALG"],
    ["point-skeleta"], ["--", "hom"],
    # an abbreviated flag, a repeated flag, help after other flags, an argument after
    # "--", and a flag without its value
    ["hom", "--alg", "ALG", "--cap", "5"], ["hom", "--alg"],
    ["hom", "--algebra", "nosuch", "--algebra", "ALG", "--bogus"],
    ["hom", "--algebra", "ALG", "--seed", "3", "-h"],
    ["projdim", "--algebra", "ALG", "--", "x"], ["projdim", "--seq"],
], ids=repr)
def test_messages_match_full_parser(argv, double_back_file, capsys):
    argv = [double_back_file if a == "ALG" else a for a in argv]
    expected = _outcome(capsys, lambda: build_parser().parse_args(argv))
    got = _outcome(capsys, lambda: main(argv))
    assert expected[0][0] == "exit"
    assert got == expected


@pytest.mark.parametrize("argv", [
    ["projdim", "--alg", "ALG", "--seq", "SEQ"],
    ["projdim", "--algebra", "nosuch", "--seq", "nosuch", "--algebra", "ALG", "--seq", "SEQ"],
    ["hom", "--seq", "SEQ", "--seed", "3", "--algebra", "ALG", "--exa"],
    ["components", "--dimvec", "2,2", "--max-top", "1", "--algebra", "ALG"],
], ids=repr)
def test_arguments_match_full_parser(argv, double_back_file, deep_file, monkeypatch):
    argv = [{"ALG": double_back_file, "SEQ": deep_file}.get(a, a) for a in argv]
    expected = vars(build_parser().parse_args(argv))
    seen = []
    monkeypatch.setattr(cli, expected["func"], lambda args, alg, S: seen.append(vars(args)))
    main(argv)
    assert seen == [expected] and expected["command"] == argv[0]



def test_full_parser_messages_pinned(double_back_file, capsys):
    # the full parser names the missing subcommand "command" and lists every choice
    _, _, err = _outcome(capsys, lambda: main([]))
    assert err.endswith("genrep: error: the following arguments are required: command\n")
    _, _, err = _outcome(capsys, lambda: main(["hom", "--algebra", double_back_file,
                                                "--cap", "5"]))
    assert "{" + ",".join(COMMANDS) + "}" in err
    assert err.endswith("genrep: error: unrecognized arguments: --cap 5\n")

def test_first_call_builds_the_tree_and_later_calls_none(double_back_file, deep_file, capsys,
                                                         monkeypatch):
    # every parser built, by its prog: the full parser and then each subcommand's node
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(cli, "_TREE", None)
    argv = ["projdim", "--algebra", double_back_file, "--seq", deep_file]
    assert main(argv) == 0
    assert built == ["genrep", *(f"genrep {command}" for command in COMMANDS)]
    built.clear()
    assert main(argv) == 0  # the tree is kept: later runs build nothing
    with pytest.raises(SystemExit):
        main(["nosuch"])
    with pytest.raises(SystemExit):  # leftovers: the kept tree reports them
        main(argv + ["--cap", "5"])
    assert built == []


def test_leftovers_exit_even_where_the_full_parser_takes_them(double_back_file, deep_file,
                                                              capsys, monkeypatch):
    # a full parser that parses the argv cleanly must not let main run on without them
    full = cli.build_parser()
    monkeypatch.setattr(full, "parse_args", lambda argv: argparse.Namespace())
    monkeypatch.setattr(cli, "_TREE", full)
    with pytest.raises(SystemExit) as exit_:
        main(["projdim", "--algebra", double_back_file, "--seq", deep_file, "extra"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: genrep ") and err.endswith(
        "genrep: error: unrecognized arguments: extra\n")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Placeholder -> path of the README algebra and its sequence."""
    directory = tmp_path_factory.mktemp("warm")
    (directory / "alg.json").write_text(json.dumps({
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "source": "1", "target": "2"},
                   {"name": "b1", "source": "2", "target": "1"},
                   {"name": "b2", "source": "2", "target": "1"}],
        "max_path_length": 2}))
    (directory / "seq.json").write_text(json.dumps({"layers": [[1, 1], [0, 1], [1, 0]]}))
    return {"ALG": str(directory / "alg.json"), "SEQ": str(directory / "seq.json")}


def _main_outcome(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# runs of argvs kept in order: a flag given in one run must not carry over to the next
WARM_RUNS = [
    (["projdim", "--algebra", "ALG", "--seq", "SEQ"],),
    (["realizable", "--algebra", "ALG", "--layers", "[[0,0],[0,0],[0,0]]"],),
    (["hypergraph", "--dot", "--algebra", "ALG", "--seq", "SEQ"],
     ["hypergraph", "--algebra", "ALG", "--seq", "SEQ"]),
    (["hom", "--seq2", "SEQ", "--algebra", "ALG", "--seq", "SEQ"],
     ["hom", "--algebra", "ALG", "--seq", "SEQ"]),
    (["components", "--algebra", "ALG", "--dimvec", "2,2", "--top", "1,1"],
     ["components", "--algebra", "ALG", "--dimvec", "2,2"]),
    (["hom", "--help"],), (["--help"],), (["--version"],), ([],), (["nosuch"],),
    (["hom", "--cap", "5"],), (["ext", "--k", "x", "--algebra", "ALG"],), (["--", "hom"],),
]


@settings(max_examples=25, deadline=None)
@given(runs=st.lists(st.sampled_from(WARM_RUNS), min_size=1, max_size=8))
@example(runs=WARM_RUNS)
def test_warm_main_matches_cold_main(cli_files, runs):
    warm = None  # the one tree the warm runs share, built by the first of them
    for argv in [[cli_files.get(a, a) for a in argv] for run in runs for argv in run]:
        with mock.patch.object(cli, "_TREE", None):
            cold = _main_outcome(argv)
        with mock.patch.object(cli, "_TREE", warm):
            assert _main_outcome(argv) == cold
            assert warm in (None, cli._TREE)
            warm = cli._TREE


def test_parser_table_does_not_grow_with_input(capsys, monkeypatch):
    # one tree, kept whatever the names given: unknown ones and every subcommand
    monkeypatch.setattr(cli, "_TREE", None)
    tree = None
    for argv in [[f"nosuch{i}"] for i in range(100)] + [[c, "--help"] for c in COMMANDS]:
        with pytest.raises(SystemExit):
            main(argv)
        tree = tree or cli._TREE
        assert cli._TREE is tree and list(_subparsers(tree).choices) == COMMANDS
    assert build_parser() is not build_parser()


def test_kept_parser_runs_the_function_now_on_the_module(double_back_file, deep_file, capsys,
                                                          monkeypatch):
    # a wrapper put on the module after the parser was built, like perfbench's tracer
    # or this patch, is what a later run calls
    monkeypatch.setattr(cli, "_TREE", None)
    argv = ["projdim", "--algebra", double_back_file, "--seq", deep_file]
    assert main(argv) == 0
    monkeypatch.setattr(cli, "cmd_projdim", lambda args, alg, S: 7)
    assert main(argv) == 7


def test_main_reads_sys_argv(double_back_file, deep_file, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["genrep", "realizable", "--algebra", double_back_file,
                                      "--seq", deep_file])
    code, out = run(capsys, None)
    assert code == 0 and json.loads(out) == {"realizable": True}


@pytest.mark.parametrize("command, k", [("syzygy", "5000"), ("ext", "20000")])
def test_answer_over_int_digit_limit_exits_3(tmp_path, capsys, command, k):
    # on the two-loop quiver the syzygy multiplicities grow exponentially in k
    # and pass the interpreter's integer-to-string digit limit (4300 by default)
    path = tmp_path / "two_loop.json"
    path.write_text(json.dumps({"vertices": ["1", "2"], "arrows": [
        {"name": "x", "source": "1", "target": "1"}, {"name": "y", "source": "1", "target": "1"},
        {"name": "a", "source": "1", "target": "2"}, {"name": "b", "source": "2", "target": "1"},
    ], "max_path_length": 6}))
    layers = json.dumps([[1, 0]] + [[0, 0]] * 6)
    code = main([command, "--algebra", str(path), "--layers", layers, "--k", k])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert f"{sys.get_int_max_str_digits()}-digit" in err


def _loops(tmp_path, names):
    """One vertex with a loop per name, at L = 1."""
    path = tmp_path / "loops.json"
    path.write_text(json.dumps({"vertices": ["1"], "arrows": [
        {"name": x, "source": "1", "target": "1"} for x in names], "max_path_length": 1}))
    return str(path)


def test_syzygy_multiplicity_grows_past_the_digit_limit(tmp_path, capsys):
    # on two loops Omega^k of the module with layering [[1],[1]] is the simple, 2^(k-1) times
    path = _loops(tmp_path, ["x", "y"])
    argv = ["syzygy", "--algebra", path, "--layers", "[[1],[1]]", "--k"]
    expected = iterated_syzygy_by_steps(algebra_from_json(json.loads(Path(path).read_text())),
                                        seq([1], [1]), 14000)
    code, out = run(capsys, argv + ["14000"])
    assert code == 0 and json.loads(out) == profile_to_json(expected)
    assert len(str(expected.items()[0][1])) == 4215
    code = main(argv + ["14300"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert f"{sys.get_int_max_str_digits()}-digit" in err


@pytest.mark.parametrize("command", ["syzygy", "ext"])
def test_readme_algebra_at_k_2000_matches_the_step_loop(double_back_file, deep_file, capsys,
                                                       monkeypatch, command):
    argv = [command, "--algebra", double_back_file, "--seq", deep_file, "--k", "2000"]
    code, out = run(capsys, argv)
    monkeypatch.setattr(cli, "iterated_syzygy", iterated_syzygy_by_steps)
    monkeypatch.setattr(matrix_rep, "last_two_syzygies", last_two_syzygies_by_steps)
    assert code == 0 and run(capsys, argv) == (0, out)


@pytest.mark.parametrize("command", ["syzygy", "ext"])
def test_one_syzygy_graph_per_run(double_back_file, deep_file, capsys, monkeypatch,
                                  command):
    # ext takes Omega^k as one step of Omega^(k-1): Omega^1 is built once and each of
    # the four cyclic types of the README algebra is stepped once, as for syzygy
    from genrep import homology
    calls = {"first_syzygy": 0, "_syzygy_row": 0}
    for name in calls:
        original = getattr(homology, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(homology, name, counting)
    code, _ = run(capsys, [command, "--algebra", double_back_file, "--seq", deep_file,
                           "--k", "1000"])
    assert code == 0 and calls == {"first_syzygy": 1, "_syzygy_row": 4}


def test_huge_k(tmp_path, double_back_file, deep_file, capsys):
    # over k[x]/x^2 the simple is its own syzygy, and Ext^k(S, S) is one-dimensional
    path = _loops(tmp_path, ["x"])
    for command, expected in [("syzygy", [{"vertex": "1", "truncation": 1, "multiplicity": 1}]),
                              ("ext", 1)]:
        code, out = run(capsys, [command, "--algebra", path, "--layers", "[[1],[0]]",
                                 "--k", "1000000000"])
        assert code == 0
        data = json.loads(out)
        assert (data if command == "syzygy" else data["ext_dim"]) == expected
    # on the README algebra the multiplicities double every other degree: Omega^(10^9)
    # passes the size guard, while the alternating sum of Ext^(10^6) cancels to 0
    argv = ["--algebra", double_back_file, "--seq", deep_file, "--k"]
    code = main(["syzygy"] + argv + ["1000000000"])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and "Omega^1000000000" in err
    code, out = run(capsys, ["ext"] + argv + ["1000000"])
    data = json.loads(out)
    assert code == 0 and data["ext_dim"] == 0
    assert [r["alternating"] for r in data["per_seed"]] == [0, 0, 0]


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _deep_input(tmp_path, command):
    """argv of an input deeper than the recursion limit, as its layer count (one loop,
    layering one S1 per layer), vertex count (a line at L = 1), total dimension
    (``sequences --dimvec 1``) or path length (``ext`` on the simple) grows past it."""
    limit = sys.getrecursionlimit()
    loop = {"vertices": ["1"], "arrows": [{"name": "x", "source": "1", "target": "1"}]}
    if command == "projdim-line":
        n = limit + limit // 10
        line = _write(tmp_path, "line.json", {
            "vertices": [str(i) for i in range(n)], "max_path_length": 1,
            "arrows": [{"name": f"a{i}", "source": str(i), "target": str(i + 1)}
                       for i in range(n - 1)]})
        layers = [[1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)]
        return ["projdim", "--algebra", line, "--layers", json.dumps(layers)]
    if command == "sequences":
        alg = _write(tmp_path, "loop.json", {**loop, "max_path_length": 3 * limit // 2})
        return ["sequences", "--algebra", alg, "--dimvec", "1"]
    alg = _write(tmp_path, "loop.json", {**loop, "max_path_length": limit})
    if command == "point-skeleta":
        # k[x]/x^2: the free module of rank one would take seconds to build at this L
        module = _write(tmp_path, "m.json", {"tops": [{"vertex": "1"}], "relations": [
            [{"coeff": 1, "r": 1, "arrows": ["x", "x"]}]]})
        return ["point-skeleta", "--algebra", alg, "--module", module]
    if command.startswith("ext-"):
        return ["ext", "--algebra", alg, "--layers", json.dumps([[1]] + [[0]] * limit),
                "--k", command.removeprefix("ext-")]
    return [command, "--algebra", alg, "--layers", json.dumps([[1]] * (limit + 1))]


# no descent recurses, so every subcommand answers these inputs: one S1 per layer on
# one loop is the projective k[x]/x^(L+1), whose one skeleton is the chain x^l z_1;
# (S0, S1) on the line at L = 1 is the projective at vertex 0; the one realizable
# sequence of dimension vector (1) is the simple S1; k[x]/x^2 has the one
# distinguished skeleton {z_1, x z_1}; and Ext^k(S, S) of the simple S of
# k[x]/x^(L+1) is 1 in every degree k
@pytest.mark.parametrize("command", ["projdim", "critical", "geometry", "syzygy", "socle",
                                     "projdim-line", "skeleta", "point-skeleta", "sequences",
                                     "ext-1", "ext-2"])
def test_input_once_deeper_than_recursion_limit_is_answered(tmp_path, capsys, command):
    code = main(_deep_input(tmp_path, command))
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    data = json.loads(out)
    limit, top = sys.getrecursionlimit(), [{"r": 1, "vertex": "1"}]
    if command == "geometry":
        assert (data["N"], data["N0"], data["N1"]) == (0, 0, 0)
        assert len(data["tower"]) == limit  # levels 0..L-1
    elif command == "socle":
        assert data["socle"] == [1]
    elif command.startswith("ext-"):
        assert data["ext_dim"] == 1
    elif command == "skeleta":
        assert data == {"count": 1, "skeleta": [{"top": top, "elements": [
            {"r": 1, "arrows": ["x"] * l} for l in range(limit + 1)]}]}
    elif command == "point-skeleta":
        assert data == {"count": 1, "skeleta": [{"top": top, "elements": [
            {"r": 1, "arrows": []}, {"r": 1, "arrows": ["x"]}]}]}
    elif command == "sequences":
        assert data == {"count": 1, "sequences": [{"layers": [[1]] + [[0]] * (3 * limit // 2)}]}
    else:
        assert data == {"projdim": {"projdim": 0}, "critical": [], "syzygy": [],
                        "projdim-line": {"projdim": 0}}[command]


def test_recursion_error_exits_3_naming_the_limit(double_back_file, deep_file, capsys):
    # no descent recurses now, but a RecursionError from a handler still exits 3
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    with mock.patch.object(cli, "cmd_projdim", too_deep):
        code = main(["projdim", "--algebra", double_back_file, "--seq", deep_file])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == ("error: input needs more than Python's recursion limit of "
                   f"{sys.getrecursionlimit()} nested calls\n")


@pytest.mark.parametrize("command, want", [
    ("generic", {"mode": "ungraded", "relations": []}), ("socle", [1]), ("critical", []),
    ("syzygy", []), ("projdim", {"projdim": 0}),
])
def test_one_loop_at_L_2000_is_answered_in_closed_form(tmp_path, capsys, command, want):
    loop = _write(tmp_path, "loop.json", {
        "vertices": ["1"], "arrows": [{"name": "x", "source": "1", "target": "1"}],
        "max_path_length": 2000})
    assert main([command, "--algebra", loop, "--layers", json.dumps([[1]] * 2001)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["socle"] if command == "socle" else data) == want


def test_one_loop_at_L_2000_counts_off_the_layering(tmp_path, capsys):
    # N, N0, N1 of the projective k[x]/x^2001, and Omega^1 of its simple: the radical,
    # cyclic of type 1/J^2000
    loop = _write(tmp_path, "loop.json", {
        "vertices": ["1"], "arrows": [{"name": "x", "source": "1", "target": "1"}],
        "max_path_length": 2000})
    assert main(["geometry", "--algebra", loop, "--layers", json.dumps([[1]] * 2001)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["N"], data["N0"], data["N1"]) == (0, 0, 0)
    assert main(["syzygy", "--algebra", loop, "--k", "1",
                 "--layers", json.dumps([[1]] + [[0]] * 2000)]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"vertex": "1", "truncation": 2000, "multiplicity": 1}]


def test_generic_socle_walks_no_skeleton(tmp_path, capsys, monkeypatch, relay, double_back,
                                        double_back_file, deep_file):
    # the socle and component sifting count off the layering: with the skeleton walk and
    # the canonical skeleton refused they still answer, on one loop at L = 2000 too
    from genrep import skeleta
    from genrep.components import component_report

    def refuse(*args, **kwargs):
        raise AssertionError("a skeleton was built")

    monkeypatch.setattr(skeleta, "iter_skeleta", refuse)
    monkeypatch.setattr(matrix_rep, "canonical_skeleton", refuse)
    # the README's 14-dimensional relay module: at vertex 2, dim M_2 = 7 and
    # min(0 + 4, 1 + 3, 6 + 0, 6 + 0) = 4
    S_dim14 = seq((2, 1, 1), (0, 5, 1), (0, 0, 3), (0, 1, 0))
    assert matrix_rep.generic_socle(relay, S_dim14) == (0, 3, 2)
    report = component_report(double_back, (4, 4))
    assert any(code[0] == "excluded-socle" for row in report.rows for code in row.values())
    assert main(["socle", "--algebra", double_back_file, "--seq", deep_file]) == 0
    assert json.loads(capsys.readouterr().out)["socle"] == [1, 0]
    loop = _write(tmp_path, "loop.json", {
        "vertices": ["1"], "arrows": [{"name": "x", "source": "1", "target": "1"}],
        "max_path_length": 2000})
    for layers in ([[1]] * 2001, [[1]] + [[0]] * 2000):  # k[x]/x^2001 and its simple
        assert main(["socle", "--algebra", loop, "--layers", json.dumps(layers)]) == 0
        assert json.loads(capsys.readouterr().out)["socle"] == [1]


@pytest.mark.parametrize("command", [["syzygy", "--k", "1"], ["syzygy", "--k", "3"],
                                     ["projdim"], ["geometry"], ["ext", "--k", "1"],
                                     ["ext", "--k", "2"], ["decompose"], ["socle"],
                                     ["socle", "--modulus", "7"], ["critical"], ["generic"],
                                     ["hypergraph"]])
def test_unrealizable_layering_exits_2(double_back_file, capsys, command):
    code = main(command + ["--algebra", double_back_file, "--layers", "[[1,0],[0,0],[1,0]]"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: ([1, 0], [0, 0], [1, 0]) is not realizable\n"


@pytest.mark.parametrize("command, expected", [(["realizable"], {"realizable": False}),
                                               (["skeleta", "--count-only"], {"count": 0})])
def test_unrealizable_layering_answers_in_counts(double_back_file, capsys, command, expected):
    # the commands that answer a count, or whether there is anything to count, exit 0
    code = main(command + ["--algebra", double_back_file, "--layers", "[[1,0],[0,0],[1,0]]"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert json.loads(out) == expected


def test_input_errors_keep_their_precedence(tmp_path, double_back_file, deep_file, capsys):
    # the algebra is loaded before the sequence, and the sequence before any
    # flag a handler reads
    missing = str(tmp_path / "missing.json")
    field = ["--exact", "--modulus", "7"]
    for argv, named in [
        (["realizable", "--algebra", missing, "--layers", "[[1"], f"cannot read {missing}"),
        (["socle", "--algebra", double_back_file, "--layers", "[[1"] + field,
         "malformed --layers value"),
        (["hom", "--algebra", double_back_file, "--seq", deep_file, "--seq2", missing] + field,
         f"cannot read {missing}"),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")


def test_skeleta_dot_index_walks_only_to_the_index(tmp_path, capsys, monkeypatch):
    # three loops at L = 2, layering ((2), (3), (2)): C(6, 3) * C(9, 2) = 720 skeleta
    import genrep.skeleta
    from genrep.algebra_core import algebra_from_json, sequence_from_json
    from genrep.cli import skeleton_dot

    data = {"vertices": ["1"], "max_path_length": 2, "arrows": [
        {"name": name, "source": "1", "target": "1"} for name in ("x", "y", "z")]}
    path = _write(tmp_path, "loops.json", data)
    alg = algebra_from_json(data)
    S = sequence_from_json({"layers": [[2], [3], [2]]}, alg)
    want = skeleton_dot(alg, list(genrep.skeleta.iter_skeleta(alg, S))[4]) + "\n"
    built = []

    class Counted(genrep.skeleta.Skeleton):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(genrep.skeleta, "Skeleton", Counted)
    argv = ["skeleta", "--format", "dot", "--algebra", path, "--layers", "[[2],[3],[2]]"]
    code, out = run(capsys, argv + ["--index", "4"])
    assert code == 0 and out == want and len(built) == 5
    assert main(argv + ["--index", "720"]) == 2
    assert capsys.readouterr().err == "error: skeleton index 720 out of range (found 720)\n"
    # the cap is decided before the index, as when every skeleton was built first
    assert main(argv + ["--index", "720", "--cap", "719"]) == 3
    assert "cap of 719" in capsys.readouterr().err
    assert len(built) == 5


# -- the exact mode's fixed point ------------------------------------------------

# over Q the scalars are the first primes 2, 3, 5, ... whatever the seed: one point that
# no probability argument covers
EXACT_ALGEBRAS = {**{name: COMPONENT_ALGEBRAS[name] for name in ("double_back", "line_swing",
                                                                  "relay")},
                  "kronecker": (["1", "2"], [("al", "1", "2"), ("be", "1", "2")], 1)}
EXACT_DOCS = {name: {"vertices": vertices, "max_path_length": L, "arrows": [
    {"name": a, "source": s, "target": t} for a, s, t in arrows]}
    for name, (vertices, arrows, L) in EXACT_ALGEBRAS.items()}


@pytest.fixture(scope="module")
def exact_files(tmp_path_factory):
    """Name -> (algebra file, second-sequence file) of each algebra of EXACT_ALGEBRAS."""
    directory = tmp_path_factory.mktemp("exact")
    return {name: (_write(directory, f"{name}.json", doc), str(directory / f"{name}_seq2.json"))
            for name, doc in EXACT_DOCS.items()}


@st.composite
def exact_cases(draw):
    """(algebra name, S, S2): two realizable layerings of one algebra, each of dimension
    at most 10."""
    name = draw(st.sampled_from(sorted(EXACT_DOCS)))
    alg = algebra_from_json(EXACT_DOCS[name])
    S, S2 = (draw(realizable_layerings(alg).filter(lambda S: S.total_dim <= 10))
             for _ in range(2))
    return name, [list(row) for row in S.layers], [list(row) for row in S2.layers]


def _exact_and_fp(exact_files, case, argv, key):
    """The (exit code, ``key`` value) pairs of ``argv`` with ``--exact`` and over the
    default F_p, both at seed 0."""
    name, S, S2 = case
    path, seq2 = exact_files[name]
    Path(seq2).write_text(json.dumps({"layers": S2}))
    argv = [seq2 if a == "SEQ2" else a for a in argv]
    outcomes = []
    for field in (["--exact"], []):
        code, out, _ = _main_outcome([*argv, *field, "--seed", "0", "--algebra", path,
                                      "--layers", json.dumps(S)])
        outcomes.append((code, json.loads(out)[key] if code == 0 else None))
    return outcomes


@settings(max_examples=60, deadline=None)
@given(case=exact_cases())
@example(case=("kronecker", [[1, 0], [0, 1]], [[1, 0], [0, 1]]))
def test_exact_values_match_the_default_field(exact_files, case):
    for argv, key in ((["hom"], "hom_dim"), (["ext", "--k", "1"], "ext_dim")):
        exact, fp = _exact_and_fp(exact_files, case, argv, key)
        assert exact == fp, argv
    # over Q, M and N take the same primes: the exact pair Hom can meet a non-generic
    # point, and as a seeded Hom errs only upwards it is never below the F_p value
    (exact_code, exact), (fp_code, fp) = _exact_and_fp(
        exact_files, case, ["hom", "--seq2", "SEQ2"], "hom_dim")
    assert exact_code == fp_code and (exact_code != 0 or exact >= fp)


def test_exact_pair_hom_meets_a_non_generic_point(exact_files):
    # M = P1 / (be z - x al z) and N, its copy at another scalar y: Hom(M, N) = 0 at
    # independent points, but over Q both take x = 2, so N = M and the identity is a map
    case = ("kronecker", [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert _exact_and_fp(exact_files, case, ["hom", "--seq2", "SEQ2"], "hom_dim") == [
        (0, 1), (0, 0)]
