"""End-to-end CLI checks: subcommands, formats, exit codes, determinism."""

import argparse
import json
import sys

import pytest
from hypothesis import given, strategies as st

from genrep.cli import _dumps, build_parser, main


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


def test_skeleta_text(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["skeleta", "--format", "text",
                             "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0
    assert "z1 <1>" in out and "a -> 2" in out


def test_socle_embeds_seed(double_back_file, deep_file, capsys):
    code, out = run(capsys, ["socle", "--algebra", double_back_file, "--seq", deep_file,
                             "--seed", "7"])
    assert code == 0
    data = json.loads(out)
    assert data["socle"] == [1, 0]
    assert data["seed"] == 7
    assert data["field_modulus"] == 2**61 - 1
    assert data["confidence"] == "seeded-generic"


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
    # the intertwiner term reuses the point N = G(S) drawn at each seed
    import genrep.cli
    import genrep.matrix_rep
    calls = []
    original = genrep.matrix_rep.materialize

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(genrep.matrix_rep, "materialize", counting)
    monkeypatch.setattr(genrep.cli, "materialize", counting)
    code, out = run(capsys, ["ext", "--k", "1", "--algebra", double_back_file, "--seq", deep_file])
    assert code == 0 and json.loads(out)["ext_dim"] == 1
    assert len(calls) == 3


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
    alg = algebra_from_json(json.load(open(double_back_file)))
    S = sequence_from_json(json.load(open(deep_file)), alg)
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

def test_bad_modulus_exits_2(double_back_file, deep_file):
    assert main(["socle", "--algebra", double_back_file, "--seq", deep_file,
                 "--modulus", "15"]) == 2


def test_bad_dimvec_exits_2(double_back_file):
    assert main(["sequences", "--algebra", double_back_file, "--dimvec", "a,b"]) == 2


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


@pytest.mark.parametrize("mutate", [
    lambda data: data["relations"].__setitem__(0, {"coeff": 1, "r": 1, "arrows": ["b2", "al"]}),
    lambda data: data["relations"][0].__setitem__(0, [1, 1, ["b2", "al"]]),
    lambda data: data["relations"][2][0].__setitem__("arrows", "g"),
], ids=["relation-object", "term-list", "arrows-string"])
def test_malformed_module_point_containers_exit_2(point_files, capsys, mutate):
    # "arrows": "g" used to be read as the path g, character by character
    mod_path = point_files[-1]
    data = json.load(open(mod_path))
    mutate(data)
    with open(mod_path, "w") as fh:
        json.dump(data, fh)
    assert main(["point-skeleta"] + point_files) == 2
    assert capsys.readouterr().err.startswith("error: malformed module point")


@pytest.mark.parametrize("r", [1.0, True, "1"])
def test_non_integer_top_index_exits_2(point_files, capsys, r):
    mod_path = point_files[-1]
    data = json.load(open(mod_path))
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
    ("sequences", ["--cap", "5"]),
    ("components", ["--cap", "5"]),
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
    data = json.load(open(mod_path))
    data["relations"][0][0]["coeff"] = coeff
    with open(mod_path, "w") as fh:
        json.dump(data, fh)
    assert main(["point-skeleta"] + point_files + field) == 2
    assert capsys.readouterr().err.startswith("error: malformed module point")


@pytest.mark.parametrize("field", [[], ["--modulus", "1000003"]], ids=["Q", "Fp"])
@pytest.mark.parametrize("coeff", [1, "1"])
def test_integer_or_string_coefficient_accepted(point_files, capsys, field, coeff):
    mod_path = point_files[-1]
    data = json.load(open(mod_path))
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


@given(JSON_VALUES)
def test_dumps_shared_blocks_at_every_depth(value):
    # one list object reused at several depths encodes by its own depth each time
    block = [value, [value]]
    data = {"a": block, "b": [block, {"c": block}], "d": (block, block)}
    assert _dumps(data, "\n", {}) == json.dumps(data, indent=2)


@pytest.mark.parametrize("command, patched, stage", [
    ("socle", "socle", "generic_socle"),
    ("hom", "_presented_hom_dim", "generic_end_dim"),
    ("ext", "hom_dim", "ext"),
])
def test_seeded_errors_name_their_stage(double_back_file, deep_file, capsys, monkeypatch,
                                        command, patched, stage):
    import genrep.matrix_rep
    calls = iter(range(100))
    monkeypatch.setattr(genrep.matrix_rep, patched, lambda *args: next(calls))
    code = main([command, "--seed", "4", "--algebra", double_back_file, "--seq", deep_file])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {stage}: ") and "([1, 1], [0, 1], [1, 0])" in err
    assert "4, 5, 6" in err

# -- one subparser per run -------------------------------------------------------

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
], ids=repr)
def test_messages_match_full_parser(argv, double_back_file, capsys):
    argv = [double_back_file if a == "ALG" else a for a in argv]
    expected = _outcome(capsys, lambda: build_parser().parse_args(argv))
    got = _outcome(capsys, lambda: main(argv))
    assert expected[0][0] == "exit"
    assert got == expected



def test_full_parser_messages_pinned(double_back_file, capsys):
    # the full parser names the missing subcommand "command" and lists every choice
    _, _, err = _outcome(capsys, lambda: main([]))
    assert err.endswith("genrep: error: the following arguments are required: command\n")
    _, _, err = _outcome(capsys, lambda: main(["hom", "--algebra", double_back_file,
                                                "--cap", "5"]))
    assert "{" + ",".join(COMMANDS) + "}" in err
    assert err.endswith("genrep: error: unrecognized arguments: --cap 5\n")

def test_valid_subcommand_builds_one_subparser(double_back_file, deep_file, capsys, monkeypatch):
    built = []
    original = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["projdim", "--algebra", double_back_file, "--seq", deep_file]) == 0
    assert built == ["projdim"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["nosuch"])
    assert built == COMMANDS


def test_main_reads_sys_argv(double_back_file, deep_file, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["genrep", "realizable", "--algebra", double_back_file,
                                      "--seq", deep_file])
    code, out = run(capsys, None)
    assert code == 0 and json.loads(out) == {"realizable": True}
