"""CLI fuzzing: every subcommand on drawn flags and mutated JSON inputs.

Whatever the arguments and files, ``main`` either returns one of the exit
codes 0 (success), 2 (validation) or 3 (cap), or argparse stops it with
``SystemExit`` 0 (help, version) or 2 (usage error).  Anything else is a
traceback, which the exit-code contract rules out.  Inputs stay small: at
most three vertices, path length at most four and dimensions at most two,
far below the layerings where the skeleton descent grows large.
"""

import argparse
import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from genrep.cli import build_parser, main

PARSER = build_parser()
SUBPARSERS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
COMMANDS = list(SUBPARSERS.choices)
# flag -> whether it takes a value, per subcommand, and over all subcommands
OWN_FLAGS = {name: {flag: a.nargs != 0 for a in p._actions for flag in a.option_strings
                    if flag not in ("-h", "--help")}
             for name, p in SUBPARSERS.choices.items()}
FLAGS = {flag: takes for flags in OWN_FLAGS.values() for flag, takes in flags.items()}

ALGEBRA = {
    "vertices": ["1", "2"],
    "arrows": [{"name": "a", "source": "1", "target": "2"},
               {"name": "b1", "source": "2", "target": "1"},
               {"name": "b2", "source": "2", "target": "1"}],
    "max_path_length": 2,
}
SEQUENCE = {"layers": [[1, 1], [0, 1], [1, 0]]}
SEQUENCE2 = {"layers": [[0, 1], [1, 0], [0, 1]]}
MODULE = {
    "tops": [{"vertex": "1"}, {"vertex": "2"}],
    "relations": [[{"coeff": 1, "r": 1, "arrows": ["b1", "a"]},
                   {"coeff": -1, "r": 2, "arrows": ["b2"]}]],
}
FILES = {"alg.json": ALGEBRA, "seq.json": SEQUENCE, "seq2.json": SEQUENCE2,
         "module.json": MODULE}

SCALARS = (st.none() | st.booleans() | st.integers(-2, 4) | st.just(0.5)
           | st.sampled_from(["1", "2", "a", "b1", ""]))
# scalars as often as containers: st.recursive alone draws mostly containers
SMALL_JSON = SCALARS | st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["vertex", "r", "arrows", "coeff", "name", "source", "target"]),
        inner, max_size=3),
    max_leaves=6)


def _slots(value, path=()):
    """Every (path, value) inside a JSON value, the value itself included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in items:
        yield from _slots(child, path + (key,))


@st.composite
def mutated(draw, base):
    """``base`` with one or two of its values replaced or deleted, a top-level
    value (the container a loader reads first) as often as any other."""
    data = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 2))):
        slots = list(_slots(data))
        top = [slot for slot in slots if len(slot[0]) == 1] or slots
        path, _ = draw(st.sampled_from(top) | st.sampled_from(slots))
        if not path:
            data = draw(SMALL_JSON)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(SMALL_JSON)
        else:
            del parent[path[-1]]
    return data


VALUES = st.sampled_from([
    "alg.json", "seq.json", "seq2.json", "module.json", "missing.json", "garbage.json",
    "0", "1", "2", "3", "-1", "x", "5", "1000000007",
    "json", "dot", "text", "xml", "1,1", "2,1", "0,2", "1,a", "",
    "[[1,1],[0,1],[1,0]]", "[[1,0],[0,1],[1,0]]", "[[2,1],[1,1],[0,1]]", "[[1]]", "[]", "{",
])
# a value each flag accepts on the unmutated files
GOOD = {"--algebra": "alg.json", "--seq": "seq.json", "--seq2": "seq2.json",
        "--module": "module.json", "--layers": "[[1,1],[0,1],[1,0]]", "--dimvec": "2,1",
        "--top": "1,1", "--format": "json", "--cap": "50", "--index": "0", "--k": "1",
        "--seed": "3", "--modulus": "1000003", "--max-top-dim": "2"}
# values aimed at one flag: the edges of its range and malformed entries
EDGES = {"--modulus": ["7", "4", "1000003"], "--k": ["0", "-1", "1000000007"],
         "--cap": ["-2", "0"], "--dimvec": ["1,a", "-1,1"], "--top": ["1,a", "-1,1"]}
# per flag, its good value, one of its edges or any value, in equal shares
FLAG_VALUES = {flag: st.one_of(st.just(GOOD[flag]), VALUES,
                               *([st.sampled_from(EDGES[flag])] if flag in EDGES else []))
               for flag in GOOD}


@st.composite
def argvs(draw):
    """A subcommand (or none) with its own flags, and sometimes one flag of any
    subcommand, each value-taking flag with a value drawn from ``FLAG_VALUES``."""
    command = draw(st.sampled_from(COMMANDS * 4 + ["nosuch", "-h", "--version"]))
    argv = [command]
    for flag, takes in OWN_FLAGS.get(command, {}).items():
        if draw(st.integers(0, 3)):
            argv += [flag, draw(FLAG_VALUES[flag])] if takes else [flag]
    if not draw(st.integers(0, 3)):
        flag = draw(st.sampled_from(sorted(FLAGS)))
        argv += [flag, draw(FLAG_VALUES[flag])] if FLAGS[flag] else [flag]
    return argv


@settings(settings.get_profile("ci"), max_examples=300)
# a 10-digit --k on the unmutated files: Omega^k would pass the syzygy size guard,
# so both exit 3 at once
@example(argv=["syzygy", "--algebra", "alg.json", "--seq", "seq.json", "--k", "1000000007"],
         files=FILES)
@example(argv=["ext", "--algebra", "alg.json", "--seq", "seq.json", "--k", "1000000007"],
         files=FILES)
@given(argv=argvs(), files=st.fixed_dictionaries(
    {name: st.one_of(st.just(base), mutated(base)) for name, base in FILES.items()}))
def test_cli_exits_with_a_contract_code(tmp_path_factory, argv, files):
    tmp = tmp_path_factory.mktemp("fuzz")
    for name, data in files.items():
        (tmp / name).write_text(json.dumps(data), encoding="utf-8")
    (tmp / "garbage.json").write_text('{"vertices": [', encoding="utf-8")
    argv = [str(tmp / a) if a.endswith(".json") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            return
    assert code in (0, 2, 3), argv
