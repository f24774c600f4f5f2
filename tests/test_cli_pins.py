"""Pinned CLI outputs: the input files, then one case per check.

pytest runs each case in process through ``genrep.cli.main``; ``python tests/test_cli_pins.py``
runs them all through the ``genrep`` on PATH, 60 s at most each, and exits 1 if one differs.
Both run in a temporary directory holding ``FILES``, with ``GENREP_SEED`` unset, and judge by
``compare``.  At load this module imports only the standard library.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Digest(NamedTuple):
    sha256: str  # of stdout without its lines that hold "version"


class Pin(NamedTuple):
    id: str
    argv: str           # the arguments after ``genrep``, split on whitespace
    out: object = ""    # a dict or list: the JSON without its top-level "version", printed as
    #                     json.dumps(parsed, indent=2); a str: the exact text; or a Digest
    code: int = 0       # the exit code; a nonzero one expects the empty stdout
    err: str = ""       # a fragment stderr must hold; it may never hold a traceback
    checks: tuple = ()  # predicates on stdout, each named for the property it tests


def quiver(L, vertices, *arrows):
    """An algebra file; each arrow is "name source target"."""
    return {"vertices": vertices, "max_path_length": L, "arrows": [
        dict(zip(("name", "source", "target"), a.split())) for a in arrows]}


def term(coeff, r, *arrows):
    return {"coeff": coeff, "r": r, "arrows": list(arrows)}


BIG = "1" + "0" * 4999  # past the interpreter's 4300-digit integer-to-string limit
A2 = quiver(1, ["1", "2"], "a 1 2")
FILES = {  # a dict is written as JSON, bytes as they are
    "ex.json": quiver(2, ["1", "2"], "a 1 2", "b1 2 1", "b2 2 1"),  # the README quickstart
    "s.json": {"layers": [[1, 1], [0, 1], [1, 0]]},
    "other.json": {"layers": [[0, 1], [1, 0], [0, 1]]},  # the README's --seq2 file
    "mod.json": {"tops": [{"vertex": "1"}, {"vertex": "2"}],  # the README module point
                 "relations": [[term(1, 1, "b1", "a"), term(-1, 2, "b2")]]},
    "a2.json": A2,
    "a2_utf16.json": json.dumps(A2).encode("utf-16"),
    "x2.json": quiver(1, ["1"], "x 1 1"),
    "relay.json": quiver(3, ["1", "2", "3"], "a1 1 2", "a2 1 2", "b 2 3", "g1 3 2", "g2 3 2"),
    "s14.json": {"layers": [[2, 1, 1], [0, 5, 1], [0, 0, 3], [0, 1, 0]]},
    "loop.json": quiver(2000, ["1"], "x 1 1"),
    "x2mod.json": {"tops": [{"vertex": "1"}], "relations": [[term(1, 1, "x", "x")]]},
    "loop3.json": quiver(7, ["1"], "x 1 1", "y 1 1", "z 1 1"),
    "xyz.json": {"tops": [{"vertex": "1"}], "relations": [  # xy - yx and z^2
        [term(1, 1, "x", "y"), term(-1, 1, "y", "x")], [term(1, 1, "z", "z")]]},
    "big.json": ('{"vertices": ["1"], "arrows": [], "max_path_length": %s}' % BIG).encode(),
    "one.json": quiver(1, ["1"]),
}


def write_files(directory: Path) -> None:
    for name, content in FILES.items():
        (directory / name).write_bytes(
            content if isinstance(content, bytes) else json.dumps(content).encode())


EX, RELAY, LOOP = "--algebra ex.json", "--algebra relay.json --seed 0", "--algebra loop.json"
EX_S, END_K = f"{EX} --seq s.json", "[[0,2],[3,0],[0,0]]"  # End = K at a verified point
D28, D14 = "[[4,2,2],[0,10,2],[0,0,6],[0,2,0]]", "[[2,1,1],[0,5,1],[0,0,3],[0,1,0]]"
# one loop at L = 2000: the layerings of k[x]/x^2001 and of its simple
FREE, SIMPLE = "[" + ",".join(["[1]"] * 2001) + "]", "[[1]" + ",[0]" * 2000 + "]"
FP = {"field_modulus": 2305843009213693951, "confidence": "seeded-generic"}
Q = {**FP, "field_modulus": None}


def seeded(seed=0, field=FP, **values):
    return {**values, "seed": seed, **field}


def ext(dim, field=FP, k=1):
    """Ext^k at seeds 0-2; only k = 1 is also ranked by restriction."""
    both = {"alternating": dim, "restriction": dim} if k == 1 else {"alternating": dim}
    return seeded(field=field, ext_dim=dim, k=k, per_seed=[{"seed": s, **both} for s in range(3)])


def undecided(end_dim, field=FP, seed=0):
    return seeded(seed, field, verdict="undecided", witness={"end_dims": [
        {"seed": s, "end_dim": end_dim} for s in range(seed, seed + 3)]})


def end_k(seed=0, field=FP):
    return seeded(seed, {**field, "confidence": "certified"}, verdict="indecomposable-certified",
                  witness={"reason": "endomorphism ring K at a verified point", "seed": seed,
                           "end_dim": 1})


def six_layerings(n):
    """The realizable layerings of (n, 1) on ex.json."""
    return {"count": 6, "sequences": [{"layers": layers} for layers in (
        [[n - 2, 0], [0, 1], [2, 0]], [[n - 2, 1], [2, 0], [0, 0]], [[n - 1, 0], [0, 1], [1, 0]],
        [[n - 1, 1], [1, 0], [0, 0]], [[n, 0], [0, 1], [0, 0]], [[n, 1], [0, 0], [0, 0]])]}


def path(r, *arrows):
    return {"r": r, "arrows": list(arrows)}


def is_stdlib_json(text):
    return text == json.dumps(json.loads(text), indent=2) + "\n"


def one_pair_per_ordered_pair(text):
    data = json.loads(text)
    n = len(data["sequences"])
    return n > 1 and len(data["pairs"]) == n * (n - 1)


def past_a_pipe_buffer(text):
    return len(text) > 65536


BA, U = path(1, "b1", "a"), "[[1,0],[0,0],[1,0]]"  # U: an unrealizable layering
# the skeleton, its critical paths and each relation's hyperedge; tests/test_cli.py pins
# the same text for generic --format dot
HYPERGRAPH_DOT = """\
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
"""
PINS = [
    # the README quickstart
    Pin("realizable", f"realizable {EX_S}", {"realizable": True}),
    Pin("geometry", f"geometry {EX_S}", {"N": 3, "N0": 1, "N1": 2, "dim_grass": 3,
        "dim_graded_grass": 1, "fiber_dim": 2, "tower": [{"level": level, "factors": [
            {"vertex": v, "subspace_dim": sub, "ambient_dim": amb, "dim": dim}
            for v, sub, amb, dim in factors]} for level, factors in enumerate((
                (("1", 2, 2, 0), ("2", 0, 1, 0)), (("1", 1, 2, 1), ("2", 0, 0, 0))))]}),
    Pin("skeleta-count", f"skeleta {EX_S} --count-only", {"count": 2}),
    Pin("skeleta", f"skeleta {EX_S}", {"count": 2, "skeleta": [
        {"top": [{"r": 1, "vertex": "1"}, {"r": 2, "vertex": "2"}],
         "elements": [path(1), path(2), path(1, "a"), path(1, b, "a")]} for b in ("b1", "b2")]}),
    Pin("skeleta-dot", f"skeleta {EX_S} --format dot --index 1", """\
digraph skeleton {
  rankdir=TB;
  "z1" [label="1"];
  "z2" [label="2"];
  "z1_a" [label="2"];
  "z1_b2_a" [label="1"];
  "z1" -> "z1_a" [label="a", style=solid];
  "z1_a" -> "z1_b2_a" [label="b2", style=solid];
}
"""),
    Pin("skeleta-text", f"skeleta {EX_S} --format text",  # each skeleton's trees in preorder
        "# skeleton 0\nz1 <1>\n  a -> 2\n    b1 -> 1\nz2 <2>\n"
        "# skeleton 1\nz1 <1>\n  a -> 2\n    b2 -> 1\nz2 <2>\n"),
    Pin("critical", f"critical {EX_S}", [
        {"arrow": b, "parent": path(2), "path": path(2, b), "sigma_set": [BA], "zero_part": [],
         "one_part": [BA]} for b in ("b1", "b2")] + [
        {"arrow": "b2", "parent": path(1, "a"), "path": path(1, "b2", "a"), "sigma_set": [BA],
         "zero_part": [BA], "one_part": []}]),
    # scalar k of the presentation is x_k, numbered in relation order
    Pin("generic", f"generic {EX_S}", {"mode": "ungraded", "relations": [
        {"critical": c, "terms": [{"member": BA, "scalar": f"x_{k}"}]}
        for k, c in enumerate((path(2, "b1"), path(2, "b2"), path(1, "b2", "a")))]}),
    Pin("generic-graded", f"generic {EX_S} --graded", {"mode": "graded", "relations": [
        {"critical": path(2, "b1"), "terms": []}, {"critical": path(2, "b2"), "terms": []},
        {"critical": path(1, "b2", "a"), "terms": [{"member": BA, "scalar": "x_0"}]}]}),
    Pin("hypergraph-dot", f"hypergraph {EX_S} --dot", HYPERGRAPH_DOT),
    Pin("hypergraph", f"hypergraph {EX_S}", {
        "skeleton": {"elements": [path(1), path(2), path(1, "a"), BA]},
        "hyperedges": [{"critical": c, "members": [BA]}
                       for c in (path(2, "b1"), path(2, "b2"), path(1, "b2", "a"))]}),
    Pin("syzygy", f"syzygy {EX_S} --k 1", [{"vertex": "1", "truncation": 1, "multiplicity": 1},
                                           {"vertex": "1", "truncation": 2, "multiplicity": 2}]),
    Pin("projdim", f"projdim {EX_S}", {"projdim": "infinity"}),
    Pin("projdim-layers", f"projdim {EX} --layers [[1,1],[0,1],[1,0]]", {"projdim": "infinity"}),
    Pin("socle-seed-7", f"socle {EX_S} --seed 7", seeded(7, socle=[1, 0])),
    Pin("socle-exact", f"socle {EX_S} --exact", seeded(field=Q, socle=[1, 0])),
    # Miller-Rabin takes its bases by size: 2^31 - 1 is prime, and 3215031751, the least
    # strong pseudoprime to the bases 2, 3, 5 and 7, is refused
    Pin("socle-mersenne", f"socle {EX_S} --modulus 2147483647",
        seeded(field={**FP, "field_modulus": 2147483647}, socle=[1, 0])),
    Pin("socle-pseudoprime", f"socle {EX_S} --modulus 3215031751", code=2, err="is not prime"),
    # a prime field too small for randomized evaluation exits 2 once a socle is needed
    Pin("socle-modulus-7", f"socle {EX_S} --modulus 7", code=2),
    Pin("hom", f"hom {EX_S}", seeded(hom_dim=2)),
    Pin("hom-exact", f"hom {EX_S} --exact", seeded(field=Q, hom_dim=2)),
    # pair mode: N is a point of the second sequence's generic module; over Q the second
    # module takes the primes after the first module's, so the exact values are the F_p ones
    Pin("hom-seq2", f"hom {EX_S} --seq2 s.json", seeded(hom_dim=1)),
    Pin("hom-seq2-exact", f"hom {EX_S} --seq2 s.json --exact", seeded(field=Q, hom_dim=1)),
    Pin("hom-seq2-other", f"hom {EX_S} --seq2 other.json", seeded(hom_dim=2)),
    Pin("ext-k1", f"ext {EX_S} --k 1", ext(1)),
    Pin("ext-k2", f"ext {EX_S} --k 2", ext(3, k=2)),  # Omega^2 and Omega^1 as one profile
    Pin("ext-seq2", f"ext {EX_S} --k 1 --seq2 s.json", ext(0)),
    Pin("ext-seq2-exact", f"ext {EX_S} --k 1 --seq2 s.json --exact", ext(0, Q)),
    Pin("ext-seq2-other", f"ext {EX_S} --k 1 --seq2 other.json", ext(1)),
    Pin("decompose", f"decompose {EX_S}", undecided(2)),
    Pin("decompose-seed-3", f"decompose {EX_S} --seed 3", undecided(2, seed=3)),
    Pin("decompose-graded", f"decompose {EX_S} --graded", seeded(
        field={**FP, "confidence": "certified"}, verdict="decomposable-certified",
        witness={"components": [{"tops": [1], "dim_vector": [2, 1]},
                                {"tops": [2], "dim_vector": [0, 1]}]})),
    Pin("decompose-end-k", f"decompose {EX} --layers {END_K}", end_k()),
    Pin("decompose-end-k-seed-5", f"decompose {EX} --layers {END_K} --seed 5", end_k(5)),
    Pin("decompose-end-k-exact", f"decompose {EX} --layers {END_K} --exact", end_k(field=Q)),
    Pin("point-skeleta", f"point-skeleta {EX} --module mod.json", {"count": 1, "skeleta": [
        {"top": [{"r": 1, "vertex": "1"}, {"r": 2, "vertex": "2"}], "elements": [path(1), path(2),
         path(1, "a"), path(2, "b1"), BA, path(1, "b2", "a"), path(2, "a", "b1")]}]}),
    # realizable and the skeleton count answer U, the commands that need a module exit 2
    Pin("realizable-unrealizable", f"realizable {EX} --layers {U}", {"realizable": False}),
    Pin("skeleta-count-unrealizable", f"skeleta --count-only {EX} --layers {U}", {"count": 0}),
    Pin("geometry-unrealizable", f"geometry {EX} --layers {U}", code=2),
    Pin("socle-unrealizable", f"socle {EX} --layers {U}", code=2),
    # a finite pd above 0: the simple at 1 of the A2 quiver 1 -> 2 at L = 1; in UTF-16, exit 2
    Pin("projdim-a2", "projdim --algebra a2.json --layers [[1,0],[0,0]]", {"projdim": 1}),
    Pin("projdim-utf16", "projdim --algebra a2_utf16.json --layers [[1,0],[0,0]]", code=2),
    # Omega^k by repeated squaring: over k[x]/x^2 the simple is its own syzygy at any k, and
    # on ex.json the multiplicities pass the size guard first (exit 3)
    Pin("syzygy-x2-k-1e9", "syzygy --algebra x2.json --layers [[1],[0]] --k 1000000000",
        [{"vertex": "1", "truncation": 1, "multiplicity": 1}]),
    Pin("syzygy-k-1e9-guard", f"syzygy {EX_S} --k 1000000000", code=3),
    # each coordinate of a layer is bisected, so --cap bounds the walk on a skewed dimension
    # vector, and exits 3 at (10^20, 10^20), where a scan of the tops would not end
    Pin("sequences-1e5-1", f"sequences {EX} --dimvec 100000,1 --cap 10", six_layerings(10**5)),
    Pin("sequences-1e20-1", f"sequences {EX} --dimvec {10**20},1 --cap 10", six_layerings(10**20)),
    Pin("sequences-1e20-1e20", f"sequences {EX} --dimvec {10**20},{10**20} --cap 10", code=3),
    Pin("components-modulus-7", f"components {EX} --dimvec 2,2 --max-top-dim 2 --modulus 7",
        code=2),
    # components stdout, its pairs written row by row, is the stdlib's indent=2 text, with
    # one pair entry per ordered pair of sequences
    Pin("components", f"components {EX} --dimvec 2,2",
        Digest("15c5f3174270dadf13eaa12c12ff3ae3de9aed2375343f9dd4575146ce263ebc"),
        checks=(is_stdlib_json, one_pair_per_ordered_pair)),
    Pin("components-top", f"components {EX} --dimvec 2,2 --top 1,1",
        Digest("0e6a7d6155bb091adf89c5f8aaa8ae8c918d617c97c3a3a310059eba4361d175"),
        checks=(is_stdlib_json,)),
    Pin("components-max-top-dim", f"components {EX} --dimvec 2,2 --max-top-dim 2",
        Digest("13510d5d44b10de634f41623ae816327c19b0d1ec3db25a5800b21ebc0578705"),
        checks=(is_stdlib_json,)),
    # the dominance Hasse diagram
    Pin("components-dot", f"components {EX} --dimvec 2,2 --max-top-dim 2 --format dot", """\
digraph dominance {
  rankdir=BT;
  "s0" [label="01|20|01"];
  "s1" [label="02|20|00"];
  "s2" [label="11|01|10"];
  "s3" [label="11|10|01"];
  "s4" [label="11|11|00"];
  "s5" [label="20|02|00"];
  "s0" -> "s1";
  "s0" -> "s3";
  "s2" -> "s4";
  "s3" -> "s4";
}
"""),
    # the 8,8 report: 297 sequences, 87,912 pairs, 45,458,283 bytes
    Pin("components-8-8", f"components {EX} --dimvec 8,8",
        Digest("e25b33f26d44448f5bdf930203846c99608be689adacb167a097478546334b2f")),
    Pin("components-relay", "components --algebra relay.json --dimvec 3,4,3",
        Digest("568ad547545c1341ed5ce0b90b25677cd53361ffdfc8b7b5ff7db60f330e7738"),
        checks=(is_stdlib_json, past_a_pipe_buffer)),
    # the relay fixture at seed 0, d = 28 over F_p and d = 14 over Q (integer relation
    # matrices): Hom, Ext^1 and End, each the kernel of a relation matrix
    Pin("relay-hom-d28", f"hom --layers {D28} {RELAY}", seeded(hom_dim=33)),
    Pin("relay-ext-d28", f"ext --k 1 --layers {D28} {RELAY}", ext(129)),
    Pin("relay-decompose-d28", f"decompose --layers {D28} {RELAY}", undecided(33)),
    Pin("relay-hom-d14-exact", f"hom --exact --layers {D14} {RELAY}", seeded(field=Q, hom_dim=9)),
    Pin("relay-ext-d14-exact", f"ext --k 1 --exact --layers {D14} {RELAY}", ext(33, Q)),
    Pin("relay-decompose-d14-exact", f"decompose --exact --layers {D14} {RELAY}", undecided(9, Q)),
    # all 360 skeleta of d = 14, 557,318 bytes
    Pin("relay-skeleta-d14", f"skeleta --algebra relay.json --layers {D14}",
        Digest("e3f55b65498c8e94824fec438e8e7cb7c58cdb41922ad1e5fa05c1b9fa228b03")),
    # the canonical skeleton's critical paths, each member at the pads of a parent and of a
    # sigma-set, zero or one part, 6,345 bytes; and its hypergraph, 4,737 bytes
    Pin("relay-critical-d14", f"critical --algebra relay.json --layers {D14}",
        Digest("1ad64cd67fb805ffe63651b042acc4dc6c86610cdff140c0e493cc90ebed5b27"),
        checks=(is_stdlib_json,)),
    Pin("relay-hypergraph-d14", f"hypergraph --algebra relay.json --layers {D14}",
        Digest("239fc0c63feb2fda774d8c390d683e24a0253782d08541880391e3138745ea16"),
        checks=(is_stdlib_json,)),
    # pair mode over F_p: M at d = 28 and N a point of the d = 14 module; ext --seq2
    # broadcasts its one point N to meet M's three seeded points
    Pin("relay-hom-pair", f"hom --layers {D28} --seq2 s14.json {RELAY}", seeded(hom_dim=16)),
    Pin("relay-ext-pair", f"ext --k 1 --layers {D28} --seq2 s14.json {RELAY}", ext(64)),
    # no walk recurses: one loop at L = 2000; the generic socle and Omega^1 of the simple
    # (the radical, of type 1/J^2000) are counted off the layering
    Pin("loop-projdim-free", f"projdim {LOOP} --layers {FREE}", {"projdim": 0}),
    Pin("loop-socle-free", f"socle {LOOP} --layers {FREE}", seeded(socle=[1])),
    Pin("loop-socle-simple", f"socle {LOOP} --layers {SIMPLE}", seeded(socle=[1])),
    Pin("loop-syzygy-simple", f"syzygy --k 1 {LOOP} --layers {SIMPLE}",
        [{"vertex": "1", "truncation": 2000, "multiplicity": 1}]),
    Pin("loop-sequences", f"sequences {LOOP} --dimvec 1",
        {"count": 1, "sequences": [{"layers": json.loads(SIMPLE)}]}),
    Pin("loop-point-skeleta", f"point-skeleta {LOOP} --module x2mod.json", {"count": 1,
        "skeleta": [{"top": [{"r": 1, "vertex": "1"}], "elements": [path(1), path(1, "x")]}]}),
    Pin("loop-ext-simple", f"ext --k 1 {LOOP} --layers {SIMPLE}", ext(1)),
    # the one deep skeleton of the free module, 2,001 members: its skeleta JSON, 34,161,224
    # bytes, and its hypergraph JSON, 30,139,121 bytes
    Pin("loop-skeleta-free", f"skeleta {LOOP} --layers {FREE}",
        Digest("927ddf4b26bbf3ff47ef3c9bbc67d20a2d56819851ffb262a3673f08db1d9e01")),
    Pin("loop-hypergraph-free", f"hypergraph {LOOP} --layers {FREE}",
        Digest("802c65e89aeb4196d23f9c234b9d1c77fc1be62f8e75f58ad1f217d04ae65040")),
    # the three-loop quotient at L = 7, byte for byte over Q and over F_p: 931,680 bytes,
    # "count": 2; its submodule C fills a RowSpace of dimension 1,701
    *(Pin(f"loop3-point-skeleta{suffix}", f"point-skeleta --algebra loop3.json --module xyz.json"
          f"{field}", Digest("d5bd6b38ba60a0f723a62eb377f8e97165f9da74c5fd292d5964b9ca4585f606"))
      for suffix, field in (("", ""), ("-fp", " --modulus 2147483647"))),
    # malformed input exits 2: an unknown subcommand, and an integer past the digit limit in
    # a file and in --layers
    Pin("nosuch", "nosuch", code=2, err="invalid choice: 'nosuch'"),
    Pin("big-int-file", "realizable --algebra big.json --layers [[1],[0]]", code=2),
    Pin("big-int-layers", f"realizable --algebra one.json --layers [[{BIG}],[0]]", code=2),
]


def compare(pin, code, out, err):
    """How (exit code, stdout, stderr) differ from ``pin``: empty when they match."""
    problems = [f"stdout fails {check.__name__}" for check in pin.checks if not check(out)]
    if code != pin.code:
        problems.append(f"exit code {code}, expected {pin.code}")
    if pin.err not in err or "Traceback" in err:
        problems.append(f"stderr {err[-300:]!r}, expected {pin.err!r} and no traceback")
    if isinstance(pin.out, Digest):
        unversioned = "".join(line for line in out.splitlines(True) if '"version"' not in line)
        if (digest := hashlib.sha256(unversioned.encode()).hexdigest()) != pin.out.sha256:
            problems.append(f"stdout sha256 {digest}, expected {pin.out.sha256}")
    elif isinstance(pin.out, str):
        if out != pin.out:
            problems.append(f"stdout {out[:300]!r}, expected {pin.out[:300]!r}")
    else:
        try:
            parsed = json.loads(out)
        except ValueError:
            return problems + [f"stdout {out[:300]!r} is not JSON"]
        if out != json.dumps(parsed, indent=2) + "\n":
            problems.append("stdout is not json.dumps(parsed, indent=2)")
        if isinstance(parsed, dict):
            parsed.pop("version", None)
        if parsed != pin.out:
            problems.append(f"stdout {parsed!r}, expected {pin.out!r}")
    return problems


def run_in_process(argv):
    """(exit code, stdout, stderr) of ``genrep.cli.main(argv)``, argparse's exits included."""
    from genrep.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def pytest_generate_tests(metafunc):
    if "pin" in metafunc.fixturenames:
        metafunc.parametrize("pin", PINS, ids=[pin.id for pin in PINS])


def test_pin(pin, tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GENREP_SEED", raising=False)
    assert compare(pin, *run_in_process(pin.argv.split())) == []


def quickstart_argvs():
    """The arguments of each ``genrep`` line of the README quickstart block, once without its
    bracketed flags and once with each of them, its comment and ``| dot`` pipe dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```sh\n(.*?)```", readme, re.S)
                 if b.startswith("genrep geometry"))
    for line in block.splitlines():
        # plain text at even indices, the bracketed flags at odd ones
        parts = re.split(r" *\[([^]]*)\]", re.split(r" +[#|]", line)[0])
        for keep in [None, *range(1, len(parts), 2)]:
            yield " ".join(p for i, p in enumerate(parts) if i % 2 == 0 or i == keep).split()[1:]


def test_every_subcommand_and_quickstart_line_has_a_case():
    from genrep.cli import build_parser
    subcommands = build_parser()._subparsers._group_actions[0].choices
    argvs = [pin.argv.split() for pin in PINS]
    assert set(subcommands) - {argv[0] for argv in argvs} == set()
    quickstart = list(quickstart_argvs())
    assert len(quickstart) > len(subcommands)
    assert [argv for argv in quickstart if argv not in argvs] == []


def main():
    """Run every case through the ``genrep`` on PATH: 1 if one differs from its pin, else 0."""
    env = {key: value for key, value in os.environ.items() if key != "GENREP_SEED"}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        for pin in PINS:
            try:
                proc = subprocess.run(["genrep", *pin.argv.split()], cwd=tmp, env=env,
                                      capture_output=True, encoding="utf-8", timeout=60)
                problems = compare(pin, proc.returncode, proc.stdout, proc.stderr)
            except subprocess.TimeoutExpired:
                problems = ["no exit within 60 s"]
            print("FAIL" if problems else "ok", pin.id + "".join(f"\n    {p}" for p in problems))
            failed += bool(problems)
    print(f"{len(PINS) - failed} of {len(PINS)} pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
