"""Command-line front end: JSON in, JSON/DOT/text out.

Every randomized artifact embeds the seed, the field modulus, and a confidence label;
output is byte-identical for identical inputs and seed.  Exit codes: 0 success, 2
validation error, 3 enumeration cap exceeded (or a RecursionError, which no walk raises,
or an input too large to hold).  ``main`` builds one parser, with every subcommand, on its
first call and keeps it; nothing is built at import.  ``build_parser`` builds a new parser
on every call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__
from .algebra_core import (
    TruncatedAlgebra,
    algebra_from_json,
    realizable,
    sequence_from_json,
    sequence_to_json,
    enumerate_sequences,
)
from .components import (_DOMINANCE, _POSSIBLE, _report_json, component_report,
                         sequence_poset, sifted_sequences)
from .errors import EnumerationCapError, GenrepError, ValidationError
from .generic_builder import (
    bundle_report_to_json,
    bundle_tower,
    critical_report_json,
    generic_presentation,
    hypergraph,
    hypergraph_to_json,
    presentation_to_json,
)
from .homology import iterated_syzygy, profile_to_json, projdim_to_json, projective_dimension
from .matrix_rep import (
    DEFAULT_FIELD,
    PAIR_SEED_OFFSET,
    RATIONALS,
    FieldSpec,
    distinguished_skeleta_of,
    decomposability,
    ext_dim_detail,
    generic_end_dim,
    generic_hom_dim,
    generic_socle,
    materialize,
    module_point_from_json,
    seeded_assignment,
)
from .skeleta import (
    DEFAULT_CAP,
    canonical_skeleton,
    capped_count,
    count_skeleta,
    critical_paths,
    iter_skeleta,
    skeleta_to_json,
)


def _load_json(path: str) -> dict:
    """The JSON in file ``path``, read as bytes and decoded as UTF-8 (a BOM is malformed)."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot decode {path} as UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an over-long integer
        raise ValidationError(f"malformed JSON in {path}: {exc}") from None


def _sequence(args, alg: TruncatedAlgebra):
    if args.layers:
        try:
            rows = json.loads(args.layers)
        except (ValueError, RecursionError) as exc:  # as in _load_json
            raise ValidationError(f"malformed --layers value: {exc}") from None
        return sequence_from_json({"layers": rows}, alg)
    if args.seq:
        return sequence_from_json(_load_json(args.seq), alg)
    raise ValidationError("a sequence is required (--seq FILE or --layers JSON)")


def _sequence2(args, alg):
    return sequence_from_json(_load_json(args.seq2), alg) if args.seq2 else None


def _field(args, default: FieldSpec = DEFAULT_FIELD) -> FieldSpec:
    """``--exact`` or ``--modulus P`` (which must be prime), else ``default``."""
    if args.exact:
        if args.modulus is not None:
            raise ValidationError("--exact and --modulus are mutually exclusive")
        return RATIONALS
    if args.modulus is not None:
        return FieldSpec(args.modulus)
    return default


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GENREP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError("GENREP_SEED must be an integer") from None
    return 0


def _seeds(args) -> tuple[int, int, int]:
    s = _seed(args)
    return (s, s + 1, s + 2)


def _dimvec(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ValidationError(f"malformed dimension vector {raw!r}") from None


def _dumps(obj, pad: str, memo: dict) -> str:
    """``json.dumps(obj, indent=2)`` without the pure-Python indenting encoder.

    ``pad`` is a newline plus the indentation of ``obj``; ``memo`` maps the id of each
    list, tuple or dict already encoded to its first (pad, text), so a block shared by
    many parents is encoded once.  At another pad its text is that text with the old pad
    replaced by the new, kept under (id, pad); that is exact, as encoded JSON holds no
    raw newline and every newline in a block is followed by at least the block's pad.
    Lists and dicts put their ``int`` and ``str`` entries, and those kept under (id, pad),
    in place, without a call each.  A dict with a non-``str`` key, like other value types,
    goes to ``json.dumps``, re-indented by replacing each newline.  ``_ROWS`` is a raw NUL,
    which no encoded JSON holds.
    """
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return {None: "null", True: "true", False: "false"}[obj]
    if obj is _ROWS:
        return "\0"
    first = memo.get(id(obj))
    if first:
        old_pad, text = first
        if old_pad != pad:
            text = memo.get((id(obj), pad)) or memo.setdefault(
                (id(obj), pad), text.replace(old_pad, pad))
        return text
    inner, parts = pad + "  ", None
    if kind is list or kind is tuple:
        parts, ends = [int.__repr__(x) if type(x) is int else _encode_str(x) if type(x) is str
                       else memo.get((id(x), inner)) or _dumps(x, inner, memo) for x in obj], "[]"
    elif kind is dict and all(type(k) is str for k in obj):
        parts, ends = [_encode_str(k) + ": " + (
            int.__repr__(v) if type(v) is int else _encode_str(v) if type(v) is str
            else memo.get((id(v), inner)) or _dumps(v, inner, memo)) for k, v in obj.items()], "{}"
    if parts is None:
        text = json.dumps(obj, indent=2).replace("\n", pad)
    elif parts:
        # the brackets go onto the end parts, so the parts are copied once, by the join
        parts[0] = ends[0] + inner + parts[0]
        parts[-1] += pad + ends[1]
        text = ("," + inner).join(parts)
    else:
        text = ends
    memo[id(obj)] = pad, text
    return text


_ROWS = object()  # where ``_emit`` writes its rows


def _pairs_text(rep, sequences: list, pad: str, memo: dict):
    """The text of ``_dumps(pairs, pad, memo)`` for the "pairs" of ``report_to_json(rep)``,
    whose "sequences" are ``sequences``, one piece per row (inner sequence): the row's
    head joins a copy of the dominance-excluded fragments (outer text and tail: verdict,
    evidence, confidence, separator), with the admitted pairs' fragments written over.
    ``memo`` is the rest's, so a sequence is encoded once and here re-indented."""
    entry, item = pad + "  ", pad + "    "
    sep = "," + entry
    texts = [_dumps(s, item, memo) for s in sequences]
    memo.clear()  # the rest's texts, not to be held while the rows are written
    if len(texts) < 2:
        yield "[]"
        return
    codes = {id(c): c for row in (*rep.rows, {0: _DOMINANCE, 1: _POSSIBLE}) for c in row.values()}
    tails = {key: "".join(f',{item}"{k}": {_dumps(x, item, memo)}' for k, x in zip(
        ("verdict", "evidence", "confidence"), code)) + entry + "}" + sep
        for key, code in codes.items()}
    excluded = [t + tails[id(_DOMINANCE)] for t in texts]
    possible = [t + tails[id(_POSSIBLE)] for t in texts]
    yield "[" + entry
    for i, row in enumerate(rep.rows):
        frags = excluded.copy()
        for j, code in row.items():
            frags[j] = possible[j] if code is _POSSIBLE else texts[j] + tails[id(code)]
        del frags[i]
        if i == len(texts) - 1:  # the last pair closes the list
            frags[-1] = frags[-1][:-len(sep)] + pad + "]"
        head = f'{{{item}"inner": {texts[i]},{item}"outer": '
        yield head + head.join(frags)


def _emit(data, rows=(), memo=None) -> int:
    """Print ``data`` as ``json.dumps(data, indent=2)``, with the pieces of ``rows``
    written one by one where it holds ``_ROWS``, after all the rest is encoded into ``memo``."""
    try:
        head, _, rest = _dumps(data, "\n", {} if memo is None else memo).partition("\0")
    except ValueError:
        # only an int over the interpreter's digit limit fails to encode
        limit = sys.get_int_max_str_digits()
        raise EnumerationCapError(limit, "answer holds an integer over Python's "
                                         f"{limit}-digit string limit") from None
    sys.stdout.writelines(chain([head], rows, [rest + "\n"]))
    return 0


def _stamp(data: dict, args, fs: FieldSpec, confidence: str) -> dict:
    data["seed"] = _seed(args)
    data["field_modulus"] = fs.modulus
    data["confidence"] = confidence
    data["version"] = __version__
    return data


# ---------------------------------------------------------------------------
# DOT and text rendering
# ---------------------------------------------------------------------------

def _quoted(text: str) -> str:
    """``text`` as a quoted DOT string, each backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _el_id(el) -> str:
    """The quoted DOT id of a skeleton member: ``z{r}``, then ``_`` and each arrow name
    with its ``%`` and ``_`` written ``%25`` and ``%5F``, so that no two members share one."""
    r, p = el
    return _quoted("_".join([f"z{r}", *(a.replace("%", "%25").replace("_", "%5F")
                                        for a in p.arrows)]))


def skeleton_dot(alg, sk, critical=()) -> str:
    """DOT of a skeleton, its ``critical`` (sigma-set, members) pairs dashed, hyperedges dotted."""
    lines = ["digraph skeleton {", '  rankdir=TB;']
    for el in sk.elements:
        lines.append(f'  {_el_id(el)} [label={_quoted(sk.end(el))}];')
    for el in sk.elements:
        r, p = el
        if p.length == 0:
            continue
        parent = (r, p.initial_subpath(p.length - 1))
        lines.append(f'  {_el_id(parent)} -> {_el_id(el)} '
                     f'[label={_quoted(p.arrows[0])}, style=solid];')
    for i, (sset, members) in enumerate(critical):
        crit = sset.critical
        cid = f"crit{i}"
        end = alg.path_end(crit.path(alg))
        lines.append(f'  "{cid}" [label={_quoted(end)}];')
        lines.append(f'  {_el_id(crit.parent)} -> "{cid}" '
                     f'[label={_quoted(crit.arrow)}, style=dashed];')
        if not members:
            continue
        hid = f"hyper{i}"
        lines.append(f'  "{hid}" [shape=point];')
        lines.append(f'  "{hid}" -> "{cid}" [style=dotted, dir=none];')
        for mem in members:
            lines.append(f'  "{hid}" -> {_el_id(mem)} [style=dotted, dir=none];')
    lines.append("}")
    return "\n".join(lines)


def hasse_dot(poset) -> str:
    lines = ["digraph dominance {", "  rankdir=BT;"]
    for i, S in enumerate(poset.sequences):
        label = "|".join("".join(str(x) for x in row) for row in S.layers)
        lines.append(f'  "s{i}" [label={_quoted(label)}];')
    for lo, hi in poset.hasse_edges:
        lines.append(f'  "s{lo}" -> "s{hi}";')
    lines.append("}")
    return "\n".join(lines)


def skeleton_text(alg, sk) -> str:
    """Each tree in preorder, a member per line indented by its length: the order by
    (r, arrow indices in application order), which puts a member after its parent and
    its siblings by arrow."""
    idx = alg.quiver.arrow_index
    lines = []
    for el in sorted(sk.elements, key=lambda el: (el[0], [idx[a] for a in el[1].arrows[::-1]])):
        r, p = el
        tag = f"z{r} <{sk.end(el)}>" if p.length == 0 else f"{p.arrows[0]} -> {sk.end(el)}"
        lines.append("  " * p.length + tag)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_realizable(args, alg, S):
    return _emit({"realizable": realizable(alg, S)})


def cmd_sequences(args, alg, S):
    top = _dimvec(args.top) if args.top is not None else None
    seqs = enumerate_sequences(alg, _dimvec(args.dimvec), top=top, cap=args.cap)
    return _emit({"count": len(seqs), "sequences": [sequence_to_json(s) for s in seqs]})


def cmd_skeleta(args, alg, S):
    if args.count_only:
        return _emit({"count": count_skeleta(alg, S)})
    count = capped_count(alg, S, args.cap)
    sks = iter_skeleta(alg, S)
    if args.format == "dot":
        if not 0 <= args.index < count:
            raise ValidationError(f"skeleton index {args.index} out of range (found {count})")
        print(skeleton_dot(alg, next(islice(sks, args.index, None))))
        return 0
    if args.format == "text":
        for i, sk in enumerate(sks):
            print(f"# skeleton {i}")
            print(skeleton_text(alg, sk))
        return 0
    return _emit({"count": count, "skeleta": skeleta_to_json(sks)})


def cmd_critical(args, alg, S):
    sk = canonical_skeleton(alg, S)
    if args.format == "dot":
        print(skeleton_dot(alg, sk, [(sset, ()) for sset in critical_paths(alg, sk)]))
        return 0
    return _emit(critical_report_json(alg, sk))


def cmd_generic(args, alg, S):
    """``generic`` and ``hypergraph``: the generic presentation as DOT, or as JSON."""
    pres = generic_presentation(alg, S, graded=args.graded)
    if args.format == "dot":
        print(skeleton_dot(alg, pres.skeleton, hypergraph(pres).edges))
        return 0
    if args.command == "hypergraph":
        return _emit(hypergraph_to_json(hypergraph(pres)))
    return _emit(presentation_to_json(pres))


def cmd_geometry(args, alg, S):
    return _emit(bundle_report_to_json(bundle_tower(alg, S)))


def cmd_syzygy(args, alg, S):
    return _emit(profile_to_json(iterated_syzygy(alg, S, args.k)))


def cmd_projdim(args, alg, S):
    return _emit(projdim_to_json(projective_dimension(alg, S)))


def cmd_socle(args, alg, S):
    fs = _field(args)
    soc = generic_socle(alg, S, fs)
    return _emit(_stamp({"socle": list(soc)}, args, fs, "seeded-generic"))


def cmd_hom(args, alg, S):
    S2 = _sequence2(args, alg)
    fs = _field(args)
    if S2 is None:
        value = generic_end_dim(alg, S, seeds=_seeds(args), fs=fs)
    else:
        value = generic_hom_dim(alg, S, S2, seeds=_seeds(args), fs=fs)
    return _emit(_stamp({"hom_dim": value}, args, fs, "seeded-generic"))


def cmd_ext(args, alg, S):
    S2 = _sequence2(args, alg)
    fs = _field(args)
    if S2 is None:
        detail = ext_dim_detail(alg, S, None, args.k, _seeds(args), fs)  # self-Ext
    else:
        pres2 = generic_presentation(alg, S2)
        rep_n = materialize(
            pres2, seeded_assignment(pres2, _seed(args) + PAIR_SEED_OFFSET, fs), fs)
        detail = ext_dim_detail(alg, S, rep_n, args.k, _seeds(args), fs)
    data = {"ext_dim": detail["value"], "k": args.k, "per_seed": detail["per_seed"]}
    return _emit(_stamp(data, args, fs, "seeded-generic"))


def cmd_decompose(args, alg, S):
    fs = _field(args)
    v = decomposability(alg, S, graded=args.graded, seeds=_seeds(args), fs=fs)
    return _emit(_stamp({"verdict": v.verdict, "witness": v.witness},
                        args, fs, v.confidence))


def cmd_components(args, alg, S):
    top = _dimvec(args.top) if args.top is not None else None
    fs, dimvec, seeds = _field(args), _dimvec(args.dimvec), _seeds(args)
    if args.format == "dot":  # the Hasse diagram needs no verdict and no generic socle
        sequences = sifted_sequences(alg, dimvec, top, args.max_top_dim, args.cap)
        print(hasse_dot(sequence_poset(alg, sequences)))
        return 0
    rep = component_report(alg, dimvec, top, args.max_top_dim, seeds, fs, args.cap)
    data = _report_json(rep)
    data["pairs"] = _ROWS
    data["version"] = __version__
    return _emit(data, _pairs_text(rep, data["sequences"], "\n  ", memo := {}), memo)


def cmd_point_skeleta(args, alg, S):
    fs = _field(args, default=RATIONALS)
    rep = module_point_from_json(_load_json(args.module), alg, fs)
    sks = distinguished_skeleta_of(rep, cap=args.cap)
    return _emit({"count": len(sks), "skeleta": skeleta_to_json(sks)})


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """A new ``genrep`` parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="genrep", description="Generic-module invariants of truncated path algebras.")
    parser.add_argument("--version", action="version", version=f"genrep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, seq=True, seeded=False, field=False, formats=(), cap=False):
        """A subcommand with --algebra and the shared flags it honours."""
        p = sub.add_parser(name, help=help)
        # looked up by name at each run, so that a wrapper set on the module later runs
        p.set_defaults(func=func.__name__)
        p.add_argument("--algebra", required=True, help="algebra JSON file")
        if seq:
            p.add_argument("--seq", help="semisimple sequence JSON file")
            p.add_argument("--layers", help="inline sequence, e.g. '[[1,1],[0,1],[1,0]]'")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="seed (fallback: GENREP_SEED, then 0)")
        if seeded or field:
            p.add_argument("--modulus", type=int, default=None, help="prime field modulus")
            p.add_argument("--exact", action="store_true", help="exact rational arithmetic")
        if formats:
            p.add_argument("--format", choices=["json", *formats], default="json")
        if cap:
            p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="enumeration cap")
        return p

    add("realizable", cmd_realizable, "test realizability of a sequence")

    p = add("sequences", cmd_sequences, "enumerate realizable sequences", seq=False, cap=True)
    p.add_argument("--dimvec", required=True, help="comma-separated dimension vector")
    p.add_argument("--top", help="restrict to this top (comma-separated)")

    p = add("skeleta", cmd_skeleta, "enumerate compatible skeleta", formats=("dot", "text"),
            cap=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--index", type=int, default=0, help="skeleton index for DOT output")

    add("critical", cmd_critical, "critical paths and sigma-sets", formats=("dot",))
    p = add("generic", cmd_generic, "generic projective presentation", formats=("dot",))
    p.add_argument("--graded", action="store_true")
    p = add("hypergraph", cmd_generic, "hypergraph of the generic module", formats=("dot",))
    p.add_argument("--graded", action="store_true")
    p.add_argument("--dot", dest="format", action="store_const", const="dot")

    add("geometry", cmd_geometry, "bundle-tower dimensions N, N0, N1")
    p = add("syzygy", cmd_syzygy, "iterated syzygy profile")
    p.add_argument("--k", type=int, default=1)
    add("projdim", cmd_projdim, "generic projective dimension")

    add("socle", cmd_socle, "generic socle (seeded)", seeded=True)
    p = add("hom", cmd_hom, "generic Hom / End dimension (seeded)", seeded=True)
    p.add_argument("--seq2", help="second sequence file (independent generic copy)")
    p = add("ext", cmd_ext, "generic Ext dimension (seeded, two methods at k=1)", seeded=True)
    p.add_argument("--seq2", help="second sequence file (independent generic copy)")
    p.add_argument("--k", type=int, default=1)
    p = add("decompose", cmd_decompose, "(in)decomposability verdict", seeded=True)
    p.add_argument("--graded", action="store_true")

    p = add("components", cmd_components, "irreducible-component sifting report", seq=False,
            seeded=True, formats=("dot",), cap=True)
    p.add_argument("--dimvec", required=True)
    p.add_argument("--top", help="restrict to this top (comma-separated)")
    p.add_argument("--max-top-dim", type=int, default=None)

    p = add("point-skeleta", cmd_point_skeleta, "distinguished skeleta of a module point",
            seq=False, field=True, cap=True)
    p.add_argument("--module", required=True, help="module point JSON file")
    return parser


_TREE = None  # the parser main parses with, built on its first call: a parse leaves no state


def main(argv=None) -> int:
    """Run one subcommand on the algebra and then the sequence (for a subcommand with
    ``--seq``/``--layers``), each loaded here once.  The arguments after a subcommand's
    name are parsed once, by that subcommand's node of the kept parser, as the parser's
    subparser action does, and the whole parser reports what is left over, as its
    ``parse_args`` does; any other argv goes to the whole parser."""
    global _TREE
    argv = sys.argv[1:] if argv is None else argv
    if _TREE is None:
        _TREE = build_parser()
    # the subcommand nodes by name, as the parser's one positional, its subparsers, holds them
    node = _TREE._subparsers._group_actions[0].choices.get(argv[0]) if argv else None
    if node is None:
        args = _TREE.parse_args(argv)
    else:
        args, rest = node.parse_known_args(argv[1:])
        if rest:
            _TREE.parse_args(argv)  # exits with the whole parser's message
            _TREE.error("unrecognized arguments: " + " ".join(rest))
        args.command = argv[0]
    try:
        if getattr(args, "cap", 0) < 0:
            raise ValidationError(f"--cap must be >= 0, got {args.cap}")
        if (getattr(args, "max_top_dim", None) or 0) < 0:
            raise ValidationError(f"--max-top-dim must be >= 0, got {args.max_top_dim}")
        alg = algebra_from_json(_load_json(args.algebra))
        S = _sequence(args, alg) if hasattr(args, "layers") else None
        code = globals()[args.func](args, alg, S)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout: the Python docs' recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GenrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input needs more than Python's recursion limit of "
              f"{sys.getrecursionlimit()} nested calls", file=sys.stderr)
        return 3
    except (OverflowError, MemoryError) as exc:  # such as a --dimvec entry of 10**18 or more
        print(f"error: input too large to hold ({type(exc).__name__})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
