"""Command-line front end: JSON in, JSON/DOT/text out.

Every randomized artifact embeds the seed, the field modulus, and a
confidence label; output is byte-identical for identical inputs and seed.
Exit codes: 0 success, 2 validation error, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .components import component_report, report_to_json
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
    count_skeleta,
    critical_paths,
    enumerate_skeleta,
    skeleton_to_json,
)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from None


def _algebra(args) -> TruncatedAlgebra:
    return algebra_from_json(_load_json(args.algebra))


def _sequence(args, alg):
    if getattr(args, "layers", None):
        try:
            rows = json.loads(args.layers)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed --layers value: {exc}") from None
        return sequence_from_json({"layers": rows}, alg)
    if getattr(args, "seq", None):
        return sequence_from_json(_load_json(args.seq), alg)
    raise ValidationError("a sequence is required (--seq FILE or --layers JSON)")


def _sequence2(args, alg):
    return sequence_from_json(_load_json(args.seq2), alg) if args.seq2 else None


def _field(args, default: FieldSpec = FieldSpec()) -> FieldSpec:
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

    ``pad`` is a newline plus the indentation of ``obj``; ``memo`` maps the
    (id, pad) of each list or tuple already encoded to its text, so a block
    shared by many parents is encoded once.  Other value types go to
    ``json.dumps``, re-indented by replacing each newline (encoded JSON
    holds no raw newline).
    """
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return {None: "null", True: "true", False: "false"}[obj]
    inner = pad + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if (id(obj), pad) not in memo:
            memo[id(obj), pad] = ("[" + inner + ("," + inner).join(
                [_dumps(x, inner, memo) for x in obj]) + pad + "]")
        return memo[id(obj), pad]
    if kind is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [_encode_str(k) + ": " + _dumps(v, inner, memo) for k, v in obj.items()]) + pad + "}")
    return json.dumps(obj, indent=2).replace("\n", pad)


def _emit(data) -> int:
    print(_dumps(data, "\n", {}))
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

def _el_id(el) -> str:
    r, p = el
    return f"z{r}" + ("_" + "_".join(p.arrows) if p.arrows else "")


def skeleton_dot(alg, sk, with_critical=False, with_hyperedges=False,
                 presentation=None) -> str:
    lines = ["digraph skeleton {", '  rankdir=TB;']
    for el in sk.elements:
        lines.append(f'  "{_el_id(el)}" [label="{sk.end(el)}"];')
    for el in sk.elements:
        r, p = el
        if p.length == 0:
            continue
        parent = (r, p.initial_subpath(p.length - 1))
        lines.append(f'  "{_el_id(parent)}" -> "{_el_id(el)}" '
                     f'[label="{p.arrows[0]}", style=solid];')
    if with_critical or with_hyperedges:
        sets = critical_paths(alg, sk)
        for i, sset in enumerate(sets):
            crit = sset.critical
            cid = f"crit{i}"
            end = alg.path_end(crit.path(alg))
            lines.append(f'  "{cid}" [label="{end}"];')
            lines.append(f'  "{_el_id(crit.parent)}" -> "{cid}" '
                         f'[label="{crit.arrow}", style=dashed];')
            if with_hyperedges:
                members = sset.members
                if presentation is not None:
                    rel = presentation.relations[i]
                    members = tuple(mem for mem, _ in rel.terms)
                if not members:
                    continue
                hid = f"hyper{i}"
                lines.append(f'  "{hid}" [shape=point];')
                lines.append(f'  "{hid}" -> "{cid}" [style=dotted, dir=none];')
                for mem in members:
                    lines.append(f'  "{hid}" -> "{_el_id(mem)}" [style=dotted, dir=none];')
    lines.append("}")
    return "\n".join(lines)


def hasse_dot(report) -> str:
    lines = ["digraph dominance {", "  rankdir=BT;"]
    for i, S in enumerate(report.sequences):
        label = "|".join("".join(str(x) for x in row) for row in S.layers)
        lines.append(f'  "s{i}" [label="{label}"];')
    for lo, hi in report.poset.hasse_edges:
        lines.append(f'  "s{lo}" -> "s{hi}";')
    lines.append("}")
    return "\n".join(lines)


def skeleton_text(alg, sk) -> str:
    children: dict = {el: [] for el in sk.elements}
    roots = []
    for el in sk.elements:
        r, p = el
        if p.length == 0:
            roots.append(el)
        else:
            children[(r, p.initial_subpath(p.length - 1))].append(el)
    lines = []

    def walk(el, depth):
        r, p = el
        tag = f"z{r} <{sk.end(el)}>" if p.length == 0 else f"{p.arrows[0]} -> {sk.end(el)}"
        lines.append("  " * depth + tag)
        for child in children[el]:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_realizable(args):
    alg = _algebra(args)
    S = _sequence(args, alg)
    return _emit({"realizable": realizable(alg, S)})


def cmd_sequences(args):
    alg = _algebra(args)
    top = _dimvec(args.top) if args.top else None
    seqs = enumerate_sequences(alg, _dimvec(args.dimvec), top=top)
    return _emit({"count": len(seqs), "sequences": [sequence_to_json(S) for S in seqs]})


def cmd_skeleta(args):
    alg = _algebra(args)
    S = _sequence(args, alg)
    if args.count_only:
        return _emit({"count": count_skeleta(alg, S)})
    sks = enumerate_skeleta(alg, S, cap=args.cap)
    if args.format == "dot":
        if not 0 <= args.index < len(sks):
            raise ValidationError(f"skeleton index {args.index} out of range "
                                  f"(found {len(sks)})")
        print(skeleton_dot(alg, sks[args.index]))
        return 0
    if args.format == "text":
        for i, sk in enumerate(sks):
            print(f"# skeleton {i}")
            print(skeleton_text(alg, sk))
        return 0
    return _emit({"count": len(sks), "skeleta": [skeleton_to_json(sk) for sk in sks]})


def cmd_critical(args):
    alg = _algebra(args)
    S = _sequence(args, alg)
    sk = canonical_skeleton(alg, S)
    if args.format == "dot":
        print(skeleton_dot(alg, sk, with_critical=True))
        return 0
    return _emit(critical_report_json(alg, sk))


def cmd_generic(args):
    """``generic`` and ``hypergraph``: the generic presentation as DOT, or as JSON."""
    alg = _algebra(args)
    S = _sequence(args, alg)
    pres = generic_presentation(alg, S, graded=args.graded)
    if args.format == "dot":
        print(skeleton_dot(alg, pres.skeleton, with_critical=True,
                           with_hyperedges=True, presentation=pres))
        return 0
    if args.command == "hypergraph":
        return _emit(hypergraph_to_json(hypergraph(pres)))
    return _emit(presentation_to_json(pres))


def cmd_geometry(args):
    alg = _algebra(args)
    S = _sequence(args, alg)
    return _emit(bundle_report_to_json(bundle_tower(alg, S)))


def cmd_syzygy(args):
    alg = _algebra(args)
    S = _sequence(args, alg)
    return _emit(profile_to_json(iterated_syzygy(alg, S, args.k)))


def cmd_projdim(args):
    alg = _algebra(args)
    S = _sequence(args, alg)
    return _emit(projdim_to_json(projective_dimension(alg, S)))


def cmd_socle(args):
    alg = _algebra(args)
    S = _sequence(args, alg)
    fs = _field(args)
    soc = generic_socle(alg, S, seeds=_seeds(args), fs=fs)
    return _emit(_stamp({"socle": list(soc)}, args, fs, "seeded-generic"))


def cmd_hom(args):
    alg = _algebra(args)
    S = _sequence(args, alg)
    S2 = _sequence2(args, alg)
    fs = _field(args)
    if S2 is None:
        value = generic_end_dim(alg, S, seeds=_seeds(args), fs=fs)
    else:
        value = generic_hom_dim(alg, S, S2, seeds=_seeds(args), fs=fs)
    return _emit(_stamp({"hom_dim": value}, args, fs, "seeded-generic"))


def cmd_ext(args):
    alg = _algebra(args)
    S = _sequence(args, alg)
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


def cmd_decompose(args):
    alg = _algebra(args)
    S = _sequence(args, alg)
    fs = _field(args)
    v = decomposability(alg, S, graded=args.graded, seeds=_seeds(args), fs=fs)
    return _emit(_stamp({"verdict": v.verdict, "witness": v.witness},
                        args, fs, v.confidence))


def cmd_components(args):
    alg = _algebra(args)
    top = _dimvec(args.top) if args.top else None
    fs = _field(args)
    rep = component_report(alg, _dimvec(args.dimvec), top=top,
                           max_top_dim=args.max_top_dim, seeds=_seeds(args), fs=fs)
    if args.format == "dot":
        print(hasse_dot(rep))
        return 0
    data = report_to_json(rep)
    data["version"] = __version__
    return _emit(data)


def cmd_point_skeleta(args):
    alg = _algebra(args)
    fs = _field(args, default=RATIONALS)
    rep = module_point_from_json(_load_json(args.module), alg, fs)
    sks = distinguished_skeleta_of(rep, cap=args.cap)
    return _emit({"count": len(sks), "skeleta": [skeleton_to_json(sk) for sk in sks]})


# ---------------------------------------------------------------------------

def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``genrep`` parser, with only the subparser of ``command`` if that names one.

    On arguments that start with that name it acts and reports as the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="genrep",
        description="Generic-module invariants of truncated path algebras.")
    parser.add_argument("--version", action="version", version=f"genrep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    names = []

    def add(name, func, help, seq=True, seeded=False, field=False, formats=(), cap=False):
        """A subcommand with --algebra and the shared flags it honours; None if not built."""
        names.append(name)
        if command is not None and name != command:
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
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

    if p := add("sequences", cmd_sequences, "enumerate realizable sequences", seq=False):
        p.add_argument("--dimvec", required=True, help="comma-separated dimension vector")
        p.add_argument("--top", help="restrict to this top (comma-separated)")

    if p := add("skeleta", cmd_skeleta, "enumerate compatible skeleta",
                formats=("dot", "text"), cap=True):
        p.add_argument("--count-only", action="store_true")
        p.add_argument("--index", type=int, default=0, help="skeleton index for DOT output")

    add("critical", cmd_critical, "critical paths and sigma-sets", formats=("dot",))
    if p := add("generic", cmd_generic, "generic projective presentation", formats=("dot",)):
        p.add_argument("--graded", action="store_true")
    if p := add("hypergraph", cmd_generic, "hypergraph of the generic module", formats=("dot",)):
        p.add_argument("--graded", action="store_true")
        p.add_argument("--dot", dest="format", action="store_const", const="dot")

    add("geometry", cmd_geometry, "bundle-tower dimensions N, N0, N1")
    if p := add("syzygy", cmd_syzygy, "iterated syzygy profile"):
        p.add_argument("--k", type=int, default=1)
    add("projdim", cmd_projdim, "generic projective dimension")

    add("socle", cmd_socle, "generic socle (seeded)", seeded=True)
    if p := add("hom", cmd_hom, "generic Hom / End dimension (seeded)", seeded=True):
        p.add_argument("--seq2", help="second sequence file (independent generic copy)")
    if p := add("ext", cmd_ext, "generic Ext dimension (seeded, two methods at k=1)",
                seeded=True):
        p.add_argument("--seq2", help="second sequence file (independent generic copy)")
        p.add_argument("--k", type=int, default=1)
    if p := add("decompose", cmd_decompose, "(in)decomposability verdict", seeded=True):
        p.add_argument("--graded", action="store_true")

    if p := add("components", cmd_components, "irreducible-component sifting report",
                seq=False, seeded=True, formats=("dot",)):
        p.add_argument("--dimvec", required=True)
        p.add_argument("--top", help="restrict to this top (comma-separated)")
        p.add_argument("--max-top-dim", type=int, default=None)

    if p := add("point-skeleta", cmd_point_skeleta, "distinguished skeleta of a module point",
                seq=False, field=True, cap=True):
        p.add_argument("--module", required=True, help="module point JSON file")
    if command not in (None, *names):
        return build_parser()
    if command is not None:
        # the usage line lists every name, as the full parser's choices do; the full
        # parser keeps no metavar, which would replace "command" in its errors
        sub.metavar = "{" + ",".join(names) + "}"
    return parser


def main(argv=None) -> int:
    """Run one subcommand; only its own subparser is built when argv names one."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GenrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
