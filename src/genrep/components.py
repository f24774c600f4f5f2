"""Irreducible-component sifting for module varieties of a fixed dimension vector.

Candidate components correspond to realizable semisimple sequences; a
sequence is pruned when it survives every implemented necessary condition
for lying in the closure of another stratum.  The verdict ``possible``
never asserts containment, only that no implemented condition excludes it.

Necessary conditions for Mod(S_inner) to lie in the closure of
Mod(S_outer), applied in order:
  dominance    - the inner (more degenerate) sequence must dominate,
  annihilators - arrows killing all outer modules must kill inner ones,
  socle        - the outer generic socle embeds in the inner one.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .algebra_core import (
    DimensionVector,
    SemisimpleSequence,
    TruncatedAlgebra,
    _partial_sums,
    enumerate_sequences,
    realizable,
)
from .errors import EnumerationCapError, UnrealizableError, ValidationError
from .matrix_rep import FieldSpec, generic_socle


def annihilating_arrows(alg: TruncatedAlgebra, S: SemisimpleSequence) -> frozenset[str]:
    """Arrows that kill every module with radical layering S.

    An arrow i -> j qualifies when every skeleton member at i dies under
    extension: the extension is longer than L, or is critical with an empty
    sigma-set.  A member of length l < L at i exists iff S_l[i] > 0, and its
    extension survives iff vertex j occurs in some layer l+1..L, so the
    answer only depends on layer counts, never on the skeleton.
    """
    if not realizable(alg, S):
        raise UnrealizableError(f"{S} is not realizable")
    out = []
    for a in alg.quiver.arrows:
        i, j = alg.vertex_pos(a.source), alg.vertex_pos(a.target)
        # the shortest member at i (first layer l < L holding i) has the most layers below
        first = next((l for l in range(alg.L) if S.layers[l][i]), alg.L)
        if not any(row[j] for row in S.layers[first + 1:]):
            out.append(a.name)
    return frozenset(out)


class PruningVerdict(NamedTuple):
    """One ordered pair's verdict; a tuple, so making one writes no attributes."""
    inner: SemisimpleSequence
    outer: SemisimpleSequence
    verdict: str        # excluded-dominance | excluded-annihilator | excluded-socle | possible
    evidence: dict
    confidence: str     # certified | seeded-generic


# evidence shared by every dominance-excluded and every possible verdict; never mutated
_NOT_DOMINANT = {"reason": "inner sequence does not dominate outer"}
_NO_EVIDENCE: dict = {}


class _SiftFacts:
    """Per-sequence facts of one sifting run, each computed at most once.

    A sequence is found by its position, ``pos[id(S)]`` (the memos' closures keep
    the sequences alive).  ``below[i][j]`` is ``dominates(sequences[i],
    sequences[j])``, read off flattened partial sums; annihilators and generic
    socles are memoised per position, and socle evidence per pair of socles (so
    verdicts with equal socles share one evidence dict, never mutated).
    """

    def __init__(self, alg, sequences, seeds=(0, 1, 2), fs: FieldSpec = FieldSpec()):
        if len({(len(S.layers), S.total_dim) for S in sequences}) > 1:
            raise ValidationError("sequences have different layer counts or total dimension")
        self.pos = {id(S): i for i, S in enumerate(sequences)}
        sums = [sum(_partial_sums(S), ()) for S in sequences]
        self.below = [[all(map(operator.le, a, b)) for b in sums] for a in sums]
        self.annihilators = functools.cache(lambda i: annihilating_arrows(alg, sequences[i]))
        self.socle = functools.cache(lambda i: generic_socle(alg, sequences[i], seeds, fs))
        self.socle_evidence = functools.cache(lambda outer, inner: {
            "socle_outer": list(outer), "socle_inner": list(inner)})


def closure_containment_test(alg: TruncatedAlgebra, S_inner: SemisimpleSequence,
                             S_outer: SemisimpleSequence, seeds=(0, 1, 2),
                             fs: FieldSpec = FieldSpec(),
                             _facts: _SiftFacts | None = None) -> PruningVerdict:
    """First implemented necessary condition that rules out containment, or ``possible``."""
    if _facts is None:
        if S_inner.dim_vector != S_outer.dim_vector:
            raise ValidationError("containment test requires equal dimension vectors")
        _facts = _SiftFacts(alg, (S_inner, S_outer), seeds, fs)
    at_in, at_out = _facts.pos[id(S_inner)], _facts.pos[id(S_outer)]
    if not _facts.below[at_out][at_in]:
        return PruningVerdict(S_inner, S_outer, "excluded-dominance", _NOT_DOMINANT, "certified")
    missing = sorted(_facts.annihilators(at_out) - _facts.annihilators(at_in))
    if missing:
        return PruningVerdict(S_inner, S_outer, "excluded-annihilator",
                              {"arrows": missing}, "certified")
    soc_outer, soc_inner = _facts.socle(at_out), _facts.socle(at_in)
    if any(o > i for o, i in zip(soc_outer, soc_inner)):
        return PruningVerdict(S_inner, S_outer, "excluded-socle",
                              _facts.socle_evidence(soc_outer, soc_inner), "seeded-generic")
    return PruningVerdict(S_inner, S_outer, "possible", _NO_EVIDENCE, "seeded-generic")


@dataclass(frozen=True)
class SequencePoset:
    sequences: tuple[SemisimpleSequence, ...]
    hasse_edges: tuple[tuple[int, int], ...]   # (lower, upper) index pairs, covers only
    minimal: tuple[int, ...]


def sequence_poset(alg: TruncatedAlgebra, sequences) -> SequencePoset:
    sequences = tuple(sequences)
    return _poset(sequences, _SiftFacts(alg, sequences).below)


def _poset(sequences, below) -> SequencePoset:
    """Covers and minimal elements; j covers i when no k above i lies below j."""
    n = len(sequences)
    up = [{j for j in range(n) if j != i and below[i][j]} for i in range(n)]
    covers = []
    for i in range(n):
        through = set().union(*(up[k] for k in up[i]))
        covers.extend((i, j) for j in sorted(up[i] - through))
    minimal = tuple(i for i in range(n)
                    if not any(below[k][i] for k in range(n) if k != i))
    return SequencePoset(sequences, tuple(covers), minimal)


@dataclass(frozen=True)
class ComponentReport:
    dim_vector: DimensionVector
    poset: SequencePoset
    verdicts: tuple[PruningVerdict, ...]
    class0: tuple[int, ...]                    # dominance-minimal sequences
    candidates: tuple[int, ...]
    possibly_redundant: dict[int, tuple[int, ...]]
    lower_bound: int
    upper_bound: int
    seeds: tuple[int, ...]
    field_modulus: int | None

    @property
    def sequences(self):
        return self.poset.sequences


def sifted_sequences(alg: TruncatedAlgebra, dimvec: DimensionVector, top=None,
                     max_top_dim=None, cap=None) -> list[SemisimpleSequence]:
    """The realizable sequences ``component_report`` sifts, with its two cap checks."""
    sequences = enumerate_sequences(alg, dimvec, top=top, cap=cap, max_top_dim=max_top_dim)
    if cap is not None and len(sequences) * (len(sequences) - 1) > cap:
        raise EnumerationCapError(cap, f"{len(sequences) * (len(sequences) - 1)} ordered "
                                       f"pairs exceed cap of {cap}")
    return sequences


def component_report(alg: TruncatedAlgebra, dimvec: DimensionVector,
                     top: DimensionVector | None = None,
                     max_top_dim: int | None = None,
                     seeds=(0, 1, 2), fs: FieldSpec = FieldSpec(),
                     cap: int | None = None) -> ComponentReport:
    """Sift the realizable sequences of a dimension vector for component candidates.

    Every ordered pair is run through the containment test; a sequence that
    is ``possible`` inside some other sequence is only possibly a component
    (reported with its potential containers).  Dominance-minimal sequences
    are components outright (class 0).  The candidate count is bracketed by
    the number of minimal sequences and the number of realizable ones.
    ``cap`` bounds the realizable sequences and then the ordered pairs.
    """
    sequences = sifted_sequences(alg, dimvec, top, max_top_dim, cap)
    facts = _SiftFacts(alg, sequences, seeds, fs)
    poset = _poset(tuple(sequences), facts.below)
    verdicts = []
    containers: dict[int, list[int]] = {i: [] for i in range(len(sequences))}
    for i, inner in enumerate(sequences):
        for j, outer in enumerate(sequences):
            if i == j:
                continue
            v = closure_containment_test(alg, inner, outer, seeds, fs, facts)
            verdicts.append(v)
            if v.verdict == "possible":
                containers[i].append(j)
    candidates = tuple(i for i in range(len(sequences)) if not containers[i])
    redundant = {i: tuple(js) for i, js in containers.items() if js}
    return ComponentReport(
        dim_vector=tuple(dimvec),
        poset=poset,
        verdicts=tuple(verdicts),
        class0=poset.minimal,
        candidates=candidates,
        possibly_redundant=redundant,
        lower_bound=len(poset.minimal),
        upper_bound=len(sequences),
        seeds=tuple(seeds),
        field_modulus=fs.modulus,
    )


# ---------------------------------------------------------------------------
# JSON interfaces
# ---------------------------------------------------------------------------

def report_to_json(rep: ComponentReport) -> dict:
    # every pair holds its sequences' own list objects, so the CLI encodes each once
    seqs = [[list(r) for r in S.layers] for S in rep.sequences]
    by_layers = {S.layers: rows for S, rows in zip(rep.sequences, seqs)}
    return {
        "dim_vector": list(rep.dim_vector),
        "sequences": seqs,
        "hasse_edges": [list(e) for e in rep.poset.hasse_edges],
        "class0": [seqs[i] for i in rep.class0],
        "candidates": [seqs[i] for i in rep.candidates],
        "possibly_redundant": [
            {"sequence": seqs[i], "possible_containers": [seqs[j] for j in js]}
            for i, js in sorted(rep.possibly_redundant.items())
        ],
        "lower_bound": rep.lower_bound,
        "upper_bound": rep.upper_bound,
        "pairs": [{"inner": by_layers[v.inner.layers], "outer": by_layers[v.outer.layers],
                   "verdict": v.verdict, "evidence": v.evidence, "confidence": v.confidence}
                  for v in rep.verdicts],
        "seed": list(rep.seeds),
        "field_modulus": rep.field_modulus,
        "confidence": "seeded-generic",
    }
