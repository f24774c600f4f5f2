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

Dominance is two bitsets per sequence; a report keeps, per inner sequence, a row of the
pairs dominance admits, coded once per pair of classes, and ``closure_containment_test`` is
the per-pair reference.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .algebra_core import (
    DimensionVector,
    SemisimpleSequence,
    TruncatedAlgebra,
    _layer_table,
    _partial_sums,
    enumerate_sequences,
)
from .errors import EnumerationCapError, ValidationError
from .matrix_rep import DEFAULT_FIELD, FieldSpec, _check_random_field, _socle_of_tail


def annihilating_arrows(alg: TruncatedAlgebra, S: SemisimpleSequence) -> frozenset[str]:
    """Arrows that kill every module with radical layering S.

    An arrow i -> j qualifies when every skeleton member at i dies under
    extension: the extension is longer than L, or is critical with an empty
    sigma-set.  A member of length l < L at i exists iff S_l[i] > 0, and its
    extension survives iff vertex j occurs in some layer l+1..L, so the
    answer only depends on layer counts, never on the skeleton.
    """
    return _annihilators(alg, S, _layer_table(alg, S)[1])


def _annihilators(alg: TruncatedAlgebra, S: SemisimpleSequence, tail) -> frozenset[str]:
    """``annihilating_arrows`` of a realizable S, given tail[l], the layers l..L summed."""
    # the shortest member at i (first layer l < L holding i) has the most layers below
    first = [next((l for l in range(alg.L) if S.layers[l][i]), alg.L) for i in range(alg.n)]
    return frozenset(a.name for a, (i, j) in zip(alg.quiver.arrows, alg.quiver.arrow_ends)
                     if not tail[first[i] + 1][j])


class PruningVerdict(NamedTuple):
    """One ordered pair's verdict; a tuple, so making one writes no attributes."""
    inner: SemisimpleSequence
    outer: SemisimpleSequence
    verdict: str        # excluded-dominance | excluded-annihilator | excluded-socle | possible
    evidence: dict
    confidence: str     # certified | seeded-generic


# the codes (verdict, evidence, confidence) of all dominance-excluded and possible pairs
_NOT_DOMINANT = {"reason": "inner sequence does not dominate outer"}
_DOMINANCE = ("excluded-dominance", _NOT_DOMINANT, "certified")
_POSSIBLE = ("possible", {}, "seeded-generic")
# the set bits of each byte value, ascending: those of b + 2^j are those of b, then j
_BYTE_BITS = functools.reduce(lambda t, j: t + [b + (j,) for b in t], range(8), [()])


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending, read byte by byte."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * i + j for i, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]


class _SiftFacts:
    """Per-sequence facts of one sifting run, each computed at most once.

    Dominance is two bitsets per position, built from the flattened partial sums one
    coordinate at a time: bit j of ``le[i]`` is set when the sums of j are at most
    those of i (the outer j dominance admits for inner i), of ``ge[i]`` when at least.
    Annihilators and generic socles are memoised per position, both read off one tail per
    sequence: ``_layer_table``'s, which checks S, or, for ``enumerated`` sequences (those of
    ``enumerate_sequences``, realizable by construction), the complements of the partial
    sums.  The codes ``(verdict, evidence, confidence)`` are memoised per missing arrows,
    so equal annihilator evidence is one dict, never mutated; a socle code is built per
    call, which ``component_report`` makes once per pair of classes.
    ``code``, the per-pair reference, reads only the two classes (annihilators, socle); it
    refuses ``fs`` (too small a field) only where it compares socles.
    """

    def __init__(self, alg, sequences, fs: FieldSpec = DEFAULT_FIELD, enumerated=False):
        if len({(len(S.layers), S.total_dim) for S in sequences}) > 1:
            raise ValidationError("sequences have different layer counts or total dimension")
        self.le = self.ge = [(1 << len(sequences)) - 1] * len(sequences)
        sums = [_partial_sums(S) for S in sequences]
        for column in zip(*(sum(s, ()) for s in sums)):
            buckets: dict[int, int] = {}
            for i, x in enumerate(column):
                buckets[x] = buckets.get(x, 0) | 1 << i
            up = sorted(buckets)
            at_most = dict(zip(up, accumulate(map(buckets.get, up), operator.or_)))
            at_least = dict(zip(up[::-1], accumulate(map(buckets.get, up[::-1]), operator.or_)))
            self.le = [m & at_most[x] for m, x in zip(self.le, column)]
            self.ge = [m & at_least[x] for m, x in zip(self.ge, column)]
        self.fs = fs

        @functools.cache
        def tail(i):  # tail[l], the layers l..L summed, for l = 0..L+1
            if not enumerated:
                return _layer_table(alg, sequences[i])[1]
            total = sums[i][-1]
            return [total, *(tuple(map(operator.sub, total, p)) for p in sums[i])]

        self.annihilators = functools.cache(lambda i: _annihilators(alg, sequences[i], tail(i)))
        self.socle = functools.cache(lambda i: _socle_of_tail(alg, tail(i)))
        self.annihilator_code = functools.cache(lambda missing: (
            "excluded-annihilator", {"arrows": list(missing)}, "certified"))

    def code(self, at_out: int, at_in: int) -> tuple:
        """The code of a pair that dominance admits: the first of the annihilator and
        socle conditions that excludes it, else ``possible``."""
        missing = self.annihilators(at_out) - self.annihilators(at_in)
        if missing:
            return self.annihilator_code(tuple(sorted(missing)))
        _check_random_field(self.fs)
        soc_outer, soc_inner = self.socle(at_out), self.socle(at_in)
        if any(map(operator.gt, soc_outer, soc_inner)):
            return ("excluded-socle", {"socle_outer": list(soc_outer),
                                       "socle_inner": list(soc_inner)}, "seeded-generic")
        return _POSSIBLE


def closure_containment_test(alg: TruncatedAlgebra, S_inner: SemisimpleSequence,
                             S_outer: SemisimpleSequence,
                             fs: FieldSpec = DEFAULT_FIELD) -> PruningVerdict:
    """First implemented necessary condition that rules out containment, or ``possible``:
    the per-pair reference for the rows of ``component_report``."""
    if S_inner.dim_vector != S_outer.dim_vector:
        raise ValidationError("containment test requires equal dimension vectors")
    facts, at_in, at_out = _SiftFacts(alg, (S_inner, S_outer), fs), 0, 1
    code = facts.code(at_out, at_in) if facts.ge[at_out] >> at_in & 1 else _DOMINANCE
    return PruningVerdict(S_inner, S_outer, *code)


class SequencePoset(NamedTuple):
    sequences: tuple[SemisimpleSequence, ...]
    hasse_edges: tuple[tuple[int, int], ...]   # (lower, upper) index pairs, covers only
    minimal: tuple[int, ...]


def sequence_poset(alg: TruncatedAlgebra, sequences) -> SequencePoset:
    sequences = tuple(sequences)
    return _poset(sequences, _SiftFacts(alg, sequences))


def _poset(sequences, facts: _SiftFacts) -> SequencePoset:
    """Covers and minimal elements; j covers i when no k above i lies below j."""
    up = [m & ~(1 << i) for i, m in enumerate(facts.ge)]
    covers = []
    for i, above in enumerate(up):
        through = functools.reduce(operator.or_, map(up.__getitem__, _bits(above)), 0)
        covers.extend((i, j) for j in _bits(above & ~through))
    minimal = tuple(i for i, m in enumerate(facts.le) if m == 1 << i)
    return SequencePoset(sequences, tuple(covers), minimal)


@dataclass(frozen=True)
class ComponentReport:
    dim_vector: DimensionVector
    poset: SequencePoset
    # per inner i, {outer j: (verdict, evidence, confidence)} for the j != i dominance admits
    rows: tuple[dict[int, tuple[str, dict, str]], ...]
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
                     seeds=(0, 1, 2), fs: FieldSpec = DEFAULT_FIELD,
                     cap: int | None = None) -> ComponentReport:
    """Sift the realizable sequences of a dimension vector for component candidates.

    Each inner sequence's row runs the annihilator and socle tests on the outer
    sequences dominance admits; every other pair is excluded by dominance.  A
    sequence ``possible`` inside another is only possibly a component (reported
    with its potential containers).  Dominance-minimal sequences are components
    outright (class 0).  The candidate count is bracketed by
    the number of minimal sequences and the number of realizable ones.
    ``cap`` bounds the realizable sequences and then the ordered pairs.
    """
    sequences = sifted_sequences(alg, dimvec, top, max_top_dim, cap)
    facts = _SiftFacts(alg, sequences, fs, enumerated=True)
    poset = _poset(tuple(sequences), facts)
    # a sequence of an admitted pair stands for the first of its class: a code per class pair
    first = {}
    cls = [first.setdefault((facts.annihilators(i), facts.socle(i)), i)
           if le | ge != 1 << i else None for i, (le, ge) in enumerate(zip(facts.le, facts.ge))]
    code = functools.cache(facts.code)
    rows = tuple({j: code(cls[j], cls[i]) for j in _bits(m & ~(1 << i))}
                 for i, m in enumerate(facts.le))
    containers = [tuple(j for j, code in row.items() if code is _POSSIBLE) for row in rows]
    return ComponentReport(
        dim_vector=tuple(dimvec),
        poset=poset,
        rows=rows,
        class0=poset.minimal,
        candidates=tuple(i for i, js in enumerate(containers) if not js),
        possibly_redundant={i: js for i, js in enumerate(containers) if js},
        lower_bound=len(poset.minimal),
        upper_bound=len(sequences),
        seeds=tuple(seeds),
        field_modulus=fs.modulus,
    )

