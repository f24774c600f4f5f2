"""Explicit quiver representations over a field, plus everything computed from them.

Materializes generic presentations at concrete scalars, computes radical layerings, socles,
Hom/Ext dimensions, distinguished skeleta of a module point, and (in)decomposability
certificates.  A materialized point has the presentation's layering S at any scalars
(``materialize``), so no point is checked after it is built.  One builder on a skeleton's
basis writes each arrow's sparse columns in one pass, units and the points' scalars alike
(``_module``).  A module stores only sparse arrow columns and sparse top vectors; quotients
(module points) are written as columns too.

Over F_p a seeded Hom, End or Ext is read at three points, built as one module whose entries
are value triples (x0, x1, x2), one value per point (``_module``): it is materialized, its
paths composed and each Hom system scattered once, and ranked at the three at once
(``_rank3``); a pivot zero at only some of them falls back to one point at a time.

Fields are F_p for a large prime p (default 2^61 - 1) or exact rationals; all arithmetic is
exact.  Every rank is one sparse elimination walk (``_pivots``) on ``{column: value}`` rows,
a row reduced only when taken as a pivot row, for one point (``_rank``) or three.  Actions
are applied to sparse vectors by ``_apply``; ``mat_rank``, ``mat_mul``, the dense
matrix-vector product and ``path_action``, the one dense view of a module, are left for
tests.  ``RowSpace``, an incremental echelon basis of sparse rows keyed by pivot, whose
``reduce`` reads only the rows of the pivots a vector reaches, serves ``radical_layering``
and quotients; a distinguished skeleta probe (which reads J^l M off the basis labels) is
one ``_rank``.

Every Hom into a module is the kernel of one relation matrix of a presentation of its source
(``_hom_out_of``): a generic M = P/C, a cyclic Lambda e / J^m e, a simple (``socle``), or
any module by its own basis (``hom_dim``).  The two Ext^1 methods take Hom(M, N) from two
different presentations of M.  The generic socle builds no module: it is counted off the
layering as a term rank, and so a generic rank (``generic_socle``).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .algebra_core import (
    Path,
    SemisimpleSequence,
    TruncatedAlgebra,
    _json_as,
    _layer_table,
    enumerate_paths,
)
from .errors import MethodDisagreementError, SeedStabilityError, ValidationError
from .generic_builder import GenericPresentation, _presentation, generic_presentation, hypergraph
from .homology import CyclicType, SyzygyProfile, last_two_syzygies
from .skeleta import (DEFAULT_CAP, Skeleton, canonical_skeleton, capped_count, critical_paths,
                      iter_skeleta)

MERSENNE_61 = 2**61 - 1
MIN_RANDOM_MODULUS = 10**6
# the second module of a pair is drawn at seed + PAIR_SEED_OFFSET
PAIR_SEED_OFFSET = 0x9E3779B9

# exact below 3.317e24 (Sorenson and Webster, Math. Comp. 86, 2017); a strong-PRP test above
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k bases (OEIS A014233; Jaeschke, Math.
# Comp. 61, 1993): below psi_k the first k bases decide, so n takes bisect_right + 1 of them
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
              3825123056546413051, 318665857834031151167461)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:bisect.bisect_right(_MR_BOUNDS, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Prime field F_p, or exact rationals when ``modulus`` is None."""

    modulus: int | None = MERSENNE_61

    def __post_init__(self):
        if self.modulus is not None and not _is_prime(self.modulus):
            raise ValidationError(f"{self.modulus} is not prime")

    @property
    def exact(self) -> bool:
        return self.modulus is None

    def element(self, x) -> object:
        if self.modulus is None:
            return x if isinstance(x, Fraction) else Fraction(x)
        return int(x) % self.modulus

    def zero(self):
        return Fraction(0) if self.exact else 0

    def one(self):
        return Fraction(1) if self.exact else 1


RATIONALS = FieldSpec(None)
DEFAULT_FIELD = FieldSpec()  # F_p, p = 2^61 - 1: every default, checked prime once


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def mat_mul(fs: FieldSpec, A, B):
    cols = list(zip(*B))
    return [[_dot(fs, row, col) for col in cols] for row in A]


def mat_vec(fs: FieldSpec, A, x):
    return [_dot(fs, row, x) for row in A]


def _dot(fs: FieldSpec, row, x):
    # one reduction per entry over F_p; the Fraction zero keeps Q sums Fractions
    acc = sum([a * b for a, b in zip(row, x) if a and b], fs.zero())
    return acc if fs.modulus is None else acc % fs.modulus


def _pivots(rows: list[dict], reduced):
    """The one elimination walk of sparse rows ``{col: value}``, which it consumes.

    Rows are taken shortest first, in one order fixed at the start, and a row is reduced
    (``reduced``, zeros dropped) only when taken; a cancelled entry stays, and is counted
    as held, until then.  It pivots on the column held by the fewest untaken rows
    (Markowitz's rule), which keeps fill-in low, and yields (pivot entry, rest of the row,
    pivot column, the untaken rows holding it, the column -> rows holder index), to which
    the caller adds its fill-in.  A lone pivot's column is just deleted from its holders,
    and no holder is yielded.
    """
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        for c in rows[i]:
            holders[c].discard(i)
        if not (row := reduced(rows[i])):
            continue
        piv = min(row, key=lambda c: len(holders[c]))
        a, holding = row.pop(piv), holders.pop(piv)
        if not row:
            for j in holding:
                del rows[j][piv]
            holding = ()
        yield a, row, piv, holding, holders


def _rank(p: int | None, rows: list[dict]) -> int:
    """Rank of sparse rows ``{col: value}`` over F_p, or over Q when ``p`` is None: the
    ``_pivots`` walk, in which each row holding the pivot column adds f times the taken
    row, f reduced once and skipped when zero.  Values are any integers over F_p, or
    rationals over Q, zeros included."""
    rank = 0
    for a, row, piv, holding, holders in _pivots(rows, functools.partial(_reduced, p)):
        rank += 1
        if not holding:
            continue
        inv = -1 / Fraction(a) if p is None else p - pow(a, -1, p)
        for j in holding:
            other = rows[j]
            f = other.pop(piv) * inv if p is None else other.pop(piv) * inv % p
            if f:
                for c, x in row.items():
                    if (y := other.get(c)) is None:
                        other[c] = f * x
                        holders[c].add(j)
                    else:
                        other[c] = y + f * x
    return rank


def _rank3(p: int, rows: list[dict]) -> int | None:
    """Three systems' common rank over F_p, ranked as one on rows ``{col: (x0, x1, x2)}``:
    the ``_pivots`` walk, with one inversion per pivot, in which an update is skipped only
    when all three multipliers are zero.  None where a pivot is zero in some system but
    not all (a taken row zero in some, say)."""
    rank = 0
    for (a, b, d), row, piv, holding, holders in _pivots(rows, functools.partial(_reduced, p,
                                                                             three=True)):
        if not (a and b and d):
            return None
        rank += 1
        if not holding:
            continue
        inv = pow(a * b % p * d, -1, p)  # one inversion for the three negated inverses
        ia, ib, id_ = p - inv * b * d % p, p - inv * a * d % p, p - inv * a * b % p
        items = [(c, x, y, z) for c, (x, y, z) in row.items()]
        for j in holding:
            other = rows[j]
            x, y, z = other.pop(piv)
            if (f := x * ia % p) | (g := y * ib % p) | (h := z * id_ % p):
                for c, x, y, z in items:
                    if (t := other.get(c)) is None:
                        other[c] = (f * x, g * y, h * z)
                        holders[c].add(j)
                    else:
                        u, v, w = t
                        other[c] = (u + f * x, v + g * y, w + h * z)
    return rank


def _reduced(p: int | None, acc: dict, three: bool = False) -> dict:
    """``acc`` reduced mod p (untouched over Q, ``p`` None), without its zero entries; with
    ``three``, value triples reduced at each point, dropped where zero at all three."""
    if three:
        return {c: t for c, (x, y, z) in acc.items() if (t := (x % p, y % p, z % p)) != (0, 0, 0)}
    return ({c: y for c, y in acc.items() if y} if p is None else
            {c: m for c, y in acc.items() if (m := y % p)})


def _apply(p: int | None, cols: list[dict], vec: dict, three: bool = False) -> dict:
    """The image of the sparse vector ``vec`` under sparse columns, reduced, without zeros;
    with ``three``, of value triples, multiplied at each point."""
    acc: dict = {}
    if three:
        for k, (u, v, w) in vec.items():
            for i, (x, y, z) in cols[k].items():
                t = acc.get(i)
                acc[i] = (x * u, y * v, z * w) if t is None else (
                    t[0] + x * u, t[1] + y * v, t[2] + z * w)
    else:
        for k, y in vec.items():
            for i, x in cols[k].items():
                acc[i] = acc.get(i, 0) + x * y
    return _reduced(p, acc, three)


def mat_rank(fs: FieldSpec, rows) -> int:
    """Rank of dense rows: a thin adapter onto the sparse elimination ``_rank``."""
    return _rank(fs.modulus, [{i: x for i, e in enumerate(r) if (x := fs.element(e))}
                              for r in rows])


class RowSpace:
    """Incrementally maintained row-echelon basis of a subspace, in sparse rows.

    ``rows`` maps each pivot to its ``{col: value}`` row, with a leading 1 at the pivot, its
    leftmost nonzero column.  ``reduce`` clears the pivots a vector reaches, smallest first:
    a row's other entries lie right of its pivot, so no cleared column is touched again.
    Over F_p input entries are reduced mod p; ``p`` is None over Q, as in ``_rank``.
    """

    def __init__(self, fs: FieldSpec):
        self.p = fs.modulus
        self.rows: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """The unique vector of ``vec`` + span that is zero on every pivot column."""
        p, v, rows = self.p, _reduced(self.p, vec), self.rows
        heap = sorted(c for c in v if c in rows)  # a sorted list is a heap
        while heap:
            piv = heapq.heappop(heap)
            if c := v.get(piv):
                for col, x in rows[piv].items():
                    y = v.get(col, 0) - c * x
                    if p is not None:
                        y %= p
                    if y:
                        if col not in v and col in rows:  # a pivot the update reaches
                            heapq.heappush(heap, col)
                        v[col] = y
                    else:
                        del v[col]
        return v

    def add(self, vec: dict):
        """Insert ``vec``; returns the new reduced basis row, or None if dependent."""
        v = self.reduce(vec)
        if not v:
            return None
        piv, p = min(v), self.p
        inv = 1 / Fraction(v[piv]) if p is None else pow(v[piv], -1, p)
        self.rows[piv] = v = _reduced(p, {c: x * inv for c, x in v.items()})
        return v


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Representation:
    """Per-vertex spaces and per-arrow actions in sparse columns; immutable.

    ``columns[a]`` lists arrow a's columns in arrow order, one ``{target index:
    nonzero field element}`` per source basis element, and each marked top is a
    ``(vertex, {index: nonzero field element})`` pair.  A path's columns are
    composed on first use and memoised in ``_paths`` by arrows (``_path_columns``).

    ``basis_labels[v]``, when present, names the basis at v: (r, p) is p z_r, a
    skeleton member or its image in a quotient.  Each vertex's basis is sorted by
    label length, and J^l M is the span of the basis elements whose labels have
    length >= l (``materialize`` and ``quotient_representation`` prove it).

    ``_three`` marks a module of three points over F_p (``_module``), read only by the Hom
    routes: each entry is a triple (x0, x1, x2) of values at the points, each unit (1, 1, 1).
    """

    algebra: TruncatedAlgebra
    field: FieldSpec
    dims: tuple[int, ...]
    columns: dict[str, list[dict]]
    basis_labels: dict[str, tuple] | None = None
    top_elements: tuple[tuple[str, dict], ...] | None = None
    _three: bool = dataclasses.field(default=False, repr=False)
    _paths: dict = dataclasses.field(default_factory=dict, repr=False)

    def dim_at(self, v: str) -> int:
        return self.dims[self.algebra.vertex_pos(v)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def _check_over(alg: TruncatedAlgebra, fs: FieldSpec, rep: Representation) -> None:
    """Refuse ``rep`` unless it lives over ``alg`` (its vertices, L and arrows) and ``fs``."""
    b = rep.algebra  # an Arrow equals one of the same name, source and target
    if (b.vertices, b.L, b.quiver.arrows) != (alg.vertices, alg.L, alg.quiver.arrows):
        raise ValidationError("representations live over different algebras")
    if rep.field != fs:
        raise ValidationError("representations live over different fields")


def _check_random_field(fs: FieldSpec) -> None:
    if not fs.exact and fs.modulus <= MIN_RANDOM_MODULUS:
        raise ValidationError(
            f"field modulus must exceed {MIN_RANDOM_MODULUS} for randomized evaluation")


def _first_primes(n: int) -> list[int]:
    """The first n primes, from one sieve up to p_n < n (ln n + ln ln n), n >= 6 (Rosser)."""
    top = int(n * (math.log(n) + math.log(math.log(n)))) if n >= 6 else 11
    sieve = bytearray([0, 0]) + bytearray([1]) * (top - 1)
    for i in range(2, math.isqrt(top) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, top + 1, i)))
    return list(itertools.islice(itertools.compress(itertools.count(), sieve), n))


def seeded_assignment(pres: GenericPresentation, seed: int,
                      fs: FieldSpec = DEFAULT_FIELD) -> list:
    """Distinct nonzero values drawn from a seeded PRNG, a list indexed by scalar number.

    Over F_p they are ``random.Random(seed).randrange(1, p)``, repeats redrawn, taken as
    it takes them on Python 3.10-3.13: 1 + ``getrandbits(k)``, k = (p - 1).bit_length(),
    redrawn while >= p; n > p - 1 scalars are refused before any draw.  Over Q they are the
    first n primes, so exact runs need no modulus and ignore the seed: over Q the three
    seeds are one point, evaluated once per caller.
    """
    n = len(pres.scalar_ids)
    if fs.exact:
        return list(map(Fraction, _first_primes(n)))
    _check_random_field(fs)
    if n > (width := fs.modulus - 1):
        raise ValidationError(f"{n} distinct nonzero scalars exceed the {width} of F_{fs.modulus}")
    bits, k, seen, values = random.Random(seed).getrandbits, width.bit_length(), set(), []
    for _ in range(n):
        while (r := bits(k)) >= width or r in seen:
            pass  # redraw until r is in range and new
        seen.add(r)
        values.append(1 + r)
    return values


def materialize(pres: GenericPresentation, values,
                fs: FieldSpec = DEFAULT_FIELD) -> Representation:
    """Evaluate a generic presentation at concrete scalars, ``values[k]`` for x_k.

    The module is built in one pass (``_module``).  It has the presentation's radical
    layering S for every choice of scalars, zero included, so nothing is checked after the
    build.  A basis element (r, p) is p z_r, so it lies in J^{len p} M.  Each arrow sends a
    length-l basis element to a skeleton element of length l+1, to sigma-set members of
    length >= l+1, or to zero, so J^l M lies in the span of the basis elements of length
    >= l.  Hence J^l M is that span, and layer l of M is layer l of the skeleton, which is S.
    """
    if len(values) < len(pres.scalar_ids):
        raise ValidationError(f"assignment missing scalar x_{len(values)}")
    return _module(pres.skeleton, pres.relations, [values], fs)


def _module(sk: Skeleton, relations, points, fs: FieldSpec) -> Representation:
    """The module on the basis ``sk.basis``, with marked tops z_r, at one point's scalars
    (indexed by scalar number), or at three seeded points as one module on value triples:
    scalar k is (a0[k], a1[k], a2[k]), each unit (1, 1, 1).

    ``index`` numbers the basis per vertex.  Every column starts empty (zero).  Each member
    alpha*p of the skeleton is the unit column of arrow alpha at its parent p.  Each
    relation's critical path alpha*p takes the assigned combination of its sigma-set
    members at (alpha, p).  No other extension has length <= L.
    """
    alg, element, basis, three = sk.alg, fs.element, sk.basis, len(points) == 3
    values, one = (list(zip(*points)), (1, 1, 1)) if three else (points[0], fs.one())
    # an element (r, p) is keyed by (r, p.arrows): r fixes the start of p
    index = {(r, p.arrows): i for els in basis.values() for i, (r, p) in enumerate(els)}
    cols = {a.name: [{}] * len(basis[a.source]) for a in alg.quiver.arrows}
    for r, p in sk.elements:
        if p.arrows:
            cols[p.arrows[0]][index[r, p.arrows[1:]]] = {index[r, p.arrows]: one}
    for rel in relations:  # a seeded triple is nonzero at every point
        c, terms = rel.critical, [(index[s, q.arrows], k) for (s, q), k in rel.terms]
        cols[c.arrow][index[c.r, c.parent[1].arrows]] = (
            {i: values[k] for i, k in terms} if three else
            {i: x for i, k in terms if (x := element(values[k]))})
    tops = tuple((v, {index[r, ()]: one}) for r, v in enumerate(sk.top, start=1))
    return Representation(alg, fs, tuple(len(basis[v]) for v in alg.vertices), cols,
                          dict(basis), tops, three)


def _radical_spaces(rep: Representation) -> list[dict[str, RowSpace]]:
    """Bases of J^l M per vertex, l = 0..L+1; the last must be zero."""
    alg, fs = rep.algebra, rep.field
    spaces = [{v: RowSpace(fs) for v in alg.vertices}]
    for v, rs in spaces[0].items():
        # J^0 M = M: the identity rows are already an echelon basis
        rs.rows = {i: {i: fs.one()} for i in range(rep.dim_at(v))}
    for _ in range(alg.L + 1):
        prev = spaces[-1]
        nxt = {v: RowSpace(fs) for v in alg.vertices}
        for a in alg.quiver.arrows:
            cols = rep.columns[a.name]
            for row in prev[a.source].rows.values():
                nxt[a.target].add(_apply(fs.modulus, cols, row))
        spaces.append(nxt)
    return spaces


def radical_layering(rep: Representation) -> SemisimpleSequence:
    """Per-vertex dimensions of J^l M / J^{l+1} M for l = 0..L, by elimination."""
    alg, spaces = rep.algebra, _radical_spaces(rep)
    if any(spaces[alg.L + 1][v].dim for v in alg.vertices):
        raise ValidationError("representation is not annihilated by paths of length L+1")
    return SemisimpleSequence(tuple(
        tuple(spaces[l][v].dim - spaces[l + 1][v].dim for v in alg.vertices)
        for l in range(alg.L + 1)))


def socle(rep: Representation) -> tuple[int, ...]:
    """Per-vertex socle dimensions dim Hom(S_v, M), S_v the cyclic Lambda e_v / J e_v."""
    alg = rep.algebra
    return tuple(hom_dim_from_cyclic(alg, CyclicType(v, 1), rep) for v in alg.vertices)


def hom_dim(rep_a: Representation, rep_b: Representation) -> int:
    """dim Hom(A, B), for any two representations, out of A's basis presentation.

    A generator z_k per basis element of A, grouped by vertex, and a relation
    a z_j - sum_i A_a[i, j] z_i per arrow a and basis element j of A at its source,
    i over A's basis at its target.  This presents A otherwise than the P/C of
    ``_presented_hom_dims``, so the Ext^1 cross-check in ``ext_dim_detail`` compares
    two presentations of M on one relation matrix.  When both modules carry basis
    labels, z_k of length l maps into J^l B, so only B's basis from length l on is sought.
    """
    return _basis_hom_dims(rep_a, rep_b)[0]


def _basis_hom_dims(rep_a: Representation, rep_b: Representation) -> list[int]:
    """``hom_dim`` at each point of A and B, both at one point or both at the same three
    (``_hom_out_of``); a term -A_a[i, j] z_i is A_a[i, j] times minus a unit column."""
    _check_over(rep_a.algebra, rep_a.field, rep_b)
    alg = rep_a.algebra
    minus = (-1, -1, -1) if rep_b._three else -rep_b.field.one()
    labelled = rep_a.basis_labels is not None and rep_b.basis_labels is not None
    first, tops = {}, []
    for v in alg.vertices:
        first[v] = len(tops)
        a_len = [q.length for _, q in rep_a.basis_labels[v]] if labelled else [0] * rep_a.dim_at(v)
        b_len = [q.length for _, q in rep_b.basis_labels[v]] if labelled else []
        tops += [(v, bisect.bisect_left(b_len, l)) for l in a_len]
    unit = {v: [{i: minus} for i in range(rep_b.dim_at(v))] for v in alg.vertices}
    return _hom_out_of(tops, rep_b, [
        (rep_b.columns[a.name], first[a.source] + j,
         [(unit[a.target], first[a.target] + i, x) for i, x in col.items()])
        for a in alg.quiver.arrows for j, col in enumerate(rep_a.columns[a.name])])


def _path_columns(rep: Representation, p: Path) -> list[dict]:
    """Sparse columns of a path's action: the identity, an arrow's columns, or (memoised
    per module by arrows) the leftmost arrow's composed with the initial subpath's."""
    arrows, paths = p.arrows, rep._paths
    if not arrows:
        one = (1, 1, 1) if rep._three else rep.field.one()
        return [{j: one} for j in range(rep.dim_at(p.start))]
    i = 0  # arrows[i:] is the longest initial subpath at hand, a lone arrow at worst
    while i < len(arrows) - 1 and arrows[i:] not in paths:
        i += 1
    cols = paths[arrows[i:]] if i < len(arrows) - 1 else rep.columns[arrows[i]]
    for i in range(i - 1, -1, -1):  # then the longer ones, each memoised
        cols = paths[arrows[i:]] = [_apply(rep.field.modulus, rep.columns[arrows[i]], col,
                                           rep._three) for col in cols]
    return cols


def path_action(rep: Representation, p: Path) -> tuple:
    """Matrix of the action of a path (start -> end), a tuple of rows: the one dense
    view of a module, built from ``_path_columns``."""
    z, cols = rep.field.zero(), _path_columns(rep, p)
    return tuple(tuple(col.get(i, z) for col in cols)
                 for i in range(rep.dim_at(rep.algebra.path_end(p))))


def _hom_out_of(tops, rep_n: Representation, relations) -> list[int]:
    """dim Hom(P/C, N), P = sum_r Lambda e(r), at each point of N: the corank of one
    relation matrix R.

    ``tops`` lists (e(r), first index).  Each relation ``(lead, r, terms)`` generating C
    is lead z_r plus scale A z_s for each ``(A, s, scale)`` in ``terms``, with lead and A
    the sparse columns of action matrices.  A map P -> N, images n_r in e(r)N, factors
    through P/C iff it kills every relation.  n_r is sought on e(r)N's basis from the
    first index on, as every such map is known to meet.  An entry of R is unreduced: a
    value at one point (where R may hold 10^6 entries), or a triple at three (``_module``),
    scales too, multiplied at each point, and ranked as one (``_rank3``) or, where that
    gives up, at each point alone.
    """
    p, three = rep_n.field.modulus, rep_n._three
    starts, width = [], 0
    for v, first in tops:
        starts.append((first, width))
        width += rep_n.dim_at(v) - first
    rows = []
    for lead, r, terms in relations:
        block: dict[int, dict] = {}
        first, c0 = starts[r]
        for c, col in enumerate(lead[first:], c0):  # the lead comes first: (i, c) holds nothing
            for i, x in col.items():
                if (row := block.get(i)) is None:
                    block[i] = {c: x}
                else:
                    row[c] = x
        for cols, s, scale in terms:
            first, c0 = starts[s]
            if three:
                f, g, h = scale
                for c, col in enumerate(cols[first:], c0):
                    for i, (x, y, z) in col.items():
                        if (row := block.get(i)) is None:
                            block[i] = {c: (f * x, g * y, h * z)}
                        elif (t := row.get(c)) is None:
                            row[c] = (f * x, g * y, h * z)
                        else:
                            row[c] = (t[0] + f * x, t[1] + g * y, t[2] + h * z)
            else:
                for c, col in enumerate(cols[first:], c0):
                    for i, x in col.items():
                        if (row := block.get(i)) is None:
                            block[i] = {c: scale * x}
                        else:
                            row[c] = row.get(c, 0) + scale * x
        rows += block.values()
    if not three:
        return [width - _rank(p, rows)]
    if (rank := _rank3(p, [dict(row) for row in rows])) is not None:
        return [width - rank] * 3
    return [width - _rank(p, [{c: v[k] for c, v in row.items() if v[k]} for row in rows])
            for k in range(3)]


def hom_dim_from_cyclic(alg: TruncatedAlgebra, c: CyclicType, rep: Representation) -> int:
    """dim Hom(Lambda e / J^m e, N) = dim { n in eN : J^m n = 0 }."""
    return _cyclic_dims(alg, c, rep)[0]


def _cyclic_dims(alg: TruncatedAlgebra, c: CyclicType, rep: Representation) -> list[int]:
    """``hom_dim_from_cyclic`` at each point of ``rep``, one relation per length-m path out of e."""
    if c.truncation >= alg.L + 1:  # a projective cyclic imposes no constraint
        return [rep.dim_at(c.vertex)] * (3 if rep._three else 1)
    paths = enumerate_paths(alg, c.vertex, c.truncation)
    return _hom_out_of(((c.vertex, 0),), rep, [(_path_columns(rep, p), 0, ()) for p in paths])


# ---------------------------------------------------------------------------
# Ext dimensions, two ways
# ---------------------------------------------------------------------------

def _presented_hom_dims(pres: GenericPresentation, rep_n: Representation, points) -> list[int]:
    """dim Hom(M, N) at each of ``points``, M = P/C the evaluation of ``pres`` at a point's
    scalars, out of one relation matrix (``_hom_out_of``): one point and N, or three and N
    the module of three points, each scale then a value triple.

    One relation per critical path z_r: its action, minus the assigned
    scalar times the action of each sigma-set member on its top z_s.
    """
    scales = ([-rep_n.field.element(x) for x in points[0]] if len(points) == 1 else
              [(-x, -y, -z) for x, y, z in zip(*points)])
    return _hom_out_of([(v, 0) for v in pres.skeleton.top], rep_n, [
        (_path_columns(rep_n, rel.critical.path(pres.algebra)), rel.critical.r - 1,
         [(_path_columns(rep_n, q), s - 1, scales[k]) for (s, q), k in rel.terms])
        for rel in pres.relations])


def ext_dim_detail(alg: TruncatedAlgebra, S_M: SemisimpleSequence,
                   rep_n: Representation | None, k: int, seeds,
                   fs: FieldSpec = DEFAULT_FIELD) -> dict:
    """Per-seed Ext^k(G(S_M), N) with both methods at k = 1.

    Method 1 is the alternating formula on the minimal resolution read off
    the syzygy profiles; method 2 (k = 1 only) is the corank of the
    restriction map Hom(P, N) -> Hom(Omega^1, N).  They share every term but
    Hom(M, N), taken out of M's basis (``hom_dim``) and out of P/C
    (``_presented_hom_dims``) respectively.  Disagreement between methods or across seeds
    is an error, never averaged.  ``rep_n`` None is self-Ext: N is G(S_M)
    itself, the point drawn at each seed from one presentation; a given N must live over
    ``alg`` and ``fs``.  ``seeds`` is any iterable, read once (``_seeded``).
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if rep_n is not None:
        _check_over(alg, fs, rep_n)
    prev, profile = last_two_syzygies(alg, S_M, k)  # UnrealizableError if S_M is unrealizable
    if k == 1:  # Hom(Omega^1, N) - Hom(P_0, N)
        cyclic, tops = profile, list(zip(alg.vertices, S_M.top))
    else:  # Hom(Omega^k + Omega^(k-1), N) - Hom(P_(k-1), N): a type of both is ranked once
        cyclic = SyzygyProfile([*profile.items(), *prev.items()])
        tops = [(c.vertex, m) for c, m in prev.items()]
    # a point of G(S_M) per seed: for Hom(G, N) at k = 1, and as N in self-Ext
    pres = generic_presentation(alg, S_M) if k == 1 or rep_n is None else None

    def evaluate(points):
        g = None if pres is None else _module(pres.skeleton, pres.relations, points, fs)
        n = g if rep_n is None else rep_n  # every term but Hom(G, N) is taken at N's points
        rest = [-sum(m * n.dim_at(v) for v, m in tops)] * (3 if n._three else 1)  # Hom(P, N)
        for c, m in cyclic.items():
            rest = [r + m * d for r, d in zip(rest, _cyclic_dims(alg, c, n))]
        if len(rest) < len(points):  # a given N, broadcast to three equal points to meet G
            rest, n = rest * 3, Representation(alg, fs, rep_n.dims, {
                a: [{i: (x, x, x) for i, x in col.items()} for col in cols]
                for a, cols in rep_n.columns.items()}, rep_n.basis_labels, None, True)
        if k > 1:
            return [{"alternating": r} for r in rest]
        return [{"alternating": r + h, "restriction": r + q} for r, h, q in zip(
            rest, _basis_hom_dims(g, n), _presented_hom_dims(pres, n, points))]

    where = "ext", f"sequence {S_M}"
    pairs = _seeded(where, seeds, lambda seed: None if pres is None else tuple(
        seeded_assignment(pres, seed, fs)), evaluate)
    per_seed = [{"seed": seed, **terms} for seed, terms in pairs]
    for record in per_seed:
        if k == 1 and record["restriction"] != record["alternating"]:
            raise MethodDisagreementError(
                f"ext: the two Ext^1 methods disagree for sequence {S_M} at seed "
                f"{record['seed']} of seeds {[s for s, _ in pairs]}: {record}")
    value = _agreed(where, [(r["seed"], r["alternating"]) for r in per_seed])
    return {"k": k, "value": value, "per_seed": per_seed, "field_modulus": fs.modulus}


def ext_dim(alg: TruncatedAlgebra, S_M: SemisimpleSequence, rep_n: Representation,
            k: int, seeds, fs: FieldSpec = DEFAULT_FIELD) -> int:
    return ext_dim_detail(alg, S_M, rep_n, k, seeds, fs)["value"]


# ---------------------------------------------------------------------------
# module points and distinguished skeleta
# ---------------------------------------------------------------------------

def projective_representation(alg: TruncatedAlgebra, tops: tuple[str, ...],
                              fs: FieldSpec = RATIONALS) -> Representation:
    """The projective P = ⊕_r Lambda z_r with its path basis and marked tops.

    It is the module of the skeleton holding every path of length <= L on
    each top, which has no critical paths and so no relations.  The paths are
    built one length at a time, each extending a path of the previous length once.
    """
    level = [(r, alg.trivial_path(v)) for r, v in enumerate(tops, start=1)]
    elements = list(level)
    for _ in range(alg.L):
        level = [(r, p.then(a)) for r, p in level for a in alg.quiver.arrows_from[alg.path_end(p)]]
        elements += level
    return _module(Skeleton(alg, tops, elements), (), [[]], fs)


def quotient_representation(rep: Representation, sub_vectors) -> Representation:
    """Quotient of ``rep`` by the submodule C generated by the given vectors.

    ``sub_vectors`` is an iterable of (vertex, ``{index: value}``), values reduced
    on insertion; the span is closed under the arrow action before forming the
    quotient, whose basis is the non-pivot coordinates of each vertex's span.
    Columns, marked top elements and basis labels are carried along (a kept
    coordinate keeps its label).  The labels' contract holds in the quotient.
    C is closed under the arrows, so J^l(M/C) = (J^l M + C)/C, and J^l M is
    spanned by the basis elements e_j of length >= l.  Each echelon row of C_v
    pivots at its leftmost coordinate, so reducing e_j leaves a vector on kept
    coordinates i >= j, which are no shorter than e_j.  Hence (J^l M + C)/C is
    spanned by the kept coordinates of length >= l, each the image of its own e_j.
    """
    alg, fs, p = rep.algebra, rep.field, rep.field.modulus
    spaces = {v: RowSpace(fs) for v in alg.vertices}
    pending = list(sub_vectors)
    while pending:
        v, vec = pending.pop()
        added = spaces[v].add(vec)
        if added is None:
            continue
        for a in alg.quiver.arrows_from[v]:
            pending.append((a.target, _apply(p, rep.columns[a.name], added)))

    keep = {v: {i: k for k, i in enumerate(sorted(set(range(rep.dim_at(v)))
                                                  - spaces[v].rows.keys()))}
            for v in alg.vertices}

    def project(v: str, vec: dict) -> dict:
        # a reduced vector is zero on every pivot, so each of its columns is kept
        return {keep[v][i]: x for i, x in spaces[v].reduce(vec).items()}

    dims = tuple(len(keep[v]) for v in alg.vertices)
    cols = {a.name: [project(a.target, rep.columns[a.name][i]) for i in keep[a.source]]
            for a in alg.quiver.arrows}
    tops = None if rep.top_elements is None else tuple(
        (v, project(v, vec)) for v, vec in rep.top_elements)
    labels = None if rep.basis_labels is None else {
        v: tuple(rep.basis_labels[v][i] for i in keep[v]) for v in alg.vertices}
    return Representation(alg, fs, dims, cols, labels, tops)


def module_point(alg: TruncatedAlgebra, tops, relations,
                 fs: FieldSpec = RATIONALS) -> Representation:
    """P/C for generators given as coefficient combinations of paths on tops.

    Each relation is a list of (coeff, r, arrows); arrows are in display
    order (leftmost applied last).  Components at distinct vertices of one
    generator split into separate submodule generators.
    """
    tops = tuple(str(v) for v in tops)
    if not tops:
        raise ValidationError("zero module: a module point needs at least one top")
    P = projective_representation(alg, tops, fs)
    index = {el: i for labels in P.basis_labels.values() for i, el in enumerate(labels)}
    gens = []
    for rel in relations:
        comps: dict[str, list] = {}
        for coeff, r, arrows in rel:
            if not 1 <= int(r) <= len(tops):
                raise ValidationError(f"relation references unknown top index {r}")
            p = Path(tops[int(r) - 1], tuple(str(a) for a in arrows))
            v = tops[int(r) - 1]
            for name in reversed(p.arrows):
                a = alg.quiver.arrow_by_name.get(name)
                if a is None or a.source != v:
                    raise ValidationError(f"non-composable path in relation: {arrows}")
                v = a.target
            if p.length > alg.L:
                continue
            vec, i = comps.setdefault(v, {}), index[(int(r), p)]
            vec[i] = fs.element(vec.get(i, 0) + fs.element(coeff))
        gens += [(v, vec) for v, vec in comps.items() if any(vec.values())]
    return quotient_representation(P, gens)


def distinguished_skeleta_of(rep: Representation, cap: int = DEFAULT_CAP) -> list[Skeleton]:
    """All distinguished skeleta of a module point with marked top elements and labels.

    The layering S and each J^l M_v are read off the label lengths (see
    ``Representation``).  A compatible abstract skeleton qualifies when, in each
    (layer l, end vertex v) block, the vectors p*m_r are independent modulo
    J^{l+1}M_v; as p*m_r lies in J^l M_v, that is the independence of their
    length-l coordinates, tested by one ``_rank``.  The test is memoised
    per block and is ``iter_skeleta``'s predicate, so a failing block cuts its
    subtree.  The marked tops must number dim M/JM and pass the layer-0 test at
    each vertex (grouped by vertex to align with z_1..z_t).  Raises iff the
    count of compatible abstract skeleta exceeds ``cap``.
    """
    alg, fs = rep.algebra, rep.field
    if rep.top_elements is None:
        raise ValidationError("representation has no marked top elements")
    if rep.basis_labels is None:
        raise ValidationError("representation has no basis labels")
    start = {}  # start[v][l]: the first basis index at v of length >= l, l = 0..L+1
    for v in alg.vertices:
        lengths = [p.length for _, p in rep.basis_labels[v]]
        start[v] = [bisect.bisect_left(lengths, l) for l in range(alg.L + 2)]
    S = SemisimpleSequence(tuple(tuple(start[v][l + 1] - start[v][l] for v in alg.vertices)
                                 for l in range(alg.L + 1)))
    if len(rep.top_elements) != sum(S.top):
        raise ValidationError("marked top elements do not form a full sequence")
    tops = sorted(rep.top_elements, key=lambda top: alg.vertex_pos(top[0]))

    @functools.cache
    def image(r, p):
        """p * m_r: the image of p's initial subpath under the leftmost arrow's columns."""
        return tops[r - 1][1] if not p.arrows else _apply(
            fs.modulus, rep.columns[p.arrows[0]], image(r, p.initial_subpath(p.length - 1)))

    @functools.cache
    def independent(l, v, chosen):
        end = start[v][l + 1]
        return _rank(fs.modulus, [{i: x for i, x in image(r, p).items() if i < end}
                                  for r, p in chosen]) == len(chosen)

    for v in alg.vertices:
        if not independent(0, v, tuple((r, Path(v)) for r, (w, _) in enumerate(tops, 1)
                                       if w == v)):
            raise ValidationError("marked top elements are dependent modulo JM")
    capped_count(alg, S, cap)
    return list(iter_skeleta(alg, S, accept=independent))


# ---------------------------------------------------------------------------
# decomposability
# ---------------------------------------------------------------------------

class DecompositionVerdict(NamedTuple):
    verdict: str              # indecomposable-certified | decomposable-certified | undecided
    witness: dict
    confidence: str           # certified | seeded-generic


def _summands(pres: GenericPresentation) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(top index tuple, dimension vector) per top-element component of the hypergraph."""
    trees = pres.skeleton.tree_dim_vectors()
    return [(tuple(sorted(part)), tuple(map(sum, zip(*(trees[r] for r in part)))))
            for part in hypergraph(pres).top_component_partition()]


def graded_decomposition(alg: TruncatedAlgebra, S: SemisimpleSequence,
                         skeleton: Skeleton | None = None):
    """Direct summands of the graded generic module, from the auxiliary graph.

    Vertices are the top elements; z_r and z_s are joined when a critical
    path of one tree has an equal-length, equal-endpoint sigma-set member
    in the other.  Returns (top index tuple, dimension vector) per
    component.
    """
    return _summands(generic_presentation(alg, S, skeleton=skeleton, graded=True))


def decomposability(alg: TruncatedAlgebra, S: SemisimpleSequence, graded: bool = False,
                    seeds=(0, 1, 2), fs: FieldSpec = DEFAULT_FIELD) -> DecompositionVerdict:
    """Certify (in)decomposability of the generic module with layering S.

    Decomposable: the generic hypergraph splits the top elements (graded
    mode reports the auxiliary-graph components).  Indecomposable: the
    auxiliary graph is connected with squarefree top, or a materialized
    evaluation has endomorphism ring K.  Anything else is undecided.
    """
    sk = canonical_skeleton(alg, S)  # UnrealizableError if S is unrealizable
    squarefree, sigma_sets = all(x <= 1 for x in S.top), critical_paths(alg, sk)
    graded_pres = _presentation(alg, S, sk, sigma_sets, graded=True)
    pres = graded_pres if graded else _presentation(alg, S, sk, sigma_sets, graded=False)
    graded_parts = _summands(graded_pres)
    parts = graded_parts if graded else _summands(pres)
    if len(parts) > 1:
        return DecompositionVerdict(
            "decomposable-certified",
            {"components": [{"tops": list(zs), "dim_vector": list(dv)} for zs, dv in parts]},
            "certified")
    if squarefree and (graded or len(graded_parts) == 1):
        reason = ("auxiliary graph connected, squarefree top" if graded
                  else "graded auxiliary graph connected, squarefree top")
        return DecompositionVerdict("indecomposable-certified", {"reason": reason}, "certified")
    # fall back to an End = K witness on a materialized point
    pairs = _end_dims(("decomposability", f"sequence {S}"), pres, fs, seeds)
    for seed, e in pairs:
        if e == 1:
            return DecompositionVerdict(
                "indecomposable-certified",
                {"reason": "endomorphism ring K at a verified point",
                 "seed": seed, "end_dim": 1},
                "certified")
    end_dims = [{"seed": s, "end_dim": e} for s, e in pairs]
    return DecompositionVerdict("undecided", {"end_dims": end_dims}, "seeded-generic")


# ---------------------------------------------------------------------------
# seeded values and JSON
# ---------------------------------------------------------------------------

def generic_socle(alg: TruncatedAlgebra, S: SemisimpleSequence,
                  fs: FieldSpec = DEFAULT_FIELD) -> tuple[int, ...]:
    """Socle dimension vector of the generic module, counted off S: per vertex v,

        soc_v = dim M_v - min over k = 0..L of (sum_{l<k} S_l[v] + sum_{a: v->t} sum_{m>k} S_m[t]),

    one term per arrow a out of v (parallel arrows each count), so a vertex with no
    arrow out keeps dim M_v.  No skeleton is built and no module either.

    On any compatible skeleton, soc_v M is the kernel of M_v -> sum of M_t(a): one row
    per member (r, p) ending at v, one column (a, q) per arrow a: v -> t and member q
    ending at t, each of its member's length.  The row of (r, p), of length l, holds per
    arrow a a unit in (a, a*p) if a*p is a member; else, if l+1 <= L, a scalar in each
    column (a, q) of the sigma-set of a*p, every q with len(q) >= l+1; else nothing.
    With P_k the rows shorter than k and Q_k the columns of length >= k, term k of the
    minimum is P_k + Q_{k+1}, and the minimum is the term rank of these rows, the size
    of a maximum matching of rows to the columns they hold.

    Upper bound: rows of length >= k reach only columns of length >= k+1, so the rows
    shorter than k and the columns of length >= k+1 cover every entry, and by Konig's
    theorem each term bounds the matching.
    Lower bound: match greedily from the longest rows down.  At each length l, every
    row with a member extension first takes its own unit column; a unit column belongs
    to one row (a member's parent is unique) and no longer row reaches it, so it is
    free.  Then every row whose extensions are all critical takes any free column of
    length >= l+1, all of which it reaches.  If the greedy fails at some length, let k*
    be the last (shortest) one: every column of length >= k*+1 is then taken, only by
    rows of length >= k*, and every row shorter than k* is matched, so the matching
    reaches P_{k*} + Q_{k*+1}.  If it never fails, it reaches P_L.

    The rank of these rows at algebraically independent scalars is their term rank
    (Edmonds).  Every entry that is not a unit is a distinct scalar x_k, since each
    scalar belongs to one (critical path, member) pair, and each column holds at most
    one unit.  Take a maximum matching and its square minor.  Two permutations that give
    that minor the same monomial use the same scalar entries; on the remaining rows both
    use units, and each column's unit row is forced, so the two permutations are equal.
    Hence no two terms cancel and the minor is a nonzero polynomial, over every field.
    A point at any scalars has rank at most the term rank, with equality off a proper
    subvariety, so ``socle`` of a seeded point (``materialize``) is this vector except
    there.

    Nothing is drawn, so the value is the same at every seed and over every field; ``fs``
    is refused as ``seeded_assignment`` refuses it, a prime field too small for
    randomized evaluation, after S is checked and found realizable.
    """
    tail = _layer_table(alg, S)[1]
    _check_random_field(fs)
    return _socle_of_tail(alg, tail)


def _socle_of_tail(alg: TruncatedAlgebra, tail) -> tuple[int, ...]:
    """``generic_socle`` of a realizable S, given tail[k], the layers k..L summed, unchecked."""
    dims, cover = tail[0], list(tail[0])
    for at_k, below_k in zip(tail, tail[1:]):  # k = 0..L
        term = [d - x for d, x in zip(dims, at_k)]
        for v, t in alg.quiver.arrow_ends:
            term[v] += below_k[t]
        cover = list(map(min, cover, term))
    return tuple(d - c for d, c in zip(dims, cover))


def _seeded(where: tuple[str, str], seeds, draw, evaluate) -> list[tuple]:
    """(seed, value at the point ``draw(seed)``) in seed order, ``seeds`` any iterable, read
    once.  ``evaluate`` takes the distinct points, in seed order, three at a time and any
    remainder one at a time, to their values (over Q, or without scalars, every seed draws
    one point).  No seeds are refused, naming ``where``: the stage and its subject."""
    if not (seeds := tuple(seeds)):
        raise ValidationError(f"{where[0]}: no seeds given for {where[1]}")
    point = {seed: draw(seed) for seed in seeds}
    distinct, value = list(dict.fromkeys(point.values())), {}
    cut = len(distinct) - len(distinct) % 3
    for group in [distinct[i:i + 3] for i in range(0, cut, 3)] + [[x] for x in distinct[cut:]]:
        value.update(zip(group, evaluate(group)))
    return [(seed, value[point[seed]]) for seed in seeds]


def _agreed(where: tuple[str, str], pairs: list[tuple]):
    """The value every (seed, value) pair holds; a disagreement names the stage, its subject
    and every seed's value."""
    if len({v for _, v in pairs}) > 1:
        raise SeedStabilityError(f"{where[0]}: seeded values disagree for {where[1]} "
                                 f"at seeds {[s for s, _ in pairs]}: {pairs}")
    return pairs[0][1]


def _end_dims(where: tuple[str, str], pres: GenericPresentation, fs: FieldSpec, seeds):
    """(seed, dim End at the point the seed draws), in seed order."""
    return _seeded(where, seeds, lambda seed: tuple(seeded_assignment(pres, seed, fs)),
                   lambda points: _presented_hom_dims(
                       pres, _module(pres.skeleton, pres.relations, points, fs), points))


def generic_end_dim(alg: TruncatedAlgebra, S: SemisimpleSequence, seeds=(0, 1, 2),
                    fs: FieldSpec = DEFAULT_FIELD) -> int:
    where = "generic_end_dim", f"sequence {S}"
    return _agreed(where, _end_dims(where, generic_presentation(alg, S), fs, seeds))


def generic_hom_dim(alg: TruncatedAlgebra, S_a: SemisimpleSequence,
                    S_b: SemisimpleSequence, seeds=(0, 1, 2),
                    fs: FieldSpec = DEFAULT_FIELD) -> int:
    """hom between independently materialized generic modules of two sequences."""
    pres_a = generic_presentation(alg, S_a)
    pres_b = generic_presentation(alg, S_b)
    where = "generic_hom_dim", f"sequences {S_a} and {S_b}"
    return _agreed(where, _seeded(
        where, seeds, lambda seed: (tuple(seeded_assignment(pres_a, seed, fs)),
                                    tuple(seeded_assignment(pres_b, seed + PAIR_SEED_OFFSET, fs))),
        lambda points: _presented_hom_dims(
            pres_a, _module(pres_b.skeleton, pres_b.relations, [b for _, b in points], fs),
            [a for a, _ in points])))


def module_point_from_json(data: dict, alg: TruncatedAlgebra,
                           fs: FieldSpec = RATIONALS) -> Representation:
    """{"tops":[{"vertex":...}],"relations":[[{"coeff","r","arrows"}...]]} -> P/C."""
    try:
        tops = [_json_as(t["vertex"], str) for t in data["tops"]]
        relations = [
            [(_parse_coeff(term.get("coeff", 1), fs), _json_as(term["r"]),
              tuple(_json_as(a, str) for a in _json_as(term["arrows"], list)))
             for term in (_json_as(t, dict) for t in _json_as(rel, list))]
            for rel in _json_as(data["relations"], list)
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed module point: {exc}") from None
    return module_point(alg, tops, relations, fs)


def _parse_coeff(raw, fs: FieldSpec):
    if isinstance(raw, str):
        return fs.element(Fraction(raw)) if fs.exact else fs.element(int(raw))
    return fs.element(_json_as(raw))
