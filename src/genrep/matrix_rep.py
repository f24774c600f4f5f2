"""Explicit quiver representations over a field, plus everything computed from them.

Materializes generic presentations at concrete scalars, computes radical
layerings, socles, Hom/Ext dimensions, distinguished skeleta of a module
point, and (in)decomposability certificates.

A materialized point has the presentation's layering S by construction, at
any scalars (see ``materialize``), so no point is checked after it is built.
One builder on a skeleton's basis serves materialized points and the
projectives behind module points.  It fixes each arrow's sparse columns once
per presentation, and a seed only substitutes its scalars into the sigma-set
columns.  Quotients (module points) are written as columns too.  A module
stores only sparse arrow columns and sparse top vectors.

Fields are F_p for a large prime p (default 2^61 - 1) or exact rationals;
all arithmetic is exact.  Every rank is one sparse elimination (``_rank``) on
``{column: value}`` rows, and every action is applied to a sparse vector by
``_apply``; ``mat_rank``, ``mat_mul``, the dense matrix-vector product and
``path_action``, the one dense view of a module, are left for tests.
``RowSpace``, an incremental echelon basis of sparse rows, serves where the
reduced vectors matter: ``radical_layering``, quotients and the distinguished
skeleta probes, whose memoised per-block independence test is the block
predicate of ``skeleta.iter_skeleta``.  Skeleton modules and their quotients
(module points) keep a graded basis, so the probes read J^l M off the basis
labels; ``radical_layering`` eliminates, and stays the independent route.

Hom out of any presented module (a generic M = P/C, a cyclic Lambda e / J^m e,
a simple) into a given module is the kernel of one relation matrix
(``_hom_out_of``); ``socle`` reads it off the columns of the arrows out of each
vertex.  The generic socle builds no skeleton and no module, draws no scalar
and eliminates nothing: it is counted off the layering, as dim M_v minus the
least of L+1 vertex covers of the supports of the rows of M_v -> sum of M_t(a);
that least cover is their term rank, and so their generic rank (see
``generic_socle``).  The intertwiner solver ``hom_dim`` is an independent route
to Hom(M, N), the only term in which the two Ext^1 methods differ.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra_core import (
    Path,
    SemisimpleSequence,
    TruncatedAlgebra,
    _json_as,
    _layer_table,
    enumerate_paths,
)
from .errors import MethodDisagreementError, SeedStabilityError, ValidationError
from .generic_builder import GenericPresentation, generic_presentation, hypergraph
from .homology import CyclicType, SyzygyProfile, last_two_syzygies
from .skeleta import DEFAULT_CAP, Skeleton, canonical_skeleton, capped_count, iter_skeleta

MERSENNE_61 = 2**61 - 1
MIN_RANDOM_MODULUS = 10**6
# the second module of a pair is drawn at seed + PAIR_SEED_OFFSET
PAIR_SEED_OFFSET = 0x9E3779B9

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    for a in _MR_BASES:
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


def _rank(p: int | None, rows: list[dict]) -> int:
    """Rank of sparse rows ``{col: value}`` over F_p, or over Q when ``p`` is None.

    Values must be nonzero field elements (reduced mod p); the rows are
    consumed.  Rows are taken shortest first, in one order fixed at the
    start, and each pivots on its nonzero column with the fewest entries
    among the rows not yet taken (Markowitz's rule), which keeps fill-in
    low.  The pivot column is then cleared from exactly the rows that
    hold it, found through a column -> rows index.
    """
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    rank = 0
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        row = rows[i]
        for c in row:
            holders[c].discard(i)
        if not row:
            continue
        rank += 1
        piv = min(row, key=lambda c: len(holders[c]))
        inv = -1 / Fraction(row.pop(piv)) if p is None else p - pow(row.pop(piv), -1, p)
        for j in holders.pop(piv):
            other = rows[j]
            f = other.pop(piv) * inv
            for c, x in row.items():
                y = other.get(c, 0) + f * x
                if p is not None:
                    y %= p
                if y:
                    if c not in other:
                        holders[c].add(j)
                    other[c] = y
                else:
                    del other[c]
                    holders[c].discard(j)
    return rank


def _reduced(p: int | None, acc: dict) -> dict:
    """``acc`` reduced mod p (untouched over Q, ``p`` None), without its zero entries."""
    return ({c: y for c, y in acc.items() if y} if p is None else
            {c: m for c, y in acc.items() if (m := y % p)})


def _apply(p: int | None, cols: list[dict], vec: dict) -> dict:
    """The image of the sparse vector ``vec`` under sparse columns, reduced, without zeros."""
    acc: dict = {}
    for k, y in vec.items():
        for i, x in cols[k].items():
            acc[i] = acc.get(i, 0) + x * y
    return _reduced(p, acc)


def mat_rank(fs: FieldSpec, rows) -> int:
    """Rank of dense rows: a thin adapter onto the sparse elimination ``_rank``."""
    return _rank(fs.modulus, [{i: x for i, e in enumerate(r) if (x := fs.element(e))}
                              for r in rows])


class RowSpace:
    """Incrementally maintained row-echelon basis of a subspace, in sparse rows.

    ``rows`` are ``{col: value}`` dicts, sorted by pivot, each with a leading 1
    at its pivot, its leftmost nonzero column; reducing a vector against them
    in order clears every pivot column.  Over F_p input entries are reduced
    mod p; ``p`` is None over Q, as in ``_rank``.
    """

    def __init__(self, fs: FieldSpec):
        self.p = fs.modulus
        self.rows: list[dict] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """The unique vector of ``vec`` + span that is zero on every pivot column."""
        p, v = self.p, _reduced(self.p, vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v.get(piv)
            if c:
                for col, x in row.items():
                    y = v.get(col, 0) - c * x
                    if p is not None:
                        y %= p
                    if y:
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
        v = _reduced(p, {c: x * inv for c, x in v.items()})
        at = bisect.bisect(self.pivots, piv)
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
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
    """

    algebra: TruncatedAlgebra
    field: FieldSpec
    dims: tuple[int, ...]
    columns: dict[str, list[dict]]
    basis_labels: dict[str, tuple] | None = None
    top_elements: tuple[tuple[str, dict], ...] | None = None
    _paths: dict = dataclasses.field(default_factory=dict, repr=False)

    def dim_at(self, v: str) -> int:
        return self.dims[self.algebra.vertex_pos(v)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def _same_algebra(a: TruncatedAlgebra, b: TruncatedAlgebra) -> bool:
    return (a.vertices == b.vertices and a.L == b.L
            and [(x.name, x.source, x.target) for x in a.quiver.arrows]
            == [(x.name, x.source, x.target) for x in b.quiver.arrows])


def _check_random_field(fs: FieldSpec) -> None:
    if not fs.exact and fs.modulus <= MIN_RANDOM_MODULUS:
        raise ValidationError(
            f"field modulus must exceed {MIN_RANDOM_MODULUS} for randomized evaluation")


def seeded_assignment(pres: GenericPresentation, seed: int,
                      fs: FieldSpec = FieldSpec()) -> list:
    """Distinct nonzero values drawn from a seeded PRNG, a list indexed by scalar number.

    In exact-rational mode the scalars are the first primes 2, 3, 5, ...
    so exact runs are reproducible without a modulus, and the seed is ignored: over Q
    the three seeds are one point, which each caller evaluates once.
    """
    n = len(pres.scalar_ids)
    if fs.exact:
        return list(itertools.islice(map(Fraction, filter(_is_prime, itertools.count(2))), n))
    _check_random_field(fs)
    rng, seen, values = random.Random(seed), set(), []
    for _ in range(n):
        while (x := rng.randrange(1, fs.modulus)) in seen:
            pass  # redraw until the value is new
        seen.add(x)
        values.append(x)
    return values


def _skeleton_columns(sk: Skeleton, relations):
    """What a skeleton module's columns are at any scalars: (index, dims, units, subs).

    ``index`` numbers the basis ``sk.basis`` per vertex.  Every column starts empty
    (zero).  Each member alpha*p of the skeleton is the unit column of arrow alpha at its
    parent p: ``units`` lists (alpha, index of p, index of alpha*p).  Each relation's
    critical path alpha*p takes the assigned combination of its sigma-set members at
    (alpha, p): ``subs`` lists (alpha, index of p, [(member index, scalar number)]).  No
    other extension has length <= L.
    """
    basis = sk.basis
    # an element (r, p) is keyed by (r, p.arrows): r fixes the start of p
    index = {(r, p.arrows): i for els in basis.values() for i, (r, p) in enumerate(els)}
    dims = tuple(len(basis[v]) for v in sk.alg.vertices)
    units = [(p.arrows[0], index[r, p.arrows[1:]], index[r, p.arrows])
             for r, p in sk.elements if p.arrows]
    subs = [(rel.critical.arrow, index[rel.critical.r, rel.critical.parent[1].arrows],
             [(index[s, q.arrows], k) for (s, q), k in rel.terms]) for rel in relations]
    return index, dims, units, subs


def _template(sk: Skeleton, relations, fs: FieldSpec):
    """The module on the basis ``sk.basis``, with marked tops z_r, as a function of
    the scalars (indexed by scalar number); what does not depend on them is built once
    (from ``_skeleton_columns``), and only the critical-path columns are built per call.
    Unit and empty columns and the tops are shared read-only.
    """
    alg, one, element, basis = sk.alg, fs.one(), fs.element, sk.basis
    index, dims, units, subs = _skeleton_columns(sk, relations)
    tops = tuple((v, {index[r, ()]: one}) for r, v in enumerate(sk.top, start=1))
    fixed = {a.name: [{}] * len(basis[a.source]) for a in alg.quiver.arrows}
    for name, j, i in units:
        fixed[name][j] = {i: one}

    def build(values) -> Representation:
        cols = {name: list(col) for name, col in fixed.items()}
        for name, j, pairs in subs:
            cols[name][j] = {i: x for i, k in pairs if (x := element(values[k]))}
        return Representation(alg, fs, dims, cols, dict(basis), tops)
    return build


def materialize(pres: GenericPresentation, values,
                fs: FieldSpec = FieldSpec()) -> Representation:
    """Evaluate a generic presentation at concrete scalars, ``values[k]`` for x_k.

    Each field's ``_template`` is made once and kept in ``pres.templates``.  The result
    has the presentation's radical layering S for every choice of scalars, zero
    included, so nothing is checked after the build.  A basis element (r, p) is p z_r,
    so it lies in J^{len p} M.  Each arrow sends a length-l basis element to a skeleton
    element of length l+1, to sigma-set members of length >= l+1, or to zero, so J^l M
    lies in the span of the basis elements of length >= l.  Hence J^l M is that span,
    and layer l of M is layer l of the skeleton, which is S.
    """
    if len(values) < len(pres.scalar_ids):
        raise ValidationError(f"assignment missing scalar x_{len(values)}")
    if fs not in pres.templates:
        pres.templates[fs] = _template(pres.skeleton, pres.relations, fs)
    return pres.templates[fs](values)


def _radical_spaces(rep: Representation) -> list[dict[str, RowSpace]]:
    """Bases of J^l M per vertex, l = 0..L+1; the last must be zero."""
    alg, fs = rep.algebra, rep.field
    full = {v: RowSpace(fs) for v in alg.vertices}
    for v, rs in full.items():
        # J^0 M = M: the identity rows are already an echelon basis
        rs.pivots = list(range(rep.dim_at(v)))
        rs.rows = [{i: fs.one()} for i in rs.pivots]
    spaces = [full]
    for _ in range(alg.L + 1):
        prev = spaces[-1]
        nxt = {v: RowSpace(fs) for v in alg.vertices}
        for a in alg.quiver.arrows:
            cols = rep.columns[a.name]
            for row in prev[a.source].rows:
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
    """Per-vertex socle dimensions dim Hom(S_v, M), S_v the cyclic Lambda e_v / J e_v:
    one relation per arrow out of v, its columns read straight off the module."""
    out = rep.algebra.quiver.arrows_from
    return tuple(_hom_out_of(rep, (v,), [(rep.columns[a.name], 0, ()) for a in out[v]])
                 for v in rep.algebra.vertices)


def hom_dim(rep_a: Representation, rep_b: Representation) -> int:
    """Dimension of the intertwiner space Hom(A, B), for any two representations.

    It solves one sparse linear system in all sum_v dim A_v * dim B_v
    unknowns, a larger one than the relation matrix from which generic
    modules take Hom (``_presented_hom_dim``); this route stays independent
    of that one for the Ext^1 cross-check in ``ext_dim_detail``.
    """
    if not _same_algebra(rep_a.algebra, rep_b.algebra):
        raise ValidationError("representations live over different algebras")
    if rep_a.field != rep_b.field:
        raise ValidationError("representations live over different fields")
    alg, p = rep_a.algebra, rep_a.field.modulus
    offsets, total = {}, 0
    for v in alg.vertices:
        offsets[v] = total
        total += rep_b.dim_at(v) * rep_a.dim_at(v)
    rows = []
    for a in alg.quiver.arrows:
        # unknown (i, k) of the block at vertex v is column offsets[v] + i * dim A_v + k;
        # the equation (i, j) of arrow a is (f_t A)_{ij} - (B f_s)_{ij} = 0
        s, t = a.source, a.target
        dAs, dAt = rep_a.dim_at(s), rep_a.dim_at(t)
        a_cols, b_rows = rep_a.columns[a.name], [[] for _ in range(rep_b.dim_at(t))]
        for k, col in enumerate(rep_b.columns[a.name]):
            for i, y in col.items():
                b_rows[i].append((offsets[s] + k * dAs, -y))
        for i, b_terms in enumerate(b_rows):
            for j in range(dAs):
                row = {offsets[t] + i * dAt + k: x for k, x in a_cols[j].items()}
                for c, y in b_terms:
                    row[c + j] = row.get(c + j, 0) + y
                rows.append(_reduced(p, row))
    return total - _rank(p, rows)


def _path_columns(rep: Representation, p: Path) -> list[dict]:
    """Sparse columns of a path's action: the identity, an arrow's columns, or (memoised
    per module by arrows) the leftmost arrow's composed with the initial subpath's."""
    arrows, paths = p.arrows, rep._paths
    if not arrows:
        return [{j: rep.field.one()} for j in range(rep.dim_at(p.start))]
    i = 0  # arrows[i:] is the longest initial subpath at hand, a lone arrow at worst
    while i < len(arrows) - 1 and arrows[i:] not in paths:
        i += 1
    cols = paths[arrows[i:]] if i < len(arrows) - 1 else rep.columns[arrows[i]]
    for i in range(i - 1, -1, -1):  # then the longer ones, each memoised
        cols = paths[arrows[i:]] = [_apply(rep.field.modulus, rep.columns[arrows[i]], col)
                                    for col in cols]
    return cols


def path_action(rep: Representation, p: Path) -> tuple:
    """Matrix of the action of a path (start -> end), a tuple of rows: the one dense
    view of a module, built from ``_path_columns``."""
    z, cols = rep.field.zero(), _path_columns(rep, p)
    return tuple(tuple(col.get(i, z) for col in cols)
                 for i in range(rep.dim_at(rep.algebra.path_end(p))))


def _hom_out_of(rep_n: Representation, tops, relations) -> int:
    """dim Hom(P/C, N) for P = sum_r Lambda e(r), ``tops`` listing the e(r).

    Each relation ``(lead, r, terms)`` generating C is lead z_r plus scale A z_s
    for each ``(A, s, scale)`` in ``terms``, with lead and A the sparse columns
    of action matrices.  A map P -> N, images n_r in e(r)N, factors through
    P/C iff it kills every relation: dim Hom = sum_r dim e(r)N - rank R, R the
    relation matrix, whose rows are scattered from the columns.
    """
    p = rep_n.field.modulus
    offsets, width = [], 0
    for v in tops:
        offsets.append(width)
        width += rep_n.dim_at(v)
    rows = []
    for lead, r, terms in relations:
        block: dict[int, dict] = {}
        for cols, s, scale in ((lead, r, 1), *terms):
            for c, col in enumerate(cols, offsets[s]):
                for i, x in col.items():
                    row = block.setdefault(i, {})
                    row[c] = row.get(c, 0) + scale * x
        rows += [_reduced(p, row) for row in block.values()]
    return width - _rank(p, rows)


def hom_dim_from_cyclic(alg: TruncatedAlgebra, c: CyclicType, rep: Representation) -> int:
    """dim Hom(Lambda e / J^m e, N) = dim { n in eN : J^m n = 0 }.

    One relation per length-m path out of e; a projective cyclic imposes
    no constraint.
    """
    if c.truncation >= alg.L + 1:
        return rep.dim_at(c.vertex)
    return _hom_out_of(rep, (c.vertex,), [(_path_columns(rep, p), 0, ())
                                          for p in enumerate_paths(alg, c.vertex, c.truncation)])


def hom_profile_dim(alg: TruncatedAlgebra, profile: SyzygyProfile, rep: Representation) -> int:
    return sum(m * hom_dim_from_cyclic(alg, c, rep) for c, m in profile.items())


# ---------------------------------------------------------------------------
# Ext dimensions, two ways
# ---------------------------------------------------------------------------

def _hom_from_projective(rep: Representation, multiplicities) -> int:
    """dim Hom(P, N) = sum_v m_v dim N_v for P = sum_v (Lambda e_v)^{m_v}, given as (v, m_v)."""
    return sum(m * rep.dim_at(v) for v, m in multiplicities)


def _presented_hom_dim(pres: GenericPresentation, values,
                       rep_n: Representation) -> int:
    """dim Hom(M, N) for M = P/C, the evaluation of ``pres`` at the scalars ``values``.

    One relation per critical path z_r: its action, minus the assigned
    scalar times the action of each sigma-set member on its top z_s.
    """
    alg, fs = pres.algebra, rep_n.field
    return _hom_out_of(rep_n, pres.skeleton.top, [
        (_path_columns(rep_n, rel.critical.path(alg)), rel.critical.r - 1,
         [(_path_columns(rep_n, q), s - 1, -fs.element(values[k])) for (s, q), k in rel.terms])
        for rel in pres.relations])


def ext_dim_detail(alg: TruncatedAlgebra, S_M: SemisimpleSequence,
                   rep_n: Representation | None, k: int, seeds,
                   fs: FieldSpec = FieldSpec()) -> dict:
    """Per-seed Ext^k(G(S_M), N) with both methods at k = 1.

    Method 1 is the alternating formula on the minimal resolution read off
    the syzygy profiles; method 2 (k = 1 only) is the corank of the
    restriction map Hom(P, N) -> Hom(Omega^1, N).  They share every term but
    Hom(M, N), taken by ``hom_dim`` and by ``_presented_hom_dim``
    respectively.  Disagreement between methods or across seeds
    is an error, never averaged.  ``rep_n`` None is self-Ext: N is G(S_M)
    itself, the point drawn at each seed from one presentation.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    prev, profile = last_two_syzygies(alg, S_M, k)  # UnrealizableError if S_M is unrealizable

    @functools.cache
    def rest(rep):
        """Every term of the alternating formula but the seeded Hom(G, N) at k = 1."""
        hom_k = hom_profile_dim(alg, profile, rep)
        if k == 1:
            return hom_k - _hom_from_projective(rep, zip(alg.vertices, S_M.top))
        return (hom_k - _hom_from_projective(rep, ((c.vertex, m) for c, m in prev.items()))
                + hom_profile_dim(alg, prev, rep))

    # a point of G(S_M) per seed: for Hom(G, N) at k = 1, and as N in self-Ext
    pres = generic_presentation(alg, S_M) if k == 1 or rep_n is None else None
    per_seed, points = [], {}  # points: each drawn point's terms, computed once

    def compute(seed):
        assign = None if pres is None else tuple(seeded_assignment(pres, seed, fs))
        if assign not in points:
            n = rep_n
            if pres is not None:
                rep_m = materialize(pres, assign, fs)
                n = rep_m if rep_n is None else rep_n
            terms = points[assign] = {"alternating": rest(n)}
            if k == 1:
                terms["alternating"] += hom_dim(rep_m, n)
                terms["restriction"] = rest(n) + _presented_hom_dim(pres, assign, n)
        record = {"seed": seed, **points[assign]}
        if k == 1 and record["restriction"] != record["alternating"]:
            raise MethodDisagreementError(
                f"ext: the two Ext^1 methods disagree for sequence {S_M} at seed {seed} "
                f"of seeds {list(seeds)}: {record}")
        per_seed.append(record)
        return record["alternating"]

    value = stable_over_seeds(compute, seeds, "ext", f"sequence {S_M}")
    return {"k": k, "value": value, "per_seed": per_seed, "field_modulus": fs.modulus}


def ext_dim(alg: TruncatedAlgebra, S_M: SemisimpleSequence, rep_n: Representation,
            k: int, seeds, fs: FieldSpec = FieldSpec()) -> int:
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
    return _template(Skeleton(alg, tops, elements), (), fs)([])


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
                                                  - set(spaces[v].pivots)))}
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
    length-l coordinates, tested in a fresh ``RowSpace``.  The test is memoised
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
        probe, end = RowSpace(fs), start[v][l + 1]
        return all(probe.add({i: x for i, x in image(r, p).items() if i < end}) is not None
                   for r, p in chosen)

    for v in alg.vertices:
        if not independent(0, v, tuple((r, Path(v)) for r, (w, _) in enumerate(tops, 1)
                                       if w == v)):
            raise ValidationError("marked top elements are dependent modulo JM")
    capped_count(alg, S, cap)
    return list(iter_skeleta(alg, S, accept=independent))


# ---------------------------------------------------------------------------
# decomposability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionVerdict:
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
                    seeds=(0, 1, 2), fs: FieldSpec = FieldSpec()) -> DecompositionVerdict:
    """Certify (in)decomposability of the generic module with layering S.

    Decomposable: the generic hypergraph splits the top elements (graded
    mode reports the auxiliary-graph components).  Indecomposable: the
    auxiliary graph is connected with squarefree top, or a materialized
    evaluation has endomorphism ring K.  Anything else is undecided.
    """
    sk = canonical_skeleton(alg, S)  # UnrealizableError if S is unrealizable
    squarefree = all(x <= 1 for x in S.top)
    graded_pres = generic_presentation(alg, S, sk, graded=True)
    pres = graded_pres if graded else generic_presentation(alg, S, sk)
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
    end_dims, end_dim = [], _end_dims(pres, fs)
    for seed in seeds:
        e = end_dim(seed)
        if e == 1:
            return DecompositionVerdict(
                "indecomposable-certified",
                {"reason": "endomorphism ring K at a verified point",
                 "seed": seed, "end_dim": 1},
                "certified")
        end_dims.append({"seed": seed, "end_dim": e})
    return DecompositionVerdict("undecided", {"end_dims": end_dims}, "seeded-generic")


# ---------------------------------------------------------------------------
# stability helpers and JSON
# ---------------------------------------------------------------------------

def stable_over_seeds(compute, seeds, stage: str = "stable_over_seeds", subject: str = ""):
    """Evaluate ``compute(seed)`` on every seed; all results must agree.

    A disagreement names the ``stage``, its ``subject`` and every seed's value.
    """
    results = [(s, compute(s)) for s in seeds]
    if len({v for _, v in results}) > 1:
        raise SeedStabilityError(f"{stage}: seeded values disagree for {subject or 'input'} "
                                 f"at seeds {list(seeds)}: {results}")
    return results[0][1]


def generic_socle(alg: TruncatedAlgebra, S: SemisimpleSequence,
                  fs: FieldSpec = FieldSpec()) -> tuple[int, ...]:
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
    return _socle_of_tail(alg, _layer_table(alg, S)[1], fs)


def _socle_of_tail(alg: TruncatedAlgebra, tail, fs: FieldSpec) -> tuple[int, ...]:
    """``generic_socle`` of a realizable S, given tail[k], the layers k..L summed."""
    _check_random_field(fs)
    dims, cover = tail[0], list(tail[0])
    for at_k, below_k in zip(tail, tail[1:]):  # k = 0..L
        term = [d - x for d, x in zip(dims, at_k)]
        for v, t in alg.quiver.arrow_ends:
            term[v] += below_k[t]
        cover = list(map(min, cover, term))
    return tuple(d - c for d, c in zip(dims, cover))


def _end_dims(pres: GenericPresentation, fs: FieldSpec):
    """seed -> dim End at the point the seed draws; over Q all seeds draw one, evaluated once."""
    at = functools.cache(lambda assign: _presented_hom_dim(pres, assign,
                                                           materialize(pres, assign, fs)))
    return lambda seed: at(tuple(seeded_assignment(pres, seed, fs)))


def generic_end_dim(alg: TruncatedAlgebra, S: SemisimpleSequence, seeds=(0, 1, 2),
                    fs: FieldSpec = FieldSpec()) -> int:
    return stable_over_seeds(_end_dims(generic_presentation(alg, S), fs), seeds,
                             "generic_end_dim", f"sequence {S}")


def generic_hom_dim(alg: TruncatedAlgebra, S_a: SemisimpleSequence,
                    S_b: SemisimpleSequence, seeds=(0, 1, 2),
                    fs: FieldSpec = FieldSpec()) -> int:
    """hom between independently materialized generic modules of two sequences."""
    pres_a = generic_presentation(alg, S_a)
    pres_b = generic_presentation(alg, S_b)
    at = functools.cache(lambda a, b: _presented_hom_dim(pres_a, a, materialize(pres_b, b, fs)))

    def compute(seed):
        assign_b = tuple(seeded_assignment(pres_b, seed + PAIR_SEED_OFFSET, fs))
        return at(tuple(seeded_assignment(pres_a, seed, fs)), assign_b)

    return stable_over_seeds(compute, seeds, "generic_hom_dim",
                             f"sequences {S_a} and {S_b}")


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
