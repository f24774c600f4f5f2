"""Explicit quiver representations over a field, plus everything computed from them.

Materializes generic presentations at concrete scalars, computes radical
layerings, socles, Hom/Ext dimensions, distinguished skeleta of a module
point, and (in)decomposability certificates.

A materialized point has the presentation's layering S by construction,
at any scalars (see ``materialize``), so no point is checked after it is
built and no seed is rejected as degenerate.  Materialized points and the
projectives behind module points share one builder on a skeleton's basis.

Fields are either F_p for a large prime p (default the Mersenne prime
2^61 - 1) or exact rationals; all arithmetic is exact.  Arrow matrices
are tuples of rows of Python ints (mod p) or Fractions.  Every rank, over
either field, is one sparse elimination (``_rank``) on rows stored as
``{column: value}`` dicts; both Hom systems are built that way from the
start, and ``mat_rank`` adapts dense rows to it.  ``RowSpace``, an
incremental echelon basis whose loops are fixed per field, is used where
the reduced vectors themselves matter: radical filtrations, quotients and
the distinguished skeleta probes.

Hom out of a generic module M = P/C is the kernel of the relation matrix
of its presentation (``_presented_hom_dim``).  The intertwiner solver
``hom_dim`` is kept as an independent route for the Ext^1 cross-check.
"""

from __future__ import annotations

import bisect
import copy
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
    realizable,
    top_elements,
)
from .errors import (
    EnumerationCapError,
    MethodDisagreementError,
    SeedStabilityError,
    UnrealizableError,
    ValidationError,
)
from .generic_builder import GenericPresentation, ScalarId, generic_presentation, hypergraph
from .homology import CyclicType, SyzygyProfile, iterated_syzygy
from .skeleta import Skeleton, iter_skeleta

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
        if self.exact:
            return x if isinstance(x, Fraction) else Fraction(x)
        return int(x) % self.modulus

    def zero(self):
        return Fraction(0) if self.exact else 0

    def one(self):
        return Fraction(1) if self.exact else 1

    def add(self, a, b):
        return a + b if self.exact else (a + b) % self.modulus


RATIONALS = FieldSpec(None)


def _freeze(mat):
    return tuple(tuple(row) for row in mat)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def zero_matrix(fs: FieldSpec, rows: int, cols: int):
    z = fs.zero()
    return [[z] * cols for _ in range(rows)]


def identity_matrix(fs: FieldSpec, n: int):
    m = zero_matrix(fs, n, n)
    for i in range(n):
        m[i][i] = fs.one()
    return m


def mat_mul(fs: FieldSpec, A, B):
    if not A or not B:
        return [[fs.zero()] * (len(B[0]) if B else 0) for _ in A]
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


def _add_entry(p: int | None, row: dict, c: int, y) -> None:
    """``row[c] += y`` over F_p (or Q when ``p`` is None), keeping only nonzero entries."""
    y += row.get(c, 0)
    if p is not None:
        y %= p
    if y:
        row[c] = y
    else:
        row.pop(c, None)


def mat_rank(fs: FieldSpec, rows) -> int:
    """Rank of dense rows: a thin adapter onto the sparse elimination ``_rank``."""
    p = fs.modulus
    if p is not None:
        rows = [[x % p for x in r] for r in rows]
    return _rank(p, [{j: x for j, x in enumerate(r) if x} for r in rows])


def kernel_dim(fs: FieldSpec, rows, ncols: int) -> int:
    return ncols - mat_rank(fs, rows)


def _reduce_mod_p(p, rows, pivots, vec):
    v = [x % p for x in vec]
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if c:
            v[piv:] = [(a - c * b) % p for a, b in zip(v[piv:], row[piv:])]
    return v


def _scale_mod_p(p, v, piv):
    inv = pow(v[piv], p - 2, p)
    return [x * inv % p for x in v]


def _reduce_rational(rows, pivots, vec):
    v = [x if isinstance(x, Fraction) else Fraction(x) for x in vec]
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if c:
            v[piv:] = [a - c * b if b else a for a, b in zip(v[piv:], row[piv:])]
    return v


def _scale_rational(v, piv):
    inv = 1 / v[piv]
    return [x * inv if x else x for x in v]


class RowSpace:
    """Incrementally maintained row-echelon basis of a subspace.

    ``rows`` are sorted by pivot column and have a leading 1, so reducing a
    vector against them in order clears every pivot column.  The
    elimination loops are fixed per field at construction: inline ``% p``
    over F_p, plain Fraction arithmetic over Q.
    """

    def __init__(self, fs: FieldSpec, width: int):
        self.width = width
        self.rows: list[list] = []
        self.pivots: list[int] = []
        if fs.exact:
            self._reduce, self._scale = _reduce_rational, _scale_rational
        else:
            self._reduce = functools.partial(_reduce_mod_p, fs.modulus)
            self._scale = functools.partial(_scale_mod_p, fs.modulus)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> RowSpace:
        """An independent space with the same basis (rows are never mutated, so shared)."""
        other = copy.copy(self)
        other.rows, other.pivots = list(self.rows), list(self.pivots)
        return other

    def reduce(self, vec) -> list:
        """The unique vector of ``vec`` + span that is zero on every pivot column."""
        return self._reduce(self.rows, self.pivots, vec)

    def add(self, vec):
        """Insert ``vec``; returns the new reduced basis row, or None if dependent."""
        v = self._reduce(self.rows, self.pivots, vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        v = self._scale(v, piv)
        at = bisect.bisect(self.pivots, piv)
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return v


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Representation:
    """Per-vertex spaces and per-arrow matrices (target_dim x source_dim).

    Matrices are tuples of tuples; treat instances as immutable.  The only
    state filled in later is the memo of ``path_action``.
    """

    algebra: TruncatedAlgebra
    field: FieldSpec
    dims: tuple[int, ...]
    matrices: dict[str, tuple]
    basis_labels: dict[str, tuple] | None = None
    top_elements: tuple[tuple[str, tuple], ...] | None = None
    _path_actions: dict = dataclasses.field(default_factory=dict, init=False, repr=False)

    def dim_at(self, v: str) -> int:
        return self.dims[self.algebra.vertex_pos(v)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def dim_vector(self) -> tuple[int, ...]:
        return self.dims


def _same_algebra(a: TruncatedAlgebra, b: TruncatedAlgebra) -> bool:
    return (a.vertices == b.vertices and a.L == b.L
            and [(x.name, x.source, x.target) for x in a.quiver.arrows]
            == [(x.name, x.source, x.target) for x in b.quiver.arrows])


@dataclass(frozen=True)
class ScalarAssignment:
    """Nonzero field values for every formal scalar of a presentation."""

    values: dict
    seed: int | None
    provenance: str

    def __getitem__(self, sid: ScalarId):
        return self.values[sid]

    def __contains__(self, sid: ScalarId):
        return sid in self.values


def seeded_assignment(pres: GenericPresentation, seed: int,
                      fs: FieldSpec = FieldSpec()) -> ScalarAssignment:
    """Distinct nonzero values drawn from a seeded PRNG.

    In exact-rational mode the scalars are the first primes 2, 3, 5, ...
    so exact runs are reproducible without a modulus.
    """
    ids = pres.scalar_ids
    if fs.exact:
        primes = map(Fraction, filter(_is_prime, itertools.count(2)))
        return ScalarAssignment(dict(zip(ids, primes)), seed, "exact-primes")
    if fs.modulus <= MIN_RANDOM_MODULUS:
        raise ValidationError(
            f"field modulus must exceed {MIN_RANDOM_MODULUS} for randomized evaluation")
    rng = random.Random(seed)
    seen: set[int] = set()
    values = {}
    for sid in ids:
        while True:
            x = rng.randrange(1, fs.modulus)
            if x not in seen:
                seen.add(x)
                values[sid] = x
                break
    return ScalarAssignment(values, seed, "seeded-random")


def _skeleton_module(sk: Skeleton, relations, assign, fs: FieldSpec) -> Representation:
    """The module on the basis ``sk.elements``, with marked tops z_r.

    An arrow sends a basis element to its extension when that lies in the
    skeleton, to the assigned combination of the sigma-set of its relation
    when the extension is critical, and to zero beyond length L.  Basis
    vectors are grouped by end vertex in skeleton order.
    """
    alg = sk.alg
    by_vertex: dict[str, list] = {v: [] for v in alg.vertices}
    for el in sk.elements:
        by_vertex[sk.end(el)].append(el)
    index = {el: i for v in alg.vertices for i, el in enumerate(by_vertex[v])}
    rel_map = {(rel.critical.arrow, rel.critical.parent): rel for rel in relations}
    matrices = {}
    for a in alg.quiver.arrows:
        mat = zero_matrix(fs, len(by_vertex[a.target]), len(by_vertex[a.source]))
        for j, el in enumerate(by_vertex[a.source]):
            r, p = el
            if p.length + 1 > alg.L:
                continue
            ext = (r, alg.extend(p, a))
            if ext in sk:
                mat[index[ext]][j] = fs.one()
                continue
            for mem, sid in rel_map[(a.name, el)].terms:
                mat[index[mem]][j] = fs.add(mat[index[mem]][j], fs.element(assign[sid]))
        matrices[a.name] = _freeze(mat)
    tops = []
    for r, v in enumerate(sk.top, start=1):
        vec = [fs.zero()] * len(by_vertex[v])
        vec[index[(r, alg.trivial_path(v))]] = fs.one()
        tops.append((v, tuple(vec)))
    return Representation(alg, fs, tuple(len(by_vertex[v]) for v in alg.vertices), matrices,
                          basis_labels={v: tuple(by_vertex[v]) for v in alg.vertices},
                          top_elements=tuple(tops))


def materialize(pres: GenericPresentation, assign: ScalarAssignment,
                fs: FieldSpec = FieldSpec()) -> Representation:
    """Evaluate a generic presentation at concrete scalars.

    The result has the presentation's radical layering S for every choice
    of scalars, zero included, so nothing is checked after the build.  A
    basis element (r, p) is p z_r, so it lies in J^{len p} M.  Each arrow
    sends a length-l basis element to a skeleton element of length l+1, to
    sigma-set members of length >= l+1, or to zero, so J^l M lies in the
    span of the basis elements of length >= l.  Hence J^l M is that span,
    and layer l of M is layer l of the skeleton, which is S.
    """
    for rel in pres.relations:
        for _, sid in rel.terms:
            if sid not in assign:
                raise ValidationError(f"assignment missing scalar {sid.name}")
    return _skeleton_module(pres.skeleton, pres.relations, assign, fs)


def _radical_spaces(rep: Representation) -> list[dict[str, RowSpace]]:
    """Bases of J^l M per vertex, l = 0..L+1; the last must be zero."""
    alg, fs = rep.algebra, rep.field
    full = {v: RowSpace(fs, rep.dim_at(v)) for v in alg.vertices}
    for rs in full.values():
        # J^0 M = M: the identity rows are already an echelon basis
        rs.rows, rs.pivots = identity_matrix(fs, rs.width), list(range(rs.width))
    spaces = [full]
    for _ in range(alg.L + 1):
        prev = spaces[-1]
        nxt = {v: RowSpace(fs, rep.dim_at(v)) for v in alg.vertices}
        for a in alg.quiver.arrows:
            mat = rep.matrices[a.name]
            for row in prev[a.source].rows:
                nxt[a.target].add(mat_vec(fs, mat, row))
        spaces.append(nxt)
    return spaces


def radical_layering(rep: Representation) -> SemisimpleSequence:
    """Per-vertex dimensions of J^l M / J^{l+1} M for l = 0..L."""
    return _layering(rep.algebra, _radical_spaces(rep))


def _layering(alg: TruncatedAlgebra, spaces) -> SemisimpleSequence:
    """The radical layering read off the bases of ``_radical_spaces``."""
    if any(spaces[alg.L + 1][v].dim for v in alg.vertices):
        raise ValidationError("representation is not annihilated by paths of length L+1")
    return SemisimpleSequence(tuple(
        tuple(spaces[l][v].dim - spaces[l + 1][v].dim for v in alg.vertices)
        for l in range(alg.L + 1)))


def socle(rep: Representation) -> tuple[int, ...]:
    """Per-vertex socle dimensions: joint kernel of all arrows leaving the vertex."""
    alg, fs = rep.algebra, rep.field
    out = []
    for v in alg.vertices:
        d = rep.dim_at(v)
        stacked = [row for a in alg.quiver.arrows_from[v] for row in rep.matrices[a.name]]
        out.append(kernel_dim(fs, stacked, d) if stacked else d)
    return tuple(out)


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
        a_cols = [[(k, x) for k, x in enumerate(col) if x]
                  for col in zip(*rep_a.matrices[a.name])] or [[]] * dAs
        for i, b_row in enumerate(rep_b.matrices[a.name]):
            b_terms = [(offsets[s] + k * dAs, -y) for k, y in enumerate(b_row) if y]
            for j in range(dAs):
                row = {offsets[t] + i * dAt + k: x for k, x in a_cols[j]}
                for c, y in b_terms:
                    _add_entry(p, row, c + j, y)
                rows.append(row)
    return total - _rank(p, rows)


def path_action(rep: Representation, p: Path):
    """Matrix of the action of a path: component at start -> component at end.

    Memoised per representation: the leftmost arrow's matrix times the
    matrix of the initial subpath.
    """
    if p not in rep._path_actions:
        rep._path_actions[p] = _freeze(
            identity_matrix(rep.field, rep.dim_at(p.start)) if not p.arrows else
            mat_mul(rep.field, rep.matrices[p.arrows[0]],
                    path_action(rep, p.initial_subpath(p.length - 1))))
    return rep._path_actions[p]


def hom_dim_from_cyclic(alg: TruncatedAlgebra, c: CyclicType, rep: Representation) -> int:
    """dim Hom(Lambda e / J^m e, N) = dim { n in eN : J^m n = 0 }.

    The kernel of the stacked action matrices of all length-m paths out of
    e; a projective cyclic imposes no constraint.
    """
    from .algebra_core import enumerate_paths

    d = rep.dim_at(c.vertex)
    if c.truncation >= alg.L + 1:
        return d
    paths = enumerate_paths(alg, c.vertex, c.truncation)
    if not paths:
        return d
    stacked = [row for p in paths for row in path_action(rep, p)]
    return kernel_dim(rep.field, stacked, d)


def hom_profile_dim(alg: TruncatedAlgebra, profile: SyzygyProfile, rep: Representation) -> int:
    return sum(m * hom_dim_from_cyclic(alg, c, rep) for c, m in profile.items())


# ---------------------------------------------------------------------------
# Ext dimensions, two ways
# ---------------------------------------------------------------------------

def _hom_from_projective_cover_of_top(S0, alg, rep) -> int:
    return sum(S0[i] * rep.dims[i] for i in range(alg.n))


def _hom_from_cover_of_profile(alg, profile: SyzygyProfile, rep) -> int:
    return sum(m * rep.dim_at(c.vertex) for c, m in profile.items())


def _presented_hom_dim(pres: GenericPresentation, assign: ScalarAssignment,
                       rep_n: Representation) -> int:
    """dim Hom(M, N) for M = P/C, the evaluation of ``pres`` at ``assign``.

    A map P -> N is a choice of images n_r in e(r)N, one per top z_r; it
    factors through M iff it kills every relation generator of C.  So
    Hom(M, N) is the kernel of the relation-evaluation matrix R on the
    direct sum of the e(r)N, and dim Hom = sum_r dim e(r)N - rank R.
    """
    alg, fs, p = pres.algebra, rep_n.field, rep_n.field.modulus
    offsets, width = [], 0
    for v in pres.skeleton.top:
        offsets.append(width)
        width += rep_n.dim_at(v)
    rows = []
    for rel in pres.relations:
        crit = rel.sigma_set.critical
        cpath = crit.path(alg)
        block = [{} for _ in range(rep_n.dim_at(alg.path_end(cpath)))]
        terms = [(cpath, crit.r, 1)] + [(mem[1], mem[0], -fs.element(assign[sid]))
                                        for mem, sid in rel.terms]
        for path, r, scale in terms:
            off = offsets[r - 1]
            for row, mat_row in zip(block, path_action(rep_n, path)):
                for j, x in enumerate(mat_row):
                    if x:
                        _add_entry(p, row, off + j, scale * x)
        rows.extend(row for row in block if row)
    return width - _rank(p, rows)


def _ext1_restriction_method(pres: GenericPresentation, assign: ScalarAssignment,
                             rep_n: Representation) -> int:
    """dim Ext^1 as corank of the restriction map Hom(P, N) -> Hom(Omega^1, N).

    Uses the explicit embedding Omega^1 = C <= JP: the restriction map is
    the relation-evaluation matrix R, whose kernel is Hom(M, N), so its
    rank is dim Hom(P, N) - dim Hom(M, N).
    """
    alg = pres.algebra
    hom_c = 0
    for rel in pres.relations:
        cpath = rel.sigma_set.critical.path(alg)
        hom_c += hom_dim_from_cyclic(
            alg, CyclicType(alg.path_end(cpath), alg.L + 1 - cpath.length), rep_n)
    hom_p = _hom_from_projective_cover_of_top(pres.sequence.top, alg, rep_n)
    return hom_c - hom_p + _presented_hom_dim(pres, assign, rep_n)


def ext_dim_detail(alg: TruncatedAlgebra, S_M: SemisimpleSequence,
                   rep_n: Representation | None, k: int, seeds,
                   fs: FieldSpec = FieldSpec()) -> dict:
    """Per-seed Ext^k(G(S_M), N) with both methods at k = 1.

    Method 1 is the alternating formula on the minimal resolution read off
    the syzygy profiles; method 2 (k = 1 only) is the corank of the
    explicit restriction map.  Disagreement between methods or across seeds
    is an error, never averaged.  ``rep_n`` None is self-Ext: N is G(S_M)
    itself, the point drawn at each seed from one presentation.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not realizable(alg, S_M):
        raise UnrealizableError(f"{S_M} is not realizable")
    profile = iterated_syzygy(alg, S_M, k)
    prev = iterated_syzygy(alg, S_M, k - 1) if k > 1 else None

    @functools.cache
    def rest(rep):
        """Every term of the alternating formula but the seeded Hom(G, N) at k = 1."""
        hom_k = hom_profile_dim(alg, profile, rep)
        if k == 1:
            return hom_k - _hom_from_projective_cover_of_top(S_M.top, alg, rep)
        return hom_k - _hom_from_cover_of_profile(alg, prev, rep) + hom_profile_dim(alg, prev, rep)

    # a point of G(S_M) per seed: for Hom(G, N) at k = 1, and as N in self-Ext
    pres = generic_presentation(alg, S_M) if k == 1 or rep_n is None else None
    per_seed = []

    def compute(seed):
        n = rep_n
        if pres is not None:
            assign = seeded_assignment(pres, seed, fs)
            rep_m = materialize(pres, assign, fs)
            n = rep_m if rep_n is None else rep_n
        record = {"seed": seed, "alternating": rest(n)}
        if k == 1:
            record["alternating"] += hom_dim(rep_m, n)
            record["restriction"] = _ext1_restriction_method(pres, assign, n)
            if record["restriction"] != record["alternating"]:
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
    each top, which has no critical paths and so no relations.
    """
    from .algebra_core import enumerate_paths

    elements = [(r, p) for r, v in enumerate(tops, start=1)
                for l in range(alg.L + 1) for p in enumerate_paths(alg, v, l)]
    return _skeleton_module(Skeleton(alg, tops, elements), (), {}, fs)


def quotient_representation(rep: Representation, sub_vectors) -> Representation:
    """Quotient of ``rep`` by the submodule generated by the given vectors.

    ``sub_vectors`` is an iterable of (vertex, vector); the span is closed
    under the arrow action before forming the quotient.  Marked top elements
    are carried along by projection.
    """
    alg, fs = rep.algebra, rep.field
    spaces = {v: RowSpace(fs, rep.dim_at(v)) for v in alg.vertices}
    pending = [(v, list(vec)) for v, vec in sub_vectors]
    while pending:
        v, vec = pending.pop()
        added = spaces[v].add(vec)
        if added is None:
            continue
        for a in alg.quiver.arrows_from[v]:
            pending.append((a.target, mat_vec(fs, rep.matrices[a.name], added)))

    keep = {}
    for v in alg.vertices:
        pivots = set(spaces[v].pivots)
        keep[v] = [i for i in range(rep.dim_at(v)) if i not in pivots]

    def project(v: str, vec):
        reduced = spaces[v].reduce(vec)
        return [reduced[i] for i in keep[v]]

    dims = tuple(len(keep[v]) for v in alg.vertices)
    matrices = {}
    for a in alg.quiver.arrows:
        src, tgt = a.source, a.target
        cols = []
        for i in keep[src]:
            unit = [fs.zero()] * rep.dim_at(src)
            unit[i] = fs.one()
            cols.append(project(tgt, mat_vec(fs, rep.matrices[a.name], unit)))
        matrices[a.name] = _freeze(
            [[cols[j][i] for j in range(len(keep[src]))] for i in range(len(keep[tgt]))])
    tops = None
    if rep.top_elements is not None:
        tops = tuple((v, tuple(project(v, list(vec)))) for v, vec in rep.top_elements)
    return Representation(alg, fs, dims, matrices, basis_labels=None, top_elements=tops)


def module_point(alg: TruncatedAlgebra, tops, relations,
                 fs: FieldSpec = RATIONALS) -> Representation:
    """P/C for generators given as coefficient combinations of paths on tops.

    Each relation is a list of (coeff, r, arrows); arrows are in display
    order (leftmost applied last).  Components at distinct vertices of one
    generator split into separate submodule generators.
    """
    tops = tuple(str(v) for v in tops)
    P = projective_representation(alg, tops, fs)
    by_vertex = P.basis_labels
    index = {v: {el: i for i, el in enumerate(by_vertex[v])} for v in alg.vertices}
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
            end = alg.path_end(p)
            vec = comps.setdefault(end, [fs.zero()] * P.dim_at(end))
            i = index[end][(int(r), p)]
            vec[i] = fs.add(vec[i], fs.element(coeff))
        for v, vec in comps.items():
            if any(x != 0 for x in vec):
                gens.append((v, vec))
    return quotient_representation(P, gens)


def _check_tops_full(rep: Representation, spaces) -> None:
    alg = rep.algebra
    if rep.top_elements is None:
        raise ValidationError("representation has no marked top elements")
    radical = spaces[1]
    top_dim = sum(rep.dims) - sum(radical[v].dim for v in alg.vertices)
    if len(rep.top_elements) != top_dim:
        raise ValidationError("marked top elements do not form a full sequence")
    for v in alg.vertices:
        probe = radical[v].copy()
        for w, vec in rep.top_elements:
            if w == v and probe.add(list(vec)) is None:
                raise ValidationError("marked top elements are dependent modulo JM")


def distinguished_skeleta_of(rep: Representation, cap: int = 10**6) -> list[Skeleton]:
    """All distinguished skeleta of a module point with marked top elements.

    A compatible abstract skeleton qualifies when, for every layer l, the
    vectors p*m_r over its layer-l members are independent modulo J^{l+1}M.
    Marked tops are grouped by vertex to align with the distinguished
    indexing z_1..z_t.
    """
    alg, fs = rep.algebra, rep.field
    spaces = _radical_spaces(rep)
    _check_tops_full(rep, spaces)
    S = _layering(alg, spaces)
    order = sorted(range(len(rep.top_elements)),
                   key=lambda i: alg.vertex_pos(rep.top_elements[i][0]))
    tops = [rep.top_elements[i] for i in order]
    if tuple(v for v, _ in tops) != top_elements(alg, S):
        raise ValidationError("marked top elements do not match the layering's top")

    images = {}

    def image(r, p):
        """p * m_r: the image of p's initial subpath times the leftmost arrow's matrix."""
        if (r, p) not in images:
            images[r, p] = (list(tops[r - 1][1]) if not p.arrows else mat_vec(
                fs, rep.matrices[p.arrows[0]], image(r, p.initial_subpath(p.length - 1))))
        return images[r, p]

    out = []
    count = 0
    for sk in iter_skeleta(alg, S):
        count += 1
        if count > cap:
            raise EnumerationCapError(cap)
        good = True
        for l in range(alg.L + 1):
            layer = sk.layer(l)
            if not layer:
                continue
            probes = {v: None for v in alg.vertices}
            for r, p in layer:
                w = list(image(r, p))
                end = alg.path_end(p)
                if probes[end] is None:
                    probes[end] = spaces[l + 1][end].copy()
                if probes[end].add(w) is None:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(sk)
    return out


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
    if not realizable(alg, S):
        raise UnrealizableError(f"{S} is not realizable")
    squarefree = all(x <= 1 for x in S.top)
    graded_pres = generic_presentation(alg, S, graded=True)
    pres = graded_pres if graded else generic_presentation(alg, S)
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
    end_dims = []
    for seed in seeds:
        assign = seeded_assignment(pres, seed, fs)
        e = _presented_hom_dim(pres, assign, materialize(pres, assign, fs))
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


def generic_socle(alg: TruncatedAlgebra, S: SemisimpleSequence, seeds=(0, 1, 2),
                  fs: FieldSpec = FieldSpec()) -> tuple[int, ...]:
    """Socle dimension vector of the generic module, seed-stability checked."""
    pres = generic_presentation(alg, S)

    def compute(seed):
        return socle(materialize(pres, seeded_assignment(pres, seed, fs), fs))

    return stable_over_seeds(compute, seeds, "generic_socle", f"sequence {S}")


def generic_end_dim(alg: TruncatedAlgebra, S: SemisimpleSequence, seeds=(0, 1, 2),
                    fs: FieldSpec = FieldSpec()) -> int:
    pres = generic_presentation(alg, S)

    def compute(seed):
        assign = seeded_assignment(pres, seed, fs)
        return _presented_hom_dim(pres, assign, materialize(pres, assign, fs))

    return stable_over_seeds(compute, seeds, "generic_end_dim", f"sequence {S}")


def generic_hom_dim(alg: TruncatedAlgebra, S_a: SemisimpleSequence,
                    S_b: SemisimpleSequence, seeds=(0, 1, 2),
                    fs: FieldSpec = FieldSpec()) -> int:
    """hom between independently materialized generic modules of two sequences."""
    pres_a = generic_presentation(alg, S_a)
    pres_b = generic_presentation(alg, S_b)

    def compute(seed):
        rep_b = materialize(pres_b, seeded_assignment(pres_b, seed + PAIR_SEED_OFFSET, fs), fs)
        return _presented_hom_dim(pres_a, seeded_assignment(pres_a, seed, fs), rep_b)

    return stable_over_seeds(compute, seeds, "generic_hom_dim",
                             f"sequences {S_a} and {S_b}")


def module_point_from_json(data: dict, alg: TruncatedAlgebra,
                           fs: FieldSpec = RATIONALS) -> Representation:
    """{"tops":[{"vertex":...}],"relations":[[{"coeff","r","arrows"}...]]} -> P/C."""
    try:
        tops = [str(t["vertex"]) for t in data["tops"]]
        relations = [
            [(_parse_coeff(term.get("coeff", 1), fs), _json_as(term["r"]),
              tuple(str(a) for a in _json_as(term["arrows"], list)))
             for term in (_json_as(t, dict) for t in _json_as(rel, list))]
            for rel in _json_as(data["relations"], list)
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed module point: {exc}") from None
    return module_point(alg, tops, relations, fs)


def _parse_coeff(raw, fs: FieldSpec):
    if isinstance(raw, str):
        return fs.element(Fraction(raw)) if fs.exact else fs.element(int(raw))
    return fs.element(_json_as(raw))
