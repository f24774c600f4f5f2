import bisect
import copy
import functools
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import settings, strategies as st

from genrep.algebra_core import Arrow, Quiver, SemisimpleSequence, TruncatedAlgebra
from genrep.skeleta import DEFAULT_CAP, capped_count, iter_skeleta


# CI selects this profile (--hypothesis-profile=ci) so that property tests
# replay the same examples on every run and slow runners cannot time out.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


def _alg(vertices, arrows, L):
    return TruncatedAlgebra(Quiver(vertices, [Arrow(*a) for a in arrows]), L)


def seq(*layers):
    return SemisimpleSequence(tuple(tuple(row) for row in layers))


def enumerate_skeleta(alg, S, cap=DEFAULT_CAP):
    """Every compatible skeleton, after ``capped_count``: raises iff more than ``cap``."""
    capped_count(alg, S, cap)
    return list(iter_skeleta(alg, S))


def traced_peak(fn):
    """(``fn()``, the peak of memory traced while it ran above what was traced before).
    tracemalloc sees only the allocations of Python's allocators, not the interpreter's
    own or a C library's."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def canonical_key(alg, el):
    """The canonical order of skeleton members: (length, r, arrow indices with the leftmost
    arrow first); on paths of one start and length, the arrow indices alone."""
    r, p = el
    return (p.length, r, tuple(alg.quiver.arrow_index[a] for a in p.arrows))


def canonical_sort(alg, elements):
    """The distinct ``elements`` sorted by ``canonical_key``: the order oracle of
    ``enumerate_paths`` and of both skeleton builders."""
    return sorted(set(elements), key=lambda el: canonical_key(alg, el))


def sorted_skeleton(alg, top, elements):
    """The ``Skeleton`` of ``top`` with ``elements`` in canonical order, for members gathered
    out of order."""
    from genrep.skeleta import Skeleton
    return Skeleton(alg, top, canonical_sort(alg, elements))


def brute_force_paths(alg, start, length):
    """Oracle: filter all arrow tuples of the given length by composability."""
    names = [a.name for a in alg.quiver.arrows]
    found = []
    for combo in product(names, repeat=length):
        # combo in display order: combo[-1] applied first
        v = start
        ok = True
        for name in reversed(combo):
            a = alg.quiver.arrow_by_name[name]
            if a.source != v:
                ok = False
                break
            v = a.target
        if ok:
            found.append(combo)
    return sorted(found, key=lambda c: tuple(alg.quiver.arrow_index[x] for x in c))


def skeleton_layer(sk, l):
    """The members of length l, in skeleton order."""
    return tuple(el for el in sk.elements if el[1].length == l)


def skeleton_sequence(sk):
    """The one semisimple sequence the skeleton is compatible with: layer l counts its
    members of length l by end vertex."""
    alg = sk.alg
    layers = [[0] * alg.n for _ in range(alg.L + 1)]
    for el in sk.elements:
        layers[el[1].length][alg.vertex_pos(sk.end(el))] += 1
    return seq(*layers)


def present(alg, S, sk, graded=False):
    """The generic presentation of S on any compatible skeleton, the canonical one or not."""
    from genrep.generic_builder import _presentation
    from genrep.skeleta import critical_paths
    return _presentation(alg, S, sk, critical_paths(alg, sk), graded)


def profile_dim_vector(alg, profile):
    """The dimension vector of a syzygy profile: each summand's ``truncated_dim_vector``
    times its multiplicity, summed."""
    from genrep.algebra_core import truncated_dim_vector
    dims = [0] * alg.n
    for c, m in profile.items():
        for j, d in enumerate(truncated_dim_vector(alg, c.vertex, c.truncation)):
            dims[j] += m * d
    return tuple(dims)


def bundle_N(alg, S):
    """(N, N0, N1) of ``bundle_tower``: dim Grass(S), its graded base and the fiber."""
    from genrep.generic_builder import bundle_tower
    rep = bundle_tower(alg, S)
    return rep.N, rep.N0, rep.N1


FIXTURES = ["double_back", "relay", "loop_out", "chain_with_returns", "line_swing",
            "six_vertex", "triangle", "kronecker", "a2", "diamond", "y_quiver", "with_isolated"]


# name -> (vertices, arrows, L) of the algebras component sifting and its stdout are checked on
COMPONENT_ALGEBRAS = {
    "double_back": (["1", "2"], [("a", "1", "2"), ("b1", "2", "1"), ("b2", "2", "1")], 2),
    "line_swing": (["1", "2", "3"], [("u", "1", "2"), ("v", "2", "3"), ("w", "3", "2")], 2),
    "loop_out": (["1", "2"], [("a", "1", "1"), ("b", "1", "2")], 2),
    "relay": (["1", "2", "3"], [("a1", "1", "2"), ("a2", "1", "2"), ("b", "2", "3"),
                                ("g1", "3", "2"), ("g2", "3", "2")], 3),
}


@st.composite
def realizable_layerings(draw, alg):
    """A top of entries 0..2, then each layer within the extensions of the one before."""
    rows = [tuple(draw(st.integers(0, 2)) for _ in alg.vertices)]
    for _ in range(alg.L):
        rows.append(tuple(draw(st.integers(0, min(a, 3)))
                          for a in alg.extension_counts(rows[-1])))
    return seq(*rows)


@pytest.fixture(scope="session")
def double_back():
    # 1 <--> 2 with one arrow a: 1->2 and two back-arrows b1, b2: 2->1; paths of length 3 vanish
    return _alg(["1", "2"], [("a", "1", "2"), ("b1", "2", "1"), ("b2", "2", "1")], 2)


@pytest.fixture(scope="session")
def relay():
    # two arrows 1->2, one 2->3, two 3->2; Loewy length 4
    return _alg(
        ["1", "2", "3"],
        [("a1", "1", "2"), ("a2", "1", "2"), ("b", "2", "3"), ("g1", "3", "2"), ("g2", "3", "2")],
        3,
    )


@pytest.fixture(scope="session")
def loop_out():
    # loop at 1 plus an arrow 1->2, Loewy length 3
    return _alg(["1", "2"], [("a", "1", "1"), ("b", "1", "2")], 2)


@pytest.fixture(scope="session")
def chain_with_returns():
    # 1 -> 2 and 1 -> 6 feeding a zigzag 2<->3<->4<->5<->6, Loewy length 6
    return _alg(
        ["1", "2", "3", "4", "5", "6"],
        [
            ("c12", "1", "2"), ("c16", "1", "6"),
            ("f23", "2", "3"), ("f34", "3", "4"), ("f45", "4", "5"), ("f56", "5", "6"),
            ("b32", "3", "2"), ("b43", "4", "3"), ("b54", "5", "4"), ("b65", "6", "5"),
        ],
        5,
    )


@pytest.fixture(scope="session")
def line_swing():
    # 1 -> 2, 2 <-> 3, Loewy length 3
    return _alg(["1", "2", "3"], [("u", "1", "2"), ("v", "2", "3"), ("w", "3", "2")], 2)


@pytest.fixture(scope="session")
def six_vertex():
    # 1 -a-> 4 =b1,b2=> 6 <-g- 2, 3 -d-> 5 -e-> 6; hereditary, modeled with L = 2
    return _alg(
        ["1", "2", "3", "4", "5", "6"],
        [("al", "1", "4"), ("b1", "4", "6"), ("b2", "4", "6"),
         ("g", "2", "6"), ("d", "3", "5"), ("e", "5", "6")],
        2,
    )


@pytest.fixture(scope="session")
def triangle():
    # 1 -a-> 2 -b-> 3 with a shortcut 1 -c-> 3: ba and c are parallel paths of different lengths
    return _alg(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")], 2)


@pytest.fixture(scope="session")
def kronecker():
    return _alg(["1", "2"], [("al", "1", "2"), ("be", "1", "2")], 1)


@pytest.fixture(scope="session")
def a2():
    return _alg(["1", "2"], [("g", "1", "2")], 1)


@pytest.fixture(scope="session")
def diamond():
    # 1 -> 2 -> 3 and 1 -> 4 -> 3, truncated at L = 2
    return _alg(["1", "2", "3", "4"],
                [("p", "1", "2"), ("q", "2", "3"), ("r", "1", "4"), ("s", "4", "3")], 2)


@pytest.fixture(scope="session")
def y_quiver():
    # 1 -> 2 -> 3 <- 4, modeled with L = 2
    return _alg(["1", "2", "3", "4"],
                [("a", "1", "2"), ("b", "2", "3"), ("c", "4", "3")], 2)


@pytest.fixture(scope="session")
def with_isolated():
    # arrow 1->2 next to an isolated vertex 3
    return _alg(["1", "2", "3"], [("a", "1", "2")], 2)


# ---------------------------------------------------------------------------
# field arithmetic, exact oracles and input helpers used only by the tests
# ---------------------------------------------------------------------------

def fs_add(fs, a, b):
    return a + b if fs.exact else (a + b) % fs.modulus


def fs_sub(fs, a, b):
    return a - b if fs.exact else (a - b) % fs.modulus


def fs_mul(fs, a, b):
    return a * b if fs.exact else (a * b) % fs.modulus


def fs_neg(fs, a):
    return -a if fs.exact else (-a) % fs.modulus


def fs_inv(fs, a):
    return Fraction(1) / a if fs.exact else pow(a, fs.modulus - 2, fs.modulus)


def zero_matrix(rows, cols):
    return [[0] * cols for _ in range(rows)]


def bareiss_rank(fs, rows):
    """Rank by fraction-free (Bareiss) elimination, the exact oracle.

    Over Q each row is cleared of denominators and every division by the
    previous pivot is exact over the integers; over F_p the same
    recurrence runs on residues, dividing by the previous pivot's inverse.
    """
    p = fs.modulus
    if p is None:
        M = []
        for r in rows:
            fracs = [Fraction(x) for x in r]
            den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
            M.append([int(f * den) for f in fracs])
    else:
        M = [[x % p for x in r] for r in rows]
    m, n = len(M), len(M[0]) if M else 0
    rank, prev = 0, 1
    for col in range(n):
        pivot = next((i for i in range(rank, m) if M[i][col]), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        for i in range(rank + 1, m):
            for j in range(col + 1, n):
                x = M[rank][col] * M[i][j] - M[i][col] * M[rank][j]
                M[i][j] = x // prev if p is None else x * pow(prev, -1, p) % p
            M[i][col] = 0
        prev = M[rank][col]
        rank += 1
        if rank == m:
            break
    return rank


def kernel_basis(fs, rows, ncols):
    """Basis of the right kernel, one vector per free column of the rref."""
    R = [[fs.element(x) for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(R)) if R[i][col] != 0), None)
        if piv is None:
            continue
        R[rank], R[piv] = R[piv], R[rank]
        inv = fs_inv(fs, R[rank][col])
        R[rank] = [fs_mul(fs, inv, x) for x in R[rank]]
        for i in range(len(R)):
            if i != rank and R[i][col] != 0:
                c = R[i][col]
                R[i] = [fs_sub(fs, a, fs_mul(fs, c, b)) for a, b in zip(R[i], R[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(R):
            break
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = fs_neg(fs, R[i][free])
        basis.append(v)
    return basis


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


class DenseRowSpace:
    """Row-echelon basis of dense rows, the oracle of the sparse ``RowSpace``.

    ``rows`` are lists sorted by pivot column, each with a leading 1 at its
    leftmost nonzero column; the loops are fixed per field at construction.
    """

    def __init__(self, fs, width):
        self.width = width
        self.rows = []
        self.pivots = []
        if fs.exact:
            self._reduce, self._scale = _reduce_rational, _scale_rational
        else:
            self._reduce = functools.partial(_reduce_mod_p, fs.modulus)
            self._scale = functools.partial(_scale_mod_p, fs.modulus)

    @property
    def dim(self):
        return len(self.rows)

    def copy(self):
        other = copy.copy(self)
        other.rows, other.pivots = list(self.rows), list(self.pivots)
        return other

    def reduce(self, vec):
        return self._reduce(self.rows, self.pivots, vec)

    def add(self, vec):
        v = self._reduce(self.rows, self.pivots, vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        v = self._scale(v, piv)
        at = bisect.bisect(self.pivots, piv)
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return v


def representation_from_matrices(alg, fs, dims, matrices, top_elements=None):
    """A hand-built module: dense arrow matrices (target_dim x source_dim, by arrow
    name) and dense tops (vertex, vector), entries any representatives of field
    elements, stored as ``Representation`` stores them: sparse columns and sparse
    tops, each entry through ``fs.element``, zeros dropped."""
    from genrep.matrix_rep import Representation

    def sparse(vec):
        return {i: x for i, e in enumerate(vec) if (x := fs.element(e))}

    dims = tuple(dims)
    columns = {a.name: [sparse([row[j] for row in matrices[a.name]])
                        for j in range(dims[alg.vertex_pos(a.source)])]
               for a in alg.quiver.arrows}
    tops = None if top_elements is None else tuple((v, sparse(vec)) for v, vec in top_elements)
    return Representation(alg, fs, dims, columns, top_elements=tops)


def arrow_matrix(rep, name):
    """The dense matrix of arrow ``name``, a tuple of rows, read off its sparse columns."""
    height = rep.dim_at(rep.algebra.quiver.arrow_by_name[name].target)
    return tuple(tuple(col.get(i, 0) for col in rep.columns[name]) for i in range(height))


def top_vectors(rep):
    """The marked tops as (vertex, dense list), read off their sparse vectors."""
    return [(v, [vec.get(i, 0) for i in range(rep.dim_at(v))]) for v, vec in rep.top_elements]


def dense_radical_spaces(rep, first):
    """The spaces ``first`` (vertex -> ``DenseRowSpace``), J first, ...,
    J^{L+1} first: each is spanned by the arrow matrices applied to the rows
    of the one before."""
    from genrep.matrix_rep import mat_vec
    alg, fs = rep.algebra, rep.field
    spaces = [first]
    for _ in range(alg.L + 1):
        prev = spaces[-1]
        nxt = {v: DenseRowSpace(fs, rep.dim_at(v)) for v in alg.vertices}
        for a in alg.quiver.arrows:
            for row in prev[a.source].rows:
                nxt[a.target].add(mat_vec(fs, arrow_matrix(rep, a.name), row))
        spaces.append(nxt)
    return spaces


def quotient_representation_by_dense(rep, sub_vectors):
    """Quotient of ``rep`` by the submodule generated by the given vectors,
    built from dense matrices and dense row spaces: the closure applies each
    arrow's matrix, and each kept column is projected in full.  The generators
    are (vertex, dense vector)."""
    from genrep.matrix_rep import mat_vec
    alg, fs = rep.algebra, rep.field
    spaces = {v: DenseRowSpace(fs, rep.dim_at(v)) for v in alg.vertices}
    pending = [(v, list(vec)) for v, vec in sub_vectors]
    while pending:
        v, vec = pending.pop()
        added = spaces[v].add(vec)
        if added is None:
            continue
        for a in alg.quiver.arrows_from[v]:
            pending.append((a.target, mat_vec(fs, arrow_matrix(rep, a.name), added)))

    keep = {v: sorted(set(range(rep.dim_at(v))) - set(spaces[v].pivots)) for v in alg.vertices}

    def project(v, vec):
        reduced = spaces[v].reduce(vec)
        return [reduced[i] for i in keep[v]]

    dims = tuple(len(keep[v]) for v in alg.vertices)
    matrices = {}
    for a in alg.quiver.arrows:
        mat = arrow_matrix(rep, a.name)
        cols = [project(a.target, [row[i] for row in mat]) for i in keep[a.source]]
        matrices[a.name] = tuple(tuple(col[i] for col in cols) for i in range(len(keep[a.target])))
    tops = None if rep.top_elements is None else [
        (v, project(v, vec)) for v, vec in top_vectors(rep)]
    return representation_from_matrices(alg, fs, dims, matrices, tops)


def critical_paths_by_scan(alg, sk):
    """Every critical path with its sigma-set, each sigma-set collected by
    scanning every skeleton element again, the oracle of ``critical_paths``."""
    from genrep.skeleta import CriticalPath, SigmaSet
    out, members = [], set(sk.elements)
    for el in sk.elements:
        r, p = el
        if p.length + 1 > alg.L:
            continue
        for a in alg.quiver.arrows_from[alg.path_end(p)]:
            ext = alg.extend(p, a)
            if (r, ext) in members:
                continue
            length, end = ext.length, alg.path_end(ext)
            zero, one = [], []
            for mem in sk.elements:
                if mem[1].length >= length and sk.end(mem) == end:
                    (zero if mem[1].length == length else one).append(mem)
            out.append(SigmaSet(CriticalPath(a.name, el), tuple(zero + one),
                                tuple(zero), tuple(one)))
    out.sort(key=lambda s: (canonical_key(alg, s.critical.parent),
                            alg.quiver.arrow_index[s.critical.arrow]))
    return out


def first_syzygy_by_critical_paths(alg, sk):
    """One cyclic summand e/J^(L+1 - len(alpha*p)) per critical path alpha*p of ``sk``,
    e its endpoint: the oracle of ``first_syzygy``, which counts them off the layering."""
    from genrep.homology import CyclicType, SyzygyProfile
    from genrep.skeleta import critical_paths
    return SyzygyProfile(
        CyclicType(alg.path_end(path), alg.L + 1 - path.length)
        for path in (s.critical.path(alg) for s in critical_paths(alg, sk)))


def invariants_N_by_critical_paths(alg, sk):
    """(N, N0, N1) as the sizes of the zero and one parts of the sigma-sets of ``sk``,
    summed over its critical paths: the oracle of N, N0 and N1 of ``bundle_tower``."""
    from genrep.skeleta import critical_paths
    sets = critical_paths(alg, sk)
    n0 = sum(len(s.zero_part) for s in sets)
    n1 = sum(len(s.one_part) for s in sets)
    return (n0 + n1, n0, n1)


def socle_by_stacking(rep):
    """Per-vertex socle dimensions: the kernel of the stacked matrices of
    every arrow leaving the vertex."""
    from genrep.matrix_rep import mat_rank
    return tuple(rep.dim_at(v) - mat_rank(rep.field, [
        row for a in rep.algebra.quiver.arrows_from[v] for row in arrow_matrix(rep, a.name)])
        for v in rep.algebra.vertices)


def _socle_supports(sk):
    """Per vertex v, the supports of the rows of M_v -> sum of M_t(a) over the arrows a out
    of v, for the modules on the basis ``sk.basis``: one ``{column: is unit}`` per member.

    The row of a member (r, p) holds, per arrow a, a unit 1 in the column (a, a*p) if a*p
    is a member; else, if a*p has length <= L, the scalar of each sigma-set member of the
    critical path a*p in that member's column (a, q); else nothing.
    """
    alg, basis = sk.alg, sk.basis
    index = {(r, p.arrows): i for els in basis.values() for i, (r, p) in enumerate(els)}
    # first[v][l]: the first basis index at v of length >= l; the sigma-set of a critical
    # path of length l ending at v is every basis element from there on
    first = {}
    for v, els in basis.items():
        lengths = [len(p.arrows) for _, p in els]
        first[v] = [bisect.bisect_left(lengths, l) for l in range(alg.L + 1)]
    out = []
    for v in alg.vertices:
        rows = []
        for r, p in basis[v]:
            row, l = {}, len(p.arrows) + 1
            for a in alg.quiver.arrows_from[v]:
                i = index.get((r, (a.name,) + p.arrows))
                if i is not None:
                    row[a.name, i] = True
                elif l <= alg.L:
                    row.update(((a.name, q), False)
                               for q in range(first[a.target][l], len(basis[a.target])))
            rows.append(row)
        out.append(rows)
    return out


def _term_rank(rows):
    """The size of a maximum matching of rows to columns, ``rows[j]`` listing the columns
    of row j: each row in turn looks for an augmenting path, breadth first, through the
    rows matched to the columns it reaches."""
    owner, matched = {}, {}  # column -> its row, row -> its column
    for j in range(len(rows)):
        via, queue, free = {}, [j], None
        for i in queue:  # the queue grows while it is read
            for c in rows[i]:
                if c not in via:
                    via[c] = i
                    if c not in owner:
                        free = c
                        break
                    queue.append(owner[c])
            if free is not None:
                break
        while free is not None:  # flip the path: each row on it takes the column it reached
            i = via[free]
            owner[free], matched[i], free = i, free, matched.get(i)
    return len(matched)


def hom_dim_from_cyclic_by_stacking(alg, c, rep):
    """dim Hom(Lambda e / J^m e, N): the kernel of the stacked action
    matrices of every length-m path out of e."""
    from genrep.algebra_core import enumerate_paths
    from genrep.matrix_rep import mat_rank, path_action
    d = rep.dim_at(c.vertex)
    if c.truncation >= alg.L + 1:
        return d
    return d - mat_rank(rep.field, [row for p in enumerate_paths(alg, c.vertex, c.truncation)
                                    for row in path_action(rep, p)])


def hom_profile_dim(alg, profile, rep):
    """dim Hom(sum of the profile's cyclics, N), one ``_cyclic_dims`` per type."""
    from genrep.matrix_rep import _cyclic_dims
    return sum(m * _cyclic_dims(alg, c, rep)[0] for c, m in profile.items())


def hom_dim_by_stacking(rep_a, rep_b):
    """dim Hom(A, B): the kernel of the dense intertwiner system, ranked by
    Bareiss; the unknown (i, k) of the block at v is f_v[i][k]."""
    alg, fs = rep_a.algebra, rep_a.field
    offsets, total = {}, 0
    for v in alg.vertices:
        offsets[v] = total
        total += rep_b.dim_at(v) * rep_a.dim_at(v)
    rows = []
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        A, B = arrow_matrix(rep_a, a.name), arrow_matrix(rep_b, a.name)
        dAs, dAt = rep_a.dim_at(s), rep_a.dim_at(t)
        for i in range(rep_b.dim_at(t)):
            for j in range(dAs):
                # the (i, j) entry of f_t A - B f_s
                row = [0] * total
                for k in range(dAt):
                    row[offsets[t] + i * dAt + k] += A[k][j]
                for k in range(rep_b.dim_at(s)):
                    row[offsets[s] + k * dAs + j] -= B[i][k]
                rows.append(row)
    return total - bareiss_rank(fs, rows)


def user_assignment(values, fs=None):
    """Scalars (scalar number -> field element) from explicit nonzero values."""
    from genrep.errors import ValidationError
    from genrep.matrix_rep import FieldSpec
    fs = fs or FieldSpec()
    vals = {sid: fs.element(v) for sid, v in values.items()}
    if any(v == 0 for v in vals.values()):
        raise ValidationError("scalar assignments must be nonzero")
    return vals


def representation_to_json(rep):
    enc = str if rep.field.exact else int  # a Q value, int or Fraction, as a string

    return {
        "field_modulus": rep.field.modulus,
        "dims": {v: rep.dim_at(v) for v in rep.algebra.vertices},
        "matrices": {name: [[enc(x) for x in row] for row in arrow_matrix(rep, name)]
                     for name in rep.columns},
    }


def skeleton_module_by_lookup(sk, relations, assign, fs):
    """The module on the basis ``sk.elements`` rebuilt from scratch, the oracle
    of the column template: every arrow's columns are derived element by
    element.  ``assign[k]`` is the value of scalar x_k."""
    from genrep.matrix_rep import Representation
    alg = sk.alg
    by_vertex = {v: [] for v in alg.vertices}
    for el in sk.elements:
        by_vertex[sk.end(el)].append(el)
    index = {el: i for v in alg.vertices for i, el in enumerate(by_vertex[v])}
    rel_map = {(rel.critical.arrow, rel.critical.parent): rel for rel in relations}
    tops = tuple((v, {index[(r, alg.trivial_path(v))]: 1})
                 for r, v in enumerate(sk.top, start=1))
    columns = {}
    for a in alg.quiver.arrows:
        cols = columns[a.name] = []
        for el in by_vertex[a.source]:
            r, p = el
            ext = (r, alg.extend(p, a)) if p.length < alg.L else None
            cols.append({} if ext is None else {index[ext]: 1} if ext in index else
                        {index[mem]: x for mem, k in rel_map[(a.name, el)].terms
                         if (x := fs.element(assign[k]))})
    return Representation(alg, fs, tuple(len(by_vertex[v]) for v in alg.vertices), columns,
                          basis_labels={v: tuple(by_vertex[v]) for v in alg.vertices},
                          top_elements=tops)


def hypergraph_at(pres, assignment):
    """The hypergraph of ``pres`` at explicit scalars (scalar number -> value):
    each relation keeps the members whose coefficient is nonzero."""
    from genrep.generic_builder import Hypergraph
    return Hypergraph(pres.skeleton, tuple(
        (rel.sigma_set, tuple(mem for mem, sid in rel.terms if assignment[sid] != 0))
        for rel in pres.relations))


def skeleta_to_json(skeleta):
    """Each skeleton's top and elements, fresh objects for each: the reference the
    ``skeleta`` and ``point-skeleta`` outputs, which share them, are checked against."""
    from genrep.skeleta import element_to_json
    return [{"top": [{"r": r, "vertex": v} for r, v in enumerate(sk.top, start=1)],
             "elements": [element_to_json(el) for el in sk.elements]} for sk in skeleta]


def skeleton_from_json(data, alg):
    """Inverse of ``skeleta_to_json`` on one skeleton; every prefix of an element is added."""
    from genrep.errors import ValidationError
    try:
        tops = sorted(data["top"], key=lambda t: int(t["r"]))
        top = tuple(str(t["vertex"]) for t in tops)
        raw = [(int(e["r"]), tuple(str(a) for a in e["arrows"])) for e in data["elements"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed skeleton input: {exc}") from None
    elements = set()
    for r, arrows in raw:
        if not 1 <= r <= len(top):
            raise ValidationError(f"skeleton element references unknown top index {r}")
        p = alg.trivial_path(top[r - 1])
        for name in reversed(arrows):
            arrow = alg.quiver.arrow_by_name.get(name)
            if arrow is None:
                raise ValidationError(f"unknown arrow {name!r} in skeleton")
            p = alg.extend(p, arrow)
        if p.length > alg.L:
            raise ValidationError("skeleton element longer than L")
        for l in range(p.length + 1):
            elements.add((r, p.initial_subpath(l)))
    for r in range(1, len(top) + 1):
        elements.add((r, alg.trivial_path(top[r - 1])))
    return sorted_skeleton(alg, top, elements)


def presentation_kernel_layering(alg, S, sd):
    """Kernel of the cover P -> G(S) at seed sd, computed as explicit
    matrices and layered as a subrepresentation of P."""
    from genrep.algebra_core import top_elements
    from genrep.generic_builder import generic_presentation
    from genrep.matrix_rep import (
        FieldSpec, mat_vec, materialize, path_action, projective_representation,
        seeded_assignment,
    )

    fs = FieldSpec()
    pres = generic_presentation(alg, S)
    G = materialize(pres, seeded_assignment(pres, sd), fs)
    P = projective_representation(alg, top_elements(alg, S), fs)
    kernel, tops = {}, top_vectors(G)
    for v in alg.vertices:
        cols = []
        for r, p in P.basis_labels[v]:
            cols.append(mat_vec(fs, path_action(G, p), tops[r - 1][1]))
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(G.dim_at(v))]
        kernel[v] = kernel_basis(fs, rows, P.dim_at(v))
    first = {v: DenseRowSpace(fs, P.dim_at(v)) for v in alg.vertices}
    for v in alg.vertices:
        for vec in kernel[v]:
            first[v].add(vec)
    spaces = dense_radical_spaces(P, first)
    assert all(spaces[alg.L + 1][v].dim == 0 for v in alg.vertices)
    return [tuple(spaces[l][v].dim - spaces[l + 1][v].dim for v in alg.vertices)
            for l in range(alg.L + 1)]


def first_primes_by_trial(n):
    """The first n primes, a Miller-Rabin test on every integer from 2: the oracle of
    ``matrix_rep._first_primes``."""
    from itertools import count, islice
    from genrep.matrix_rep import _is_prime
    return list(islice(filter(_is_prime, count(2)), n))


def seeded_assignment_by_randrange(pres, seed, fs):
    """The scalars of ``seeded_assignment``: over F_p drawn by ``randrange(1, p)``, a
    repeat drawn again, and over Q the primes found by trial, the oracle of its raw
    ``getrandbits`` draws and its sieve."""
    import random
    n = len(pres.scalar_ids)
    if fs.exact:
        return first_primes_by_trial(n)
    rng, seen, values = random.Random(seed), set(), []
    for _ in range(n):
        while (x := rng.randrange(1, fs.modulus)) in seen:
            pass
        seen.add(x)
        values.append(x)
    return values


def ext_dims_by_two_profiles(alg, S, rep_n, k, seeds, fs):
    """Ext^k(G(S), N) per seed, k >= 2, by the alternating formula with Omega^k and
    Omega^(k-1) ranked as two profiles, N = G(S) drawn at each seed when ``rep_n`` is
    None: the oracle of ``ext_dim_detail``, which ranks their union once."""
    from genrep.generic_builder import generic_presentation
    from genrep.homology import last_two_syzygies
    from genrep.matrix_rep import materialize, seeded_assignment
    prev, profile = last_two_syzygies(alg, S, k)
    pres, out = generic_presentation(alg, S), []
    for sd in seeds:
        n = rep_n if rep_n is not None else materialize(
            pres, seeded_assignment(pres, sd, fs), fs)
        out.append(hom_profile_dim(alg, profile, n)
                   - sum(m * n.dim_at(c.vertex) for c, m in prev.items())
                   + hom_profile_dim(alg, prev, n))
    return out


def profile_predicted_layering(alg, profile):
    from genrep.algebra_core import enumerate_paths
    layers = [[0] * alg.n for _ in range(alg.L + 1)]
    for c, mult in profile.items():
        for l in range(min(c.truncation, alg.L + 1)):
            for p in enumerate_paths(alg, c.vertex, l):
                layers[l][alg.vertex_pos(alg.path_end(p))] += mult
    return [tuple(row) for row in layers]


# ---------------------------------------------------------------------------
# enumerate-based oracles for the path-count table and what is built on it
# ---------------------------------------------------------------------------

def endpoint_tally(alg, v, l):
    """Per-endpoint count of the enumerated length-l paths from v."""
    from genrep.algebra_core import enumerate_paths
    row = [0] * alg.n
    for p in enumerate_paths(alg, v, l):
        row[alg.vertex_pos(alg.path_end(p))] += 1
    return tuple(row)


def enum_cyclic_dim_vector(alg, v, m):
    rows = [endpoint_tally(alg, v, l) for l in range(min(m, alg.L + 1))]
    return tuple(sum(row[j] for row in rows) for j in range(alg.n))


def enum_is_projective(alg, v, m):
    from genrep.algebra_core import enumerate_paths
    return m == alg.L + 1 or not enumerate_paths(alg, v, m)


def enum_syzygy_of_cyclic(alg, v, m):
    from genrep.algebra_core import enumerate_paths
    from genrep.homology import CyclicType, SyzygyProfile
    if enum_is_projective(alg, v, m):
        return SyzygyProfile([])
    return SyzygyProfile([CyclicType(alg.path_end(u), alg.L + 1 - m)
                          for u in enumerate_paths(alg, v, m)])


def iterated_syzygy_by_steps(alg, S, k):
    """Omega^k of the generic module stepped one degree at a time, each step a
    new sorted ``SyzygyProfile``: the oracle of ``iterated_syzygy``."""
    from genrep.errors import ValidationError
    from genrep.homology import SyzygyProfile, first_syzygy, syzygy_of_cyclic
    if k < 1:
        raise ValidationError("k must be >= 1")
    profile = first_syzygy(alg, S)
    for _ in range(k - 1):
        profile = SyzygyProfile((c2, m * m2) for c, m in profile.items()
                                for c2, m2 in syzygy_of_cyclic(alg, c).items())
    return profile


def last_two_syzygies_by_steps(alg, S, k):
    """(Omega^(k-1), Omega^k) from the step loop, None for Omega^0: the oracle of
    ``last_two_syzygies``."""
    return (iterated_syzygy_by_steps(alg, S, k - 1) if k > 1 else None,
            iterated_syzygy_by_steps(alg, S, k))


def projective_dimension_by_level_sets(alg, S):
    """Generic projective dimension by walking the sets of cyclic types of Omega^1,
    Omega^2, ... on the shared syzygy graph: pd is the number of nonempty sets.  A
    nonempty set Omega^d ends a chain of d stepped types, so once d passes their number
    the chain passes a cycle and pd is infinite.  It steps every type reachable from
    Omega^1 before it can answer infinity: the oracle of ``projective_dimension``."""
    from genrep.homology import _syzygy_graph, first_syzygy
    succ, d = _syzygy_graph(alg), 0
    types = {c for c, _ in first_syzygy(alg, S).items()}
    while types:
        types, d = set().union(*map(succ, types)), d + 1
        if d > succ.cache_info().currsize:
            return math.inf
    return d


def projective_dimension_by_dfs(alg, S):
    """Generic projective dimension by a depth-first search of the cyclic types.

    pd of a projective type is 0, otherwise 1 + max over its syzygy summands;
    a type met again while still on the search stack lies on a cycle, and
    makes the dimension infinite.  The answer is 0 when Omega^1 is empty,
    else 1 + max over its summands.
    """
    from genrep.homology import first_syzygy, is_projective, syzygy_of_cyclic
    memo = {}
    onstack = set()

    def pd(c):
        if c in memo:
            return memo[c]
        if is_projective(alg, c):
            memo[c] = 0
            return 0
        if c in onstack:
            return math.inf
        onstack.add(c)
        best = 0
        for c2, _ in syzygy_of_cyclic(alg, c).items():
            sub = pd(c2)
            if sub == math.inf:
                best = math.inf
                break
            best = max(best, sub)
        onstack.discard(c)
        result = math.inf if best == math.inf else 1 + best
        memo[c] = result
        return result

    omega1 = first_syzygy(alg, S)
    if not omega1.items():
        return 0
    worst = 0
    for c, _ in omega1.items():
        sub = pd(c)
        if sub == math.inf:
            return math.inf
        worst = max(worst, sub)
    return 1 + worst


def projective_layering(alg, S0):
    """Radical layering of the projective cover of the top S0, read off the path-count table."""
    return SemisimpleSequence(tuple(
        tuple(sum(S0[i] * alg.path_counts[v][l][j] for i, v in enumerate(alg.vertices))
              for j in range(alg.n))
        for l in range(alg.L + 1)))


def enum_projective_layering(alg, S0):
    return tuple(
        tuple(sum(S0[i] * endpoint_tally(alg, v, l)[j] for i, v in enumerate(alg.vertices))
              for j in range(alg.n))
        for l in range(alg.L + 1))


def annihilating_arrows_by_skeleton(alg, S, sk):
    """Arrows killing every module with layering S, read off the skeleton ``sk``.

    An arrow qualifies when every member of ``sk`` ending at its source
    dies under extension: the extension is longer than L, or is critical
    with an empty sigma-set (no layer from its length on holds the target).
    """
    out = []
    for a in alg.quiver.arrows:
        j = alg.vertex_pos(a.target)
        kills_all = True
        for r, p in sk.elements:
            if alg.path_end(p) != a.source or p.length + 1 > alg.L:
                continue
            ext = alg.extend(p, a)
            if (r, ext) in sk.elements or any(S.layers[l][j] for l in range(ext.length, alg.L + 1)):
                kills_all = False
                break
        if kills_all:
            out.append(a.name)
    return frozenset(out)


@st.composite
def drawn_algebras(draw, max_L=4):
    """1-3 vertices, up to five arrows drawn as (source, target), so loops and parallel
    arrows are common, and L = 1..max_L."""
    n = draw(st.integers(1, 3))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    return _alg([str(v) for v in range(n)],
                [(f"a{k}", str(i), str(j)) for k, (i, j) in enumerate(ends)],
                draw(st.integers(1, max_L)))


def enumerate_sequences_unpruned(alg, dimvec, top=None, cap=None, max_top_dim=None):
    """``enumerate_sequences`` by a walk that descends into every prefix within the
    one-arrow caps and learns only at the last layer whether what remains fits."""
    from genrep.algebra_core import _depth_first
    from genrep.errors import EnumerationCapError, ValidationError
    dimvec = tuple(int(x) for x in dimvec)
    if len(dimvec) != alg.n:
        raise ValidationError("dimension vector width does not match vertex count")
    if any(x < 0 for x in dimvec):
        raise ValidationError("negative entry in dimension vector")
    if not any(dimvec):
        raise ValidationError("dimension vector must be nonzero")

    def vectors_upto(caps):
        return product(*(range(c + 1) for c in caps))

    if top is None:
        tops = (t for t in vectors_upto(dimvec) if any(t))
    else:
        top = tuple(int(x) for x in top)
        if len(top) != alg.n or min(top) < 0:
            raise ValidationError("top must have one nonnegative entry per vertex")
        tops = [top] if any(top) and all(t <= d for t, d in zip(top, dimvec)) else []

    def options(prefix):
        if not prefix:
            return ((t, tuple(d - x for d, x in zip(dimvec, t))) for t in tops
                    if max_top_dim is None or sum(t) <= max_top_dim)
        layer, remaining = prefix[-1]
        avail = alg.extension_counts(layer)
        if len(prefix) == alg.L:
            return [(remaining, None)] if all(r <= a for r, a in zip(remaining, avail)) else []
        caps = tuple(min(a, r) for a, r in zip(avail, remaining))
        return ((nxt, tuple(r - x for r, x in zip(remaining, nxt))) for nxt in vectors_upto(caps))

    results = []
    for chosen in _depth_first(options, alg.L + 1):
        results.append(SemisimpleSequence(tuple(layer for layer, _ in chosen)))
        if cap is not None and len(results) > cap:
            raise EnumerationCapError(cap, f"realizable sequences exceed cap of {cap}")
    return results


# ---------------------------------------------------------------------------
# per-pair and per-skeleton oracles for the memoised sifting paths
# ---------------------------------------------------------------------------

def report_pairs(rep):
    """(inner, outer, code) of every ordered pair of a component report, inner-major; a
    pair that no row holds is excluded by dominance."""
    from genrep.components import _DOMINANCE
    n = len(rep.rows)
    return ((i, j, row.get(j, _DOMINANCE))
            for i, row in enumerate(rep.rows) for j in range(n) if j != i)


def verdicts(rep):
    """Every ordered pair's ``PruningVerdict``, inner-major, read off the report's rows."""
    from genrep.components import PruningVerdict
    seqs = rep.sequences
    return tuple(PruningVerdict(seqs[i], seqs[j], *code) for i, j, code in report_pairs(rep))


def report_to_json(rep):
    """The JSON of ``genrep components`` without its version, each sequence one list
    wherever it appears and one entry per ordered pair: the reference its stdout is
    checked against."""
    seqs = [[list(r) for r in S.layers] for S in rep.sequences]
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
        "pairs": [{"inner": seqs[i], "outer": seqs[j], "verdict": v, "evidence": e,
                   "confidence": c} for i, j, (v, e, c) in report_pairs(rep)],
        "seed": list(rep.seeds),
        "field_modulus": rep.field_modulus,
        "confidence": "seeded-generic",
    }


def sequence_poset_by_sets(sequences):
    """Covers and minimal elements by probing every triple of a set of pairs."""
    from genrep.algebra_core import dominates
    from genrep.components import SequencePoset
    sequences = tuple(sequences)
    n = len(sequences)
    below = {(i, j) for i in range(n) for j in range(n)
             if i != j and dominates(sequences[i], sequences[j])}
    covers = [(i, j) for i, j in sorted(below)
              if not any((i, k) in below and (k, j) in below for k in range(n))]
    minimal = tuple(i for i in range(n) if not any((k, i) in below for k in range(n)))
    return SequencePoset(sequences, tuple(covers), minimal)


def iter_skeleta_by_product(alg, S):
    """Skeleta compatible with S by the eager descent, the order oracle.

    At each level every vertex's ``combinations`` goes to
    ``itertools.product``, which turns each one into a tuple before its
    first yield; a vertex with too few candidates ends the branch.
    """
    from itertools import combinations, product
    from genrep.algebra_core import check_sequence, top_elements

    check_sequence(alg, S)
    top = top_elements(alg, S)
    base = tuple((r + 1, alg.trivial_path(v)) for r, v in enumerate(top))

    def candidates(layer, vertex):
        return [(r, alg.extend(p, a)) for r, p in layer
                for a in alg.quiver.arrows_from[alg.path_end(p)] if a.target == vertex]

    def descend(l, layers):
        if l == alg.L:
            yield sorted_skeleton(alg, top, [el for layer in layers for el in layer])
            return
        per_vertex = []
        for j, v in enumerate(alg.vertices):
            cands = candidates(layers[-1], v)
            need = S.layers[l + 1][j]
            if len(cands) < need:
                return
            per_vertex.append(combinations(cands, need))
        for choice in product(*per_vertex):
            yield from descend(l + 1, layers + [tuple(el for group in choice for el in group)])

    yield from descend(0, [base])


def skeleton_text_by_walk(alg, sk):
    """The text of ``cli.skeleton_text`` by a recursive walk from each top, children
    in skeleton order, a member indented by its depth."""
    children = {el: [] for el in sk.elements}
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


def check_tops_full(rep, spaces):
    """The marked tops number dim M/JM, and at each vertex they are independent
    modulo JM, tested against ``spaces[1]`` of the eliminated radical filtration."""
    from genrep.errors import ValidationError
    alg = rep.algebra
    if rep.top_elements is None:
        raise ValidationError("representation has no marked top elements")
    radical = spaces[1]
    top_dim = sum(rep.dims) - sum(radical[v].dim for v in alg.vertices)
    if len(rep.top_elements) != top_dim:
        raise ValidationError("marked top elements do not form a full sequence")
    for v in alg.vertices:
        probe = copy.copy(radical[v])
        probe.rows = dict(radical[v].rows)
        for w, vec in rep.top_elements:
            if w == v and probe.add(vec) is None:
                raise ValidationError("marked top elements are dependent modulo JM")


def distinguished_skeleta_by_path_action(rep, cap=10**6):
    """Distinguished skeleta with each p * m_r taken, member by member, as
    ``path_action(rep, p)`` applied to m_r, and independence tested in dense
    row spaces of the radical filtration, over the eager descent."""
    from genrep.algebra_core import top_elements
    from genrep.errors import EnumerationCapError, ValidationError
    from genrep.matrix_rep import _radical_spaces, mat_vec, path_action, radical_layering
    alg, fs = rep.algebra, rep.field
    check_tops_full(rep, _radical_spaces(rep))
    S = radical_layering(rep)
    full = {v: DenseRowSpace(fs, rep.dim_at(v)) for v in alg.vertices}
    for v, space in full.items():
        for i in range(space.width):
            space.add([1 if j == i else 0 for j in range(space.width)])
    spaces = dense_radical_spaces(rep, full)
    tops = sorted(top_vectors(rep), key=lambda t: alg.vertex_pos(t[0]))
    if tuple(v for v, _ in tops) != top_elements(alg, S):
        raise ValidationError("marked top elements do not match the layering's top")
    out = []
    for count, sk in enumerate(iter_skeleta_by_product(alg, S), 1):
        if count > cap:
            raise EnumerationCapError(cap)
        good = True
        for l in range(alg.L + 1):
            probes = {}
            for r, p in skeleton_layer(sk, l):
                end = alg.path_end(p)
                if end not in probes:
                    probes[end] = DenseRowSpace(fs, rep.dim_at(end))
                    for row in spaces[l + 1][end].rows:
                        probes[end].add(row)
                if probes[end].add(mat_vec(fs, path_action(rep, p), tops[r - 1][1])) is None:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(sk)
    return out


# ---------------------------------------------------------------------------
# per-level oracles of the functions that read ``algebra_core._layer_table``: each
# runs its own loop over the levels of S and checks realizability itself
# ---------------------------------------------------------------------------

def realizable_by_levels(alg, S):
    """Whether the one-arrow extensions of every layer of S cover the next."""
    from genrep.algebra_core import check_sequence
    check_sequence(alg, S)
    for l in range(alg.L):
        avail = alg.extension_counts(S.layers[l])
        if any(avail[j] < S.layers[l + 1][j] for j in range(alg.n)):
            return False
    return True


def _require_realizable_by_levels(alg, S):
    from genrep.errors import UnrealizableError
    if not realizable_by_levels(alg, S):  # ValidationError first if S is malformed
        raise UnrealizableError(f"{S} is not realizable")


def count_skeleta_by_levels(alg, S):
    """Product over levels and vertices of binomial(extensions, multiplicity)."""
    from genrep.algebra_core import check_sequence
    check_sequence(alg, S)
    total = 1
    for l in range(alg.L):
        avail = alg.extension_counts(S.layers[l])
        for j in range(alg.n):
            total *= math.comb(avail[j], S.layers[l + 1][j])
    return total


def critical_counts_by_levels(alg, S):
    """(l, j, count, zero, one) for the nonzero counts, from the bottom level up, the one
    part a running sum of the layers below."""
    from genrep.algebra_core import check_sequence
    from genrep.errors import UnrealizableError
    check_sequence(alg, S)
    out, longer = [], [0] * alg.n  # longer[j]: sum of S_m[j] over m >= l+2
    for l in reversed(range(alg.L)):
        below, avail = S.layers[l + 1], alg.extension_counts(S.layers[l])
        if any(a < m for a, m in zip(avail, below)):
            raise UnrealizableError(f"{S} is not realizable")
        out += [(l, j, avail[j] - m, m, longer[j]) for j, m in enumerate(below) if avail[j] > m]
        longer = [x + m for x, m in zip(longer, below)]
    return out


def invariants_N_by_levels(alg, S):
    terms = [(c * zero, c * one) for _, _, c, zero, one in critical_counts_by_levels(alg, S)]
    n0, n1 = sum(z for z, _ in terms), sum(o for _, o in terms)
    return (n0 + n1, n0, n1)


def first_syzygy_by_levels(alg, S):
    from genrep.homology import CyclicType, SyzygyProfile
    return SyzygyProfile((CyclicType(alg.vertices[j], alg.L - l), count)
                         for l, j, count, _, _ in critical_counts_by_levels(alg, S))


def bundle_tower_by_levels(alg, S):
    from genrep.generic_builder import BundleReport, GrassmannFactor
    N, N0, N1 = invariants_N_by_levels(alg, S)
    levels = []
    for l in range(alg.L):
        counts = zip(alg.vertices, alg.extension_counts(S.layers[l]), S.layers[l + 1])
        levels.append(tuple(GrassmannFactor(v, a - m, a) for v, a, m in counts))
    return BundleReport(S, tuple(levels), N, N0, N1)


def generic_socle_by_levels(alg, S, fs):
    """dim M_v minus the least term over k = 0..L, summed up from the top level down."""
    from genrep.matrix_rep import _check_random_field
    _require_realizable_by_levels(alg, S)
    _check_random_field(fs)
    dims = [sum(col) for col in zip(*S.layers)]
    shorter, cover = [0] * alg.n, list(dims)  # shorter[v]: sum of S_l[v] over l < k
    for layer in S.layers:
        upto = [s + x for s, x in zip(shorter, layer)]
        term = list(shorter)
        for v, t in alg.quiver.arrow_ends:
            term[v] += dims[t] - upto[t]
        cover = [min(c, x) for c, x in zip(cover, term)]
        shorter = upto
    return tuple(d - c for d, c in zip(dims, cover))


def annihilating_arrows_by_levels(alg, S):
    """Arrows i -> j with no layer below the first layer l < L holding i holding j."""
    _require_realizable_by_levels(alg, S)
    out = []
    for a in alg.quiver.arrows:
        i, j = alg.vertex_pos(a.source), alg.vertex_pos(a.target)
        first = next((l for l in range(alg.L) if S.layers[l][i]), alg.L)
        if not any(row[j] for row in S.layers[first + 1:]):
            out.append(a.name)
    return frozenset(out)
