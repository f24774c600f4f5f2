"""Skeleta compatible with a semisimple sequence, critical paths, and N-invariants.

A skeleton is a forest of labeled paths (r, p), one tree per distinguished
top element z_r, closed under initial subpaths, whose length-l members
realize layer l of the sequence vertex by vertex.

``iter_skeleta`` is the one skeleton walk and ``canonical_skeleton`` its first result;
every cap is decided first by the closed form ``count_skeleta``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain, combinations
from math import comb, prod
from typing import NamedTuple

from .algebra_core import (
    Path,
    SemisimpleSequence,
    TruncatedAlgebra,
    _depth_first,
    _extension_table,
    _layer_table,
    realizable,
    top_elements,
)
from .errors import EnumerationCapError, UnrealizableError, ValidationError

DEFAULT_CAP = 10**6

Element = tuple[int, Path]  # (top index r, path starting at e(r)); r is 1-based


class Skeleton:
    """Immutable skeleton; equality and hashing ignore the algebra handle.

    ``elements`` are sorted by ``_key`` unless ``ordered`` says they are already.
    """

    def __init__(self, alg: TruncatedAlgebra, top: tuple[str, ...], elements,
                 ordered: bool = False):
        self.alg = alg
        self.top = tuple(top)
        self.element_set = frozenset(elements)
        self.elements: tuple[Element, ...] = tuple(
            elements if ordered else sorted(self.element_set, key=self._key))
        layers: dict[int, list[Element]] = {}
        for el in self.elements:
            layers.setdefault(len(el[1].arrows), []).append(el)
        self._layers = {l: tuple(els) for l, els in layers.items()}

    def _key(self, el: Element):
        r, p = el
        return (p.length, r, self.alg.path_sort_key(p))

    def layer(self, l: int) -> tuple[Element, ...]:
        return self._layers.get(l, ())

    def end(self, el: Element) -> str:
        return self.alg.path_end(el[1])

    @cached_property
    def basis(self) -> dict[str, tuple[Element, ...]]:
        """Per vertex, the members ending there in skeleton order: the basis of the
        skeleton's modules, and each vertex's candidates for a sigma-set."""
        out: dict[str, list[Element]] = {v: [] for v in self.alg.vertices}
        for el in self.elements:
            out[self.end(el)].append(el)
        return {v: tuple(els) for v, els in out.items()}

    def __contains__(self, el: Element) -> bool:
        return el in self.element_set

    def __len__(self) -> int:
        return len(self.element_set)

    def __eq__(self, other):
        return (isinstance(other, Skeleton)
                and self.top == other.top and self.element_set == other.element_set)

    def __hash__(self):
        return hash((self.top, self.element_set))

    def __repr__(self):
        return f"Skeleton(top={self.top}, size={len(self)})"

    def sequence(self) -> SemisimpleSequence:
        """The unique semisimple sequence this skeleton is compatible with."""
        alg = self.alg
        layers = []
        for l in range(alg.L + 1):
            row = [0] * alg.n
            for el in self.layer(l):
                row[alg.vertex_pos(self.end(el))] += 1
            layers.append(tuple(row))
        return SemisimpleSequence(tuple(layers))

    def tree_dim_vectors(self) -> dict[int, tuple[int, ...]]:
        """Per top index r, the dimension vector of the members of tree r."""
        alg = self.alg
        out = {r: [0] * alg.n for r in range(1, len(self.top) + 1)}
        for r, p in self.elements:
            out[r][alg.vertex_pos(self.alg.path_end(p))] += 1
        return {r: tuple(v) for r, v in out.items()}


class CriticalPath(NamedTuple):
    """An arrow extension alpha*p of a skeleton member that left the skeleton."""

    arrow: str
    parent: Element

    @property
    def r(self) -> int:
        return self.parent[0]

    def path(self, alg: TruncatedAlgebra) -> Path:
        return alg.extend(self.parent[1], alg.quiver.arrow_by_name[self.arrow])

    @property
    def length(self) -> int:
        return self.parent[1].length + 1


class SigmaSet(NamedTuple):
    """A critical path with its sigma-set, split by length.

    ``zero_part`` holds the members of the same length as the critical path,
    ``one_part`` the strictly longer ones; ``members`` is their union.
    """

    critical: CriticalPath
    members: tuple[Element, ...]
    zero_part: tuple[Element, ...]
    one_part: tuple[Element, ...]


def iter_skeleta(alg: TruncatedAlgebra, S: SemisimpleSequence, accept=None):
    """Lazily yield the skeleta compatible with S, in canonical order.

    The one skeleton walk, an iterative descent (``algebra_core._depth_first``)
    level by level and, within a level, vertex by vertex: the block of layer l
    at vertex v is an S_l[v]-subset of the extensions of layer l-1 into v, taken
    lazily in combination order over candidates ordered by (parent, arrow).  The
    candidate counts depend only on S (``alg.extension_counts``), so a
    realizable S has no dead ends and an unrealizable one is not walked.
    ``accept(l, v, chosen)``, if given, sees each block as it is chosen
    (l >= 1), and a rejected block cuts its whole subtree.  Candidates carry
    keys that sort a layer as ``Skeleton._key`` does, so a yielded skeleton
    comes in order, each layer sorted by those keys.
    """
    if not realizable(alg, S):
        return
    top, n, vertices, quiver = top_elements(alg, S), alg.n, alg.vertices, alg.quiver
    base = tuple((r, (r + 1, alg.trivial_path(v))) for r, v in enumerate(top))
    cands = [None] * alg.L  # cands[l][v]: (key, element) extensions of layer l into v

    def options(prefix):
        # entry k is the block of layer l + 1 at vertex j, for l, j = divmod(k, n);
        # alpha*p has key (r, index of alpha, key of p)
        k = len(prefix)
        l, j = divmod(k, n)
        if not j:
            cands[l] = level = {v: [] for v in vertices}
            for key, (r, p) in chain.from_iterable(prefix[k - n:]) if l else base:
                for a in quiver.arrows_from[alg.path_end(p)]:
                    level[a.target].append(((r, quiver.arrow_index[a.name], key), (r, p.then(a))))
        v = vertices[j]
        blocks = combinations(cands[l][v], S.layers[l + 1][j])
        return blocks if accept is None else (
            b for b in blocks if accept(l + 1, v, tuple(el for _, el in b)))

    for blocks in _depth_first(options, alg.L * n) if n else [()]:  # no vertex: no block
        layers = [base] + [sorted(chain.from_iterable(blocks[l * n:l * n + n]))
                           for l in range(alg.L)]
        yield Skeleton(alg, top, [el for layer in layers for _, el in layer], ordered=True)


def capped_count(alg: TruncatedAlgebra, S: SemisimpleSequence, cap: int) -> int:
    """``count_skeleta``; raises EnumerationCapError iff it exceeds ``cap``, which must be >= 0."""
    if cap < 0:
        raise ValidationError(f"cap must be >= 0, got {cap}")
    count = count_skeleta(alg, S)
    if count > cap:
        raise EnumerationCapError(cap)
    return count


def enumerate_skeleta(alg: TruncatedAlgebra, S: SemisimpleSequence,
                      cap: int = DEFAULT_CAP) -> list[Skeleton]:
    """All compatible skeleta (none iff S is unrealizable); raises iff more than ``cap``."""
    capped_count(alg, S, cap)
    return list(iter_skeleta(alg, S))


def canonical_skeleton(alg: TruncatedAlgebra, S: SemisimpleSequence) -> Skeleton:
    """The first skeleton of ``iter_skeleta``; raises if S is unrealizable."""
    for sk in iter_skeleta(alg, S):
        return sk
    raise UnrealizableError(f"{S} is not realizable")


def _compatible_skeleton(alg: TruncatedAlgebra, S: SemisimpleSequence,
                         skeleton: Skeleton | None) -> Skeleton:
    """``skeleton`` if it is compatible with S, the canonical skeleton if None."""
    if skeleton is None:
        return canonical_skeleton(alg, S)
    if skeleton.sequence() != S:
        raise ValidationError(f"skeleton is compatible with {skeleton.sequence()}, not {S}")
    return skeleton


def count_skeleta(alg: TruncatedAlgebra, S: SemisimpleSequence) -> int:
    """Closed form: product over levels l < L and vertices j of binomial(A, m), A the
    available extensions into j (``algebra_core._extension_table``), m = S_{l+1}[j]; 0 iff
    S is unrealizable.
    """
    try:
        A = _extension_table(alg, S)
    except UnrealizableError:
        return 0
    return prod(map(comb, chain.from_iterable(A), chain.from_iterable(S.layers[1:])))


def critical_paths(alg: TruncatedAlgebra, sk: Skeleton) -> list[SigmaSet]:
    """Every critical path of the skeleton with its sigma-set, canonically ordered.

    A pair (arrow alpha, member (r,p)) is critical when alpha*p has length
    <= L and lies outside the skeleton.  Its sigma-set collects the members
    at least as long as alpha*p ending in the same vertex.  Members come in ``_key``
    order and arrows in index order, so this is (length, parent's key, arrow) order.
    """
    basis, arrows_from = sk.basis, alg.quiver.arrows_from
    # skeleton order is by length first, so the members of one length form a slice
    lengths = {v: [len(mem[1].arrows) for mem in group] for v, group in basis.items()}
    # an extension is looked up as (r, arrow tuple): cheaper than building its Path
    members = {(r, p.arrows) for r, p in sk.elements}
    out = []
    for el in sk.elements:
        r, p = el
        n = len(p.arrows) + 1
        if n > alg.L:
            break
        for a in arrows_from[alg.path_end(p)]:
            if (r, (a.name, *p.arrows)) in members:
                continue
            group, lens = basis[a.target], lengths[a.target]
            lo, hi = bisect_left(lens, n), bisect_right(lens, n)
            zero, one = group[lo:hi], group[hi:]
            out.append(SigmaSet(CriticalPath(a.name, el), zero + one, zero, one))
    return out


def _critical_counts(alg: TruncatedAlgebra, S: SemisimpleSequence) -> list[tuple[int, ...]]:
    """(l, j, count, zero, one) for every level l < L and vertex j, in that order: count
    critical paths of length l+1 end at j, with zero and one parts of those sizes
    (``invariants_N``), read off ``algebra_core._layer_table``; raises as it does."""
    A, tail = _layer_table(alg, S)
    return [(l, j, a - m, m, tail[l + 2][j])
            for l, (avail, below) in enumerate(zip(A, S.layers[1:]))
            for j, (a, m) in enumerate(zip(avail, below))]


def invariants_N(alg: TruncatedAlgebra, S: SemisimpleSequence) -> tuple[int, int, int]:
    """(N, N0, N1): N0 and N1 sum, over the critical paths of any compatible skeleton, the
    sizes of their sigma-sets' zero and one parts.  Of the A_j(S_l) extensions of layer l into
    vertex j, S_{l+1}[j] are members and the other A_j(S_l) - S_{l+1}[j] critical, each with
    zero part S_{l+1}[j] and one part sum_{m >= l+2} S_m[j]; read off S, no skeleton built.
    """
    terms = [(c * zero, c * one) for _, _, c, zero, one in _critical_counts(alg, S)]
    n0, n1 = sum(z for z, _ in terms), sum(o for _, o in terms)
    return (n0 + n1, n0, n1)


# ---------------------------------------------------------------------------
# JSON interfaces
# ---------------------------------------------------------------------------

def element_to_json(el: Element) -> dict:
    return {"r": el[0], "arrows": list(el[1].arrows)}


def skeleton_to_json(sk: Skeleton) -> dict:
    return skeleta_to_json([sk])[0]


def skeleta_to_json(skeleta) -> list[dict]:
    """``skeleton_to_json`` of each skeleton.  Across them each top, and each element, is
    one shared object, which an encoder that memoises by identity encodes once."""
    shared, out = {}, []
    for sk in skeleta:
        if sk.top not in shared:
            shared[sk.top] = [{"r": i + 1, "vertex": v} for i, v in enumerate(sk.top)]
        elements = []
        for el in sk.elements:
            elements.append(shared.get(el) or shared.setdefault(el, element_to_json(el)))
        out.append({"top": shared[sk.top], "elements": elements})
    return out
