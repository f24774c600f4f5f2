"""Syzygies of generic modules: cyclic decompositions, iteration, projective dimension.

Over a truncated path algebra the first syzygy of the generic module with layering S
splits into cyclic summands, one per critical path alpha*p of a compatible skeleton, of
type Lambda e / J^m e, e the endpoint of alpha and m = L+1 - len(alpha*p).  Of the
A_e(S_l) one-arrow extensions of layer l into e, S_{l+1}[e] are skeleton members and the
rest critical, so Omega^1 = sum over l < L and e of (A_e(S_l) - S_{l+1}[e]) x e/J^(L-l).
Iterating stays inside this finite family of cyclic types, so projective dimension
reduces to reachability in a finite state graph.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .algebra_core import (
    DimensionVector,
    SemisimpleSequence,
    TruncatedAlgebra,
    truncated_dim_vector,
)
from .errors import EnumerationCapError, ValidationError
from .skeleta import _critical_counts

_MAX_BITS = 1 << 22  # a syzygy multiplicity out of reach of stepping one degree at a time


class CyclicType(NamedTuple):
    """The cyclic module Lambda e / J^m e; a tuple, so it hashes in C."""

    vertex: str
    truncation: int  # m, 1 <= m <= L+1

    def __str__(self):
        return f"{self.vertex}/J^{self.truncation}"


def cyclic_dim(alg: TruncatedAlgebra, c: CyclicType) -> int:
    return sum(cyclic_dim_vector(alg, c))


def cyclic_dim_vector(alg: TruncatedAlgebra, c: CyclicType) -> DimensionVector:
    return truncated_dim_vector(alg, c.vertex, c.truncation)


def is_projective(alg: TruncatedAlgebra, c: CyclicType) -> bool:
    """Lambda e / J^m e is projective iff m = L+1 or J^m e = 0."""
    if not 1 <= c.truncation <= alg.L + 1:
        raise ValidationError(f"truncation {c.truncation} out of range 1..{alg.L + 1}")
    alg.vertex_pos(c.vertex)
    return c.truncation == alg.L + 1 or not any(alg.path_counts[c.vertex][c.truncation])


class SyzygyProfile:
    """Multiset of cyclic types; the state object of the syzygy recursion."""

    def __init__(self, summands):
        counts: dict[CyclicType, int] = {}
        for item in summands:
            c, mult = (item, 1) if isinstance(item, CyclicType) else item
            if mult:
                counts[c] = counts.get(c, 0) + mult
        self._items = tuple(sorted(counts.items(),
                                   key=lambda kv: (kv[0].vertex, kv[0].truncation)))

    def items(self) -> tuple[tuple[CyclicType, int], ...]:
        return self._items

    @property
    def is_empty(self) -> bool:
        return not self._items

    def total_dim(self, alg: TruncatedAlgebra) -> int:
        return sum(cyclic_dim(alg, c) * m for c, m in self._items)

    def dim_vector(self, alg: TruncatedAlgebra) -> DimensionVector:
        dims = [0] * alg.n
        for c, m in self._items:
            for j, d in enumerate(cyclic_dim_vector(alg, c)):
                dims[j] += m * d
        return tuple(dims)

    def __eq__(self, other):
        return isinstance(other, SyzygyProfile) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        inner = ", ".join(f"{c} x{m}" for c, m in self._items)
        return f"SyzygyProfile({inner})"


def first_syzygy(alg: TruncatedAlgebra, S: SemisimpleSequence) -> SyzygyProfile:
    """Profile of the first syzygy of the generic module with layering S: one cyclic
    summand per critical path, A_e(S_l) - S_{l+1}[e] of type e/J^(L-l) per level l < L and
    vertex e, as S_{l+1}[e] of the A_e(S_l) extensions of layer l into e are skeleton
    members.  Read off S, no skeleton built.
    """
    return SyzygyProfile((CyclicType(alg.vertices[j], alg.L - l), count)
                         for l, j, count, _, _ in _critical_counts(alg, S))


def syzygy_of_cyclic(alg: TruncatedAlgebra, c: CyclicType) -> SyzygyProfile:
    """Syzygy of Lambda e / J^m e: one summand (end(u), L+1-m) per length-m path u."""
    if is_projective(alg, c):
        return SyzygyProfile([])
    return SyzygyProfile(
        (CyclicType(w, alg.L + 1 - c.truncation), k)
        for w, k in zip(alg.vertices, alg.path_counts[c.vertex][c.truncation]))


def _syzygy_graph(alg: TruncatedAlgebra):
    """The syzygy graph: cyclic type c -> Omega of c as {type: multiplicity}, stepped once."""
    return functools.cache(lambda c: dict(syzygy_of_cyclic(alg, c).items()))


def iterated_syzygy(alg: TruncatedAlgebra, S: SemisimpleSequence, k: int) -> SyzygyProfile:
    """Omega^k of the generic module, k >= 1, the second of ``last_two_syzygies``."""
    return last_two_syzygies(alg, S, k)[1]


def last_two_syzygies(alg: TruncatedAlgebra, S: SemisimpleSequence,
                      k: int) -> tuple[SyzygyProfile | None, SyzygyProfile]:
    """(Omega^(k-1), Omega^k) of the generic module, k >= 1, None standing for Omega^0.

    Omega^(k-1) is Omega^1 T^(k-2), row c of T being Omega of c, and Omega^k is one step
    more on the same graph.  Projective summands add nothing further: their minimal
    covers have zero kernel.  T^(k-2) is taken by repeated squaring, row c of T^(2^j)
    built once a product reaches c, so only types of Omega^1, ..., Omega^(k-1) are
    stepped, each once.
    """
    def times(profile, row):
        out, room = {}, _MAX_BITS - len(profile).bit_length()
        for c, m in profile.items():
            r = row(c)
            if m.bit_length() + max(r.values(), default=0).bit_length() >= room:
                raise EnumerationCapError(_MAX_BITS, f"syzygy: Omega^{k} nears 2^{_MAX_BITS}")
            for c2, m2 in r.items():
                out[c2] = out.get(c2, 0) + m * m2
        return out

    if k < 1:
        raise ValidationError("k must be >= 1")
    if k == 1:
        return None, first_syzygy(alg, S)
    profile, graph = dict(first_syzygy(alg, S).items()), _syzygy_graph(alg)
    row = graph
    for bit in f"{k - 2:b}"[::-1]:
        if bit == "1":
            profile = times(profile, row)
        row = functools.cache(lambda c, row=row: times(row(c), row))
    return SyzygyProfile(profile.items()), SyzygyProfile(times(profile, graph).items())


def projective_dimension(alg: TruncatedAlgebra, S: SemisimpleSequence):
    """Generic projective dimension: an integer, or math.inf.

    A depth-first walk of the syzygy graph on an explicit stack, from a root above the
    types of Omega^1, each type stepped at most once.  pd is infinite at the first back
    edge, to a type still on the stack, which closes a cycle.  Otherwise, in post-order,
    depth(c) = 1 + the largest depth of c's successors (0 if none), and pd is the depth
    of the root less one: the longest chain from Omega^1, 0 if Omega^1 is empty.
    """
    succ, roots = _syzygy_graph(alg), [c for c, _ in first_syzygy(alg, S).items()]
    depth, stack = {}, [(None, iter(roots))]  # a type maps to None while on the stack
    while stack:
        c, todo = stack[-1]
        for c2 in todo:
            if c2 not in depth:
                depth[c2] = None
                stack.append((c2, iter(succ(c2))))
                break
            if depth[c2] is None:
                return math.inf
        else:
            stack.pop()
            depth[c] = 1 + max(map(depth.__getitem__, roots if c is None else succ(c)),
                               default=0)
    return depth[None] - 1


# ---------------------------------------------------------------------------
# JSON interfaces
# ---------------------------------------------------------------------------

def profile_to_json(profile: SyzygyProfile) -> list[dict]:
    return [
        {"vertex": c.vertex, "truncation": c.truncation, "multiplicity": m}
        for c, m in profile.items()
    ]


def projdim_to_json(value) -> dict:
    return {"projdim": "infinity" if value == math.inf else int(value)}
