"""Generic and graded-generic projective presentations, hypergraphs, bundle geometry.

The generic module for a realizable sequence S is presented by one relation
per critical path of a compatible skeleton:

    alpha*p z_r  -  sum over sigma-set members q z_s of  x(alpha*p z_r, q z_s) * q z_s

with formal scalars x(...) standing in for algebraically independent values.
In graded mode the sum runs over the equal-length part of the sigma-set only.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra_core import SemisimpleSequence, TruncatedAlgebra
from .skeleta import (
    Element,
    SigmaSet,
    Skeleton,
    _critical_counts,
    canonical_skeleton,
    critical_paths,
    element_to_json,
)


class Relation(NamedTuple):
    """One relation per critical path; ``terms`` pairs each kept sigma-set member
    with the number k of its scalar x_k."""

    sigma_set: SigmaSet
    terms: tuple[tuple[Element, int], ...]

    @property
    def critical(self):
        return self.sigma_set.critical


class GenericPresentation(NamedTuple):
    algebra: TruncatedAlgebra
    sequence: SemisimpleSequence
    skeleton: Skeleton
    graded: bool
    relations: tuple[Relation, ...]

    @property
    def scalar_ids(self) -> range:
        """The scalar numbers 0..N-1 (N0-1 graded), in relation order."""
        return range(sum(len(rel.terms) for rel in self.relations))

    @property
    def mode(self) -> str:
        return "graded" if self.graded else "ungraded"


def generic_presentation(alg: TruncatedAlgebra, S: SemisimpleSequence,
                         graded: bool = False) -> GenericPresentation:
    """Presentation of the generic (or graded-generic) module with layering S, on its
    canonical skeleton.

    Scalar k, written x_k, is the k-th term of the disjoint union indexing
    N (ungraded) or N0 (graded); relations follow the critical-path order of
    the skeleton.
    """
    skeleton = canonical_skeleton(alg, S)
    return _presentation(alg, S, skeleton, critical_paths(alg, skeleton), graded)


def _presentation(alg, S, skeleton, sigma_sets, graded: bool) -> GenericPresentation:
    """``generic_presentation`` on any skeleton compatible with S, unchecked, given its
    critical paths."""
    relations, k = [], 0
    for sset in sigma_sets:
        part = sset.zero_part if graded else sset.members
        relations.append(Relation(sset, tuple(zip(part, range(k, k + len(part))))))
        k += len(part)
    return GenericPresentation(alg, S, skeleton, graded, tuple(relations))


class Hypergraph(NamedTuple):
    """Skeleton plus, per critical path, the sigma-set members with nonzero coefficient."""

    skeleton: Skeleton
    edges: tuple[tuple[SigmaSet, tuple[Element, ...]], ...]

    def top_component_partition(self) -> list[frozenset[int]]:
        """Connected components of the top-element graph induced by the hyperedges."""
        t = len(self.skeleton.top)
        parent = list(range(t + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for sset, members in self.edges:
            for mem in members:
                union(sset.critical.r, mem[0])
        groups: dict[int, set[int]] = {}
        for r in range(1, t + 1):
            groups.setdefault(find(r), set()).add(r)
        return sorted((frozenset(g) for g in groups.values()), key=min)


def hypergraph(pres: GenericPresentation) -> Hypergraph:
    """Hyperedges of the presented module.

    Generic scalars are all nonzero, so every declared term survives.
    """
    return Hypergraph(pres.skeleton, tuple((rel.sigma_set, tuple(mem for mem, _ in rel.terms))
                                           for rel in pres.relations))


class GrassmannFactor(NamedTuple):
    vertex: str
    subspace_dim: int   # v - u: codimension left after carving out the layer
    ambient_dim: int    # v: available extensions into the vertex

    @property
    def dim(self) -> int:
        return self.subspace_dim * (self.ambient_dim - self.subspace_dim)


class BundleReport(NamedTuple):
    """Dimension data of Grass(S) as a tower over the graded base."""

    sequence: SemisimpleSequence
    levels: tuple[tuple[GrassmannFactor, ...], ...]  # base factors, level 0..L-1
    N: int    # dim Grass(S)
    N0: int   # dim of the graded base
    N1: int   # dim of the affine fiber over the graded base


def bundle_tower(alg: TruncatedAlgebra, S: SemisimpleSequence) -> BundleReport:
    """Grassmann-bundle tower of the graded base plus the affine fiber dimension.

    Level l chooses layer l+1 among the A one-arrow extensions of layer l into each
    vertex j, so its factor at j is Grass(m, A) with m = S_{l+1}[j], of dimension
    (A - m) m: the size m of the zero parts of the A - m critical paths at (l, j), so the
    factors sum to N0.  The full variety has dimension N = N0 + N1.  Factors and N1 come
    from one ``_critical_counts`` call, whose count at (l, j) is A - m.
    """
    counts = _critical_counts(alg, S)
    factors = [GrassmannFactor(alg.vertices[j], c, c + m) for _, j, c, m, _ in counts]
    N0, N1 = sum(f.dim for f in factors), sum(c * one for _, _, c, _, one in counts)
    levels = tuple(tuple(factors[l * alg.n:(l + 1) * alg.n]) for l in range(alg.L))
    return BundleReport(S, levels, N0 + N1, N0, N1)


# ---------------------------------------------------------------------------
# JSON interfaces
# ---------------------------------------------------------------------------

def _critical_path_to_json(alg: TruncatedAlgebra, s: SigmaSet) -> dict:
    return {"r": s.critical.r, "arrows": list(s.critical.path(alg).arrows)}


def presentation_to_json(pres: GenericPresentation) -> dict:
    alg = pres.algebra
    return {
        "mode": pres.mode,
        "relations": [
            {
                "critical": _critical_path_to_json(alg, rel.sigma_set),
                "terms": [
                    {"member": element_to_json(mem), "scalar": f"x_{k}"}
                    for mem, k in rel.terms
                ],
            }
            for rel in pres.relations
        ],
    }


def hypergraph_to_json(hg: Hypergraph) -> dict:
    alg = hg.skeleton.alg
    return {
        "skeleton": {"elements": [element_to_json(e) for e in hg.skeleton.elements]},
        "hyperedges": [
            {
                "critical": _critical_path_to_json(alg, sset),
                "members": [element_to_json(m) for m in members],
            }
            for sset, members in hg.edges
        ],
    }


def bundle_to_json(rep: BundleReport) -> dict:
    return {
        "N": rep.N,
        "N0": rep.N0,
        "N1": rep.N1,
        "dim_grass": rep.N,
        "dim_graded_grass": rep.N0,
        "fiber_dim": rep.N1,
        "tower": [
            {
                "level": l,
                "factors": [
                    {"vertex": f.vertex, "subspace_dim": f.subspace_dim,
                     "ambient_dim": f.ambient_dim, "dim": f.dim}
                    for f in level
                ],
            }
            for l, level in enumerate(rep.levels)
        ],
    }
