"""Quivers, truncated path algebras, semisimple sequences, dominance, realizability.

A truncated path algebra is KQ modulo the ideal generated by all paths of
length L+1, so path length is well defined and every basis question reduces
to counting composable arrow sequences of length at most L.

Composition convention: the product pq means "first q, then p".  A path
stores its arrows in display order, i.e. ``arrows[0]`` is applied last and
``arrows[-1]`` first; extending a path by an arrow prepends.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import chain
from operator import add, lt, sub
from typing import NamedTuple

from .errors import EnumerationCapError, UnrealizableError, ValidationError

DimensionVector = tuple[int, ...]


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Path(NamedTuple):
    """A path in the quiver, tagged by its start vertex.

    ``arrows`` is in display order (leftmost = last applied).  The trivial
    path at a vertex has an empty arrow tuple.
    """

    start: str
    arrows: tuple[str, ...] = ()

    @property
    def length(self) -> int:
        return len(self.arrows)

    def initial_subpath(self, length: int) -> "Path":
        if not 0 <= length <= self.length:
            raise ValueError("bad subpath length")
        return Path(self.start, self.arrows[self.length - length:])

    def then(self, arrow: Arrow) -> "Path":  # unchecked; ``TruncatedAlgebra.extend`` checks
        return Path(self.start, (arrow.name,) + self.arrows)


class Quiver:
    """Finite quiver with ordered vertices and arrows; loops and parallels allowed."""

    def __init__(self, vertices, arrows):
        self.vertices: tuple[str, ...] = tuple(str(v) for v in vertices)
        self.arrows: tuple[Arrow, ...] = tuple(
            a if isinstance(a, Arrow) else Arrow(str(a[0]), str(a[1]), str(a[2]))
            for a in arrows
        )
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex identifiers")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate arrow identifiers")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise ValidationError(f"arrow {a.name} references undeclared vertex")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self.arrow_ends = tuple((self.vertex_index[a.source], self.vertex_index[a.target])
                                for a in self.arrows)  # (source, target) position per arrow
        self.arrows_from = {v: tuple(a for a in self.arrows if a.source == v) for v in self.vertices}

    def __repr__(self):
        return f"Quiver(vertices={list(self.vertices)}, arrows={[a.name for a in self.arrows]})"


class TruncatedAlgebra:
    """KQ / <paths of length L+1>; Loewy length L+1."""

    def __init__(self, quiver: Quiver, L: int):
        if L < 1:
            raise ValidationError("path length bound L must be >= 1")
        self.quiver = quiver
        self.L = L

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.quiver.vertices

    @property
    def n(self) -> int:
        return len(self.quiver.vertices)

    def vertex_pos(self, v: str) -> int:
        try:
            return self.quiver.vertex_index[v]
        except KeyError:
            raise ValidationError(f"unknown vertex {v!r}") from None

    def trivial_path(self, v: str) -> Path:
        self.vertex_pos(v)
        return Path(v, ())

    def path_end(self, p: Path) -> str:
        if not p.arrows:
            return p.start
        return self.quiver.arrow_by_name[p.arrows[0]].target

    def extend(self, p: Path, arrow: Arrow) -> Path:
        """Left-compose ``arrow`` with ``p`` (apply p first, then arrow)."""
        if arrow.source != self.path_end(p):
            raise ValidationError(f"arrow {arrow.name} not composable with path")
        return p.then(arrow)

    def extension_counts(self, layer: DimensionVector) -> DimensionVector:
        """Per-vertex count of one-arrow extensions available from a layer.

        Entry j is A_j = sum_i (#arrows i->j) * layer[i].
        """
        counts = [0] * self.n
        for source, target in self.quiver.arrow_ends:
            counts[target] += layer[source]
        return tuple(counts)

    @cached_property
    def path_counts(self) -> dict[str, tuple[DimensionVector, ...]]:
        """Transfer-matrix table: ``path_counts[v][l][j]`` counts the length-l paths v -> j.

        Row l+1 is the extension count of row l, so the rows from v are the
        powers of the arrow adjacency matrix applied to e_v, l = 0..L.
        """
        table = {}
        for i, v in enumerate(self.vertices):
            rows = [tuple(int(i == j) for j in range(self.n))]
            for _ in range(self.L):
                rows.append(self.extension_counts(rows[-1]))
            table[v] = tuple(rows)
        return table

    def __repr__(self):
        return f"TruncatedAlgebra({self.quiver!r}, L={self.L})"


class SemisimpleSequence(NamedTuple("SemisimpleSequence",
                                    [("layers", tuple[DimensionVector, ...])])):
    """Candidate radical layering: per-vertex multiplicities for layers 0..L.  The layers
    are checked and made tuples on construction, and the record hashes as ``(layers,)``."""

    __slots__ = ()

    def __new__(cls, layers):
        layers = tuple(map(tuple, layers))  # before the check, which would use up iterators
        if kinds := set(map(type, chain.from_iterable(layers))) - {int}:  # one C-level pass
            raise ValidationError("semisimple sequence entries must be int, got "
                                  + ", ".join(sorted(k.__name__ for k in kinds)))
        widths = {len(row) for row in layers}
        if len(widths) > 1:
            raise ValidationError("ragged semisimple sequence")
        if any(x < 0 for row in layers for x in row):
            raise ValidationError("negative multiplicity in semisimple sequence")
        return super().__new__(cls, layers)

    @property
    def top(self) -> DimensionVector:
        return self.layers[0]

    @property
    def total_dim(self) -> int:
        return sum(sum(row) for row in self.layers)

    @property
    def dim_vector(self) -> DimensionVector:
        return tuple(sum(col) for col in zip(*self.layers))

    def __str__(self):
        return "(" + ", ".join(str(list(row)) for row in self.layers) + ")"


def top_elements(alg: TruncatedAlgebra, S: SemisimpleSequence) -> tuple[str, ...]:
    """Norming vertices of the distinguished top elements z_1..z_t.

    Grouped by vertex in quiver order: vertex v appears S.top[v] times.
    """
    out = []
    for v in alg.vertices:
        out.extend([v] * S.top[alg.vertex_pos(v)])
    return tuple(out)


def check_sequence(alg: TruncatedAlgebra, S: SemisimpleSequence) -> SemisimpleSequence:
    if len(S.layers) != alg.L + 1:
        raise ValidationError(f"sequence has {len(S.layers)} layers, algebra needs {alg.L + 1}")
    if any(len(row) != alg.n for row in S.layers):
        raise ValidationError("sequence width does not match vertex count")
    return S


def enumerate_paths(alg: TruncatedAlgebra, start: str, length: int) -> list[Path]:
    """All paths of exactly the given length from ``start``, canonically ordered.

    Order is lexicographic by arrow input index, leftmost (last applied)
    arrow most significant.
    """
    alg.vertex_pos(start)
    if not 0 <= length <= alg.L:
        raise ValidationError(f"length must be in 0..{alg.L}")
    for paths in _path_levels(alg, start, length):  # only the last level is kept
        pass
    return paths


def _path_levels(alg: TruncatedAlgebra, start: str, length: int):
    """The paths from ``start`` of each length 0..``length``, each level in canonical order:
    its parents' extensions taken arrow by arrow in index order, each arrow's in the order of
    its parents, so the leftmost arrow decides first and ties keep the parents' order."""
    paths = [alg.trivial_path(start)]
    yield paths
    for _ in range(length):
        by_end = {v: [] for v in alg.vertices}
        for p in paths:
            by_end[alg.path_end(p)].append(p)
        paths = [p.then(a) for a in alg.quiver.arrows for p in by_end[a.source]]
        yield paths


def truncated_dim_vector(alg: TruncatedAlgebra, vertex: str, m: int) -> DimensionVector:
    """Dimension vector of Lambda e / J^m e at ``vertex``: endpoints of the paths of length < m."""
    alg.vertex_pos(vertex)
    rows = alg.path_counts[vertex][:m]
    return tuple(sum(row[j] for row in rows) for j in range(alg.n))


def _partial_sums(S: SemisimpleSequence):
    acc = [0] * len(S.layers[0])
    out = []
    for row in S.layers:
        acc = [a + b for a, b in zip(acc, row)]
        out.append(tuple(acc))
    return out


def dominates(S: SemisimpleSequence, S2: SemisimpleSequence) -> bool:
    """True iff S <= S2 in the dominance order (S2 dominates S).

    S <= S2 means every partial sum of layers 0..r of S2 contains the
    corresponding partial sum of S, componentwise.
    """
    if len(S.layers) != len(S2.layers):
        raise ValidationError("sequences have different layer counts")
    if S.total_dim != S2.total_dim:
        raise ValidationError("sequences have different total dimension")
    for a, b in zip(_partial_sums(S), _partial_sums(S2)):
        if any(x > y for x, y in zip(a, b)):
            return False
    return True


def _extension_table(alg: TruncatedAlgebra, S: SemisimpleSequence):
    """A of a realizable S, A[l] = ``alg.extension_counts(S_l)`` for l < L.  Raises
    ``ValidationError`` if S is malformed (``check_sequence``), then ``UnrealizableError``
    if some A[l][j] < S_{l+1}[j]: S is realizable iff the extensions of every layer cover
    the next (BHT 2009), iff a compatible skeleton exists.
    """
    check_sequence(alg, S)
    A = [alg.extension_counts(row) for row in S.layers[:-1]]
    if any(map(lt, chain.from_iterable(A), chain.from_iterable(S.layers[1:]))):
        raise UnrealizableError(f"{S} is not realizable")
    return A


def _layer_table(alg: TruncatedAlgebra, S: SemisimpleSequence):
    """(A, tail), the one place S is read level by level: A of ``_extension_table``, which
    raises as it does, and tail[l] = sum_{m >= l} S_m for l = 0..L+1."""
    A, tail = _extension_table(alg, S), [(0,) * alg.n]
    for row in reversed(S.layers):
        tail.append(tuple(map(add, tail[-1], row)))
    return A, tail[::-1]


def realizable(alg: TruncatedAlgebra, S: SemisimpleSequence) -> bool:
    """Whether some module has radical layering S (``_extension_table`` finds no shortfall)."""
    try:
        _extension_table(alg, S)
    except UnrealizableError:
        return False
    return True


def enumerate_sequences(alg: TruncatedAlgebra, dimvec: DimensionVector,
                        top: DimensionVector | None = None,
                        cap: int | None = None,
                        max_top_dim: int | None = None) -> list[SemisimpleSequence]:
    """Realizable sequences of layerwise sum ``dimvec`` (top ``top``, top sum <= ``max_top_dim``).

    Output is in lexicographic order on the flattened layer matrix.  Raises
    ``EnumerationCapError`` as soon as sequence ``cap`` + 1 is found (``cap`` >= 0).

    Every layer, the top included, is drawn by one rule.  Below a layer X with R left,
    call y in the box [0, min(A(X), R)] live if R - y can be placed below y.  The live
    y form an up-set of the box: if y is live and y + e_v is in the box, y + e_v is
    live.  As y_v < R_v, a completion of y has a node at v in some deeper level; so
    move it, with its subtree, up to level y.  It takes a free (parent, arrow) slot
    into v in X, which exists as y_v + 1 <= A(X)_v; every other node keeps its parent
    and arrow, and no level gets deeper.  The tops are the case with no X, in the box
    [0, d], where the moved node becomes a root.  So with the later coordinates at their
    caps, the live values of a coordinate run from the least one, which a bisection
    finds, up to the cap, and the work before ``cap`` stops the walk is a few probes
    per coordinate of each layer kept, however large the box.

    The walk keeps a layer only if what remains can still be placed below it, so every
    prefix it expands yields a sequence.  Below a layer X, k levels can place R iff the
    greedy reach G_0 = X, G_t = min(A(G_{t-1}), R - Q_{t-1}), with Q_t = G_1 + .. + G_t
    and A = ``extension_counts``, ends at Q_k = R; then G_1..G_k is a completion.  Given
    any completion Y_1..Y_k, Y_0 = X, with sums P_t, suppose Q_t >= P_t (as at t = 0).
    At a vertex j with Q_{t+1}[j] < R[j] the greedy never capped j, so Q_{t+1}[j] =
    A(X + Q_t)[j] >= A(X + P_t)[j] >= P_{t+1}[j], as A is linear with nonnegative
    coefficients and each Y_s <= A(Y_{s-1}).  So Q_{t+1} >= P_{t+1}, and Q_k >= P_k = R.
    """
    if cap is not None and cap < 0:
        raise ValidationError(f"cap must be >= 0, got {cap}")
    if max_top_dim is not None and max_top_dim < 0:
        raise ValidationError(f"max_top_dim must be >= 0, got {max_top_dim}")
    dimvec = tuple(int(x) for x in dimvec)
    if len(dimvec) != alg.n:
        raise ValidationError("dimension vector width does not match vertex count")
    if any(x < 0 for x in dimvec):
        raise ValidationError("negative entry in dimension vector")
    if not any(dimvec):
        raise ValidationError("dimension vector must be nonzero")

    if top is not None:
        top = tuple(int(x) for x in top)
        if len(top) != alg.n or min(top) < 0:
            raise ValidationError("top must have one nonnegative entry per vertex")
        if any(map(lt, dimvec, top)):
            return []

    @cache  # per call: whether ``left`` levels below ``layer`` place the rest of ``remaining``
    def live(layer, remaining, left):
        remaining = tuple(map(sub, remaining, layer))
        while left and any(remaining) and any(layer):
            layer = tuple(map(min, alg.extension_counts(layer), remaining))
            remaining, left = tuple(map(sub, remaining, layer)), left - 1
        return not any(remaining)

    def options(prefix):
        # an entry is (layer, what remains), kept if live; the last layer takes exactly
        # what remains, which the last live layer above it reaches
        if len(prefix) == alg.L:
            return [(prefix[-1][1], None)]
        if prefix:
            layer, remaining = prefix[-1]
            lo, caps = (0,) * alg.n, tuple(map(min, alg.extension_counts(layer), remaining))
        else:
            remaining, lo, caps = dimvec, top or (0,) * alg.n, top or dimvec
        room = sum(caps) if prefix or max_top_dim is None else max_top_dim
        left = alg.L - len(prefix)

        def coordinate(head):
            # with later coordinates at their caps, the live x run from the least up to caps[j]
            # (live under any head, chosen so): bisect for the least, stop at the room left
            j, tail = len(head), caps[len(head) + 1:]
            x, end = lo[j], caps[j] + (not head)
            while x < end:
                mid = (x + end) // 2
                x, end = (x, mid) if live((*head, mid, *tail), remaining, left) else (mid + 1, end)
            return range(x, min(caps[j], room - sum(head)) + 1)
        return ((layer, tuple(map(sub, remaining, layer)))
                for layer in _depth_first(coordinate, alg.n))

    results: list[SemisimpleSequence] = []
    for chosen in _depth_first(options, alg.L + 1):
        results.append(SemisimpleSequence(tuple(layer for layer, _ in chosen)))
        if cap is not None and len(results) > cap:
            raise EnumerationCapError(cap, f"realizable sequences exceed cap of {cap}")
    return results


def _depth_first(options, depth):
    """Every ``depth``-tuple (depth >= 1) whose entry k is drawn from ``options(prefix)``,
    prefix the k entries before it (a live list, not to be kept), in depth-first order:
    one iterator per level on a list, so no call nests deeper as ``depth`` grows."""
    prefix, stack = [], [iter(options([]))]
    while stack:
        for x in stack[-1]:
            if len(stack) == depth:
                yield (*prefix, x)
            else:
                prefix.append(x)
                stack.append(iter(options(prefix)))
                break
        else:
            stack.pop()
            del prefix[-1:]


# ---------------------------------------------------------------------------
# JSON interfaces
# ---------------------------------------------------------------------------

def _json_as(x, kind=int):
    """``x`` if it is a JSON value of type ``kind`` (int, str, list or dict).

    Nothing is coerced: bool, float and str are no int, null and numbers
    are no str, and a str, number or object is no list, so none of them is
    read, renamed or iterated by mistake.
    """
    if type(x) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {x!r}")
    return x


def algebra_from_json(data: dict) -> TruncatedAlgebra:
    """Quiver input: {"vertices": [...], "arrows": [{"name","source","target"}], "max_path_length": L}."""
    try:
        vertices = [_json_as(v, str) for v in _json_as(data["vertices"], list)]
        arrows = [Arrow(*(_json_as(a[k], str) for k in ("name", "source", "target")))
                  for a in _json_as(data["arrows"], list)]
        L = _json_as(data["max_path_length"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed algebra input: {exc}") from None
    return TruncatedAlgebra(Quiver(vertices, arrows), L)


def sequence_from_json(data: dict, alg: TruncatedAlgebra) -> SemisimpleSequence:
    """Sequence input: {"layers": [[...], ...]}, rows l = 0..L, columns in vertex order."""
    try:
        rows = [tuple(_json_as(x) for x in _json_as(row, list))
                for row in _json_as(data["layers"], list)]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed sequence input: {exc}") from None
    S = check_sequence(alg, SemisimpleSequence(tuple(rows)))
    if S.total_dim == 0:
        raise ValidationError("all-zero semisimple sequence")
    return S


def sequence_to_json(S: SemisimpleSequence) -> dict:
    return {"layers": [list(row) for row in S.layers]}
