"""Seeded job lists for the genrep benchmark.

This module never imports genrep: every input is built from the fixtures
and generators below, so a change to the program cannot change the
workload.  Each workload has a fixed, finite universe of jobs (drawn once
from ``UNIVERSE_SEED``) whose stdout digests are recorded in
``digests.json``; the run seed only chooses which universe jobs a run
executes and in which order (see ``plan``).  Every job a seed can select
therefore has a recorded answer.

A job is a CLI argv template.  A token ``@name`` stands for the input file
``name`` (named by a hash of its content), written by ``write_inputs``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from math import comb

UNIVERSE_SEED = 20140710
WARMUP_SEED_OFFSET = 0x5EED
WARMUP_JOBS = 3
# job times recorded with the digests; used only to balance rounds
COSTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "costs.json")
# --modulus value for the F_p variants of point-skeleta; genrep requires a
# prime above 10**6 for seeded evaluation
MODULUS = 2147483647
# syzygy orders per path-length bound: Omega^k grows with both, so k falls
# as L rises, keeping the largest jobs near one second and job sizes
# continuous between the size classes of neighbouring L
SYZYGY_K = {6: (4,), 7: (4,), 8: (4,), 9: (3, 4), 10: (3, 4), 11: (2, 3), 12: (2,)}

# name -> (vertices, arrows as (name, source, target), L)
ALGEBRAS = {
    "double_back": (("1", "2"), (("a", "1", "2"), ("b1", "2", "1"), ("b2", "2", "1")), 2),
    "relay": (("1", "2", "3"),
              (("a1", "1", "2"), ("a2", "1", "2"), ("b", "2", "3"),
               ("g1", "3", "2"), ("g2", "3", "2")), 3),
    "line_swing": (("1", "2", "3"), (("u", "1", "2"), ("v", "2", "3"), ("w", "3", "2")), 2),
    "six_vertex": (("1", "2", "3", "4", "5", "6"),
                   (("al", "1", "4"), ("b1", "4", "6"), ("b2", "4", "6"),
                    ("g", "2", "6"), ("d", "3", "5"), ("e", "5", "6")), 2),
}
# the two-loop quiver: loops x, y at vertex 1 and arrows 1 <-> 2, at L = 6..12
TWO_LOOP_LS = tuple(range(6, 13))
for _L in TWO_LOOP_LS:
    ALGEBRAS[f"two_loop_{_L}"] = (("1", "2"), (("x", "1", "1"), ("y", "1", "1"),
                                               ("a", "1", "2"), ("b", "2", "1")), _L)

# ROADMAP fixture on the relay quiver: d = 14k
RELAY_FIXTURE = {14: [[2, 1, 1], [0, 5, 1], [0, 0, 3], [0, 1, 0]],
                 28: [[4, 2, 2], [0, 10, 2], [0, 0, 6], [0, 2, 0]]}

# 9-dimensional worked module point over the six-vertex quiver
WORKED_MODULE_9 = {
    "tops": [{"vertex": v} for v in ("1", "1", "2", "3")],
    "relations": [
        [{"coeff": 1, "r": 1, "arrows": ["b2", "al"]}],
        [{"coeff": 1, "r": 2, "arrows": ["b1", "al"]}],
        [{"coeff": 1, "r": 3, "arrows": ["g"]}, {"coeff": -1, "r": 4, "arrows": ["e", "d"]}],
        [{"coeff": 1, "r": 1, "arrows": ["b1", "al"]}, {"coeff": 1, "r": 2, "arrows": ["b2", "al"]},
         {"coeff": 1, "r": 3, "arrows": ["g"]}],
    ],
}


def _terms(*spec):
    return [{"coeff": c, "r": r, "arrows": arrows.split()} for c, r, arrows in spec]


# 14-dimensional generic point of the relay fixture at d = 14: one relation
# per critical path of the canonical skeleton, small integer scalars.  Its
# layering is the fixture's and all 360 compatible skeleta are distinguished.
GENERIC_POINT_14 = {
    "tops": [{"vertex": v} for v in ("1", "1", "2", "3")],
    "relations": [
        _terms((1, 4, "g2"), (2, 1, "a1"), (-1, 1, "a2"), (3, 2, "a1"), (-1, 2, "a2"),
               (3, 4, "g1"), (3, 1, "g1 b a1")),
        _terms((1, 2, "b a2"), (3, 1, "b a1"), (2, 1, "b a2"), (-3, 2, "b a1")),
        _terms((1, 3, "g1 b"), (1, 1, "g1 b a1")),
        _terms((1, 3, "g2 b"), (-2, 1, "g1 b a1")),
        _terms((1, 4, "b g1"), (3, 1, "b a1"), (-3, 1, "b a2"), (-2, 2, "b a1")),
        _terms((1, 1, "g2 b a1"), (-3, 1, "g1 b a1")),
        _terms((1, 1, "g1 b a2"), (-1, 1, "g1 b a1")),
        _terms((1, 1, "g2 b a2"), (1, 1, "g1 b a1")),
        _terms((1, 2, "g1 b a1"), (-2, 1, "g1 b a1")),
        _terms((1, 2, "g2 b a1"), (1, 1, "g1 b a1")),
    ],
}


@dataclass(frozen=True)
class Job:
    stratum: str
    argv: tuple[str, ...]          # CLI argv; "@name" tokens are input files
    files: tuple[tuple[str, str], ...]   # (name, content) for every @name token

    @property
    def key(self) -> str:
        return hashlib.sha256(" ".join(self.argv).encode()).hexdigest()[:16]


def _file(data) -> tuple[str, str]:
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16] + ".json", text


def algebra_json(name: str) -> dict:
    vertices, arrows, L = ALGEBRAS[name]
    return {"vertices": list(vertices),
            "arrows": [{"name": n, "source": s, "target": t} for n, s, t in arrows],
            "max_path_length": L}


def _job(stratum, command, algebra, flags=(), **inputs) -> Job:
    """``inputs`` maps a CLI flag (seq, seq2, module) to its JSON document."""
    files = [_file(algebra_json(algebra))]
    argv = [command, "--algebra", "@" + files[0][0]]
    for flag, data in inputs.items():
        files.append(_file(data))
        argv += ["--" + flag, "@" + files[-1][0]]
    return Job(stratum, tuple(argv) + tuple(str(f) for f in flags), tuple(files))


# ---------------------------------------------------------------------------
# combinatorics carried here so that generation needs no genrep
# ---------------------------------------------------------------------------

def _extension_counts(algebra, layer):
    vertices, arrows, _ = ALGEBRAS[algebra]
    pos = {v: i for i, v in enumerate(vertices)}
    out = [0] * len(vertices)
    for _, s, t in arrows:
        out[pos[t]] += layer[pos[s]]
    return out


def skeleton_count(algebra, layers) -> int:
    """Number of abstract skeleta compatible with a realizable layering."""
    total = 1
    for lo, hi in zip(layers, layers[1:]):
        for a, x in zip(_extension_counts(algebra, lo), hi):
            total *= comb(a, x)
    return total


def random_layering(rng, algebra, top_cap, layer_cap, lo, hi):
    """A random layering with total dimension in ``lo..hi``.  It is
    realizable by construction: each layer is drawn within the one-arrow
    extensions of the layer above."""
    vertices, _, L = ALGEBRAS[algebra]
    while True:
        layers = [[rng.randint(0, top_cap) for _ in vertices]]
        for _ in range(L):
            avail = _extension_counts(algebra, layers[-1])
            layers.append([rng.randint(0, min(a, layer_cap)) for a in avail])
        if any(layers[0]) and lo <= sum(map(sum, layers)) <= hi:
            return layers


def _paths_from(algebra, vertex, max_len):
    """(end, arrows) for every path of length 1..max_len from ``vertex``;
    arrows are listed leftmost (last applied) first."""
    _, arrows, _ = ALGEBRAS[algebra]
    out, frontier = [], [(vertex, ())]
    for _ in range(max_len):
        frontier = [(t, (n,) + p) for end, p in frontier for n, s, t in arrows if s == end]
        out += frontier
    return out


def _rank_mod(rows, p=(1 << 61) - 1):
    rows = [r[:] for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            c = rows[i][col] * inv % p
            if c:
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def point_layering(algebra, module) -> list[list[int]]:
    """Radical layering of the module point P/C described by ``module``.

    P is the projective on the tops, C the submodule generated by the
    relations.  dim (J^l M)_w = #(basis paths of P_w of length >= l)
    + rank(C_w on the coordinates of length < l) - dim C_w.
    """
    vertices, _, L = ALGEBRAS[algebra]
    tops = [t["vertex"] for t in module["tops"]]
    coords = {w: [] for w in vertices}      # (r, arrows) basis of P_w
    for r, v in enumerate(tops, 1):
        coords[v].append((r, ()))
        for end, p in _paths_from(algebra, v, L):
            coords[end].append((r, p))
    index = {w: {c: i for i, c in enumerate(cs)} for w, cs in coords.items()}
    gens = []
    for rel in module["relations"]:
        by_end = {}
        for t in rel:
            r, p = t["r"], tuple(t["arrows"])
            end = next(e for e, q in _paths_from(algebra, tops[r - 1], L) if q == p)
            by_end.setdefault(end, {})[(r, p)] = t["coeff"]
        gens += by_end.items()
    span = {w: [] for w in vertices}        # C_w spanned by q * g
    for v, g in gens:
        for end, q in [(v, ())] + _paths_from(algebra, v, L):
            vec = [0] * len(coords[end])
            for (r, p), c in g.items():
                if len(q) + len(p) <= L:
                    vec[index[end][(r, q + p)]] += c
            span[end].append(vec)
    dims = []
    for l in range(L + 2):
        row = []
        for w in vertices:
            low = [i for i, (_, p) in enumerate(coords[w]) if len(p) < l]
            deep = len(coords[w]) - len(low)
            row.append(deep + _rank_mod([[v[i] for i in low] for v in span[w]])
                       - _rank_mod(span[w]))
        dims.append(row)
    return [[a - b for a, b in zip(dims[l], dims[l + 1])] for l in range(L + 1)]


def random_module_point(rng, algebra, max_tops, max_relations):
    vertices, _, L = ALGEBRAS[algebra]
    tops = [rng.choice(vertices) for _ in range(rng.randint(2, max_tops))]
    relations = []
    for _ in range(rng.randint(1, max_relations)):
        terms = []
        for _ in range(rng.randint(1, 3)):
            r = rng.randrange(len(tops))
            paths = _paths_from(algebra, tops[r], L)
            if paths:
                terms.append({"coeff": rng.choice((-3, -2, -1, 1, 2, 3)), "r": r + 1,
                              "arrows": list(rng.choice(paths)[1])})
        if terms:
            relations.append(terms)
    return {"tops": [{"vertex": v} for v in tops], "relations": relations}


# ---------------------------------------------------------------------------
# universes
# ---------------------------------------------------------------------------

def _generic_modules(rng):
    """Seeded generic modules on relay and double-back, d = 10..28."""
    jobs = []

    def layering(lo=10, hi=28, alg=None):
        alg = alg or ("relay" if rng.random() < 0.7 else "double_back")
        return alg, random_layering(rng, alg, 4, 8, lo, hi)

    def seed():
        return ("--seed", rng.randrange(1, 10**4))

    for _ in range(50):
        alg, S = layering()
        jobs.append(_job("hom", "hom", alg, seed(), seq={"layers": S}))
        alg, S = layering()
        _, S2 = layering(alg=alg)
        jobs.append(_job("hom-pair", "hom", alg, seed(), seq={"layers": S},
                         seq2={"layers": S2}))
        alg, S = layering()
        jobs.append(_job("ext1", "ext", alg, ("--k", 1) + seed(), seq={"layers": S}))
        alg, S = layering()
        jobs.append(_job("ext2", "ext", alg, ("--k", 2) + seed(), seq={"layers": S}))
        alg, S = layering()
        jobs.append(_job("socle", "socle", alg, seed(), seq={"layers": S}))
        alg, S = layering()
        jobs.append(_job("decompose", "decompose", alg, seed(), seq={"layers": S}))
        # exact Bareiss grows far faster than F_p elimination: keep it small
        alg, S = layering(10, 14)
        command = rng.choice(("hom", "socle", "decompose"))
        jobs.append(_job("exact", command, alg, ("--exact",) + seed(), seq={"layers": S}))
    return jobs


def _paths_syzygies(rng):
    """Path enumeration and syzygies on the two-loop quiver, line-swing and relay."""
    jobs = []

    def layering(alg):
        return random_layering(rng, alg, 2, 2, 1, 99)

    for _ in range(16):
        for L in TWO_LOOP_LS:
            alg = f"two_loop_{L}"
            jobs.append(_job(f"projdim-L{L}", "projdim", alg, seq={"layers": layering(alg)}))
            jobs.append(_job(f"syzygy-L{L}", "syzygy", alg, ("--k", rng.choice(SYZYGY_K[L])),
                             seq={"layers": layering(alg)}))
        for alg in ("line_swing", "relay"):
            jobs.append(_job(f"projdim-{alg}", "projdim", alg, seq={"layers": layering(alg)}))
            jobs.append(_job(f"syzygy-{alg}", "syzygy", alg, ("--k", rng.randint(1, 4)),
                             seq={"layers": layering(alg)}))
        for command, flags in (("geometry", ()), ("critical", ()),
                               ("skeleta", ("--count-only",))):
            alg = rng.choice(("two_loop_%d" % rng.choice(TWO_LOOP_LS), "line_swing", "relay"))
            jobs.append(_job(command, command, alg, flags, seq={"layers": layering(alg)}))
    return jobs


def _sifting_points(rng):
    """Component sifting and distinguished skeleta of module points."""
    jobs = []
    dimvecs = {"double_back": [(a, b) for a in (3, 4, 5) for b in (3, 4, 5)],
               "relay": [(a, b, c) for a in (2, 3) for b in (3, 4) for c in (2, 3)]}
    for alg, dvs in dimvecs.items():
        for dv in dvs:
            text = ",".join(map(str, dv))
            for _ in range(4):
                seed = ("--seed", rng.randrange(1, 10**4))
                jobs.append(_job(f"components-{alg}", "components", alg,
                                 ("--dimvec", text) + seed))
                top = [rng.randint(0, x) for x in dv]
                if any(top):
                    jobs.append(_job("components-top", "components", alg,
                                     ("--dimvec", text, "--top", ",".join(map(str, top)))
                                     + seed))
                jobs.append(_job("components-top", "components", alg,
                                 ("--dimvec", text, "--max-top-dim", rng.randint(2, 4))
                                 + seed))
    points = 0
    while points < 300:
        alg = rng.choice(("relay", "double_back", "six_vertex"))
        module = random_module_point(rng, alg, max_tops=4, max_relations=4)
        if skeleton_count(alg, point_layering(alg, module)) > 240:
            continue
        flags = () if points % 2 else ("--modulus", MODULUS)
        stratum = "point-modulus" if flags else "point-rational"
        jobs.append(_job(stratum, "point-skeleta", alg, flags, module=module))
        points += 1
    return jobs


WORKLOADS = {
    "generic-modules": _generic_modules,
    "paths-syzygies": _paths_syzygies,
    "sifting-points": _sifting_points,
}

# rounds a run can take; each holds 1/ROUNDS of the universe.  Two rounds
# pair every job with its neighbour in recorded time, which keeps the mix
# of each run, and so its metrics, close to every other run's.
ROUNDS = 2


def anchors(workload: str) -> list[tuple[str, Job]]:
    """The ROADMAP ladder jobs of a workload, run once per run at seed 0."""
    seed = ("--seed", 0)
    out = []
    if workload == "generic-modules":
        for d, S in RELAY_FIXTURE.items():
            for command, flags in (("hom", ()), ("ext", ("--k", 1)), ("socle", ()),
                                   ("decompose", ())):
                out.append((f"relay-d{d}-{command}",
                            _job("anchor", command, "relay", flags + seed, seq={"layers": S})))
    elif workload == "paths-syzygies":
        for L in (8, 10, 12):
            S = [[1, 0]] + [[0, 0]] * L
            out.append((f"projdim-L{L}",
                        _job("anchor", "projdim", f"two_loop_{L}", seq={"layers": S})))
    elif workload == "sifting-points":
        for alg, dv in (("double_back", "3,3"), ("double_back", "4,4"), ("relay", "2,3,2")):
            out.append((f"components-{alg}-{dv.replace(',', '')}",
                        _job("anchor", "components", alg, ("--dimvec", dv) + seed)))
        out.append(("point-skeleta-worked9",
                    _job("anchor", "point-skeleta", "six_vertex", module=WORKED_MODULE_9)))
        out.append(("point-skeleta-generic14",
                    _job("anchor", "point-skeleta", "relay", module=GENERIC_POINT_14)))
    return out


def universe(workload: str) -> list[Job]:
    """Every job a run of ``workload`` can select, distinct, in a fixed order."""
    seen, out = set(), []
    for job in WORKLOADS[workload](random.Random(UNIVERSE_SEED)):
        if job.argv not in seen:
            seen.add(job.argv)
            out.append(job)
    return out


@dataclass(frozen=True)
class Plan:
    warmup: tuple[Job, ...]
    rounds: tuple[tuple[Job, ...], ...]
    anchors: tuple[tuple[str, Job], ...]


def load_costs(workload: str) -> dict[str, float]:
    with open(COSTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def plan(workload: str, seed: int) -> Plan:
    """Warm-up jobs, timed rounds and anchors of one run.

    The warm-up takes ``WARMUP_JOBS`` jobs from distinct strata, chosen with
    a different seed and removed from the pool.  The rest is sorted by
    recorded job time and cut into bins of ``ROUNDS`` neighbours, from the
    largest down (a remainder of small jobs is left out).  The run seed
    deals each bin's jobs to the rounds, one each, and shuffles every
    round.  So no job repeats within a run, and every round has nearly the
    same mix of small and large jobs as every other round of any seed.
    """
    strata: dict[str, list[Job]] = {}
    for job in universe(workload):
        strata.setdefault(job.stratum, []).append(job)
    warm_rng = random.Random(seed + WARMUP_SEED_OFFSET)
    warmup = []
    for name in warm_rng.sample(sorted(strata), WARMUP_JOBS):
        pool = strata[name]
        warmup.append(pool.pop(warm_rng.randrange(len(pool))))
    costs = load_costs(workload)
    rng = random.Random(seed)
    pool = sorted((job for jobs in strata.values() for job in jobs),
                  key=lambda j: (-costs[j.key], j.key))
    rounds = [[] for _ in range(ROUNDS)]
    for start in range(0, len(pool) - ROUNDS + 1, ROUNDS):
        part = pool[start:start + ROUNDS]
        rng.shuffle(part)
        for i, job in enumerate(part):
            rounds[i].append(job)
    for jobs in rounds:
        rng.shuffle(jobs)
    return Plan(tuple(warmup), tuple(map(tuple, rounds)), tuple(anchors(workload)))


def write_inputs(jobs, directory) -> None:
    """Write every input file the jobs reference into ``directory``."""
    written = set()
    for job in jobs:
        for name, text in job.files:
            if name not in written:
                with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
                written.add(name)


def argv_for(job: Job, directory: str) -> list[str]:
    return [os.path.join(directory, tok[1:]) if tok.startswith("@") else tok
            for tok in job.argv]
