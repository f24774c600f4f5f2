"""Out-of-program tracing of genrep: spans and work counts per layer.

``Tracer.install`` wraps every public function of every ``genrep.*``
module, and ``RowSpace.add``, at run time.  Modules import functions by
name, so each wrapper is bound under every ``genrep.*`` namespace that held
the original; ``install`` fails if any original is left behind.

Spans (name, start, end, parent span, job id) stay in memory, in flat
arrays, until ``write_spans``.  Alongside them the tracer keeps per-name calls, total
(inclusive, outermost call only) and self time (span minus child spans),
plus the work counts the benchmark reports.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

DSO = "matrix_rep.distinguished_skeleta_of"

# traced name -> stats reported for it; names are "<module>.<function>"
LAYERS = {
    "cli": {"cli.main": ("calls", "self_s")},
    "algebra_core": {
        "algebra_core.enumerate_paths": ("calls", "self_s", "paths"),
        "algebra_core.enumerate_sequences": ("calls", "self_s", "sequences"),
        "algebra_core.dominates": ("calls", "self_s"),
        "algebra_core.realizable": ("calls",),
    },
    "skeleta": {
        "skeleta.iter_skeleta": ("calls", "self_s", "yielded"),
        "skeleta.canonical_skeleton": ("calls", "total_s"),
        "skeleta.critical_paths": ("calls", "self_s"),
        "skeleta.count_skeleta": ("calls", "self_s"),
    },
    "generic_builder": {
        "generic_builder.generic_presentation": ("calls", "self_s", "repeat_calls"),
        "generic_builder.bundle_tower": ("calls", "self_s"),
        "generic_builder.hypergraph": ("calls",),
    },
    "homology": {
        "homology.first_syzygy": ("calls", "self_s"),
        "homology.iterated_syzygy": ("calls", "total_s", "repeat_calls"),
        "homology.syzygy_of_cyclic": ("calls", "self_s", "repeat_calls"),
        "homology.projective_dimension": ("calls", "total_s"),
        "homology.cyclic_dim": ("calls", "self_s"),
    },
    "matrix_rep": {
        "matrix_rep.materialize": ("calls", "self_s", "degenerate"),
        "matrix_rep.radical_layering": ("calls", "total_s"),
        "matrix_rep.mat_rank": ("calls", "self_s", "cells"),
        "matrix_rep.RowSpace.add": ("calls", "self_s", "dependent"),
        "matrix_rep.path_action": ("calls", "self_s", "repeat_calls"),
        "matrix_rep.mat_mul": ("calls", "self_s"),
        "matrix_rep.mat_vec": ("calls", "self_s"),
        "matrix_rep.hom_dim": ("calls", "self_s", "cells"),
        "matrix_rep.socle": ("calls", "total_s"),
        "matrix_rep.ext_dim_detail": ("calls", "total_s"),
        "matrix_rep.decomposability": ("calls", "total_s"),
        DSO: ("calls", "self_s", "accepted", "yielded"),
        "matrix_rep.module_point": ("calls", "total_s"),
        "matrix_rep.generic_socle": ("total_s",),
        "matrix_rep.generic_end_dim": ("total_s",),
        "matrix_rep.generic_hom_dim": ("total_s",),
        "matrix_rep.seeded_assignment": ("calls",),
    },
    "components": {
        "components.component_report": ("calls", "total_s"),
        "components.sequence_poset": ("self_s",),
        "components.closure_containment_test": ("calls", "self_s"),
        "components.annihilating_arrows": ("calls", "self_s"),
    },
}
VERDICTS = ("excluded-dominance", "excluded-annihilator", "excluded-socle", "possible")
# ratio name -> (numerator, base); both are reported on their own as well
RATIOS = {
    DSO + ".accepted_per_yielded": (DSO + ".accepted", DSO + ".yielded"),
    "matrix_rep.RowSpace.add.dependent_ratio": ("matrix_rep.RowSpace.add.dependent",
                                                "matrix_rep.RowSpace.add.calls"),
    "matrix_rep.path_action.repeat_ratio": ("matrix_rep.path_action.repeat_calls",
                                            "matrix_rep.path_action.calls"),
}
REPEAT_KEYED = {"generic_builder.generic_presentation", "homology.iterated_syzygy",
                "homology.syzygy_of_cyclic", "matrix_rep.path_action"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {"cli.stdout_bytes": "bytes", "trace.overhead": "ratio"}
    for stats in LAYERS.values():
        for name, kinds in stats.items():
            for kind in kinds:
                units[f"{name}.{kind}"] = "s" if kind.endswith("_s") else "count"
    for v in VERDICTS:
        units[f"components.verdict.{v}"] = "count"
    units.update(dict.fromkeys(RATIOS, "ratio"))
    return units


def _key(args, kwargs):
    # Algebras and representations hash by identity, sequences and paths by
    # value; holding the key keeps the objects alive, so ids are not reused.
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    return key


class Tracer:
    def __init__(self):
        self.names: list[str] = []       # span name table
        self.name_ids: dict[str, int] = {}
        # one entry per span: name id, start, end, parent index (-1: none), job
        self.span_name, self.span_parent, self.span_job = array("i"), array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self.stack: list[list] = []      # open spans: [name, start, child time, index]
        self.depth: Counter = Counter()  # open spans per name
        self.stats: Counter = Counter()  # "<name>.<stat>" -> value
        self.seen: set = set()           # repeat keys of the current job
        self.job = -1
        self.wrappers: dict[str, object] = {}
        self.originals: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self.seen = set()

    def _enter(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        self.span_name.append(self.name_ids[name])
        self.span_parent.append(self.stack[-1][3] if self.stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self.depth[name] += 1
        start = perf_counter()
        self.span_start.append(start)
        self.stack.append([name, start, 0.0, index])

    def _exit(self):
        end = perf_counter()
        name, start, child, index = self.stack.pop()
        dur = end - start
        self.span_end[index] = end
        stats = self.stats
        stats[name + ".self_s"] += dur - child
        self.depth[name] -= 1
        if not self.depth[name]:
            stats[name + ".total_s"] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def _wrap(self, name, fn):
        tracer, stats = self, self.stats
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stats[name + ".calls"] += 1
                return tracer._iterate(name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[name + ".calls"] += 1
            if name in REPEAT_KEYED:
                key = (name, _key(args, kwargs))
                if key in tracer.seen:
                    stats[name + ".repeat_calls"] += 1
                tracer.seen.add(key)
            if name == "matrix_rep.mat_rank" and not isinstance(args[1], list):
                args = (args[0], list(args[1]))
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "DegenerateAssignmentError":
                    stats[name + ".degenerate"] += 1
                raise
            finally:
                tracer._exit()
            tracer._count(name, args, result)
            return result
        return wrapper

    def _iterate(self, name, gen):
        under_dso = name == "skeleta.iter_skeleta"
        while True:
            self._enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit()
            self.stats[name + ".yielded"] += 1
            if under_dso and self.depth[DSO]:
                self.stats[DSO + ".yielded"] += 1
            yield item

    def _count(self, name, args, result):
        stats = self.stats
        if name in ("algebra_core.enumerate_paths", "algebra_core.enumerate_sequences"):
            stats[name + (".paths" if name.endswith("paths") else ".sequences")] += len(result)
        elif name == "matrix_rep.mat_rank":
            rows = args[1]
            stats[name + ".cells"] += len(rows) * (len(rows[0]) if rows else 0)
        elif name == "matrix_rep.RowSpace.add":
            stats[name + ".dependent"] += result is None
        elif name == "matrix_rep.hom_dim":
            a, b = args[0], args[1]
            alg = a.algebra
            cols = sum(a.dim_at(v) * b.dim_at(v) for v in alg.vertices)
            rows = sum(b.dim_at(x.target) * a.dim_at(x.source) for x in alg.quiver.arrows)
            stats[name + ".cells"] += rows * cols
        elif name == DSO:
            stats[name + ".accepted"] += len(result)
        elif name == "components.closure_containment_test":
            stats["components.verdict." + result.verdict] += 1

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every loaded genrep module."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "genrep" or name.startswith("genrep.")}
        originals = self.originals = {}
        for modname, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == modname):
                    name = modname.split(".", 1)[-1] + "." + attr
                    originals[id(obj)] = (obj, self._wrap(name, obj))
                    self.wrappers[name] = originals[id(obj)][1]
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, originals[id(obj)][1])
        row_space = modules["genrep.matrix_rep"].RowSpace
        self._restore.append((row_space, "add", row_space.add))
        self.wrappers["matrix_rep.RowSpace.add"] = self._wrap("matrix_rep.RowSpace.add",
                                                              row_space.add)
        row_space.add = self.wrappers["matrix_rep.RowSpace.add"]
        self.check_installed()

    def check_installed(self) -> None:
        """Raise unless every traced name in every genrep namespace is wrapped."""
        originals = self.originals
        leftover = [f"{mod.__name__}.{attr}"
                    for mod in [m for n, m in sys.modules.items()
                                if n == "genrep" or n.startswith("genrep.")]
                    for attr, obj in vars(mod).items()
                    if id(obj) in originals and originals[id(obj)][0] is obj]
        row_space = sys.modules["genrep.matrix_rep"].RowSpace
        if row_space.__dict__["add"] is not self.wrappers["matrix_rep.RowSpace.add"]:
            leftover.append("genrep.matrix_rep.RowSpace.add")
        missing = [name for stats in LAYERS.values() for name in stats
                   if name not in self.wrappers]
        if leftover or missing:
            raise RuntimeError(f"tracing incomplete: unwrapped {leftover}, "
                               f"not found {missing}")

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values named as in ``metric_units`` (without the benchmark rows)."""
        out = {}
        for name in metric_units():
            if name in RATIOS:
                num, base = RATIOS[name]
                out[name] = self.stats[num] / self.stats[base] if self.stats[base] else 0.0
            elif name not in ("cli.stdout_bytes", "trace.overhead"):
                out[name] = self.stats[name]
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped tab-separated spans: id, name, start, end, parent id, job."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            names = self.names
            for i, (n, s, e, p, j) in enumerate(zip(self.span_name, self.span_start,
                                                    self.span_end, self.span_parent,
                                                    self.span_job)):
                fh.write(f"{i}\t{names[n]}\t{s:.7f}\t{e:.7f}\t{p}\t{j}\n")
