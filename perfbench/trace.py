"""Span tracing of hopfsplit's public entry points, installed from outside.

`Tracer.install()` replaces each entry point listed in `ENTRY_POINTS` by a
wrapper that records a span (name, start, end, parent, job) whenever a job
is active, and `Tracer.uninstall()` puts every original object back.  No
file under `src/` is touched: module-level functions are patched in every
`hopfsplit` module namespace that binds the same function object (so names
imported with `from .x import y` are covered where they are used), methods
are patched on the class that defines them.

Spans are kept in flat arrays while the run lasts and written out once at
the end (`write_spans`).  `layer_metrics` turns them into the per-layer
metrics: calls and self time per name, where self time is a span's
duration minus the part of it covered by its direct children.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from array import array
from collections import defaultdict

# (metric name, module, qualified attribute) -- several entries may share a
# metric name; their spans are aggregated under it.
ENTRY_POINTS = [
    ("linalg.rref", "linalg", "Matrix.rref"),
    ("linalg.kernel", "linalg", "Matrix.kernel"),
    ("linalg.solve", "linalg", "Matrix.solve"),
    ("linalg.inverse", "linalg", "Matrix.inverse"),
    ("linalg.matmul", "linalg", "Matrix.__matmul__"),
    ("linalg.reduce_vector", "linalg", "Subspace.reduce_vector"),
    ("linalg.subspace", "linalg", "Subspace.from_vectors"),
    ("linalg.subspace", "linalg", "Subspace.from_matrix_rows"),
    ("linalg.subspace", "linalg", "Subspace.contains"),
    ("linalg.subspace", "linalg", "Subspace.intersect"),
    ("linalg.subspace", "linalg", "Subspace.__add__"),
    ("linalg.subspace", "linalg", "Subspace.quotient_complement"),
    ("tensors.stage_run", "tensors", "StagePipeline.run"),
    ("tensors.apply_at", "tensors", "SparseMap.apply_at"),
    ("algebra.validate", "algebra", "AlgebraObject.validate"),
    ("algebra.is_ideal", "algebra", "is_ideal"),
    ("algebra.pairwise_products", "algebra", "pairwise_products"),
    ("algebra.ideal_power_nilpotency", "algebra", "ideal_power_nilpotency"),
    ("algebra.quotient_algebra", "algebra", "quotient_algebra"),
    ("algebra.separability_idempotent", "algebra", "separability_idempotent"),
    ("algebra.radical", "algebra", "radical"),
    ("coalgebra.validate", "coalgebra", "CoalgebraObject.validate"),
    ("coalgebra.dualize", "coalgebra", "dualize"),
    ("coalgebra.quotient_projection", "coalgebra", "quotient_projection"),
    ("coalgebra.restrict_coalgebra", "coalgebra", "restrict_coalgebra"),
    ("coalgebra.coradical", "coalgebra", "coradical"),
    ("coalgebra.coradical_filtration", "coalgebra", "coradical_filtration"),
    ("hopf.validate", "hopf", "BialgebraObject.validate"),
    ("hopf.validate", "hopf", "HopfObject.validate"),
    ("hopf.upgrade_to_hopf", "hopf", "upgrade_to_hopf"),
    ("hopf.check_antipode", "hopf", "check_antipode"),
    ("hopf.is_algebra_map", "hopf", "is_algebra_map"),
    ("hopf.is_coalgebra_map", "hopf", "is_coalgebra_map"),
    ("hopf.find_integral", "hopf", "find_integral"),
    ("category.hom_space", "category", "hom_space"),
    ("hochschild.cohomology", "hochschild", "cohomology"),
    ("hochschild.differential", "hochschild", "differential"),
    ("hochschild.quotient_in_context", "hochschild", "quotient_in_context"),
    ("hochschild.lift_through_tower", "hochschild", "lift_through_tower"),
    ("smash.quadruple_validate", "smash", "YDQuadruple.validate"),
    ("smash.quadruple_validate", "smash", "DualYDQuadruple.validate"),
    ("smash.extract", "smash", "extract_quadruple_primal"),
    ("smash.extract", "smash", "extract_quadruple_dual"),
    ("smash.bosonize", "smash", "bosonize"),
    ("smash.bosonize", "smash", "dual_bosonize"),
    ("smash.validate_bosonization", "smash", "validate_bosonization"),
    ("pipeline.certify", "pipeline", "certify_split_input"),
    ("pipeline.split", "pipeline", "split_radical"),
    ("pipeline.split", "pipeline", "split_coradical"),
    ("pipeline.reconstruct", "pipeline", "reconstruct_and_verify"),
    ("pipeline.filtration_check", "pipeline", "corad_filtration_smash_check"),
    ("builtin.build", "builtin", "group_algebra"),
    ("builtin.build", "builtin", "dual_group_algebra"),
    ("builtin.build", "builtin", "taft"),
    ("builtin.build", "builtin", "sweedler_h4"),
    ("builtin.build", "builtin", "build_ha"),
    ("serialize.read", "serialize", "read_file"),
    ("serialize.read", "serialize", "loads"),
    ("serialize.read", "serialize", "object_from_json"),
    ("serialize.read", "serialize", "subspace_from_json"),
    ("serialize.read", "serialize", "quadruple_from_json"),
    ("serialize.write", "serialize", "write_file"),
    ("serialize.write", "serialize", "dumps"),
    ("serialize.write", "serialize", "object_to_json"),
    ("serialize.write", "serialize", "subspace_to_json"),
    ("serialize.write", "serialize", "quadruple_to_json"),
    ("serialize.write", "serialize", "report_to_json"),
    ("cli.main", "cli", "main"),
]

PACKAGE = "hopfsplit"
SPAN_NAMES = sorted({name for name, _, _ in ENTRY_POINTS})
# inclusive wall time (outermost spans of the name) is reported for these
# stage-level names
BUSY_NAMES = ["pipeline.certify", "pipeline.split", "pipeline.reconstruct",
              "pipeline.filtration_check", "builtin.build"]


def _count_rref(tr, args, res):
    tr.counters["linalg.rref.rows_in"] += args[0].rows
    tr.counters["linalg.rref.rank_out"] += len(res[1])


def _count_validate_dim(tr, args, res):
    c = tr.counters
    c["algebra.validate.dim_max"] = max(c["algebra.validate.dim_max"], args[0].dim)


def _count_dumps(tr, args, res):
    tr.counters["serialize.bytes_written"] += len(res.encode())


def _count_exit(tr, args, res):
    if res != 0:
        tr.counters["cli.exit_nonzero"] += 1


# counters read from a call's arguments and result, keyed by (module, attribute)
COUNTERS = {
    ("linalg", "Matrix.rref"): _count_rref,
    ("algebra", "AlgebraObject.validate"): _count_validate_dim,
    ("serialize", "dumps"): _count_dumps,
    ("cli", "main"): _count_exit,
}


class Tracer:
    """Span recorder.  Records only while `job` is set, so checks the
    benchmark runs between jobs do not show up as program work."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_id = array("i")
        self.job: int | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, counter=None):
        """Return a wrapper of `fn` that records one span named `name`."""
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, jobs = self.parent, self.job_id

        def traced(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, res)
            return res

        functools.update_wrapper(traced, fn)
        traced.perfbench_span = name
        return traced

    def record_span(self, name: str, start: float, end: float, parent: int = -1, job: int = 0) -> int:
        """Append a finished span (used by tests to build synthetic trees)."""
        self.name_id.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job_id.append(job)
        return len(self.start) - 1

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every entry point; returns the number of bindings replaced."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = self._modules()
        for name, modname, attr in ENTRY_POINTS:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            counter = COUNTERS.get((modname, attr))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, counter))
                else:
                    new = self.wrap(name, raw, counter)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(mod, attr)
            wrapped = self.wrap(name, fn, counter)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._patches.append((m, key, fn))
                        setattr(m, key, wrapped)
        return len(self._patches)

    def uninstall(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _modules(self) -> list:
        """Every module of the package, imported now so that no module
        imported later binds a wrapper that uninstall cannot see."""
        pkg = importlib.import_module(PACKAGE)
        return [pkg] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                        for info in pkgutil.iter_modules(pkg.__path__)]

    def leftovers(self) -> list[str]:
        """Bindings in the package that still hold a span wrapper."""
        found = []
        for mod in self._modules():
            modname = mod.__name__
            for key, val in vars(mod).items():
                if hasattr(val, "perfbench_span"):
                    found.append(f"{modname}.{key}")
                if isinstance(val, type) and val.__module__ == modname:
                    for meth, raw in vars(val).items():
                        if hasattr(getattr(raw, "__func__", raw), "perfbench_span"):
                            found.append(f"{modname}.{key}.{meth}")
        return found

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the durations of direct
        children (children of one span never overlap: one thread)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def layer_metrics(self) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        busy: dict[str, float] = defaultdict(float)
        for i, st in enumerate(self.self_times()):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += st
            if name in BUSY_NAMES and not self._inside(i, self.name_id[i]):
                busy[name] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in BUSY_NAMES:
            out[f"{name}.busy_s"] = busy.get(name, 0.0)
        c = self.counters
        out["linalg.rref.rows_in"] = c["linalg.rref.rows_in"]
        out["linalg.rref.rank_ratio"] = (c["linalg.rref.rank_out"] / c["linalg.rref.rows_in"]
                                         if c["linalg.rref.rows_in"] else 0.0)
        out["algebra.validate.dim_max"] = c["algebra.validate.dim_max"]
        out["serialize.bytes_written"] = c["serialize.bytes_written"]
        out["cli.exit_nonzero"] = c["cli.exit_nonzero"]
        return out

    def _inside(self, i: int, nid: int) -> bool:
        """Whether span i has an ancestor of the same name (its time is
        then already in that ancestor's inclusive wall)."""
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False

    def root_cover(self) -> dict[int, float]:
        """Seconds covered by top-level spans, per job (roots never overlap)."""
        cover: dict[int, float] = defaultdict(float)
        for i in range(len(self.start)):
            if self.parent[i] < 0:
                cover[self.job_id[i]] += self.end[i] - self.start[i]
        return cover

    def write_spans(self, path, job_names: dict[int, str]):
        """One JSON line per span: name, start, end, parent index, job."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]], round(self.start[i], 7),
                                     round(self.end[i], 7), self.parent[i],
                                     job_names.get(self.job_id[i], str(self.job_id[i]))]))
                fh.write("\n")
