"""Spans, counters and object sizes for the motive_ring layers.

The package is never edited.  A benchmark child imports ``motive_ring`` and
then replaces chosen public entry points with wrappers: span wrappers in a
traced run, counting wrappers in a counting run.  A function imported by name
into other modules (``from .groups import double_cosets``) is replaced there
too, so every call path is seen.  An entry point that no longer exists is
skipped and reported, so a later refactor of the package does not crash the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "motive_ring"

# (module, attribute, layer, category).  A span's self time goes to its
# layer; the inclusive time of the outermost span of a category is reported
# as "<category>_s".  Hot per-element calls are deliberately absent: they
# are counted in the separate counting run (COUNTED below).
SPANS = [
    ("cli", "run", "cli", None),
    ("cli", "build_parser", "cli", None),
    ("cli", "dispatch", "cli", None),
    ("cli", "emit", "cli", None),
    ("groups", "construct_group", "groups", None),
    ("groups", "FiniteGroup.closure", "groups", None),
    ("groups", "FiniteGroup.normalizer", "groups", None),
    ("groups", "FiniteGroup.centralizer", "groups", None),
    ("groups", "FiniteGroup.left_cosets", "groups", None),
    ("groups", "FiniteGroup.conjugacy_classes", "groups", None),
    ("groups", "double_cosets", "groups", None),
    ("groups", "fixed_cosets", "groups", None),
    ("groups", "quotient_group", "groups", None),
    ("subgroups", "SubgroupClassTable.__init__", "subgroups", "subgroups.table"),
    ("subgroups", "SubgroupClassTable.quotient", "subgroups", None),
    ("subgroups", "SubgroupClassTable.residual_fiber_classes", "subgroups", None),
    ("subgroups", "all_subgroups", "subgroups", None),
    ("subgroups", "all_subgroups_dfs", "subgroups", None),
    ("subgroups", "all_subgroups_subsets", "subgroups", None),
    ("subgroups", "derived_subgroup", "subgroups", None),
    ("subgroups", "solvable_residual", "subgroups", None),
    ("subgroups", "p_residual", "subgroups", None),
    ("subgroups", "p_residual_oracle", "subgroups", None),
    ("subgroups", "structure_hint", "subgroups", None),
    ("burnside", "BurnsideRing.__init__", "burnside", None),
    ("burnside", "BurnsideRing.table_of_marks", "burnside", None),
    ("burnside", "BurnsideRing.multiply", "burnside", None),
    ("burnside", "BurnsideRing.marks", "burnside", None),
    ("burnside", "BurnsideRing.from_marks", "burnside", None),
    ("burnside", "BurnsideRing.rational_idempotents", "burnside", None),
    ("burnside", "BurnsideRing.dress_idempotents", "burnside", None),
    ("crossed", "CrossedBurnsideRing.__init__", "crossed", None),
    ("crossed", "CrossedBurnsideRing.multiply", "crossed", "crossed.product"),
    ("crossed", "CrossedBurnsideRing.basis_product_oracle", "crossed", "crossed.oracle"),
    ("crossed", "CrossedBurnsideRing.multiply_oracle", "crossed", "crossed.oracle"),
    ("crossed", "CrossedBurnsideRing.idempotent_oracle", "crossed", "crossed.idempotent_oracle"),
    ("crossed", "CrossedBurnsideRing.integral_idempotents", "crossed", None),
    ("crossed", "CrossedBurnsideRing.crossed_marks", "crossed", None),
    ("crossed", "CrossedBurnsideRing.center_image", "crossed", None),
    ("crossed", "CrossedBurnsideRing.center_image_rows", "crossed", None),
    ("crossed", "CrossedBurnsideRing.center_image_rank", "crossed", None),
    ("crossed", "CrossedBurnsideRing.multiplication_matrix", "crossed", None),
    ("crossed", "CrossedBurnsideRing.ideal_rank", "crossed", None),
    ("crossed", "CrossedBurnsideRing.p_local_report", "crossed", None),
    ("crossed", "CrossedBurnsideRing.with_identity_labels", "crossed", None),
    ("crossed", "CrossedBurnsideRing.forget_labels", "crossed", None),
    ("center", "CenterAlgebra.__init__", "center", None),
    ("center", "CenterAlgebra.multiply", "center", None),
    ("center", "CenterAlgebra.multiply_oracle", "center", None),
    ("center", "CenterAlgebra.from_group_algebra", "center", None),
    ("center", "CenterAlgebra.class_sums", "center", None),
    ("center", "ga_mul", "center", None),
    ("center", "block_idempotents", "center", None),
    ("center", "blocks_mod_p", "center", "center.blocks"),
    ("center", "block_scan_oracle", "center", "center.scan_oracle"),
    ("center", "blocks_in_rho_span", "center", None),
    ("mackey", "MackeyAlgebra.__init__", "mackey", "mackey.basis"),
    ("mackey", "MackeyAlgebra.compose", "mackey", "mackey.compose"),
    ("mackey", "MackeyAlgebra.structure_table", "mackey", "mackey.compose"),
    ("mackey", "MackeyAlgebra.center_basis", "mackey", "mackey.center"),
    ("mackey", "MackeyAlgebra.commutator_operators", "mackey", None),
    ("mackey", "MackeyAlgebra.is_central", "mackey", None),
    ("mackey", "MackeyAlgebra.orbit_count_formula", "mackey", None),
    ("mackey", "HeckeAlgebra.__init__", "mackey", "mackey.hecke_center"),
    ("verify", "hecke_center_dimension", "mackey", "mackey.hecke_center"),
    ("mackey", "MackeyAlgebra.project", "mackey", "mackey.project"),
    ("mackey", "center_to_hecke", "mackey", "mackey.project"),
    ("mackey", "crossed_to_mackey_center", "mackey", None),
    ("mackey", "mat_mul_scalar", "mackey", None),
    ("mackey", "span_rank", "linalg", None),
    ("linalg", "rref_rational", "linalg", None),
    ("linalg", "rank_rational", "linalg", None),
    ("linalg", "nullspace_rational", "linalg", None),
    ("linalg", "solve_upper_triangular", "linalg", None),
    ("linalg", "mat_mul", "linalg", None),
    ("linalg", "rank_field", "linalg", None),
    ("linalg", "nullspace_field", "linalg", None),
    ("linalg", "in_row_span_field", "linalg", None),
    ("linalg", "nullspace_int", "linalg", None),
    ("linalg", "kernel_intersection_int", "linalg", None),
    ("linalg", "kernel_intersection_field", "linalg", None),
    ("verify", "group_checks", "verify", "verify.group_checks"),
    ("verify", "burnside_checks", "verify", "verify.burnside_checks"),
    ("verify", "crossed_checks", "verify", "verify.crossed_checks"),
    ("verify", "center_checks", "verify", "verify.center_checks"),
    ("verify", "mackey_checks", "verify", "verify.mackey_checks"),
    ("verify", "zeta_surjectivity_check", "verify", "verify.zeta_surjectivity"),
    ("verify", "p_local_checks", "verify", None),
]

LAYERS = ("groups", "subgroups", "burnside", "crossed", "center", "mackey", "linalg", "verify", "cli")
CATEGORIES = sorted({category for *_, category in SPANS if category})

# (module, attribute, counter).  Counted only in the counting run; a
# counter ending in "_pairs" also records the distinct (instance, i, j)
# argument triples, which is the work a memo on those pairs cannot avoid.
COUNTED = [
    ("groups", "FiniteGroup.mul", "groups.mul_calls"),
    ("groups", "FiniteGroup.closure", "groups.closure_calls"),
    ("mackey", "MackeyAlgebra._basis_compose", "mackey.compose_pairs"),
    ("crossed", "CrossedBurnsideRing._basis_product", "crossed.product_pairs"),
]
SCALAR_COUNTED = {"is_zero": "scalars.is_zero_calls", "add": "scalars.arith_calls",
                  "mul": "scalars.arith_calls", "coerce": "scalars.arith_calls"}

# Object sizes read off each new instance: (module, class, size name, reader).
SIZES = [
    ("subgroups", "SubgroupClassTable", "group_order", lambda t: t.group.order),
    ("subgroups", "SubgroupClassTable", "subgroup_classes", lambda t: len(t.classes)),
    ("subgroups", "SubgroupClassTable", "subgroups", lambda t: len(t.all_subgroups)),
    ("crossed", "CrossedBurnsideRing", "crossed_pairs", lambda x: x.n),
    ("mackey", "MackeyAlgebra", "omega_points", lambda m: m.npoints),
    ("mackey", "MackeyAlgebra", "spans", lambda m: m.n),
    ("mackey", "HeckeAlgebra", "hecke_dim", lambda h: h.n),
]
SIZE_NAMES = [name for _, _, name, _ in SIZES]


def _modules():
    names = sorted({entry[0] for entry in SPANS + COUNTED + SIZES} | {"scalars"})
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in names}


def _replace(modules, module, attribute, make):
    """Replace one entry point by make(original); False if it is absent."""
    owner_name, _, name = attribute.rpartition(".")
    mod = modules[module]
    if owner_name:
        owner = getattr(mod, owner_name, None)
        original = None if owner is None else owner.__dict__.get(name)
        if original is None:
            return False
        if isinstance(original, property):
            setattr(owner, name, property(make(original.fget), original.fset, original.fdel))
        else:
            setattr(owner, name, make(original))
        return True
    original = getattr(mod, name, None)
    if original is None:
        return False
    wrapped = make(original)
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith(PACKAGE):
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
    return True


class Tracer:
    """Records one span per wrapped call: name, parent span, start, end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def install(self):
        modules = _modules()
        for module, attribute, _, _ in SPANS:
            name = f"{module}.{attribute}"
            if not _replace(modules, module, attribute, lambda fn, name=name: self._wrap(name, fn)):
                self.missing.append(name)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per-layer self time, per-category inclusive time, per-span table.

        A span's self time is its duration minus its direct children's.  A
        category's time sums the spans of that category that do not lie
        inside another span of the same category, so recursion and nesting
        are not counted twice.
        """
        info = {f"{m}.{a}": (layer, category) for m, a, layer, category in SPANS}
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_self = dict.fromkeys(LAYERS, 0.0)
        category_time = dict.fromkeys(CATEGORIES, 0.0)
        per_span: dict[str, list] = {}
        for idx, (name, parent, start, end) in enumerate(spans):
            layer, category = info[name]
            duration = end - start
            own = duration - child_time[idx]
            layer_self[layer] += own
            row = per_span.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            row[2] += duration
            if category:
                up = parent
                while up >= 0 and info[spans[up][0]][1] != category:
                    up = spans[up][1]
                if up < 0:
                    category_time[category] += duration
        return {"layer_self_s": layer_self, "category_s": category_time, "spans": per_span}


class CallCounter:
    """Counts calls of the hot per-element entry points."""

    def __init__(self):
        self.counts = dict.fromkeys([c for *_, c in COUNTED] + list(SCALAR_COUNTED.values()), 0)
        self._pairs: dict[str, dict[int, set]] = {}
        self._keep: list = []  # instances stay alive so that id() is not reused
        self.missing: list[str] = []

    def install(self):
        modules = _modules()
        for module, attribute, counter in COUNTED:
            make = self._wrap_pairs if counter.endswith("_pairs") else self._wrap
            if not _replace(modules, module, attribute, lambda fn, c=counter, make=make: make(c, fn)):
                self.missing.append(f"{module}.{attribute}")
        scalars = modules["scalars"]
        base = getattr(scalars, "ScalarRing", None)
        rings = [obj for obj in vars(scalars).values()
                 if isinstance(obj, type) and base is not None and issubclass(obj, base)]
        if not rings:
            self.missing.append("scalars.ScalarRing")
        for ring in rings:
            for method, counter in SCALAR_COUNTED.items():
                if method in ring.__dict__:
                    setattr(ring, method, self._wrap(counter, ring.__dict__[method]))

    def _wrap(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_pairs(self, counter, fn):
        counts = self.counts
        seen = self._pairs.setdefault(counter, {})
        keep = self._keep

        @functools.wraps(fn)
        def counted(obj, i, j):
            counts[counter] += 1
            pairs = seen.get(id(obj))
            if pairs is None:
                pairs = seen[id(obj)] = set()
                keep.append(obj)
            pairs.add((i, j))
            return fn(obj, i, j)

        return counted

    def summary(self) -> dict:
        out = dict(self.counts)
        for counter, seen in self._pairs.items():
            out[counter + "_distinct"] = sum(len(pairs) for pairs in seen.values())
        return out


class SizeRecorder:
    """Largest size of each kind of object built during one command."""

    def __init__(self):
        self.sizes = dict.fromkeys(SIZE_NAMES, 0)
        self.missing: list[str] = []

    def install(self):
        modules = _modules()
        readers: dict[tuple[str, str], list] = {}
        for module, cls, name, read in SIZES:
            readers.setdefault((module, cls), []).append((name, read))
        for (module, cls), fields in readers.items():
            if not _replace(modules, module, f"{cls}.__init__",
                            lambda fn, fields=fields: self._wrap(fields, fn)):
                self.missing.append(f"{module}.{cls}")

    def _wrap(self, fields, init):
        sizes = self.sizes

        @functools.wraps(init)
        def recorded(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for name, read in fields:
                try:
                    value = read(obj)
                except AttributeError:
                    continue
                sizes[name] = max(sizes[name], value)

        return recorded
