"""Per-layer spans and counts, recorded around calls into locco's modules.

``LAYERS`` names, for each per-layer time metric, the public functions and
methods whose self time it sums.  ``Tracer.install`` replaces each function
with a wrapper, in the module that defines it and in every locco module that
bound the same object by import (``locco.compare.assemble_matrix`` and so
on); a ``Class.method`` entry wraps that method on the class and on every
subclass in the same module that defines its own.  Nothing inside locco
changes; ``uninstall`` puts the originals back.  Only a traced run installs
the wrappers.

Each call records one span ``[name, start, end, parent, job]``, named after
the short module and the function (``homology.basis``).  A span's self time
is its duration minus that of its direct children, so the layer times below
add up to the traced job time without counting anything twice.  Counts are
taken at the same call boundaries.  Arithmetic in ``locco.coeff`` is called
millions of times and is left unwrapped; its cost stays in the callers' self
time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# per-layer time metric -> (defining module, function or Class.method) it sums
LAYERS = {
    "model.enumerate_s": (("locco.model", "CoverModel.diagonal_neighborhood"),
                          ("locco.model", "CoverModel.intersection_power"),
                          ("locco.model", "CoverModel.nerve"),
                          ("locco.model", "load_model")),
    "homology.basis_s": (("locco.homology", "ComplexSpec.basis"),),
    "homology.assemble_s": (("locco.homology", "assemble_matrix"),),
    "homology.rank_s": (("locco.homology", "matrix_rank"),),
    "homology.kernel_s": (("locco.homology", "kernel_basis"),
                          ("locco.homology", "rank_in_quotient")),
    "homology.snf_s": (("locco.homology", "smith_normal_form"),),
    "homology.cert_s": (("locco.homology", "check_smith_certificate"),),
    "homology.profile_s": (("locco.homology", "cohomology_profile"),
                           ("locco.homology", "field_cohomology"),
                           ("locco.homology", "integer_cohomology")),
    "compare.self_s": (("locco.compare", "verify_local_vs_cech"),
                       ("locco.compare", "verify_lambda_iso"),
                       ("locco.compare", "colimit_scan")),
    "compare.gate_s": (("locco.compare", "is_acyclic"),),
    "cochains.differential_s": (("locco.cochains", "local_differential"),
                                ("locco.cochains", "cech_coboundary"),
                                ("locco.cochains", "standard_differential"),
                                ("locco.cochains", "simplicial_coboundary")),
    "bicomplex.contraction_s": (("locco.bicomplex", "row_contraction"),
                                ("locco.bicomplex", "row_contraction_to_local"),
                                ("locco.bicomplex", "augment_local")),
    "bicomplex.page_s": (("locco.bicomplex", "random_page"),
                         ("locco.bicomplex", "first_hit_family"),
                         ("locco.bicomplex", "random_unity_family")),
    "loopfill.battery_s": (("locco.loopfill", "vector_battery"),
                           ("locco.loopfill", "path_battery")),
    "pou.construct_s": (("locco.pou", "rescue_partition"), ("locco.pou", "product_family"),
                        ("locco.pou", "ball_family")),
    "cli.self_s": (("locco.cli", "run"),),
}

LAYER_COUNTS = ("model.basis_elems", "homology.basis_repeats", "homology.assemble_repeats",
                "homology.nnz", "homology.rank_calls", "homology.snf_cells",
                "cochains.differential_calls", "cli.report_bytes")


def span_name(module: str, attr: str) -> str:
    """``("locco.model", "CoverModel.nerve")`` -> ``"model.nerve"``."""
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def _locco_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "locco" or name.startswith("locco."))]


class Tracer:
    """Spans and counts of one traced run, kept in memory until it ends."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.job = -1
        self._stack: list = []
        self._seen: dict = {}     # (what, id(owner), args) -> (owner, result), per job
        self._undo: list = []

    # -- jobs ------------------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self._seen.clear()

    def _first_result(self, key, owner, result) -> tuple:
        """(seen before, same object as before) for a result under ``key``.

        The owner is kept alive for the job so its id cannot be reused.
        """
        prior = self._seen.get(key)
        self._seen[key] = (owner, result)
        if prior is None:
            return False, False
        return True, prior[1] is result

    # -- hooks that turn results into counts --------------------------------------

    def _enumerated(self, name, args, kwargs, result):
        # a result object not handed out before for this call was enumerated
        model = args[0]
        key = (name, id(model), repr(args[1:]), repr(sorted(kwargs.items())))
        _, same = self._first_result(key, model, result)
        if not same:
            self.counts["model.basis_elems"] += len(result)

    def _basis(self, name, args, kwargs, result):
        spec, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
        seen, same = self._first_result(("basis", id(spec), n), spec, result)
        if seen and not same:
            self.counts["homology.basis_repeats"] += 1

    def _assembled(self, name, args, kwargs, result):
        spec, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
        seen, same = self._first_result(("assemble", id(spec), n), spec, result)
        if seen and not same:
            self.counts["homology.assemble_repeats"] += 1
        self.counts["homology.nnz"] += sum(len(row) for row in result.rows)

    def _ranked(self, name, args, kwargs, result):
        self.counts["homology.rank_calls"] += 1

    def _smith(self, name, args, kwargs, result):
        matrix = args[0] if args else kwargs["matrix"]
        self.counts["homology.snf_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)

    def _differential(self, name, args, kwargs, result):
        self.counts["cochains.differential_calls"] += 1

    def _hook(self, name):
        if name in ("model.diagonal_neighborhood", "model.intersection_power", "model.nerve"):
            return self._enumerated
        if name in {span_name(*e) for e in LAYERS["cochains.differential_s"]}:
            return self._differential
        return {"homology.basis": self._basis,
                "homology.assemble_matrix": self._assembled,
                "homology.matrix_rank": self._ranked,
                "homology.smith_normal_form": self._smith}.get(name)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, after = self.spans, self._stack, self._hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for entries in LAYERS.values():
            for module_name, attr in entries:
                module = importlib.import_module(module_name)
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    self._patch_methods(module, getattr(module, cls_name), method,
                                        span_name(module_name, attr))
                else:
                    self._patch_function(getattr(module, attr), span_name(module_name, attr))

    def _patch_function(self, original, name) -> None:
        wrapper = self._wrap(name, original)
        for mod in _locco_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_methods(self, module, base, attr, name) -> None:
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, base) and attr in vars(cls):
                original = vars(cls)[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def layer_metrics(self, passes: int) -> dict:
        """Every per-layer metric, per pass of the workload's job list."""
        selfs = self.self_times()
        out = {}
        for metric, entries in LAYERS.items():
            out[metric] = (sum(selfs.get(span_name(*e), 0.0) for e in entries) / passes, "s")
        for metric in LAYER_COUNTS:
            unit = "bytes" if metric == "cli.report_bytes" else "count"
            out[metric] = (self.counts.get(metric, 0) / passes, unit)
        return out
