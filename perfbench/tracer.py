"""Per-layer tracing of the pathideal package from outside its source.

The tracer replaces each public function of the traced modules, in every
``pathideal.*`` namespace that has bound it, by a wrapper that records a
span: the function's inclusive time, and its self time (inclusive time minus
the inclusive time of the traced calls it made).  A function that
``rank_sparse`` reaches through ``betti`` or ``complexes`` is thus traced
whichever namespace the caller used.  Generator functions are not timed;
the wrapper counts the items they yield, and the work done while producing
an item lands in the self time of the span that asked for it.

Work counts come from the arguments and results of the wrapped calls.  Each
metric names the functions it reads; when none of them exists (a later
change deleted or renamed them), or a hook finds an argument it expects
missing, the metric is reported as absent instead of failing the pass.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable

# The layers are the package modules; `pathfamily` and `cli` cost next to
# nothing beyond import.
LAYERS = ("sweep", "betti", "complexes", "fields", "topology", "splitting", "monomials")

# Bit iteration is called per face and per generator in every layer; a
# wrapper there would cost more than the work it measures, so its time
# stays in the self time of its caller.
UNTRACED = {"monomials.iter_bits"}


def _field_tag(spec) -> str:
    return "qq" if spec.p is None else ("gf2" if spec.p == 2 else "gfp")


class Frame:
    __slots__ = ("key", "start", "child", "kids", "args", "kwargs")

    def __init__(self, key, start, args, kwargs):
        self.key = key
        self.start = start
        self.child = 0.0
        self.kids: list[str] = []
        self.args = args
        self.kwargs = kwargs


class Tracer:
    """Wraps the package's public functions and aggregates spans and counts."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.acc: dict[str, float] = defaultdict(int)
        self.present: set[str] = set()
        self.broken: set[str] = set()  # functions whose hook met an unexpected signature
        self._stack: list[Frame] = []
        self._saved: list[tuple[object, str, object]] = []
        self._params: dict[str, dict[str, tuple[int, object]]] = {}
        self._hooks: dict[str, Callable] = {
            "fields.rank_sparse": self._on_rank,
            "complexes.chain_complex_of_faces": self._on_build,
            "betti.betti_hochster": self._on_hochster,
            "betti.taylor_strand_complexes": self._on_taylor,
            "betti.betti_table": self._on_table,
            "topology.minimal_vertex_covers": self._on_covers,
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        namespaces = [mod for name, mod in sys.modules.items()
                      if mod is not None and (name == "pathideal" or name.startswith("pathideal."))]
        for layer in LAYERS:
            module = importlib.import_module(f"pathideal.{layer}")
            for name, fn in list(vars(module).items()):
                key = f"{layer}.{name}"
                if (name.startswith("_") or key in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self.present.add(key)
                self._params[key] = {
                    p.name: (i, p.default)
                    for i, p in enumerate(inspect.signature(fn).parameters.values())
                }
                wrapped = self._wrap(key, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._saved.append((ns, attr, fn))
                            setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()

    def _wrap(self, key: str, fn: Callable) -> Callable:
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            def counting(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    calls[key] += 1
                    yield item
            return counting

        stack = self._stack
        self_s = self.self_s
        hook = self._hooks.get(key)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = Frame(key, clock(), args, kwargs)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame.start
                stack.pop()
                self_s[key] += duration - frame.child
                calls[key] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.kids.append(key)
                    parent.child += duration
            if hook is not None:
                hook_start = clock()
                try:
                    hook(frame, result, duration, parent)
                except (LookupError, TypeError, AttributeError, ValueError):
                    self.broken.add(key)
                if parent is not None:
                    # the hook's own time stays out of the parent's self time
                    parent.child += clock() - hook_start
            return result

        return traced

    def _arg(self, frame: Frame, name: str):
        """The value the traced call received for parameter ``name``."""
        if name in frame.kwargs:
            return frame.kwargs[name]
        index, default = self._params[frame.key][name]
        if index < len(frame.args):
            return frame.args[index]
        if default is inspect.Parameter.empty:
            raise LookupError(name)
        return default

    # -- count hooks ---------------------------------------------------------

    def _on_rank(self, frame, result, duration, parent) -> None:
        tag = _field_tag(self._arg(frame, "field"))
        columns = self._arg(frame, "columns")
        acc = self.acc
        acc[f"fields.rank_s.{tag}"] += duration
        acc[f"fields.rank_calls.{tag}"] += 1
        acc[f"fields.rank_nnz.{tag}"] += sum(len(col) for col in columns)
        acc[f"fields.rank_cells.{tag}"] += self._arg(frame, "nrows") * len(columns)

    def _on_build(self, frame, result, duration, parent) -> None:
        self.acc["complexes.cells"] += sum(result.sizes)

    def _on_hochster(self, frame, result, duration, parent) -> None:
        ideal = self._arg(frame, "ideal")
        if self._arg(frame, "prune_cones"):
            unions = {0}
            for g in ideal.gen_masks():
                unions |= {u | g for u in unions}
            self.acc["betti.hochster_subsets"] += len(unions) - 1
        else:
            self.acc["betti.hochster_subsets"] += (1 << ideal.n) - 1

    def _on_taylor(self, frame, result, duration, parent) -> None:
        self.acc["betti.taylor_subsets"] += 1 << len(self._arg(frame, "ideal").gens)

    def _on_table(self, frame, result, duration, parent) -> None:
        if self._arg(frame, "method") == "auto":
            if "betti.betti_hochster" in frame.kids:
                self.acc["betti.route.hochster"] += 1
            elif "betti.betti_taylor_tor" in frame.kids:
                self.acc["betti.route.taylor"] += 1
        if parent is not None and parent.key.startswith("splitting."):
            self.acc["splitting.tables"] += 1

    def _on_covers(self, frame, result, duration, parent) -> None:
        self.acc["topology.covers_found"] += len(result)

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values and the names of the absent ones."""
        values: dict[str, float] = {}
        absent: list[str] = []
        for name, _, targets, source in PER_LAYER:
            if source == "layer":
                targets = [key for key in self.present if key.startswith(targets[0] + ".")]
            if not any(t in self.present for t in targets) or any(t in self.broken for t in targets):
                absent.append(name)
                values[name] = 0
            elif source in ("self", "layer"):
                values[name] = sum(self.self_s.get(t, 0.0) for t in targets)
            elif source == "calls":
                values[name] = sum(self.calls.get(t, 0) for t in targets)
            else:
                values[name] = self.acc.get(name, 0)
        return values, absent


# (metric, unit, functions it reads, source): "self" sums the self times of the
# functions, "layer" those of every traced function of the named layer,
# "calls" sums call or yield counts, "acc" reads the hook accumulator of the
# metric's name.
RANK = ["fields.rank_sparse"]
PER_LAYER: list[tuple[str, str, list[str], str]] = [
    *[(f"fields.rank_{what}.{tag}", unit, RANK, "acc")
      for what, unit in (("s", "s"), ("calls", "count"), ("nnz", "count"))
      for tag in ("gf2", "gfp", "qq")],
    ("fields.rank_cells.gfp", "count", RANK, "acc"),
    ("fields.rank_cells.qq", "count", RANK, "acc"),
    ("complexes.build_s", "s", ["complexes.chain_complex_of_faces"], "self"),
    ("complexes.builds", "count", ["complexes.chain_complex_of_faces"], "calls"),
    ("complexes.cells", "count", ["complexes.chain_complex_of_faces"], "acc"),
    ("complexes.homology_self_s", "s",
     ["complexes.homology_dims_of_faces", "complexes.reduced_homology_dims"], "self"),
    ("betti.hochster_self_s", "s", ["betti.betti_hochster"], "self"),
    ("betti.hochster_subsets", "count", ["betti.betti_hochster"], "acc"),
    ("betti.taylor_build_s", "s", ["betti.taylor_strand_complexes"], "self"),
    ("betti.taylor_subsets", "count", ["betti.taylor_strand_complexes"], "acc"),
    ("betti.taylor_self_s", "s", ["betti.betti_taylor_tor"], "self"),
    ("betti.route.hochster", "count", ["betti.betti_table", "betti.betti_hochster"], "acc"),
    ("betti.route.taylor", "count", ["betti.betti_table", "betti.betti_taylor_tor"], "acc"),
    ("topology.covers_s", "s", ["topology.minimal_vertex_covers", "topology.cover_complex"], "self"),
    ("topology.covers_found", "count", ["topology.minimal_vertex_covers"], "acc"),
    ("topology.fvp_s", "s", ["topology.free_vertex_property", "topology.has_free_vertex",
                             "topology.apply_assignment", "topology.path_free_vertex_property",
                             "topology.path_minor_free_vertex"], "self"),
    ("topology.minors_enumerated", "count", ["topology.minors"], "calls"),
    ("topology.shelling_s", "s", ["topology.find_shelling", "topology.is_shelling"], "self"),
    ("topology.seqcm_self_s", "s", ["topology.is_sequentially_cm"], "self"),
    ("splitting.self_s", "s", ["splitting"], "layer"),
    ("splitting.tables", "count", ["betti.betti_table"], "acc"),
    ("monomials.minimalize_s", "s", ["monomials.minimalize"], "self"),
    ("monomials.intersect_s", "s", ["monomials.ideal_intersect"], "self"),
    ("sweep.evaluate_self_s", "s", ["sweep.evaluate_instance"], "self"),
]
