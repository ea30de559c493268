"""Layer spans and counters, recorded from outside the program.

`Tracer.install()` replaces each public function named in `TARGETS` by a
wrapper, everywhere a caller looks it up: the defining module, every
`galois_span` module that imported it by name, and the class for methods.
Each wrapped call records a span (name, start, end, parent span, op id) in
memory; a layer's self time is its span time minus the time of its wrapped
children.  A few layers also update exact counters (matrix sizes, result
sizes, refusals, cache misses) from their arguments and results; work a
counter needs beyond that is deferred to `finish()`, after the pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# "<module>:<qualified name>"; the metric prefix is "<module>.<function>"
TARGETS = (
    "linalg:det_int",
    "linalg:det_int_poly_matrix",
    "graphs:SerreGraph.spanning_tree_count",
    "graphs:SerreGraph.ihara_h_poly",
    "covers:intermediate_kappa",
    "covers:intermediate_graph",
    "covers:derived_graph",
    "covers:random_connected_voltage",
    "groups:all_subgroups",
    "groups:are_conjugate_subgroups",
    "groups:cyclic_subgroups",
    "groups:parse_group_spec",
    "characters:character_table",
    "characters:is_exceptional",
    "characters:is_irreducibly_represented",
    "posets:mobius",
    "posets:kernel_poset",
    "posets:cyclic_poset",
    "lfunctions:h_poly",
    "theorems:verify_kuroda",
    "theorems:verify_brauer_kuroda",
    "theorems:verify_hmsv",
    "cli:main",
)

OP_SPAN = "op"


def layer_name(target: str) -> str:
    module, _, qualname = target.partition(":")
    return f"{module}.{qualname.rpartition('.')[2]}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, int] = defaultdict(int)
        # objects are kept alive so that their id() cannot be reused within a pass
        self._kappa_args: dict[tuple[int, tuple[int, ...]], tuple[object, object]] = {}
        self._tables: dict[int, object] = {}

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op = op_id
        return self.begin(OP_SPAN)

    def finish(self) -> dict[str, int]:
        """The counters, after the work deferred out of the timed calls."""
        # distinct (cover, conjugacy class of H): the work a kappa cache keyed by
        # class would still do
        classes = set()
        for (cover_id, _), (_, h) in self._kappa_args.items():
            g = h.parent
            conjugates = (tuple(sorted(g.conj(x, a) for a in h.elements)) for x in range(g.order))
            classes.add((cover_id, min(conjugates)))
        self.counters["covers.intermediate_kappa.distinct"] = len(classes)
        return dict(self.counters)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("galois_span")]
        for target in TARGETS:
            module_name, _, qualname = target.partition(":")
            module = sys.modules[f"galois_span.{module_name}"]
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self._wrap(layer_name(target), original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(index)
                if hook is not None:
                    hook(args, None, exc)
                raise
            self.end(index)
            if hook is not None:
                hook(args, result, None)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- counters (called after the span closes) -----------------------------

    def _max(self, key: str, value: int) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    def _count_linalg_det_int(self, args, result, exc):
        self._max("linalg.det_int.dim_max", len(args[0]))
        if exc is None:
            self._max("linalg.det_int.result_bits_max", abs(result).bit_length())

    def _count_linalg_det_int_poly_matrix(self, args, result, exc):
        self._max("linalg.det_int_poly_matrix.dim_max", len(args[0]))

    def _count_covers_intermediate_kappa(self, args, result, exc):
        cover, h = args[0], args[1]
        self._kappa_args.setdefault((id(cover), h.elements), (cover, h))

    def _count_covers_intermediate_graph(self, args, result, exc):
        if exc is None:
            self.counters["covers.intermediate_graph.vertices"] += result.graph.vertex_count

    def _count_covers_derived_graph(self, args, result, exc):
        if exc is None:
            self.counters["covers.derived_graph.vertices"] += result.derived.vertex_count

    def _count_covers_random_connected_voltage(self, args, result, exc):
        from galois_span.errors import GaloisSpanError

        if isinstance(exc, GaloisSpanError):
            self.counters["covers.random_connected_voltage.refusals"] += 1

    def _count_groups_all_subgroups(self, args, result, exc):
        if exc is None:
            self.counters["groups.all_subgroups.subgroups"] += len(result)

    def _count_characters_character_table(self, args, result, exc):
        # a cache hands back an object it returned before; anything new was computed
        if exc is None and id(result) not in self._tables:
            self._tables[id(result)] = result
            self.counters["characters.character_table.misses"] += 1
