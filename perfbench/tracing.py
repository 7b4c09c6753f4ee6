"""In-memory spans around the library's public functions, installed from outside.

A :class:`Tracer` wraps each listed function in a span (id, parent, request,
name, start, end, self time) kept on an in-memory stack.  Every module of the
package that holds a reference to the original function gets the wrapper, so
calls are seen where the name is looked up (``rounding.reduce_to_ido``,
``fbta.require_valid``, ``split.make_tree``) and not only where it is defined.
A listed name that no longer exists is reported as absent; it is not an error.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from types import ModuleType

# (module, qualified name) of every function that gets a span.  A dotted name
# is a method, patched on its class.
TRACED = (
    ("model", "require_valid"),
    ("model", "compute_subsidies"),
    ("model", "parse_instance"),
    ("model", "serialize_instance"),
    ("ido", "reduce_to_ido"),
    ("ido", "lift_allocation"),
    ("ido", "is_ido"),
    ("fbta", "fbta"),
    ("fbta", "fractional_items"),
    ("graph", "build_graph"),
    ("graph", "trees"),
    ("graph", "make_tree"),
    ("split", "simple_split"),
    ("split", "atom_path_split"),
    ("split", "choose_attachment"),
    ("rounding", "run_pipeline"),
    ("rounding", "round_tree"),
    ("rounding", "round_pair"),
    ("rounding", "round_single_edge"),
    ("rounding", "round_expanded_atom_path"),
    ("rounding", "integralize"),
    ("rounding", "RoundingCertificate.to_json"),
    ("oracle", "brute_force_rounding"),
)

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, name in TRACED)


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores every patch."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.spans: list[tuple[int, int, int, str, int, int, int]] = []
        self.absent: list[str] = []
        self.request = -1
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append(
                    (frame[0], parent, self.request, name, frame[1], end, duration - frame[2])
                )

        return spanned

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        modules = [
            mod
            for key, mod in sys.modules.items()
            if isinstance(mod, ModuleType)
            and (key == self.package or key.startswith(self.package + "."))
        ]
        for mod_name, qualname in TRACED:
            span_name = f"{mod_name}.{qualname}"
            home = sys.modules.get(f"{self.package}.{mod_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                cls = getattr(home, cls_name, None)
                original = vars(cls).get(attr) if isinstance(cls, type) else None
                if not callable(original):
                    self.absent.append(span_name)
                    continue
                self._patch(cls, attr, self._wrap(span_name, original))
                continue
            original = getattr(home, qualname, None)
            if not callable(original):
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON array per span: id, parent, request, name, start, end, self (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
