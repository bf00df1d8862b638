"""Per-layer tracing of leibhom from outside the package.

`Tracer.install()` wraps the public functions listed in TARGETS at every
place they are bound: the defining module, every leibhom module that
imported them by name (homology imports restrict_map, kernel_basis,
column_span and quotient_projection that way), the package namespace, and
class attributes (Matrix.__matmul__ is an alias of Matrix.mul made when the
class was created, so patching `mul` alone would miss the `@` in the d o d
gate).  Bindings are found by object identity, so a new import site is
picked up without listing it here.  `uninstall()` puts every original back.

Each wrapped call records calls, inclusive time and self time (inclusive
minus the time of wrapped calls inside it), plus a few size counts.  The
tracer's own bookkeeping is excluded from every span, so it shows up only
in the traced run's wall time (trace.overhead), not in a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer, module, attribute path).  Several targets may share a layer.
TARGETS = (
    ("exactla.rank", "leibhom.exactla", "rank"),
    ("exactla.mul", "leibhom.exactla", "Matrix.mul"),
    ("exactla.apply", "leibhom.exactla", "Matrix.apply"),
    ("exactla.from_entries", "leibhom.exactla", "Matrix.from_entries"),
    ("exactla.coords", "leibhom.exactla", "Subspace.coords"),
    ("exactla.span", "leibhom.exactla", "Subspace.from_spanning_columns"),
    ("exactla.span", "leibhom.exactla", "column_span"),
    ("exactla.kernel_basis", "leibhom.exactla", "kernel_basis"),
    ("exactla.restrict_map", "leibhom.exactla", "restrict_map"),
    ("homology.build", "leibhom.homology", "loday_complex"),
    ("homology.build", "leibhom.homology", "loday_cochain_complex"),
    ("homology.build", "leibhom.homology", "ce_chain"),
    ("homology.build", "leibhom.homology", "ce_cochain"),
    ("homology.build", "leibhom.homology", "fg_subcomplex"),
    ("homology.build", "leibhom.homology", "fg_weight_complex"),
    ("homology.gate", "leibhom.homology", "ChainComplex.__post_init__"),
    ("homology.compare", "leibhom.homology", "ce_projection"),
    ("homology.conjecture", "leibhom.homology", "conjecture_check"),
    ("pbw.normal_form", "leibhom.pbw", "PBWAlgebra.normal_form"),
    ("dgla.minimal_envelope", "leibhom.dgla", "minimal_envelope"),
    ("freealg.graded_commutator", "leibhom.freealg", "graded_commutator"),
    ("freealg.bracket", "leibhom.freealg", "FreeLeibnizTruncation.bracket"),
    ("freealg.bracket", "leibhom.freealg", "FreeLeibnizTruncation.bracket_words"),
    ("freealg.bracket", "leibhom.freealg", "FreeLeibnizTruncation.bracket_left"),
    ("freealg.component", "leibhom.freealg", "free_graded_lie_component"),
    ("leibcore.lie_quotient", "leibhom.leibcore", "lie_quotient"),
    ("leibcore.checks", "leibhom.leibcore", "check_leibniz"),
    ("leibcore.checks", "leibhom.leibcore", "check_lie"),
    ("leibcore.checks", "leibhom.leibcore", "check_representation"),
    ("leibcore.checks", "leibhom.leibcore", "check_lie_module"),
    ("cli.parse", "leibhom.cli", "parse_algebra"),
    ("cli.parse", "leibhom.cli", "parse_representation"),
    ("cli.parse", "leibhom.cli", "parse_lie_module"),
    ("cli.emit", "leibhom.cli", "emit_report"),
    ("cli", "leibhom.cli", "entrypoint"),
)


def _nnz(m) -> int:
    return sum(1 for row in m.entries for x in row if x)


class _Layer:
    __slots__ = ("calls", "incl_s", "self_s", "cells", "nnz", "repeats", "max_dim", "seen")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.cells = 0
        self.nnz = 0
        self.repeats = 0
        self.max_dim = 0
        self.seen = {}

    def observe(self, layer: str, args: tuple, result) -> None:
        """Size counts, taken outside the timed span."""
        if layer == "exactla.rank":
            m = args[0]
            self.cells += m.rows * m.cols
            self.nnz += _nnz(m)
            # identity, not equality: a rank cache on the complex would
            # remove exactly these calls; holding m keeps its id unique
            if id(m) in self.seen:
                self.repeats += 1
            self.seen[id(m)] = m
        elif layer == "exactla.mul":
            a, b = args[0], args[1]
            self.cells += a.rows * a.cols + b.rows * b.cols
        elif layer == "exactla.from_entries":
            rows, cols, entries = args[0], args[1], args[2]
            self.cells += rows * cols
            self.nnz += sum(1 for v in entries.values() if v)
        elif layer == "homology.build":
            self.max_dim = max(self.max_dim, max(result.dims, default=0))


class Tracer:
    def __init__(self):
        self.layers: dict[str, _Layer] = {}
        self._patched: list[tuple[object, str, object]] = []
        # one frame per open wrapped call: time spent in wrapped children
        self._stack: list[float] = []

    def _wrap(self, layer: str, fn):
        rec = self.layers.setdefault(layer, _Layer())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            w0 = clock()
            stack.append(0.0)
            try:
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    children = stack.pop()
                    rec.calls += 1
                    rec.incl_s += t1 - t0
                    rec.self_s += t1 - t0 - children
                rec.observe(layer, args, result)
                return result
            finally:
                # the caller's span loses this whole call, bookkeeping included
                if stack:
                    stack[-1] += clock() - w0

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for _, module, _ in TARGETS:
            importlib.import_module(module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "leibhom" or name.startswith("leibhom."))]
        owners = list(modules)
        for m in modules:
            for val in vars(m).values():
                if isinstance(val, type) and val.__module__.startswith("leibhom") \
                        and val not in owners:
                    owners.append(val)
        for layer, module, path in TARGETS:
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(layer, fn)
            for place in owners:
                for name, val in list(vars(place).items()):
                    if val is fn:
                        self._patched.append((place, name, val))
                        setattr(place, name, wrapped)
                    elif isinstance(val, staticmethod) and val.__func__ is fn:
                        self._patched.append((place, name, val))
                        setattr(place, name, staticmethod(wrapped))

    def uninstall(self) -> None:
        while self._patched:
            place, name, val = self._patched.pop()
            setattr(place, name, val)

    def stats(self) -> dict[str, dict]:
        return {layer: {"calls": r.calls, "incl_s": r.incl_s, "self_s": r.self_s,
                        "cells": r.cells, "nnz": r.nnz, "repeats": r.repeats,
                        "max_dim": r.max_dim}
                for layer, r in self.layers.items()}
