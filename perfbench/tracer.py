"""Outside-in layer trace for pgconics.

A Tracer wraps public functions of each pgconics module (the layers:
galois, projgeom, conics, bruckbose, reconstruct, cli with report) for the
duration of a `with` block.  Each wrapper counts calls and, where asked,
adds the call's wall time to the layer's busy time.  Nothing under src/ is
changed: modules import most names with `from .x import y`, so a module
function is replaced under every name that refers to it in any pgconics
module, and a method is replaced on its class.  The originals are put back
when the block exits.

Busy times are summed over threads, so with a thread pool a name's time can
exceed wall time; they are inclusive of nested calls into other layers.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter

COUNT, TIME, GENERATOR = "count", "time", "generator"


def _targets():
    """(metric prefix, owner, attribute, kind, items) for every wrapped name.

    `items(args, result)` returns the work size a call handled, summed into
    the metric named by the prefix and the item unit.
    """
    from pgconics import bruckbose, cli, conics, galois, projgeom, reconstruct, report

    return (
        ("galois.field_build", galois.Field, "__init__", TIME, None),
        ("galois.field_build", galois.Field, "_quadratic", TIME, None),
        ("galois.dot", galois.Field, "dot", COUNT, None),
        ("bruckbose.build_frame", bruckbose, "build_frame", TIME, None),
        ("bruckbose.forward", bruckbose, "random_tangent_conic", TIME, None),
        ("bruckbose.forward", bruckbose, "build_C", TIME, None),
        ("conics.is_arc", conics, "is_arc", TIME, None),
        ("conics.complete_q_arc", conics, "complete_q_arc", TIME, None),
        ("conics.conic_through_5", conics, "conic_through_5", COUNT, None),
        ("projgeom.group_rows", projgeom, "group_rows", TIME,
         ("rows", lambda args, res: len(args[0]))),
        ("projgeom.reduce_rows_np", projgeom, "reduce_rows_np", TIME, None),
        ("projgeom.normalize_rows_np", projgeom, "normalize_rows_np", TIME, None),
        ("projgeom.scan_heavy_planes", projgeom, "scan_heavy_planes", TIME,
         ("planes", lambda args, res: len(res.planes))),
        ("projgeom.rref", projgeom, "rref", TIME, None),
        ("projgeom.span", projgeom, "span", COUNT, None),
        ("projgeom.Subspace.meet", projgeom.Subspace, "meet", COUNT, None),
        ("projgeom.Subspace.contains", projgeom.Subspace, "contains", COUNT, None),
        ("projgeom.Subspace.points", projgeom.Subspace, "points", TIME,
         ("points", lambda args, res: len(res))),
        ("projgeom.subspaces", projgeom.ProjectiveSpace, "subspaces", GENERATOR, None),
        ("reconstruct.residual_groups", reconstruct, "_residual_groups", COUNT, None),
        ("reconstruct.tangent_trace", reconstruct, "tangent_trace", TIME, None),
        ("reconstruct.regulus_from", reconstruct, "regulus_from", TIME, None),
        ("reconstruct.plucker", reconstruct, "plucker", COUNT, None),
        ("reconstruct.align_spreads", reconstruct, "align_spreads", TIME, None),
        ("cli.parse_c_dump", cli, "parse_c_dump", TIME, None),
        ("cli.report", report.Report, "to_json", TIME, None),
    )


class Tracer:
    """Counters and busy times per layer name, collected inside `with tracer:`.

    Call counts are final once the block has exited.
    """

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.items = Counter()
        self.scan_reduce_calls = 0
        self._in_scan = False
        self._counters = {}  # prefix -> itertools.count, advanced once per call
        self._lock = threading.Lock()
        self._patched = []  # (module or class, attribute, original object)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, prefix, fn, kind, items):
        # next() on an itertools.count is one C call, so it counts without a
        # lock even from the uniqueness stage's worker threads; a lock per call
        # would double the time of Field.dot.
        tick = functools.partial(next, self._counters.setdefault(prefix, itertools.count()))
        lock, seconds, counted = self._lock, self.seconds, self.items

        if kind == COUNT:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)
            return counting

        if kind == GENERATOR:
            key = prefix + ".yielded"

            @functools.wraps(fn)
            def generating(*args, **kwargs):
                tick()
                for item in fn(*args, **kwargs):
                    with lock:
                        counted[key] += 1
                    yield item
            return generating

        item_key = f"{prefix}.{items[0]}" if items else None
        is_scan = prefix == "projgeom.scan_heavy_planes"
        is_reduce = prefix == "projgeom.reduce_rows_np"

        @functools.wraps(fn)
        def timing(*args, **kwargs):
            tick()
            # scan_heavy_planes runs on one thread while nothing else reduces
            # rows, so the reduce calls made during it are its own.
            if is_scan:
                self._in_scan = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if is_scan:
                    self._in_scan = False
                with lock:
                    seconds[prefix] += dt
                    if is_reduce and self._in_scan:
                        self.scan_reduce_calls += 1
            if item_key:
                n = items[1](args, result)
                with lock:
                    counted[item_key] += n
            return result
        return timing

    # -- install / restore -----------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pgconics" or name.startswith("pgconics.")]
        try:
            for prefix, owner, attr, kind, items in _targets():
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self._wrap(prefix, original.__func__, kind, items))
                    else:
                        wrapped = self._wrap(prefix, original, kind, items)
                    self._patch(owner, attr, original, wrapped)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(prefix, original, kind, items)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        # count(n) yields n, the number of calls ticked so far
        self.calls = Counter({prefix: next(c) for prefix, c in self._counters.items()})
        return False

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """Every layer metric as {name: (value, unit)}, zero where never called."""
        out = {}
        for prefix, _owner, _attr, kind, items in _targets():
            if kind == GENERATOR:
                key = prefix + ".yielded"
                out[key] = (self.items[key], "count")
                continue
            out[prefix + ".calls"] = (self.calls[prefix], "count")
            if kind == TIME:
                out[prefix + ".ms"] = (self.seconds[prefix] * 1000.0, "ms")
            if items:
                key = f"{prefix}.{items[0]}"
                out[key] = (self.items[key], "count")
        planes = self.items["projgeom.scan_heavy_planes.planes"]
        ratio = planes / self.scan_reduce_calls if self.scan_reduce_calls else 0.0
        out["projgeom.scan.planes_per_line_scan"] = (ratio, "ratio")
        return out

