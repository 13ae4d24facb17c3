"""Spans for the traced benchmark run.

A span records a layer name, start, end, parent span and pass id.  Spans are
kept in memory and written out once, when the run ends.  Layers are graphvar's
public functions, wrapped at run time by `Tracer.install` and restored by
`Tracer.uninstall`, so untraced passes run the unmodified functions and no
source file is edited.

Counters are derived from each call's arguments and result right after the
call returns.  The time spent deriving them is carved out of the enclosing
span and reported as `trace.count_s`, so layer self times still add up to the
traced pass time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import os
import sys
import time

perf = time.perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "pass_id",
                 "counts", "children", "carved", "note")

    def __init__(self, sid: int, name: str, parent: "Span | None", pass_id: int):
        self.id = sid
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.counts: dict = {}
        self.children: list[Span] = []
        self.carved = 0.0
        self.note = None  # per-call data an enclosing span's counter reads
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children) - self.carved

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent.id if self.parent else None,
                "pass": self.pass_id, "counts": self.counts}


def _popcount_diffs(graphs) -> int:
    """Disagreeing pairs summed over consecutive (start, end) graph pairs."""
    return sum((a.bits ^ b.bits).bit_count() for a, b in graphs)


def _perm_count(n: int, k_perm: int, gv) -> int:
    """Relabelings one batch uses: all n! when enumerable, else k_perm draws."""
    limit = getattr(gv.metrics, "EXACT_PERM_LIMIT", 5040)
    return math.factorial(n) if math.factorial(n) <= limit else k_perm


class Tracer:
    """Records spans around graphvar's public functions during traced passes."""

    def __init__(self, gv):
        self.gv = gv
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.pass_id = 0
        self.count_s = 0.0
        self.exact_digest = hashlib.sha256()  # of the pass being traced
        self.pass_digests: dict[int, str] = {}
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        sp = Span(len(self.spans), name, parent, self.pass_id)
        self.spans.append(sp)
        self.stack.append(sp)
        sp.start = perf()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = perf()
        self.stack.pop()
        if sp.parent is not None:
            sp.parent.children.append(sp)

    def root(self, pass_id: int):
        """Context manager for the span that covers one whole pass."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer.pass_id = pass_id
                tracer.exact_digest = hashlib.sha256()
                self.span = tracer._open("bench.pass")
                return self.span

            def __exit__(self, *exc):
                tracer._close(self.span)
                tracer.pass_digests[pass_id] = tracer.exact_digest.hexdigest()
                return False

        return _Root()

    def wrap(self, fn, name: str, counter=None):
        tracer = self
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a layer calling itself through another public name (simulate ->
            # simulate_edge_flip) stays one span
            if not tracer.stack or tracer.stack[-1].name == name:
                return fn(*args, **kwargs)
            sp = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sp)
            if counter is not None:
                t0 = perf()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, sp, bound.arguments, result)
                spent = perf() - t0
                tracer.count_s += spent
                if sp.parent is not None:
                    sp.parent.carved += spent
            return result

        return traced

    # -- installing wrappers ----------------------------------------------

    def _replace_everywhere(self, orig, wrapper) -> None:
        """Point every graphvar module attribute that holds `orig` at `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "graphvar" or mod_name.startswith("graphvar.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        gv = self.gv
        layers = [
            (gv.process, "simulate", "process.simulate", _count_events_result),
            (gv.process, "simulate_edge_flip", "process.simulate", _count_events_result),
            (gv.process, "simulate_graphon_jump", "process.simulate", _count_events_result),
            (gv.process, "save_path", "process.save_path", _count_save),
            (gv.process, "load_path", "process.load_path", _count_load),
            (gv.process, "snapshot", "process.snapshot", None),
            (gv.process, "jump_counts", "process.jump_counts", None),
            (gv.variation, "stopping_ladder", "variation.stopping_ladder", _count_ladder),
            (gv.variation, "variation_grid", "variation.relabel", _count_grid),
            (gv.variation, "variation_bound_check", "variation.relabel", _count_bound_check),
            (gv.metrics, "perm_prefix_power", "variation.relabel", _count_prefix_power),
            (gv.density, "limit_vector", "density.limit_vector", _count_limit_vector),
            (gv.density, "density_exact", "density.density_exact", _count_density_exact),
            (gv.density, "limit_metric", "density.limit_metric", None),
            (gv.cli, "main", "cli.analyze", None),
        ]
        for module, attr, name, counter in layers:
            orig = getattr(module, attr)
            self._replace_everywhere(orig, self.wrap(orig, name, counter))
        checks = gv.verify.CHECKS
        for check, fn in list(checks.items()):
            self._patches.append((checks, check, fn))
            checks[check] = self.wrap(fn, f"verify.{check}", _count_check)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write(self, file) -> None:
        with open(file, "w", encoding="ascii") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict(), sort_keys=True) + "\n")

    def summary(self, pass_ids) -> dict:
        """Per-pass mean of each layer's self time and counters."""
        wanted = set(pass_ids)
        k = max(len(wanted), 1)
        self_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        for sp in self.spans:
            if sp.pass_id not in wanted:
                continue
            self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.self_time
            incl[sp.name] = incl.get(sp.name, 0.0) + sp.duration
            calls[sp.name] = calls.get(sp.name, 0) + 1
            for key, v in sp.counts.items():
                counts[f"{sp.name}.{key}"] = counts.get(f"{sp.name}.{key}", 0) + v
        return {
            "self_s": {n: v / k for n, v in self_s.items()},
            "inclusive_s": {n: v / k for n, v in incl.items()},
            "calls": {n: v / k for n, v in calls.items()},
            "counts": {n: v / k for n, v in counts.items()},
        }


# -- counters ----------------------------------------------------------------

def _count_events_result(tr, sp, args, result):
    sp.counts["events"] = result.event_count


def _count_save(tr, sp, args, result):
    sp.counts["events"] = args["path"].event_count
    sp.counts["bytes"] = os.path.getsize(args["file"])


def _count_load(tr, sp, args, result):
    sp.counts["events"] = result.event_count
    sp.counts["bytes"] = os.path.getsize(args["file"])


def _count_ladder(tr, sp, args, result):
    sp.counts["events_scanned"] = args["path"].event_count
    sp.counts["rungs"] = len(result.taus) - 1
    sp.note = (result.p, _popcount_diffs(result.segments()))
    tr.exact_digest.update(repr((result.p, result.taus, result.type_a)).encode())


def _ladder_children(sp):
    return [c for c in sp.children if c.name == "variation.stopping_ladder"]


def _count_grid(tr, sp, args, result):
    ladders = _ladder_children(sp)
    exact = any(c.exact for c in result.cells)
    k = math.factorial(result.n) if exact else result.k_perm
    sp.counts["relabelings"] = k * len(ladders)
    sp.counts["pair_gathers"] = k * sum(c.note[1] for c in ladders)


def _count_bound_check(tr, sp, args, result):
    # the sup-grid ladders are scanned but not relabeled: count one ladder per
    # relabeled threshold
    diffs = {c.note[0]: c.note[1] for c in _ladder_children(sp)}
    k = _perm_count(args["path"].n, args["k_perm"], tr.gv)
    sp.counts["relabelings"] = k * len(args["ps"])
    sp.counts["pair_gathers"] = k * sum(diffs.get(p, 0) for p in args["ps"])


def _count_prefix_power(tr, sp, args, result):
    f, g = args["f"], args["g"]
    diff = (f.bits ^ g.bits).bit_count()
    k = _perm_count(f.n, args["k"], tr.gv) if diff else 0
    sp.counts["relabelings"] = k
    sp.counts["pair_gathers"] = k * diff


def _count_limit_vector(tr, sp, args, result):
    exact = [lv for lv in result.levels if lv.mode == "exact"]
    mc = len(result.levels) - len(exact)
    sp.counts["levels_exact"] = len(exact)
    sp.counts["levels_mc"] = mc
    sp.counts["exact_tuples"] = sum(lv.denominator for lv in exact)
    sp.counts["mc_samples"] = mc * args["n_samples"]
    for lv in exact:
        tr.exact_digest.update(repr((lv.n, lv.counts, lv.denominator)).encode())


def _count_density_exact(tr, sp, args, result):
    sp.counts["exact_tuples"] = math.perm(args["host"].n, args["pattern"].n)
    tr.exact_digest.update(repr((result.numerator, result.denominator)).encode())


def _count_check(tr, sp, args, result):
    sp.counts["failed"] = int(result.status == "fail")
