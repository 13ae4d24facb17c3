"""The three benchmark workloads: inputs, one pass, and the per-pass gate.

Each workload object is built from the workload seed (that is its set-up),
then `run_pass()` does one timed pass through graphvar's public functions and
`check(out)` returns the list of reasons the pass is wrong (empty when it is
right) plus the digest of the pass's exact outputs.  The gates use only facts
that any correct implementation must satisfy; they never compare against
graphvar's own internals.

Functions are looked up on their module at call time (`gv.process.save_path`)
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

# Sizes are chosen so one pass takes a few seconds on a 2-core host and a
# 30 s run holds several passes; see perfbench/README.md for the shares.
SIZES = {
    "full": {
        "ingest": {"n": 224, "rate": 4.0, "graphon_n": 128, "graphon_rate": 3.0},
        "analyze": {"n": 256, "rate": 1.0},
        "verify": {"only": None},
    },
    # smoke-run sizes: every layer still runs, in well under a second
    "tiny": {
        "ingest": {"n": 40, "rate": 2.0, "graphon_n": 24, "graphon_rate": 3.0},
        "analyze": {"n": 40, "rate": 1.0},
        "verify": {"only": "roundtrip"},
    },
}

# The graphon-jump path is conditioned on this many global ticks (the mode
# of Poisson(3)), so every seed does the same amount of batch work.
GRAPHON_TICKS = 3

# Checks the repository's acceptance gate requires to pass cleanly at every
# seed; the other verify checks are statistical and may fail at some seeds.
ZERO_TOLERANCE_CHECKS = (
    "determinism-roundtrip",
    "limit-tv-bound",
    "lipschitz-margin",
    "weight-classification",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(file) -> str:
    with open(file, "rb") as fh:
        return _sha(fh.read())


def _pair_ids(n: int, edge_i, edge_j) -> np.ndarray:
    """Row-major index of the 1-indexed pair (i, j), i < j."""
    u = np.asarray(edge_i, dtype=np.int64) - 1
    j = np.asarray(edge_j, dtype=np.int64) - 1
    return u * n - u * (u + 1) // 2 + (j - u - 1)


def replay_states(path, taus):
    """Pair vectors of the path at each (ascending) time, right-continuous.

    An independent reference for `snapshot`: events up to and including tau
    are replayed in order and the last value per pair wins.
    """
    pids = _pair_ids(path.n, path.edge_i, path.edge_j)
    vals = np.asarray(path.values, dtype=np.uint8)
    times = np.asarray(path.times)
    state = path.initial.to_pair_vector().astype(np.uint8)
    pos = 0
    for tau in taus:
        k = int(np.searchsorted(times, tau, side="right"))
        if k > pos:
            rev = pids[pos:k][::-1]
            uniq, first = np.unique(rev, return_index=True)
            state[uniq] = vals[pos:k][::-1][first]
            pos = k
        yield state.astype(bool)


class Ingest:
    """simulate -> save_path -> load_path -> np_profile -> snapshot -> jump_counts."""

    name = "ingest"

    def __init__(self, gv, seed: int, size: dict, workdir: str):
        self.gv = gv
        self.p_grid = tuple(gv.config.RunConfig().p_grid)
        self.specs = [
            ("edge-flip", "edge-flip", size["n"], [seed, 1],
             {"rate": size["rate"], "init_density": 0.5}),
        ]
        params = {"grids": [[[0.5]]], "global_rate": size["graphon_rate"]}
        for k in range(1000):
            sub = [seed, 2, k]
            g = gv.process.simulate("graphon-jump", size["graphon_n"], 1.0, sub, params)
            if np.unique(g.times).size == GRAPHON_TICKS:
                self.specs.append(("graphon-jump", "graphon-jump", size["graphon_n"], sub, params))
                break
        else:
            raise RuntimeError("no graphon-jump sub-seed with the wanted tick count")
        self.files = {label: os.path.join(workdir, f"ingest-{label}.jsonl")
                      for label, *_ in self.specs}
        self.recheck = os.path.join(workdir, "ingest-resave.jsonl")
        self.resaved: set[str] = set()

    def run_pass(self):
        P, V = self.gv.process, self.gv.variation
        out = []
        for label, model, n, seed, params in self.specs:
            path = P.simulate(model, n, 1.0, seed, params)
            f = self.files[label]
            P.save_path(path, f)
            loaded = P.load_path(f)
            profile = V.np_profile(loaded, self.p_grid)
            final = P.snapshot(loaded, loaded.horizon)
            jumps = P.jump_counts(loaded)
            out.append((label, path, loaded, profile, final, jumps))
        return out

    def events(self, out) -> int:
        return sum(path.event_count for _, path, *_ in out)

    def check(self, out):
        errors, parts = [], []
        for label, path, loaded, profile, final, jumps in out:
            saved = _file_sha(self.files[label])
            if loaded != path:
                errors.append(f"{label}: load_path(save_path(p)) != p")
            if label not in self.resaved:
                # saving the loaded path again must give the same bytes; later
                # passes are held to the first pass's bytes by the digest
                self.gv.process.save_path(loaded, self.recheck)
                if _file_sha(self.recheck) != saved:
                    errors.append(f"{label}: saving the loaded path changed the bytes")
                os.remove(self.recheck)
                self.resaved.add(label)
            errors += self._check_ladders(label, path, profile)
            (at_end,) = replay_states(path, [path.horizon])
            if not np.array_equal(final.to_pair_vector().astype(bool), at_end):
                errors.append(f"{label}: snapshot(horizon) differs from the replay")
            ref = np.bincount(_pair_ids(path.n, path.edge_i, path.edge_j),
                              minlength=path.n * (path.n - 1) // 2)
            if not np.array_equal(np.asarray(jumps.counts), ref):
                errors.append(f"{label}: jump_counts differ from the event tally")
            parts.append({
                "label": label, "saved_sha256": saved,
                "ladder": [[repr(r.p), r.n_p, repr(r.product), r.type_a_count]
                           for r in profile.rows],
                "taus": [[repr(t) for t in lad.taus] for lad in profile.ladders],
                "skipped": [repr(p) for p in profile.skipped],
                "jump_counts_sha256": _sha(np.asarray(jumps.counts, dtype=np.int64).tobytes()),
                "final_edges": int(final.to_pair_vector().sum()),
            })
        return errors, _sha(json.dumps(parts, sort_keys=True).encode())

    def _check_ladders(self, label, path, profile):
        """Every anchor equals the path at its tau; one replay serves all ladders."""
        errors = []
        items = []
        for lad in profile.ladders:
            if len(lad.anchors) != len(lad.taus):
                errors.append(f"{label}: p={lad.p}: {len(lad.anchors)} anchors "
                              f"for {len(lad.taus)} taus")
            else:
                items += [(tau, lad.p, k, a) for k, (tau, a) in enumerate(zip(lad.taus, lad.anchors))]
        items.sort(key=lambda it: it[0])
        bad = set()
        for (tau, p, k, anchor), ref in zip(items, replay_states(path, [it[0] for it in items])):
            if p not in bad and not np.array_equal(anchor.to_pair_vector().astype(bool), ref):
                errors.append(f"{label}: p={p}: anchor {k} at tau={tau!r} differs from "
                              "the path at tau")
                bad.add(p)
        return errors


def _sections(text: str) -> dict[str, list[list[str]]]:
    """CSV rows of each '# name' section; comment lines inside are dropped."""
    out: dict[str, list[str]] = {}
    cur = None
    for line in text.splitlines():
        if line.startswith("# "):
            word = line[2:].split()[0]
            if word in ("ladder", "variation", "tv"):
                cur = word
                out[cur] = []
            continue
        if cur is not None:
            out[cur].append(line)
    return {k: list(csv.reader(io.StringIO("\n".join(v)))) for k, v in out.items()}


class Analyze:
    """`graphvar analyze --path FILE --out TABLES` with default flags, in-process."""

    name = "analyze"

    def __init__(self, gv, seed: int, size: dict, workdir: str):
        self.gv = gv
        self.cfg = gv.config.RunConfig()
        path = gv.process.simulate("edge-flip", size["n"], 1.0, [seed, 3],
                                   {"rate": size["rate"], "init_density": 0.5})
        self.n = path.n
        self.input_events = path.event_count
        self.input = os.path.join(workdir, f"analyze-input-{os.getpid()}.jsonl")
        self.output = os.path.join(workdir, f"analyze-tables-{os.getpid()}.csv")
        gv.process.save_path(path, self.input)
        self.first_text = None

    def run_pass(self):
        code = self.gv.cli.main(["analyze", "--path", self.input, "--out", self.output])
        with open(self.output, "r", encoding="ascii") as fh:
            return code, fh.read()

    def events(self, out) -> int:
        return self.input_events

    def check(self, out):
        code, text = out
        errors = []
        if code != 0:
            errors.append(f"analyze exited {code}")
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            errors.append("tables differ from the first pass of this seed")
        sec = _sections(text)
        for name in ("ladder", "variation", "tv"):
            if len(sec.get(name, [])) < 2:
                errors.append(f"section '# {name}' missing or empty")
        if errors:
            return errors, _sha(text.encode())
        ladder = {float(r[0]): int(r[1]) for r in sec["ladder"][1:]}
        sup = max(p * n_p for p, n_p in ladder.items())
        errors += self._check_variation(sec["variation"][1:], ladder, sup)
        errors += self._check_tv(sec["tv"][1:], ladder)
        ladder_text = "\n".join(",".join(r) for r in sec["ladder"])
        return errors, _sha(ladder_text.encode())

    def _check_variation(self, rows, ladder, sup):
        errors = []
        alphas = {float(r[2]) for r in rows}
        for a in alphas:
            if not a > 2.0:
                errors.append(f"alpha {a} outside the bound's range (alpha > 2)")
        const = {a: sum(m ** (1.0 - a) for m in range(1, self.n + 1)) for a in alphas}
        if {float(r[0]) for r in rows} != set(ladder):
            errors.append("variation thresholds differ from the ladder thresholds")
        for r in rows:
            p, a, value, se = float(r[0]), float(r[2]), float(r[3]), float(r[4])
            if not (math.isfinite(value) and math.isfinite(se) and value >= 0 and se >= 0):
                errors.append(f"variation cell {r} is not finite and nonnegative")
            elif a > 2.0 and value > const[a] * sup + 3 * se:
                errors.append(f"variation cell {r} exceeds C_n(alpha) * sup p n_p + 3 SE")
        return errors

    def _check_tv(self, rows, ladder):
        cfg, gv = self.cfg, self.gv
        weights = gv.density.weight_family(cfg.weight_family)
        pairs = [k * (k - 1) // 2 for k in range(cfg.n_max + 1)]
        s_const = sum(weights(k) * pairs[k] * 2 ** pairs[k] for k in range(1, cfg.n_max + 1))
        # A Monte Carlo row gets at most 3 SE per vector per step; per level
        # the summed pattern SEs are at most sqrt(slots / samples)
        per_step = sum(2 * weights(k) * math.sqrt(2 ** pairs[k] / cfg.k_inj)
                       for k in range(1, cfg.n_max + 1))
        errors = []
        if {float(r[0]) for r in rows} != set(ladder):
            errors.append("tv thresholds differ from the ladder thresholds")
        for r in rows:
            p, n_p, tv, bound = float(r[0]), int(r[1]), float(r[2]), float(r[3])
            want = p * n_p * s_const
            if n_p != ladder.get(p):
                errors.append(f"tv row {r}: n_p differs from the ladder")
            if not math.isclose(bound, want, rel_tol=1e-9):
                errors.append(f"tv row {r}: bound is not p * n_p * S = {want!r}")
            allowance = 3.0 * n_p * per_step if r[5] == "mc" else 0.0
            if not (math.isfinite(tv) and 0.0 <= tv <= want + allowance):
                errors.append(f"tv row {r}: movement exceeds bound + allowance {allowance:.4g}")
        return errors


def _exact_leaves(obj):
    """Integers, booleans and strings of a report's details; floats dropped."""
    if isinstance(obj, dict):
        return {k: _exact_leaves(v) for k, v in sorted(obj.items())
                if not isinstance(v, float)}
    if isinstance(obj, list):
        return [_exact_leaves(v) for v in obj if not isinstance(v, float)]
    return obj


class Verify:
    """`run_verification(RunConfig(seed=S))` over every check."""

    name = "verify"

    def __init__(self, gv, seed: int, size: dict, workdir: str):
        self.gv = gv
        self.cfg = gv.config.RunConfig(seed=seed)
        self.only = size["only"]
        self.first_report = None
        self.verdicts: dict[str, str] = {}

    def run_pass(self):
        return self.gv.verify.run_verification(self.cfg, only=self.only)

    def events(self, out) -> int:
        return 0

    def check(self, report):
        errors = []
        statuses = {c.name: c.status for c in report.checks}
        self.verdicts = statuses
        expected = set(self.gv.verify.CHECKS) if self.only is None else set(statuses)
        if set(statuses) != expected:
            errors.append(f"report covers {sorted(statuses)}, expected {sorted(expected)}")
        for name, status in statuses.items():
            if status == "skipped":
                errors.append(f"check {name} was skipped")
            elif name in ZERO_TOLERANCE_CHECKS and status != "pass":
                errors.append(f"zero-tolerance check {name} is {status}")
        canon = json.dumps(report.canonical_dict(), sort_keys=True)
        if self.first_report is None:
            self.first_report = canon
        elif canon != self.first_report:
            errors.append("report differs from the first pass of this seed")
        exact = [{"name": c.name, "details": _exact_leaves(c.details)} for c in report.checks]
        return errors, _sha(json.dumps(exact, sort_keys=True).encode())


WORKLOADS = {w.name: w for w in (Ingest, Analyze, Verify)}
