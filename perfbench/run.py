"""Benchmark graphvar end to end on the ingest, analyze and verify workloads.

    python3 perfbench/run.py --workload ingest|analyze|verify --seed N \\
        --seconds R --trace 0|1 [--scale full|tiny]

Run from the root of a graphvar checkout; graphvar is imported from `src/`.
The set-up (import graphvar, build the inputs from the seed) is measured in
three fresh processes and reported as its median.  The last of them then runs
passes back to back for R seconds (see worker.py), checking every pass.

The gated pass-time metric is rel_pass_time: each pass's time over the time
of a fixed reference computation run at intervals during it, which cancels
the host's slow spells (see worker.py).

Output: an environment header, one line per metric with its unit and sample
count, the digest of the exact outputs, and as the last line one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "analyze", "verify")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0

LAYERS = (
    "process.simulate", "process.save_path", "process.load_path", "process.snapshot",
    "process.jump_counts", "variation.stopping_ladder", "variation.relabel",
    "density.limit_vector", "density.density_exact", "density.limit_metric",
)
LAYER_COUNTS = {
    "process.simulate": ("events",),
    "process.save_path": ("events", "bytes"),
    "process.load_path": ("events", "bytes"),
    "variation.stopping_ladder": ("events_scanned", "rungs"),
    "variation.relabel": ("relabelings", "pair_gathers"),
    "density.limit_vector": ("levels_exact", "levels_mc", "exact_tuples", "mc_samples"),
    "density.density_exact": ("exact_tuples",),
}
RATES = {  # metric -> (count it divides, layer whose self time is the divisor)
    "process.simulate.events_per_s": ("process.simulate.events", "process.simulate"),
    "process.save_path.events_per_s": ("process.save_path.events", "process.save_path"),
    "process.load_path.events_per_s": ("process.load_path.events", "process.load_path"),
    "variation.stopping_ladder.events_per_s": ("variation.stopping_ladder.events_scanned",
                                               "variation.stopping_ladder"),
    "variation.relabel.gathers_per_s": ("variation.relabel.pair_gathers", "variation.relabel"),
}


class WorkerError(RuntimeError):
    pass


def git_revision(root: str) -> str:
    """HEAD commit read from .git without running git; 'unavailable' outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest(root: str) -> str:
    """sha256 over the paths and bytes of every file under src/graphvar."""
    h = hashlib.sha256()
    base = os.path.join(root, "src", "graphvar")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_worker(args, run_dir: str, env: dict, deadline: float, *,
               setup_only: bool = False, spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workdir", run_dir]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    remaining = deadline - time.monotonic()
    if remaining < 5.0:
        raise WorkerError("out of time before the worker could start")
    try:
        # run() kills the worker and waits for it when the timeout expires
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker did not finish within {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def tail_percentile(values: list[float]):
    """Highest of p99/p95/p90/p75 with at least ten samples above it (nearest rank)."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            rank = -(-q * n // 100)  # ceil(q n / 100)
            return q, sorted(values)[rank - 1]
    return None


def layer_metrics(tr: dict) -> dict:
    """Per-pass layer metrics of the traced passes, by BENCHMARK.json name."""
    self_s, incl, calls, counts = tr["self_s"], tr["inclusive_s"], tr["calls"], tr["counts"]
    v = {}
    for layer in LAYERS:
        v[f"{layer}.s"] = self_s.get(layer, 0.0)
        v[f"{layer}.calls"] = calls.get(layer, 0.0)
        for key in LAYER_COUNTS.get(layer, ()):
            v[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0.0)
    for name, (count, layer) in RATES.items():
        v[name] = v[count] / v[f"{layer}.s"] if v[f"{layer}.s"] > 0 else 0.0
    v["cli.analyze.self_s"] = self_s.get("cli.analyze", 0.0)
    for check in tr["checks"]:
        v[f"verify.{check}.s"] = incl.get(f"verify.{check}", 0.0)
    v["verify.self_s"] = sum(t for n, t in self_s.items() if n.startswith("verify."))
    v["verify.checks_failed"] = sum(c for n, c in counts.items()
                                    if n.startswith("verify.") and n.endswith(".failed"))
    v["bench.pass.self_s"] = self_s.get("bench.pass", 0.0)
    v["trace.pass_s"] = incl.get("bench.pass", 0.0)
    v["trace.self_sum_s"] = sum(self_s.values())
    v["trace.count_s"] = tr["count_s"]
    v["trace.spans"] = tr["spans"]
    v["trace.traced_pass_s"] = tr["traced_pass_s"]
    v["trace.untraced_pass_s"] = tr["untraced_pass_s"]
    v["trace.overhead_s"] = tr["traced_pass_s"] - tr["untraced_pass_s"]
    return v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-run sizes")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphvar", "__init__.py")):
        print("perfbench: src/graphvar not found; run from the root of a graphvar checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)

    work = os.path.join(HERE, ".work")
    run_dir = os.path.join(work, f"run-{os.getpid()}")
    os.makedirs(os.path.join(run_dir, "tmp"))
    env = dict(os.environ, TMPDIR=os.path.join(run_dir, "tmp"))
    spans = os.path.join(work, f"spans-{args.workload}-{args.seed}.jsonl") if args.trace else None
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [run_worker(args, run_dir, env, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(args, run_dir, env, deadline, spans=spans)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(res["setup_s"])

    passes = res["passes"]
    attempted = len(passes)
    failed = sum(not p["ok"] for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    times = [p["s"] for p in untraced]
    env_info = res["env"]
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print(f"# git_revision={git_revision(root)} src_sha256={source_digest(root)}")
    print(f"# python={env_info['python']} numpy={env_info['numpy']} scipy={env_info['scipy']} "
          f"nproc={env_info['nproc']} cpus_usable={env_info['cpus_usable']}")
    print(f"# load: closed loop, 1 client, 1 process; passes={attempted} "
          f"(untraced {len(untraced)}); every pass timed, the first included "
          "(graphs.pair_endpoints' lru_cache fills during it)")

    def line(name, value, unit, samples):
        print(f"{name:<40} {value:>16.6g} {unit:<6} n={samples}")

    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if args.trace == 0:
        rel = [p["s"] / p["ref_s"] for p in untraced]
        values["rel_pass_time"] = statistics.median(rel)
        line("rel_pass_time", values["rel_pass_time"], "ref",
             f"{len(rel)} passes (median of pass time / reference time during it)")
        line("wall_s", statistics.median(times), "s", f"{len(times)} passes (median)")
        tail = tail_percentile(times)
        if tail:
            line(f"wall_s.p{tail[0]}", tail[1], "s", f"{len(times)} passes")
        rates = [p["events"] / p["s"] for p in untraced if p["events"]]
        if rates:
            line("events_per_s", statistics.median(rates), "1/s",
                 f"{len(rates)} passes (median; {untraced[0]['events']} events/pass)")
        line("ref_s", statistics.median(p["ref_s"] for p in untraced), "s",
             f"{len(untraced)} passes (median of the mean reference time in a pass)")
        line("setup_s", values["setup_s"], "s",
             f"{len(setups)} set-ups (median; last: import {res['import_s']:.3f} s "
             f"+ inputs {res['inputs_s']:.3f} s)")
        line("peak_rss_mb", values["peak_rss_mb"], "MB", "1 process (set-up + first pass)")
    else:
        values.update(layer_metrics(res["trace"]))
        n_traced = sum(p["traced"] for p in passes)
        for m in spec["per_layer"]:
            line(m["name"], values.get(m["name"], 0.0), m["unit"],
                 f"{n_traced} traced passes (mean per pass)")
        print(f"# traced passes: self times {values['trace.self_sum_s']:.4f} s "
              f"+ counting {values['trace.count_s']:.4f} s = pass span "
              f"{values['trace.pass_s']:.4f} s; tracing overhead "
              f"{values['trace.overhead_s']:+.4f} s per pass (traced minus untraced median)")
        if spans:
            print(f"# spans written to {os.path.relpath(spans, root)}")
    line("error_rate", failed / attempted, "ratio", f"{attempted} passes ({failed} failed)")
    for err in res["errors"]:
        print(f"# error: {err}")
    print(f"# digest exact-outputs sha256={res['digest']}")
    if args.trace:
        print(f"# digest traced ladders+exact-densities sha256={res['trace']['exact_digest']}")
    if "verdicts" in res:
        bad = sorted(n for n, s in res["verdicts"].items() if s not in ("pass", "pass-with-slack"))
        print(f"# verify verdicts at seed {args.seed}: {len(res['verdicts']) - len(bad)} ok"
              + (f"; FAIL: {', '.join(bad)}" if bad else ""))

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in group}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
