"""The measured process of one benchmark run.

    python3 perfbench/worker.py --workload W --seed S --seconds R --trace T
        --workdir DIR [--spans FILE] [--scale full|tiny] [--setup-only]

Run from the root of a graphvar checkout.  It imports graphvar from `src/`,
builds the workload's inputs from the seed (together: the set-up), then runs
passes back to back in this one process (a closed loop with one client) until
another pass would end after R seconds.  Every pass, the first included, is
timed: `graphs.pair_endpoints` fills its lru_cache during the first pass, as it
does on every `graphvar` invocation, and costs well under a millisecond.

With --trace 0 a fixed reference computation interrupts each pass every
REFERENCE_EVERY_S (see `Reference`); a pass's time, the reference excluded,
over the mean reference time during it is the pass's relative time.

With --trace 1, odd-numbered passes run with the span wrappers installed and
even-numbered ones without, so one run gives both the per-layer numbers and
the tracing overhead.  The result is one JSON object on the last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
import types

perf = time.perf_counter

# stop starting passes this long after the first one began, whatever --seconds
# says, so a run stays inside its time limit
HARD_STOP_S = 120.0
# interval of the reference computation (about 25 ms) during untraced runs
REFERENCE_EVERY_S = 0.3


def _load_graphvar(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import graphvar
    import graphvar.cli
    from graphvar import config, density, graphs, metrics, process, variation, verify

    return types.SimpleNamespace(
        package=graphvar, cli=graphvar.cli, config=config, density=density,
        graphs=graphs, metrics=metrics, process=process, variation=variation,
        verify=verify,
    )


class Reference:
    """Gauges how fast the host runs while a pass runs.

    A shared host goes through slow spells that last from seconds to minutes
    and stretch a pass by up to half; they move the pass times of a run as much
    as a real regression would.  While armed, a timer signal interrupts the
    pass every REFERENCE_EVERY_S and runs a small fixed computation: an
    interpreted loop, JSON and a numpy sort, the kinds of work graphvar's
    passes do, using neither graphvar nor the seed and allocating nothing the
    cyclic garbage collector tracks.  Only the host changes its time, so a
    pass's time over the mean reference time during it cancels the spells.
    The reference's own time is taken out of the pass time.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._keys = np.random.default_rng(0).integers(0, 1 << 30, 15_000)
        self._vals = (self._keys / float(1 << 30)).tolist()
        self.times: list[float] = []

    def _run(self, *_signal_args) -> None:
        t = perf()
        acc = 0
        for k in range(30_000):
            acc += k * k % 7
        back = json.loads(json.dumps(self._vals))
        self._np.argsort(self._keys, kind="stable")
        self.times.append(perf() - t)
        if len(back) != len(self._vals) or acc != 59_999:
            raise RuntimeError("the reference computation went wrong")

    def arm(self) -> None:
        self.times = []
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)

    def disarm(self) -> float:
        """Stop the timer; the seconds the reference took during the pass."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return sum(self.times)

    def mean(self) -> float:
        """Mean reference time of the last pass; one run after it if it was short."""
        if not self.times:
            self._run()
        return sum(self.times) / len(self.times)


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", required=True, help="scratch directory for inputs")
    ap.add_argument("--spans", help="where the traced run writes its spans (JSONL)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()

    t0 = perf()
    gv = _load_graphvar(root)
    import_s = perf() - t0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS

    t1 = perf()
    workload = WORKLOADS[args.workload](gv, args.seed, SIZES[args.scale][args.workload],
                                        args.workdir)
    inputs_s = perf() - t1
    result = {"import_s": import_s, "inputs_s": inputs_s, "setup_s": import_s + inputs_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = Tracer(gv) if args.trace else None
    min_passes = 2 if tracer else 1
    passes, errors = [], []
    first_digest = peak_rss_mb = None
    # built after set-up is timed; its inputs are small against graphvar's
    reference = None if tracer else Reference()
    start = perf()
    while True:
        i = len(passes)
        traced = tracer is not None and i % 2 == 1
        out, failure = None, None
        if traced:
            tracer.install()
        if reference:
            reference.arm()
        t = perf()
        try:
            if traced:
                with tracer.root(i):
                    out = workload.run_pass()
            else:
                out = workload.run_pass()
        except Exception:
            failure = traceback.format_exc()
        finally:
            in_reference = reference.disarm() if reference else 0.0
            dt = perf() - t - in_reference
            if traced:
                tracer.uninstall()
        if peak_rss_mb is None:
            # set-up plus one pass: what one graphvar invocation holds at most
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if failure is None:
            try:
                problems, digest = workload.check(out)
            except Exception:
                problems, digest = [traceback.format_exc()], None
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                problems.append("exact outputs differ from the first pass of this seed")
            if traced and tracer.pass_digests[i] != tracer.pass_digests[min(tracer.pass_digests)]:
                problems.append("traced ladders or exact densities differ from the "
                                "first traced pass")
        else:
            problems = [failure]
        for p in problems:
            print(f"pass {i}: {p}", file=sys.stderr)
        errors += [f"pass {i}: {p.strip().splitlines()[-1]}" for p in problems]
        passes.append({"s": dt, "ref_s": reference.mean() if reference else None,
                       "traced": traced, "ok": not problems,
                       "events": workload.events(out) if out is not None else 0})
        out = None
        elapsed = perf() - start
        if len(passes) >= min_passes and (elapsed + dt > args.seconds or elapsed > HARD_STOP_S):
            break

    result.update({
        "passes": passes,
        "errors": errors[:20],
        "digest": first_digest,
        "peak_rss_mb": peak_rss_mb,
        "env": _environment(),
    })
    if args.workload == "verify":
        result["verdicts"] = workload.verdicts
    if tracer is not None:
        traced_ids = [i for i, p in enumerate(passes) if p["traced"]]
        untraced = [p["s"] for p in passes if not p["traced"]]
        result["trace"] = tracer.summary(traced_ids)
        result["trace"].update({
            "untraced_pass_s": statistics.median(untraced),
            "traced_pass_s": statistics.median(passes[i]["s"] for i in traced_ids),
            "count_s": tracer.count_s / len(traced_ids),
            "spans": sum(1 for sp in tracer.spans if sp.pass_id in traced_ids) / len(traced_ids),
            "exact_digest": tracer.pass_digests[traced_ids[0]],
            "checks": sorted(gv.verify.CHECKS),
        })
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
