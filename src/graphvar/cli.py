"""Command-line front end: simulate, analyze, densities, verify, report.

Exit codes: 0 success, 1 a check failed, 2 usage error, 3 I/O or data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from .config import RunConfig, parse_float_list, parse_int_list, resolve_config
from .density import WEIGHT_FAMILIES, limit_vector, save_density_vector, total_variation_check
from .graphs import DataError, read_edge_list
from .process import MODELS, jump_counts, load_path, save_path, simulate, snapshot
from .variation import np_profile, variation_grid
from .verify import STATUSES, report_passes, run_verification


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphvar",
        description=(
            "Simulate graph-valued paths, scan threshold-crossing ladders, "
            "estimate relabeling-averaged variation, and verify the bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None)

    sim = sub.add_parser("simulate", help="generate a path and write it as JSONL")
    add_config_flags(sim)
    sim.add_argument("--out", required=True, help="output JSONL file")
    sim.add_argument("--model", default=None, choices=MODELS)
    sim.add_argument("--vertices", type=int, default=None)
    sim.add_argument("--rate", type=float, default=None)
    sim.add_argument("--init-density", type=float, default=None, dest="init_density")
    sim.add_argument("--horizon", type=float, default=None)
    sim.add_argument("--boost-factor", type=float, default=None, dest="boost_factor")

    ana = sub.add_parser("analyze", help="ladder, variation, and movement tables")
    add_config_flags(ana)
    ana.add_argument("--path", required=True, help="input JSONL path file")
    ana.add_argument("--out", default=None, help="write tables here instead of stdout")
    ana.add_argument("--p-grid", type=parse_float_list, default=None, dest="p_grid")
    ana.add_argument("--m-grid", type=parse_int_list, default=None, dest="m_grid")
    ana.add_argument("--alphas", type=parse_float_list, default=None)
    ana.add_argument("--k-perm", type=int, default=None, dest="k_perm")
    ana.add_argument("--n-max", type=int, default=None, dest="n_max")
    ana.add_argument("--weight-family", default=None, dest="weight_family",
                     choices=sorted(WEIGHT_FAMILIES))
    ana.add_argument("--skip-variation", action="store_true")
    ana.add_argument("--skip-tv", action="store_true")

    den = sub.add_parser("densities", help="pattern-density vector of one graph")
    add_config_flags(den)
    src = den.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-list text file ('n N' header)")
    src.add_argument("--path", help="JSONL path file; combine with --at")
    den.add_argument("--at", type=float, default=None,
                     help="snapshot time when reading from --path (default: horizon)")
    den.add_argument("--out", default=None, help="output JSON file (default: stdout)")
    den.add_argument("--n-max", type=int, default=None, dest="n_max")
    den.add_argument("--mode", default="auto", choices=["auto", "exact", "mc"])
    den.add_argument("--k-inj", type=int, default=None, dest="k_inj")
    den.add_argument("--budget", type=int, default=None, dest="exact_budget")

    ver = sub.add_parser("verify", help="run the self-check suite")
    add_config_flags(ver)
    ver.add_argument("--out", default=None, help="write the JSON report here")
    ver.add_argument("--only", default=None, help="run checks whose name contains this")
    ver.add_argument("--adversarial", action="store_true",
                     help="point the exchangeability check at the planted "
                          "generator; it must then fail")

    rep = sub.add_parser("report", help="render a saved verification report")
    rep.add_argument("--report", dest="report", required=True, help="report JSON file")

    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Defaults, then --config, then every parsed flag named after a RunConfig field."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return resolve_config(args.config, {k: v for k, v in vars(args).items() if k in fields})


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    model, params = cfg.generator()
    path = simulate(model, cfg.vertices, cfg.horizon, cfg.seed, params)
    save_path(path, args.out)
    jc = jump_counts(path)
    final = snapshot(path, path.horizon)
    denom = cfg.vertices * (cfg.vertices - 1)
    print(f"model {model}  vertices {cfg.vertices}  horizon {_fmt(cfg.horizon)}")
    print(f"events {path.event_count}  max-edge-jumps {jc.max_jumps}  "
          f"mean-edge-jumps {jc.mean_jumps:.4f}")
    print(f"final-edge-density {2 * final.edge_count / denom:.6f}")
    print(f"wrote {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    path = load_path(args.path)
    if not args.skip_tv and cfg.n_max > path.n:  # refused before any ladder is scanned
        raise ValueError(f"pattern level {cfg.n_max} exceeds host vertex count {path.n}")
    if not args.skip_variation and cfg.m_grid is not None and max(cfg.m_grid) > path.n:
        raise ValueError(f"m_grid window {max(cfg.m_grid)} exceeds host vertex count {path.n}")
    out = io.StringIO()  # every table is built before --out is opened or stdout written
    w = csv.writer(out, lineterminator="\n")
    profile = np_profile(path, cfg.p_grid)
    out.write("# ladder\n")
    w.writerow(["p", "n_p", "product", "type_a_count"])
    for lad in profile.ladders:
        w.writerow([_fmt(lad.p), lad.n_p, _fmt(lad.product), lad.type_a_count])
    for p in profile.skipped:
        out.write(f"# skipped p={_fmt(p)}: below density quantum\n")

    if not args.skip_variation:
        grid = variation_grid(
            profile, windows=None if cfg.m_grid is None else sorted(set(cfg.m_grid)),
            alphas=cfg.alphas, k_perm=cfg.k_perm, seed=[cfg.seed, 7],
        )
        out.write("# variation\n")
        w.writerow(["p", "window", "alpha", "value", "stderr"])
        for c in grid.cells:
            w.writerow([_fmt(c.p), c.window, _fmt(c.alpha),
                        _fmt(c.value), _fmt(c.stderr)])

    if not args.skip_tv:
        weights = WEIGHT_FAMILIES[cfg.weight_family]
        out.write("# tv\n")
        w.writerow(["p", "n_p", "tv", "bound", "margin", "mode"])
        for ladder in profile.ladders:
            rep = total_variation_check(
                ladder, n_max=cfg.n_max, weights=weights,
                mode="auto", n_samples=cfg.k_inj,
                budget=cfg.exact_budget, seed=[cfg.seed, 8],
            )
            w.writerow([_fmt(rep.p), rep.n_p, _fmt(rep.tv), _fmt(rep.bound),
                        _fmt(rep.margin), rep.mode])
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return 0


def cmd_densities(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if args.graph:
        host = read_edge_list(args.graph)
    else:
        path = load_path(args.path)
        at = path.horizon if args.at is None else args.at
        host = snapshot(path, at)
    vec = limit_vector(host, cfg.n_max, mode=args.mode,
                       n_samples=cfg.k_inj, budget=cfg.exact_budget, seed=cfg.seed)
    if args.out:
        save_density_vector(vec, args.out)
        print(f"wrote {args.out} (n_max {vec.n_max}, "
              f"modes {[lv.mode for lv in vec.levels]})")
    else:
        json.dump(vec.to_dict(), sys.stdout, sort_keys=True)
        print()
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    report = run_verification(cfg, only=args.only, adversarial=args.adversarial)
    for c in report.checks:
        line = f"{c.name}: {c.status.upper()}"
        if c.lhs is not None and c.rhs is not None:
            line += f"  lhs={c.lhs:.6g} rhs={c.rhs:.6g}"
        if c.status == "error":
            line += f"  {c.details['error']}"
        line += f"  [{c.runtime_s}s]"
        print(line)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    print("result:", "OK" if report.ok else "FAIL")
    return 0 if report.ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.report, "r", encoding="ascii") as fh:
            data = json.load(fh)
        checks = data["checks"]
        if not checks:  # no statuses to derive a verdict from
            raise DataError(f"{args.report}: report lists no checks")
        width = max(len(c["name"]) for c in checks)
        lines = [f"{'check'.ljust(width)}  status           lhs           rhs"]
        for c in checks:
            if c["status"] not in STATUSES:
                raise DataError(f"{args.report}: check {c['name']!r} has unknown status "
                                f"{c['status']!r}; expected one of {', '.join(STATUSES)}")
            lhs = "-" if c.get("lhs") is None else f"{c['lhs']:.6g}"
            rhs = "-" if c.get("rhs") is None else f"{c['rhs']:.6g}"
            lines.append(f"{c['name'].ljust(width)}  {c['status']:<15}  {lhs:>12}  {rhs:>12}")
        ok = report_passes(c["status"] for c in checks)  # the stored "ok" is not trusted
    except DataError:
        raise
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.report}: line {exc.lineno}: invalid JSON ({exc.msg})") from None
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise DataError(f"{args.report}: not a verification report: {exc!r}") from None
    print("\n".join(lines))
    print("result:", "OK" if ok else "FAIL")
    return 0 if ok else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "densities": cmd_densities,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, DataError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a bad flag or config value
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
