"""Command-line front end.

Subcommands:
  generate    draw a synthetic world and write it out as delimited files
  sweep       run the (alpha, lambda) grid and write result + reports
  report      re-emit report files from a saved result.json
  serve       run the fusion daemon from a JSON config file
  serve-demo  one-shot demo: daemon on localhost, stream a world through
              it, read every user's model from it, print the metrics
"""

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from . import daemon, sim
from .errors import EngineError
from .protocol import BIAS_NAMES, bias_from_name


def _world_flags(p):
    p.add_argument("--scale", choices=("desk", "full"), default="desk",
                   help="preset for world size and grids (default desk)")
    for f in dataclasses.fields(sim.SynthConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))
    p.add_argument("--tags", metavar="FILE",
                   help="tab-separated artist tag file (name + values per line)")


def _build_config(args):
    base = sim.FULL_SCALE if args.scale == "full" else sim.DESK_SCALE
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(base)}
    return dataclasses.replace(
        base, **{name: val for name, val in given.items() if val is not None})


def _build_world(args):
    cfg = _build_config(args)
    source = None
    if args.tags:
        source = sim.load_tag_file(args.tags)
        cfg.num_artists = len(source[0])
        cfg.tag_dim = source[1].shape[1]
    return sim.generate_world(cfg, source)


def _parse_grid(spec, default):
    """Grid spec: 'lin:N[:LO:HI]', 'log:N:LO:HI', or a comma list."""
    if spec is None:
        return default
    parts = spec.split(":")
    if parts[0] == "lin":
        if len(parts) not in (2, 4):
            raise ValueError("lin grid needs lin:N or lin:N:LO:HI")
        lo, hi = (float(parts[2]), float(parts[3])) if len(parts) == 4 else (0.0, 1.0)
        return np.linspace(lo, hi, int(parts[1]))
    if parts[0] == "log":
        if len(parts) != 4:
            raise ValueError("log grid needs log:N:LO:HI")
        return np.logspace(np.log10(float(parts[2])), np.log10(float(parts[3])),
                           int(parts[1]))
    return np.asarray([float(p) for p in spec.split(",")], dtype=np.float64)


def cmd_generate(args):
    world = _build_world(args)
    os.makedirs(args.out, exist_ok=True)
    fmt = sim._fmt
    for name, header, rows in (
        ("artists.tsv", None,
         ([artist] + [fmt(v) for v in tags]
          for artist, tags in zip(world.names, world.tags))),
        ("triples.tsv", ("user", "artist", "y", "w"),
         (("%d" % tr.task, tr.x.key.decode("utf-8"), fmt(tr.y), fmt(tr.w))
          for tr in world.ds.triples)),
        ("true_scores.tsv", ["user"] + world.names,
         (["%d" % j] + [fmt(v) for v in scores]
          for j, scores in enumerate(world.s_true))),
    ):
        print("wrote", sim.write_tsv(os.path.join(args.out, name), header, rows))
    return 0


def cmd_sweep(args):
    world = _build_world(args)
    if args.scale == "full":
        adef, ldef = sim.FULL_ALPHA_GRID, sim.FULL_LAMBDA_GRID
    else:
        adef, ldef = sim.DESK_ALPHA_GRID, sim.DESK_LAMBDA_GRID
    alphas = _parse_grid(args.alpha_grid, adef)
    lambdas = _parse_grid(args.lambda_grid, ldef)
    result = sim.sweep(world, alphas, lambdas, mode=args.mode, k=args.k,
                       bias=bias_from_name(args.bias))
    os.makedirs(args.out, exist_ok=True)
    rp = os.path.join(args.out, "result.json")
    sim.save_result(result, rp)
    paths = sim.emit_report(result, args.out)
    for p in [rp] + paths:
        print("wrote", p)
    best = result.best_cell()
    if best is None:
        print("no grid cell succeeded", file=sys.stderr)
        return 1
    print("best: alpha=%.6g lambda=%.6g rmse=%.6g top%dhits=%.6g"
          % (best.alpha, best.lam, best.rmse, result.k, best.top20hits))
    failed = [c for c in result.cells if not c.ok]
    if failed:
        print("%d of %d cells failed" % (len(failed), len(result.cells)))
    return 0


def cmd_report(args):
    result = sim.load_result(args.result)
    for p in sim.emit_report(result, args.out):
        print("wrote", p)
    return 0


def cmd_serve(args):
    logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    dcfg = daemon.load_daemon_config(args.config)
    try:
        daemon.serve(dcfg)
    except KeyboardInterrupt:
        print("interrupted, shutting down")
    return 0


def cmd_serve_demo(args):
    world = _build_world(args)
    sim.check_users(world)
    mcfg = sim._model_config(args.alpha, args.lam, bias_from_name(args.bias))
    print("world: %d artists, %d users, %d observations"
          % (len(world.inputs), world.cfg.num_users, len(world.ds.triples)))
    print("streaming through a localhost daemon (alpha=%g lambda=%g) ..."
          % (args.alpha, args.lam))
    est = sim._estimate_via_daemon(world, mcfg)
    s_est = sim.squash(est)
    hits, mean_hits = sim.top_k_hits(world.s_true, s_est, args.k)
    print("rmse      = %.6g" % sim.rmse(world.s_true, s_est))
    print("top%dhits = %.6g  (per-user min %d, max %d)"
          % (args.k, mean_hits, hits.min(), hits.max()))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="mtfuse", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic world to disk")
    _world_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="grid search over (alpha, lambda)")
    _world_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--alpha-grid", help="lin:N[:LO:HI] | log:N:LO:HI | comma list")
    p.add_argument("--lambda-grid", help="lin:N[:LO:HI] | log:N:LO:HI | comma list")
    p.add_argument("--mode", choices=("offline", "client-server"), default="offline")
    p.add_argument("--k", type=int, default=20, help="top-k size (default 20)")
    p.add_argument("--bias", choices=BIAS_NAMES, default="none")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-emit reports from a saved result")
    p.add_argument("--result", required=True, help="result.json from a sweep")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("serve", help="run the fusion daemon")
    p.add_argument("--config", required=True, help="daemon JSON config")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("serve-demo", help="localhost end-to-end demonstration")
    _world_flags(p)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--lam", type=float, default=1e-3)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--bias", choices=BIAS_NAMES, default="none")
    p.set_defaults(func=cmd_serve_demo)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, EngineError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
