"""Run mtfuse's TCP daemon (mtfuse.daemon.serve) from a JSON config.

    python3 bench/daemon_main.py --config daemon.json [--trace-out spans.json]

With --trace-out the layer functions are wrapped before the daemon
starts, and the recorded spans are written out when it exits (SIGTERM
runs the daemon's own snapshot-saving shutdown first).
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    from mtfuse import daemon

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        daemon.serve(daemon.load_daemon_config(args.config))
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    main()
