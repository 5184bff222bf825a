"""One iteration of a workload, in a fresh process.

Run by ``run.py``, never by hand.  The parent takes the monotonic clock
just before it starts this process and passes it in ``--spawn-time``;
``setup_s`` runs from there until rmflab is imported and every config is
validated.  ``wall_s`` covers the ``rmflab.cli.run`` calls, which sieve, run
every seed or evaluation, write the CSV, summary and manifest and hash them.

Prints one JSON line: setup_s, wall_s and peak_rss_mb.  The parent checks
the outputs.  With ``--trace-out`` the spans are written to that file.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def clock() -> float:
    """System-wide monotonic seconds, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kib() -> int:
    """Peak resident set of this process, in KiB.

    Linux carries ``ru_maxrss`` across exec: a fresh process inherits the
    peak of the process that forked it.  ``VmHWM`` belongs to the address
    space exec created, so it is preferred where Linux reports it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--experiments", required=True,
                    help="JSON list of ExperimentConfig field dicts")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()

    import rmflab.cli as cli
    configs = [cli.ExperimentConfig(**fields)
               for fields in json.loads(args.experiments)]
    for config in configs:
        violations = cli.validate(config)
        if violations:
            raise SystemExit(f"invalid config: {violations}")
    setup_s = clock() - args.spawn_time
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace_out:
        from tracing import Tracer
        tracer = Tracer(args.run_id)
        tracer.install()
    t0 = clock()
    for config in configs:
        cli.run(config)  # looked up at call time, so tracing sees it
    wall_s = clock() - t0
    if tracer is not None:
        tracer.uninstall()
        with open(args.trace_out, "w") as fh:
            json.dump(tracer.record(), fh)
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s,
                      "peak_rss_mb": peak_rss_kib() / 1024}))


if __name__ == "__main__":
    main()
