"""Record the reference campaign outputs that run.py checks results against.

Run from the repository root, at a commit whose outputs are trusted:

    python3 benchmarks/record_references.py

For every campaign workload and every seed in REFERENCE_SEEDS it runs one
iteration exactly as the benchmark does, checks one seed per campaign
against the independent oracle, and writes ``references/<workload>.json``
with each campaign's csv rows and summary.json checksum.  Rerunning it at a
commit with the same outputs rewrites identical files.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

# Seeds 0-19 are for everyday runs.  Seed 20 is kept back: do not use it
# while writing a change, so that it can confirm the change's claims.
REFERENCE_SEEDS = range(21)
HELD_OUT_SEED = 20


def record(workload: str) -> dict:
    spec = workloads.spec_for(workload)
    seeds = {}
    for seed in REFERENCE_SEEDS:
        bench = run.Run(workload, seed, spec, {}, f"record-{workload}")
        bench.iterate()
        bench.check_oracle()
        if bench.failed:
            raise SystemExit(f"{workload} seed {seed}: {bench.errors}")
        seeds[str(seed)] = {
            beta: {"rows": got["rows"],
                   "summary_sha256": got["summary_sha256"]}
            for beta, (got, _) in bench.first.items()}
        print(f"{workload} seed {seed}: recorded", flush=True)
    return {"held_out_seed": HELD_OUT_SEED, "seeds": seeds}


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    run.REFERENCES.mkdir(exist_ok=True)
    for workload, spec in workloads.WORKLOADS.items():
        if spec["kind"] == "campaign":
            path = run.REFERENCES / f"{workload}.json"
            path.write_text(json.dumps(record(workload), indent=1) + "\n")


if __name__ == "__main__":
    main()
