"""rmflab benchmark: run one workload, check every result, print its metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload campaign-coupled --seed 1 \
        --seconds 30 --trace 0

Each iteration is a fresh single-threaded Python process (``worker.py``)
that calls ``rmflab.cli.run`` on the workload's configs, as
``rmflab campaign|identity --config`` does.  Iterations repeat, one after
the other, until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics (medians over the iterations); ``--trace 1`` adds one
traced iteration and reports the per-layer metrics.

Every result is checked outside the timed region: campaign rows and summary
checksums against the recorded references (``references/``) where the seed
has them, or against the run's first iteration where it has not; one seed
per campaign against the independent oracle (``oracle.py``); identity
residuals against their tolerance.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  A run environment
line precedes it, and the full record goes to ``out/<workload>-seed<seed>-
trace<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from worker import clock
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references"

# Extra processes before each iteration that stop once set-up is done, so
# that setup_s is a median over more samples than the iterations give.  The
# host's speed changes within seconds, so the probes are spread over the run
# rather than taken in one burst.
SETUP_PROBES = 4
# An iteration takes seconds; a worker still running after this is hung.
WORKER_TIMEOUT_S = 60


def worker_env() -> dict:
    """The environment of a worker: rmflab from src/, no BLAS threads.

    numpy asks the kernel for transparent huge pages on large arrays, and
    whether the host has free ones changes from minute to minute; with them
    the campaign workloads ran up to 15% apart between runs, so the
    worker does without.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def run_worker(experiments: list[dict], *extra: str) -> tuple[dict | None,
                                                               str]:
    """Start one worker process and wait for it; (result, error text)."""
    spawn = clock()
    with subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "--spawn-time",
             repr(spawn), "--experiments", json.dumps(experiments), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=worker_env(), cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, err.strip()[-2000:]
    return json.loads(out.strip().splitlines()[-1]), ""


# ---------------------------------------------------------------------------
# checking outputs
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_outputs(outdir: Path, csv_name: str) -> dict:
    """CSV rows, summary checksum, and whether the manifest is honest."""
    with (outdir / csv_name).open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    manifest = json.loads((outdir / "manifest.json").read_text())
    files = sorted(p.name for p in outdir.iterdir()
                   if p.name != "manifest.json")
    honest = (sorted(manifest["outputs"]) == files and
              all(sha256(outdir / name) == digest
                  for name, digest in manifest["outputs"].items()))
    return {"rows": rows, "summary_sha256": sha256(outdir / "summary.json"),
            "manifest_ok": honest}


def expected_items(exp: dict) -> int:
    """Checked items: one per seed result or per identity evaluation."""
    if exp["kind"] == "identity":
        return len(exp["seeds"]) * len(exp["sigmas"]) * len(exp["ts"])
    return len(exp["seeds"])


def check_campaign(exp: dict, got: dict, baseline: dict | None) -> set[int]:
    """Indices of the seed results that fail; baseline is the expected run."""
    seeds = exp["seeds"]
    failed = set()
    if not got["manifest_ok"] or (baseline is not None and
                                  got["summary_sha256"] !=
                                  baseline["summary_sha256"]):
        return set(range(len(seeds)))
    for i, seed in enumerate(seeds):
        row = got["rows"][i] if i < len(got["rows"]) else None
        if row is None or row[0] != str(seed) or (
                baseline is not None and row != baseline["rows"][i]):
            failed.add(i)
    if len(got["rows"]) != len(seeds):
        failed.update(range(len(seeds)))
    return failed


def check_identity(exp: dict, got: dict, baseline: dict | None) -> set[int]:
    """Indices of the evaluations whose residual reaches the tolerance.

    Rows also fail when they differ from the run's first iteration: reruns
    of one config must give identical outputs.
    """
    failed = set()
    if not got["manifest_ok"]:
        return set(range(expected_items(exp)))
    for i in range(expected_items(exp)):
        row = got["rows"][i] if i < len(got["rows"]) else None
        if row is None or not float(row[4]) < exp["tolerance"] or (
                baseline is not None and row != baseline["rows"][i]):
            failed.add(i)
    return failed


def load_references(workload: str) -> dict:
    path = REFERENCES / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["seeds"]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run: iterations, their checks, and the samples.

    ``references`` maps a campaign's beta to its recorded rows and summary
    checksum; without them, the first iteration is what later ones must
    reproduce.
    """

    def __init__(self, workload: str, seed: int, spec: dict,
                 references: dict, tag: str):
        self.workload = workload
        self.seed = seed
        self.spec = spec
        self.dir = OUT / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.baselines: dict[str, dict] = dict(references)
        self.first: dict[str, tuple[dict, set[int]]] = {}
        self.samples: dict[str, list[float]] = {
            "setup_s": [], "wall_s": [], "peak_rss_mb": []}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.iterations = 0

    def experiments(self, outdir: Path) -> list[dict]:
        return workloads.experiments(self.workload, self.seed, self.spec,
                                     str(outdir))

    def probe_setup(self) -> None:
        result, error = run_worker(self.experiments(self.dir / "probe"),
                                   "--setup-only")
        if result is None:
            self.errors.append(f"setup probe: {error}")
        else:
            self.samples["setup_s"].append(result["setup_s"])

    def iterate(self, *extra: str) -> tuple[dict | None, int]:
        """One checked iteration; the worker result and bytes written."""
        outdir = self.dir / f"iter{self.iterations}"
        self.iterations += 1
        exps = self.experiments(outdir)
        items = sum(expected_items(exp) for exp in exps)
        self.attempted += items
        result, error = run_worker(exps, *extra)
        if result is None:
            self.failed += items
            self.errors.append(error)
            shutil.rmtree(outdir, ignore_errors=True)
            return None, 0
        written = sum(p.stat().st_size for p in outdir.rglob("*")
                      if p.is_file())
        for exp in exps:
            self.failed += len(self.check(exp))
        shutil.rmtree(outdir)
        return result, written

    def check(self, exp: dict) -> set[int]:
        outdir = Path(exp["outdir"])
        key = exp.get("beta", "identity")
        checker = check_identity if exp["kind"] == "identity" else \
            check_campaign
        try:
            got = read_outputs(outdir, f"{exp['kind']}.csv")
            failed = checker(exp, got, self.baselines.get(key))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.errors.append(f"{outdir.name}: unreadable outputs: {exc}")
            return set(range(expected_items(exp)))
        if failed:
            self.errors.append(f"{outdir.name}: {len(failed)} items failed")
        self.baselines.setdefault(key, got)
        self.first.setdefault(key, (got, failed))
        return failed

    def check_oracle(self) -> None:
        """Rebuild one seed's rows with the oracle; a mismatch fails it."""
        if self.spec["kind"] != "campaign" or not self.first:
            return
        import oracle
        n = self.spec["n_seeds"]
        index = self.seed % n
        seed = workloads.master_seeds(self.workload, self.seed, n)[index]
        if any(index in failed or index >= len(got["rows"])
               for got, failed in self.first.values()):
            return  # that seed result has already failed
        X = self.spec["limit"]
        rows = {beta: got["rows"][index]
                for beta, (got, _) in self.first.items()}
        problems = oracle.check_seed(seed, self.spec["betas"],
                                     self.spec["weighted"], X, (X / 100, X),
                                     rows)
        self.failed += len(problems)
        self.errors.extend(problems)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool = False) -> dict:
    """Run, check and measure one workload; returns the full record."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    references = {} if smoke else load_references(workload).get(str(seed), {})
    run = Run(workload, seed, workloads.spec_for(workload, smoke), references,
              tag)
    start = clock()
    while True:
        if not trace:
            for _ in range(SETUP_PROBES):
                run.probe_setup()
        result, _ = run.iterate()
        if result is not None:
            for name in run.samples:
                run.samples[name].append(result[name])
        if clock() - start >= seconds:
            break
    if not run.samples["wall_s"]:
        raise RuntimeError("no iteration completed: " + "; ".join(run.errors))
    run.check_oracle()
    if trace:
        import tracing
        trace_path = run.dir / "trace.json"
        result, written = run.iterate("--trace-out", str(trace_path),
                                      "--run-id", tag)
        if result is None:
            raise RuntimeError("traced iteration failed: " +
                               "; ".join(run.errors))
        record = json.loads(trace_path.read_text())
        metrics = tracing.layer_metrics(
            record, result["wall_s"], statistics.median(run.samples["wall_s"]),
            written, run.failed / run.attempted)
    else:
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
        metrics = {name: {"value": statistics.median(values),
                          "unit": units[name]}
                   for name, values in run.samples.items()}
    summary = {"correct": run.failed == 0, "attempted": run.attempted,
               "failed": run.failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "seconds": seconds, "spec": run.spec,
              "environment": environment(run.spec), "samples": run.samples,
              "errors": run.errors, "result": summary}
    (run.dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cache_bytes() -> dict:
    """Unified/data cache sizes per level, from sysfs where Linux has it."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 2**10, "M": 2**20}.get(size[-1], 1)
        sizes[f"L{level}"] = int(size.rstrip("KM")) * scale
    return sizes


def environment(spec: dict) -> dict:
    import numpy
    import scipy
    return {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
            "cache_bytes": cache_bytes(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "working_set_bytes": workloads.working_set_bytes(spec)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rmflab" / "__init__.py").is_file():
        print(f"error: rmflab sources not found under {SRC}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
