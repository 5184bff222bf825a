"""Spans around rmflab's public functions, recorded from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
patches the wrapper into *every* rmflab namespace that holds the original,
because ``from .sieve import mobius_sieve`` copies the reference: patching
only the defining module would miss the calls made through ``growth`` or
``cli``.  Two methods are wrapped on their class, where instances look
them up: the ``OmegaAssignment`` constructor and ``OmegaAssignment.numerators``.

Spans live in memory and are written out once, at the end of the traced
iteration.  ``layer_metrics`` turns them into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc

from worker import clock

TRACED_MODULES = ("sieve", "sampler", "iet", "dirichlet", "growth", "cli")

# Peak traced memory is reported for these calls.  tracemalloc slows every
# allocation (build_sign_series' per-prime loop four-fold), so the first call
# of each is replayed with tracemalloc on after the timed iteration ends.
PEAK_SPANS = {"sieve.mobius_sieve", "sieve.distinct_prime_counts",
              "sampler.build_sign_series"}

# The length of the returned array counts the work these calls do.
ELEMENT_SPANS = {"sampler.numerators", "iet.apply_T_power_numerators"}


class Tracer:
    """Records (id, name, start, end, parent id, run id, elements) per call.

    ``elements`` is the length of the returned array for ELEMENT_SPANS, and 0
    for every other span.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._replays: dict[str, tuple] = {}
        self._patches: list[tuple[object, str, object]] = []
        # distinct (seed, prime) pairs hashed: per seed, the longest prefix
        # of the ascending prime list hashed
        self._hashed: dict[int, int] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch wrappers into rmflab; ``uninstall`` restores the originals."""
        rmflab_modules = [m for n, m in sorted(sys.modules.items())
                          if n == "rmflab" or n.startswith("rmflab.")]
        for short in TRACED_MODULES:
            module = sys.modules[f"rmflab.{short}"]
            for name, fn in vars(module).copy().items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for holder in rmflab_modules:
                    for attr, value in vars(holder).copy().items():
                        if value is fn:
                            self._patch(holder, attr, wrapper)
        omega = sys.modules["rmflab.sampler"].OmegaAssignment
        self._patch(omega, "__init__",
                    self._wrap("sampler.OmegaAssignment", omega.__init__))
        self._patch(omega, "numerators",
                    self._wrap("sampler.numerators", omega.numerators))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder, attr: str, wrapper) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def _wrap(self, name: str, fn):
        peak = name in PEAK_SPANS
        elements = name in ELEMENT_SPANS
        hashes = name == "sampler.numerators"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [sid, name, 0.0, 0.0, parent, self.run_id, 0]
            self.spans.append(span)
            self._stack.append(sid)
            if peak and name not in self._replays:
                self._replays[name] = (fn, args, kwargs)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                self._stack.pop()
            if elements:
                span[6] = len(result)
            if hashes:
                self._note_hashed(*args, **kwargs)
            return result

        return wrapper

    def measure_peaks(self) -> dict[str, int]:
        """Replay the first call of each PEAK_SPANS function under tracemalloc.

        Returns the peak traced bytes allocated during each replayed call.
        """
        peaks = {}
        for name, (fn, args, kwargs) in self._replays.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peaks

    def _note_hashed(self, assignment, primes=None) -> None:
        """Note the primes one ``numerators`` call hashed for its seed.

        Every caller passes a prefix of the assignment's ascending primes
        (``primes <= limit``), or none for all of them, so the longest
        prefix per seed counts the distinct pairs.
        """
        count = len(assignment.primes if primes is None else primes)
        seed = assignment.master_seed
        self._hashed[seed] = max(self._hashed.get(seed, 0), count)

    def distinct_hashed_pairs(self) -> int:
        """Distinct (seed, prime) pairs passed through the omega hash."""
        return sum(self._hashed.values())

    def record(self) -> dict:
        """Spans, hash counts and replayed peaks, JSON-ready.

        Call after ``uninstall``: the peak replays must not record spans.
        """
        return {"run_id": self.run_id,
                "spans": self.spans,
                "distinct_hashed_pairs": self.distinct_hashed_pairs(),
                "peak_bytes": self.measure_peaks()}


# ---------------------------------------------------------------------------
# per-layer metrics from a trace record
# ---------------------------------------------------------------------------

# (span, statistic) pairs reported as per-layer metrics, in BENCHMARK.json
# order.  calls and elements are counts; s is inclusive seconds; self_s is s
# minus the time child spans cover; peak_mb is the tracemalloc peak of the
# replayed first call, in MiB.
LAYER_STATS = [
    ("sieve.mobius_sieve", ("calls", "s", "peak_mb")),
    ("sieve.distinct_prime_counts", ("calls", "s", "peak_mb")),
    ("sieve.primes_up_to", ("calls", "s")),
    ("sampler.OmegaAssignment", ("calls", "s")),
    ("sampler.numerators", ("calls", "elements", "s")),
    ("sampler.prime_signs", ("calls", "s")),
    ("sampler.build_sign_series", ("calls", "s", "self_s", "peak_mb")),
    ("iet.apply_T_power_numerators", ("calls", "elements", "s")),
    ("dirichlet.identity_residual", ("calls", "s", "self_s")),
    ("dirichlet.euler_F", ("calls", "s")),
    ("dirichlet.zeta_truncated", ("calls", "s")),
    ("growth.monte_carlo_campaign", ("calls", "s")),
    ("growth.run_seed", ("calls", "s", "self_s")),
    ("growth.partial_sums", ("s",)),
    ("growth.fit_growth_exponent", ("s",)),
    ("growth.selberg_delange_ratio", ("s",)),
    ("growth.weighted_partial_sums", ("calls", "s")),
    ("cli.run", ("s", "self_s")),
]

UNITS = {"calls": "count", "elements": "count", "s": "s", "self_s": "s",
         "peak_mb": "MiB"}

# Metrics computed from the whole trace rather than from one span name.
DERIVED = {"sampler.hash_redundancy": "ratio", "cli.bytes_written": "bytes",
           "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
           "ops_failed_frac": "ratio"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {f"{span}.{stat}": UNITS[stat]
             for span, stats in LAYER_STATS for stat in stats}
    units.update(DERIVED)
    return units


def span_totals(spans: list[list]) -> dict:
    """Per span name: calls, inclusive s, self_s and elements.

    No traced function calls itself, so inclusive times do not overlap.
    """
    child_time = {}
    for sid, name, start, end, parent, _run, _elements in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict[str, dict] = {}
    for sid, name, start, end, parent, _run, elements in spans:
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "elements": 0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += (end - start) - child_time.get(sid, 0.0)
        t["elements"] += elements
    return totals


def layer_metrics(record: dict, traced_wall: float, untraced_wall: float,
                  bytes_written: int, failed_frac: float) -> dict:
    """The per-layer metric values of one traced iteration."""
    spans = record["spans"]
    totals = span_totals(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "elements": 0}
    values = {}
    for span, stats in LAYER_STATS:
        t = totals.get(span, empty)
        for stat in stats:
            if stat == "peak_mb":
                t = dict(t, peak_mb=record["peak_bytes"].get(span, 0) / 2**20)
            values[f"{span}.{stat}"] = t[stat]
    hashed = totals.get("sampler.numerators", empty)["elements"]
    pairs = record["distinct_hashed_pairs"]
    values["sampler.hash_redundancy"] = hashed / pairs if pairs else 0.0
    values["cli.bytes_written"] = bytes_written
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    top = sum(end - start for _, _, start, end, parent, _, _ in spans
              if parent is None)
    values["trace.coverage_frac"] = top / traced_wall
    values["ops_failed_frac"] = failed_frac
    units = metric_units()
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}
