"""Command-line front end: configured experiments with reproducible outputs.

Each run writes one directory: ``config.json`` (the effective config),
experiment CSV/JSON outputs, and ``manifest.json`` listing every emitted
file with its sha256.  Reruns with the same config produce byte-identical
outputs (the manifest's timestamp is the only varying field, and it is not
itself checksummed).

Exit codes: 0 success, 1 a checked residual exceeded its tolerance,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

# sha256 from the built-in module, as random.py takes sha512: hashlib
# would load OpenSSL's libcrypto to hash a few KB of outputs
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__
from .dyadic import HALF, SCALE_BITS, DyadicFraction, beta_for_level
from .dirichlet import (MAX_IDENTITY_LEVEL, WEIGHT_BETA_THRESHOLD, H_eval,
                        IdentityEvaluator, euler_F, exp_form_F)
from .errors import (ConfigurationError, DomainError, LabError,
                     PreconditionError)
from .growth import (MIN_FIT_POINTS, CampaignConfig, abel_consistency,
                     checkpoint_grid, coupled_sums, default_window,
                     fit_growth_exponent, monte_carlo_campaign,
                     selberg_delange_ratio)
from .iet import IetSpec, apply_T_power_numerators
from .sampler import OmegaAssignment, _sign_series, is_integer, is_seed
from .sieve import _COUNT_LIMIT, MAX_LIMIT

# iet-test holds about 135 bytes a point (+129 MiB VmHWM at 10**6 points)
MAX_IET_POINTS = 10**7

USAGE_ERROR = 2
CHECK_FAILED = 1


def parse_beta(text: str) -> DyadicFraction:
    """Parse an exact dyadic beta: "1", "1/2", "7/8", "15/16"...  """
    text = text.strip()
    if text == "1":
        return DyadicFraction.one()
    if "/" in text:
        num, den = text.split("/", 1)
        k, d = int(num), int(den)
        if d <= 0 or d & (d - 1):
            raise ValueError(f"denominator {d} is not a power of two")
        if not 0 <= k <= d:
            raise ValueError(f"{text} outside [0, 1]")
        return DyadicFraction.from_fraction(k, d.bit_length() - 1)
    raise ValueError(f"beta must be 'k/2^m' style (got {text!r})")


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, JSON round-trippable."""

    kind: str
    level: int | None = None
    beta: str | None = None  # exact fraction text, e.g. "3/4"
    prime_limit: int = 10**4
    limit: int = 10**5
    sigmas: list[float] = field(default_factory=lambda: [1.5])
    ts: list[float] = field(default_factory=lambda: [0.0])
    seeds: list[int] = field(default_factory=lambda: [1])
    window: list[float] | None = None
    tolerance: float = 1e-10
    points: int = 10**5
    weighted: bool = False
    outdir: str = "runs/latest"

    def beta_value(self) -> DyadicFraction:
        if self.beta is not None:
            return parse_beta(self.beta)
        if self.level is not None:
            return beta_for_level(self.level)
        raise ValueError("config needs beta or level")


def validate(config: ExperimentConfig) -> list[str]:
    """Constraint check; empty list means run() would accept the config."""
    if config.kind not in KINDS:  # compared, not hashed: [1] is refused too
        return [f"kind={config.kind!r}: must be one of {KINDS}"]
    kind = _KINDS[config.kind]
    # a JSON config can give any field any type; a wrong one would reach
    # numpy, a shift or a comparison as a TypeError ("false" would even pass
    # as a true weighted); the checks below compare them, so these come first
    sizes = {"limit": config.limit, "prime_limit": config.prime_limit,
             "points": config.points}
    if config.level is not None:
        sizes["level"] = config.level
    v = [f"{name}={value!r}: must be an integer"
         for name, value in sizes.items() if not is_integer(value)]
    reals = {"sigmas": config.sigmas, "ts": config.ts}
    if config.window is not None:
        reals["window"] = config.window
    v += [f"{name}={values!r}: must be a list of real numbers"
          for name, values in reals.items()
          if not (isinstance(values, list) and all(map(_is_real, values)))]
    if not isinstance(config.seeds, list):
        v.append(f"seeds={config.seeds!r}: must be a list of integers")
    if config.beta is not None and not isinstance(config.beta, str):
        v.append(f"beta={config.beta!r}: must be a fraction text like \"3/4\"")
    tol = config.tolerance
    if not (_is_real(tol) and math.isfinite(tol) and tol > 0):
        v.append(f"tolerance={tol!r}: must be a finite real number > 0")
    if not isinstance(config.weighted, bool):
        v.append(f"weighted={config.weighted!r}: must be true or false")
    if not isinstance(config.outdir, str):
        v.append(f"outdir={config.outdir!r}: must be a path text")
    if v:
        return v
    if not config.seeds:
        v.append("seeds=[]: at least one seed is required")
    v += _unread_refusals(config)
    if config.level is not None and not 1 <= config.level <= 62:
        v.append(f"level={config.level}: must be in [1, 62]")
    elif config.level is not None and 0 < kind.level < config.level:
        # only the identity caps its level below 62, so this is its message
        v.append(f"level={config.level}: the identity evaluates "
                 f"2**{config.level} + 2 = {2**config.level + 2:,} Euler "
                 f"products; levels above {kind.level} are not evaluated")
    if not all(map(is_seed, config.seeds)):
        v.append(f"seeds={config.seeds}: every seed must be an integer in "
                 "[0, 2**64)")
    if not kind.level and config.beta is None and config.level is None:
        v.append(f"beta=None: kind {config.kind} requires beta (or level)")
    b = None  # the beta run() uses, from beta or else from a valid level
    if config.beta is not None or \
            config.level is not None and 1 <= config.level <= 62:
        try:
            beta = config.beta_value()
        except ValueError as exc:  # only a beta text can fail here
            v.append(f"beta={config.beta!r}: {exc}")
        else:
            b = float(beta)
            if not kind.level and beta < HALF:
                v.append(f"beta={config.beta}: sign thresholds require "
                         "beta >= 1/2")
    if kind.at:
        v += [f"sigma={sigma}: {kind.why}"
              for sigma in config.sigmas if sigma <= kind.floor]
        if why := _points_refusal(config):
            v.append(why)
    weighted = kind.weight == "always" or \
        kind.weight == "optional" and config.weighted
    if weighted and b is not None and not WEIGHT_BETA_THRESHOLD < b < 1:
        v.append(f"beta={beta.as_fraction_string()}: weighted sums require "
                 f"1/2 + 1/(2*sqrt(2)) ~ {WEIGHT_BETA_THRESHOLD:.6f} "
                 "< beta < 1")
    # each kind checks only the size it reads
    lo, hi = kind.bounds
    size = getattr(config, kind.size)
    if kind.size == "points" and not lo <= size <= hi:
        v.append(f"points={size}: must be in [{lo}, {hi}]")
    elif size < lo:
        v.append(f"{kind.size}={size}: must be >= {lo}")
    elif size > hi:
        v.append(f"{kind.size}={size}: {kind.cap or 'kind ' + config.kind} "
                 f"supports at most {hi}")
    if config.window is not None and len(config.window) != 2:
        v.append(f"window={config.window}: expected [x_min, x_max]")
    elif kind.runner in (_run_growth, _run_campaign) and \
            lo <= config.limit <= hi:  # the kinds that fit a window
        lo, hi = _fit_window(config)
        grid = checkpoint_grid(config.limit)
        inside = int(np.count_nonzero((grid >= lo) & (grid <= hi)))
        if inside < MIN_FIT_POINTS:
            v.append(f"window=[{lo}, {hi}]: holds {inside} checkpoints up "
                     f"to limit {config.limit}; a fit needs {MIN_FIT_POINTS}")
    return v


def _points_refusal(config: ExperimentConfig) -> str | None:
    """Why a sweep's sigmas and ts give it no point, or a non-finite one."""
    if not (config.sigmas and config.ts and
            all(map(math.isfinite, config.sigmas + config.ts))):
        return (f"sigmas={config.sigmas}, ts={config.ts}: a sweep needs at "
                "least one of each, all finite")


def _unread_refusals(config: ExperimentConfig) -> list[str]:
    """weighted: true on a kind whose outputs it would not change, and no
    level on a kind that requires one; the runners raise them as well."""
    kind, name = _KINDS[config.kind], config.kind
    return [why for bad, why in (
        (config.weighted and kind.weight == "never",
         f"weighted=True: kind {name} has no weighted form; the weighted "
         "sums are kind weighted-growth (or campaign with weighted)"),
        (kind.level and config.level is None,
         f"level=None: kind {name} requires a level n")) if bad]


def _refuse_unread(config: ExperimentConfig) -> None:
    if why := _unread_refusals(config):
        raise PreconditionError("; ".join(why))


def _is_real(value) -> bool:
    """True for a real number, not a bool or a str."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_csv(outdir: Path, kind: str, rows: list[list]) -> None:
    with (outdir / _KINDS[kind].csv).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_KINDS[kind].header)
        for row in rows:
            w.writerow([f"{x:.17g}" if isinstance(x, float) else x
                        for x in row])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()  # numpy scalars become bool, int or float
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _finish_run(outdir: Path, config: ExperimentConfig,
                summary: dict) -> dict:
    """Write summary.json and the manifest; return the manifest."""
    _write_json(outdir / "summary.json", summary)
    files = sorted(p for p in outdir.iterdir()
                   if p.is_file() and p.name != "manifest.json")
    manifest = {
        "artifact_version": __version__,
        "config": asdict(config),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": {p.name: sha256(p.read_bytes()).hexdigest()
                    for p in files},
    }
    _write_json(outdir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# experiment pipelines
# ---------------------------------------------------------------------------

def _level_fields(level: int) -> dict:
    """The level-n threshold, as identity and iet-test summaries report it."""
    return {"level": level,
            "beta": beta_for_level(level).as_fraction_string(),
            "beta_form": f"1 - 1/2^{level + 1}"}


def _fit_window(config: ExperimentConfig) -> tuple[float, float]:
    return tuple(config.window) if config.window else \
        default_window(config.limit)


def _dynamics_hold(spec: IetSpec, rng: np.random.Generator,
                   points: int) -> bool:
    """T fixes [0, 1/2) and moves a_j, the left end of I_{j+1}, to a_{j-1}.

    Checked at 1/16 and at every a_j (j mod 2**n), or, when there are more
    than ``points`` intervals, at ``points`` random ones plus those of I_1,
    I_2 and I_{2^n}.
    """
    n = spec.intervals
    j = np.arange(n, dtype=np.uint64) if n <= points else np.concatenate(
        [np.array([0, 1, n - 1], dtype=np.uint64),
         rng.integers(0, n, size=points, dtype=np.uint64)])
    ends = np.uint64(1 << (SCALE_BITS - 1)) + \
        np.array([j, (j - np.uint64(1)) % np.uint64(n)]) * \
        np.uint64(spec.step_numerator)
    x, want = (np.append(np.uint64(1 << 60), e) for e in ends)
    return bool(np.array_equal(apply_T_power_numerators(spec, x, 1), want)
                and np.array_equal(apply_T_power_numerators(spec, x, n), x))


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """The two-sample KS statistic of equal-size samples, bit for bit as
    ``ks_2samp`` 1.17 gives it: the largest gap of the two empirical CDFs
    at every point of both, rounded to k/n up to 10,000 points a sample
    (its exact path), the float CDFs' difference above (its asymptotic
    path)."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    n = len(a)
    ca = np.searchsorted(a, both, side="right")
    cb = np.searchsorted(b, both, side="right")
    if n <= 10_000:
        return int(np.abs(ca - cb).max()) / n
    return float(np.abs(ca / n - cb / n).max())


def _run_iet_test(config: ExperimentConfig, outdir: Path) -> tuple[dict, bool]:
    _refuse_unread(config)
    spec = IetSpec(config.level)
    rng = np.random.default_rng(config.seeds[0])
    nums = rng.integers(0, 2**SCALE_BITS, size=config.points,
                        dtype=np.uint64)
    # T**(2**n)'s image is freed before the KS step
    periodic = bool(np.array_equal(
        apply_T_power_numerators(spec, nums, spec.intervals), nums))
    dynamics = _dynamics_hold(spec, rng, config.points)
    imgs = apply_T_power_numerators(spec, nums, 1)
    stat = _ks_statistic(nums / 2.0**SCALE_BITS, imgs / 2.0**SCALE_BITS)
    crit = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / config.points)
    ok = periodic and dynamics and stat < crit
    rows = [["periodicity_bitwise", int(periodic)],
            ["index_dynamics", int(dynamics)],
            ["ks_statistic", stat],
            ["ks_critical_1e-3", float(crit)]]
    _write_csv(outdir, config.kind, rows)
    return {"experiment": config.kind, **_level_fields(config.level),
            "periodicity": "pass (bitwise)" if periodic else "FAIL",
            "index_dynamics": dynamics,
            "ks_statistic": stat, "ks_critical": crit,
            "pass": ok}, ok


def _run_growth(config: ExperimentConfig, outdir: Path) -> tuple[dict, bool]:
    """growth and weighted-growth: checkpoint sums and one fit per seed."""
    _refuse_unread(config)
    beta = config.beta_value()
    weighted = _KINDS[config.kind].weight == "always"
    window = _fit_window(config)
    rows, fits = [], {}
    for seed, sums in zip(config.seeds, coupled_sums(
            beta, config.limit, weighted, config.seeds)):
        ratios = [""] * len(sums.checkpoints)
        if not weighted and 0.5 < float(beta) < 1.0:
            ratios = selberg_delange_ratio(beta, sums).ratios
        for x, s, rr in zip(sums.checkpoints, sums.sums, ratios):
            rows.append([seed, int(x), float(s), rr])
        fit = fit_growth_exponent(sums, window)
        fits[str(seed)] = {"alpha": fit.alpha, "stderr": fit.stderr,
                           "points_used": fit.points_used,
                           "points_dropped": fit.points_dropped}
    _write_csv(outdir, config.kind, rows)
    return {"experiment": config.kind, "beta": beta.as_fraction_string(),
            "limit": config.limit, "window": list(window), "fits": fits,
            "pass": True}, True


def _identity_at(config, beta, assignment):
    residual = IdentityEvaluator(config.level, assignment,
                                 config.prime_limit).residual
    return lambda s: [residual(s)]


def _exp_form_at(config, beta, assignment):
    def at(s):
        ps, tail = exp_form_F(beta, assignment, config.prime_limit, s)
        ev = euler_F(beta, assignment, config.prime_limit, s)
        return [ps.real, ps.imag, tail.real, tail.imag,
                abs(np.exp(ps + tail) - ev.value)]
    return at


def _abel_at(config, beta, assignment):
    values = _sign_series(beta, assignment.master_seed, config.limit)
    return lambda s: [abel_consistency(values, config.limit, s)]


def _h_scan_at(config, beta, assignment):
    def at(s):
        h = H_eval(beta, assignment, config.prime_limit, s)
        return [abs(h.log_value), h.value.real, h.value.imag]
    return at


def _run_sweep(config: ExperimentConfig, outdir: Path) -> tuple[dict, bool]:
    _refuse_unread(config)
    kind = _KINDS[config.kind]
    size = getattr(config, kind.size)
    beta = config.beta_value()
    if why := _points_refusal(config):
        raise DomainError(why)
    rows = []
    for seed in config.seeds:
        at = kind.at(config, beta,
                     OmegaAssignment(master_seed=seed, prime_limit=size))
        for sigma in config.sigmas:
            for t in config.ts:
                rows.append([sigma, t, size, seed, *at(complex(sigma, t))])
    _write_csv(outdir, config.kind, rows)
    summary = {"experiment": config.kind,
               **(_level_fields(config.level) if kind.level
                  else {"beta": beta.as_fraction_string()})}
    if not kind.checked:
        return {**summary, "rows": len(rows), "pass": True}, True
    worst = max([0.0] + [row[-1] for row in rows])
    ok = worst < config.tolerance
    return {**summary, "max_residual": worst, "tolerance": config.tolerance,
            "pass": ok}, ok


def _run_campaign(config: ExperimentConfig, outdir: Path) -> tuple[dict, bool]:
    beta = config.beta_value()
    ccfg = CampaignConfig(beta_numerator=beta.numerator, limit=config.limit,
                          seeds=tuple(config.seeds), weighted=config.weighted,
                          window=_fit_window(config))
    report = monte_carlo_campaign(ccfg)
    rows = [[r.seed, r.alpha, r.stderr, r.points_used, r.points_dropped,
             "" if r.terminal_ratio is None else r.terminal_ratio,
             "" if r.ratio_decade is None else r.ratio_decade]
            for r in report.per_seed]
    _write_csv(outdir, config.kind, rows)
    return {**report.to_dict(), "experiment": config.kind,
            "beta": beta.as_fraction_string(), "pass": True}, True


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: the fields validate() checks, and its outputs."""

    size: str  # the size field it reads: prime_limit, limit or points
    bounds: tuple[int, int]
    cap: str  # what caps the size in validate()'s message; "": the kind
    csv: str
    columns: tuple[str, ...]  # the CSV header, after a sweep's prefix
    runner: Callable
    level: int = 0  # the cap of a kind that needs a level; 0: it reads beta
    weight: str = "never"  # or "always", or "optional": config.weighted
    # a seed x sigma x t sweep's: (config, beta, one seed's omega) to a map
    # from s to the row's values; sigma <= floor is refused, as why says
    at: Callable | None = None
    floor: float = 0.0
    why: str = ""
    checked: bool = True  # its rows end in a residual held to the tolerance

    @property
    def header(self) -> tuple[str, ...]:
        """A sweep's rows lead with sigma, t, its size (P or X) and seed."""
        size = "X" if self.size == "limit" else "P"
        return (("sigma", "t", size, "seed") if self.at else ()) + self.columns


# the sums count primes without a table, abel sieves a table of X; the
# products stream the primes, the identity keeps bytes per prime
_SUMS = ("limit", (10, _COUNT_LIMIT), "the prime count")  # checkpoints from 10
_STREAMED = ("prime_limit", (2, _COUNT_LIMIT), "")
_FIT_COLUMNS = ("seed", "x", "S", "ratio")
_TAIL = "tail series requires Re(s) > 1/2"

_KINDS = {
    "identity": _Kind("prime_limit", (2, MAX_LIMIT), "", "identity.csv",
                      ("residual",), _run_sweep, level=MAX_IDENTITY_LEVEL,
                      at=_identity_at, floor=1,
                      why="the zeta identity is stated for Re(s) > 1"),
    "iet-test": _Kind("points", (1, MAX_IET_POINTS), "", "iet.csv",
                      ("check", "value"), _run_iet_test, level=62),
    "growth": _Kind(*_SUMS, "growth.csv", _FIT_COLUMNS, _run_growth),
    "weighted-growth": _Kind(*_SUMS, "weighted_growth.csv", _FIT_COLUMNS,
                             _run_growth, weight="always"),
    "exp-form": _Kind(*_STREAMED, "exp_form.csv", ("prime_sum_re",
                      "prime_sum_im", "A_tail_re", "A_tail_im", "residual"),
                      _run_sweep, at=_exp_form_at, floor=0.5, why=_TAIL),
    "abel": _Kind("limit", (2, MAX_LIMIT), "the sieve", "abel.csv",
                  ("residual",), _run_sweep, at=_abel_at,
                  why="Abel summation requires Re(s) > 0"),
    "h-scan": _Kind(*_STREAMED, "h_scan.csv", ("log_H_abs", "H_re", "H_im"),
                    _run_sweep, weight="always", at=_h_scan_at, floor=0.5,
                    why=_TAIL, checked=False),  # growth in t: observed
    "campaign": _Kind(*_SUMS, "campaign.csv", ("seed", "alpha", "stderr",
                      "points_used", "points_dropped", "terminal_ratio",
                      "ratio_decade"), _run_campaign, weight="optional"),
}
KINDS = tuple(_KINDS)


def run(config: ExperimentConfig) -> dict:
    """Validate, execute, persist. Returns the manifest."""
    violations = validate(config)
    if violations:
        raise LabError("; ".join(violations))
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "config.json", asdict(config))
    summary, ok = _KINDS[config.kind].runner(config, outdir)
    manifest = _finish_run(outdir, config, summary)
    manifest["pass"] = ok
    return manifest


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override it")
    sp.add_argument("--level", type=int)
    sp.add_argument("--beta", help='exact dyadic fraction, e.g. "3/4"')
    sp.add_argument("--prime-limit", type=int, dest="prime_limit")
    sp.add_argument("--limit", type=int)
    sp.add_argument("--sigmas", type=float, nargs="+")
    sp.add_argument("--ts", type=float, nargs="+")
    sp.add_argument("--seeds", type=int, nargs="+")
    sp.add_argument("--window", type=float, nargs=2)
    sp.add_argument("--tolerance", type=float)
    sp.add_argument("--points", type=int)
    sp.add_argument("--out", dest="outdir")
    sp.add_argument("--weighted", action="store_true", default=None,
                    help="campaign only: use the weighted partial sums")


def _config_file(path: str) -> dict:
    """The fields a JSON config file gives, kind among them if it names one:
    anything but an object of ``ExperimentConfig``'s fields is refused."""
    base = json.loads(Path(path).read_text())
    if not isinstance(base, dict):
        raise ConfigurationError(f"config file {path}: expected a JSON "
                                 f"object of fields, got {base!r}")
    unknown = sorted(set(base) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ConfigurationError(f"config file {path}: unknown field "
                                 f"{', '.join(map(repr, unknown))}")
    return base


def _config_from_args(kind: str, args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        base = _config_file(args.config)
        base.pop("kind", None)
    cfg = ExperimentConfig(kind=kind, **base)
    for f in fields(ExperimentConfig)[1:]:  # every field but kind
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rmflab",
        description="Experiments on coupled random multiplicative signs, "
                    "dyadic interval exchange maps, and truncated Euler "
                    "products.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        _add_common(sub.add_parser(kind))
    vp = sub.add_parser("validate", help="check a config without running")
    _add_common(vp)
    vp.add_argument("kind_to_check", nargs="?", choices=KINDS)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    try:
        if args.command == "validate":
            kind = args.kind_to_check
            if kind is None and args.config:
                kind = _config_file(args.config).get("kind")
            if kind is None:
                print("validate: no kind given (argument or config file)",
                      file=sys.stderr)
                return USAGE_ERROR
            cfg = _config_from_args(kind, args)
            violations = validate(cfg)
            if violations:
                for v in violations:
                    print(f"violation: {v}")
                return USAGE_ERROR
            print("ok")
            return 0
        cfg = _config_from_args(args.command, args)
        violations = validate(cfg)
        if violations:
            for v in violations:
                print(f"usage error: {v}", file=sys.stderr)
            return USAGE_ERROR
        manifest = run(cfg)
        summary_pass = manifest.pop("pass")
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0 if summary_pass else CHECK_FAILED
    except (LabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
