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
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import HALF, SCALE_BITS, DyadicFraction, beta_for_level
from .dirichlet import (WEIGHT_BETA_THRESHOLD, H_eval, euler_F, exp_form_F,
                        identity_residual)
from .errors import LabError
from .growth import (CampaignConfig, abel_consistency, checkpoint_grid,
                     fit_growth_exponent, monte_carlo_campaign, partial_sums,
                     selberg_delange_ratio, weighted_partial_sums)
from .iet import IetSpec, apply_T, apply_T_power, apply_T_power_numerators, \
    interval_index
from .sampler import OmegaAssignment, build_sign_series
from .sieve import MAX_LIMIT, _sieve_mu_omega, mobius_sieve

KINDS = ("identity", "iet-test", "growth", "weighted-growth", "exp-form",
         "abel", "h-scan", "campaign")

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
    v = []
    if config.kind not in KINDS:
        v.append(f"kind={config.kind!r}: must be one of {KINDS}")
        return v
    if not config.seeds:
        v.append("seeds=[]: at least one seed is required")
    if config.kind in ("identity", "iet-test") and config.level is None:
        v.append(f"level=None: kind {config.kind} requires a level n")
    if config.level is not None and not 1 <= config.level <= 62:
        v.append(f"level={config.level}: must be in [1, 62]")
    needs_beta = config.kind in ("growth", "weighted-growth", "exp-form",
                                 "abel", "h-scan", "campaign")
    if needs_beta and config.beta is None and config.level is None:
        v.append(f"beta=None: kind {config.kind} requires beta (or level)")
    b = None
    if config.beta is not None:
        try:
            beta = parse_beta(config.beta)
        except ValueError as exc:
            v.append(f"beta={config.beta!r}: {exc}")
        else:
            b = float(beta)
            if needs_beta and beta < HALF:
                v.append(f"beta={config.beta}: sign thresholds require "
                         "beta >= 1/2")
    if config.kind == "identity":
        for sigma in config.sigmas:
            if sigma <= 1:
                v.append(f"sigma={sigma}: the zeta identity is stated for "
                         "Re(s) > 1")
    weight_kinds = ("weighted-growth", "h-scan")
    if (config.kind in weight_kinds or
            (config.kind == "campaign" and config.weighted)) and b is not None:
        if not WEIGHT_BETA_THRESHOLD < b < 1:
            v.append(f"beta={config.beta}: weighted sums require "
                     f"1/2 + 1/(2*sqrt(2)) ~ {WEIGHT_BETA_THRESHOLD:.6f} "
                     "< beta < 1")
    if config.kind in ("exp-form", "h-scan"):
        for sigma in config.sigmas:
            if sigma <= 0.5:
                v.append(f"sigma={sigma}: tail series requires Re(s) > 1/2")
    if config.prime_limit < 2:
        v.append(f"prime_limit={config.prime_limit}: must be >= 2")
    if config.limit < 2:
        v.append(f"limit={config.limit}: must be >= 2")
    sieve_kinds = ("growth", "weighted-growth", "abel", "campaign")
    if config.kind in sieve_kinds and config.limit > MAX_LIMIT:
        v.append(f"limit={config.limit}: the sieve supports at most "
                 f"{MAX_LIMIT}")
    if config.window is not None and len(config.window) != 2:
        v.append(f"window={config.window}: expected [x_min, x_max]")
    return v


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.17g}" if isinstance(x, float) else x
                        for x in row])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        "outputs": {p.name: _sha256(p) for p in files},
    }
    _write_json(outdir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# experiment pipelines
# ---------------------------------------------------------------------------

def _run_identity(config: ExperimentConfig, outdir: Path) -> tuple[dict, bool]:
    rows = []
    worst = 0.0
    for seed in config.seeds:
        assignment = OmegaAssignment(master_seed=seed,
                                     prime_limit=config.prime_limit)
        for sigma in config.sigmas:
            for t in config.ts:
                res = identity_residual(config.level, assignment,
                                        config.prime_limit,
                                        complex(sigma, t))
                worst = max(worst, res)
                rows.append([sigma, t, config.prime_limit, seed, res])
    _write_csv(outdir / "identity.csv",
               ["sigma", "t", "P", "seed", "residual"], rows)
    ok = worst < config.tolerance
    beta = beta_for_level(config.level)
    return {"experiment": "identity", "level": config.level,
            "beta": beta.as_fraction_string(),
            "beta_form": f"1 - 1/2^{config.level + 1}",
            "max_residual": worst, "tolerance": config.tolerance,
            "pass": ok}, ok


def _run_iet_test(config: ExperimentConfig, outdir: Path) -> tuple[dict, bool]:
    from scipy.stats import ks_2samp
    spec = IetSpec(config.level)
    rng = np.random.default_rng(config.seeds[0])
    nums = rng.integers(0, 2**SCALE_BITS, size=config.points,
                        dtype=np.uint64)
    back = apply_T_power_numerators(spec, nums, spec.intervals)
    periodic = bool(np.array_equal(back, nums))
    # index dynamics over one representative per interval
    dynamics = True
    for k in range(0, spec.intervals + 1):
        if k == 0:
            x = DyadicFraction(1 << 60)  # below 1/2
        else:
            x = spec.endpoint(k - 1)
        ix, tx = interval_index(spec, x), interval_index(spec, apply_T(spec, x))
        want = 0 if ix == 0 else (spec.intervals if ix == 1 else ix - 1)
        dynamics &= tx == want
        dynamics &= apply_T_power(spec, x, spec.intervals) == x
    imgs = apply_T_power_numerators(spec, nums, 1)
    stat = ks_2samp(nums / 2.0**SCALE_BITS, imgs / 2.0**SCALE_BITS).statistic
    crit = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / config.points)
    ok = periodic and dynamics and stat < crit
    rows = [["periodicity_bitwise", int(periodic)],
            ["index_dynamics", int(dynamics)],
            ["ks_statistic", float(stat)],
            ["ks_critical_1e-3", float(crit)]]
    _write_csv(outdir / "iet.csv", ["check", "value"], rows)
    return {"experiment": "iet-test", "level": config.level,
            "beta": spec.beta.as_fraction_string(),
            "beta_form": f"1 - 1/2^{config.level + 1}",
            "periodicity": "pass (bitwise)" if periodic else "FAIL",
            "index_dynamics": dynamics,
            "ks_statistic": float(stat), "ks_critical": crit,
            "pass": ok}, ok


def _growth_common(config: ExperimentConfig, outdir: Path,
                   weighted: bool) -> tuple[dict, bool]:
    beta = config.beta_value()
    if weighted:
        mobius, omega_counts = _sieve_mu_omega(config.limit)
    else:
        mobius, omega_counts = mobius_sieve(config.limit), None
    grid = checkpoint_grid(config.limit)
    window = tuple(config.window) if config.window else \
        (max(grid[0], config.limit / 100), config.limit)
    rows, fits = [], {}
    ok = True
    for seed in config.seeds:
        assignment = OmegaAssignment(master_seed=seed,
                                     prime_limit=config.limit)
        series = build_sign_series(beta, assignment, config.limit, mobius)
        if weighted:
            sums = weighted_partial_sums(beta, series, omega_counts, grid)
        else:
            sums = partial_sums(series, grid)
        ratios = [""] * len(grid)
        if not weighted and 0.5 < float(beta) < 1.0:
            stat = selberg_delange_ratio(beta, sums)
            lookup = {int(x): r for x, r in zip(stat.checkpoints,
                                                stat.ratios)}
            ratios = [lookup.get(int(x), "") for x in grid]
        for x, s, rr in zip(grid, sums.sums, ratios):
            rows.append([seed, int(x), float(s), rr])
        fit = fit_growth_exponent(sums, window)
        fits[str(seed)] = {"alpha": fit.alpha, "stderr": fit.stderr,
                           "points_used": fit.points_used,
                           "points_dropped": fit.points_dropped}
    name = "weighted_growth.csv" if weighted else "growth.csv"
    _write_csv(outdir / name, ["seed", "x", "S", "ratio"], rows)
    return {"experiment": "weighted-growth" if weighted else "growth",
            "beta": beta.as_fraction_string(), "limit": config.limit,
            "window": list(window), "fits": fits, "pass": ok}, ok


def _run_exp_form(config: ExperimentConfig, outdir: Path) -> tuple[dict, bool]:
    beta = config.beta_value()
    rows = []
    worst = 0.0
    for seed in config.seeds:
        assignment = OmegaAssignment(master_seed=seed,
                                     prime_limit=config.prime_limit)
        for sigma in config.sigmas:
            for t in config.ts:
                s = complex(sigma, t)
                ps, at = exp_form_F(beta, assignment, config.prime_limit, s)
                ev = euler_F(beta, assignment, config.prime_limit, s)
                res = abs(np.exp(ps + at) - ev.value)
                worst = max(worst, res)
                rows.append([sigma, t, config.prime_limit, seed,
                             ps.real, ps.imag, at.real, at.imag, res])
    _write_csv(outdir / "exp_form.csv",
               ["sigma", "t", "P", "seed", "prime_sum_re", "prime_sum_im",
                "A_tail_re", "A_tail_im", "residual"], rows)
    ok = worst < config.tolerance
    return {"experiment": "exp-form", "beta": beta.as_fraction_string(),
            "max_residual": worst, "tolerance": config.tolerance,
            "pass": ok}, ok


def _run_abel(config: ExperimentConfig, outdir: Path) -> tuple[dict, bool]:
    beta = config.beta_value()
    mobius = mobius_sieve(config.limit)
    rows = []
    worst = 0.0
    for seed in config.seeds:
        assignment = OmegaAssignment(master_seed=seed,
                                     prime_limit=config.limit)
        series = build_sign_series(beta, assignment, config.limit, mobius)
        for sigma in config.sigmas:
            for t in config.ts:
                res = abel_consistency(series, config.limit,
                                       complex(sigma, t))
                worst = max(worst, res)
                rows.append([sigma, t, config.limit, seed, res])
    _write_csv(outdir / "abel.csv",
               ["sigma", "t", "X", "seed", "residual"], rows)
    ok = worst < config.tolerance
    return {"experiment": "abel", "beta": beta.as_fraction_string(),
            "max_residual": worst, "tolerance": config.tolerance,
            "pass": ok}, ok


def _run_h_scan(config: ExperimentConfig, outdir: Path) -> tuple[dict, bool]:
    beta = config.beta_value()
    rows = []
    for seed in config.seeds:
        assignment = OmegaAssignment(master_seed=seed,
                                     prime_limit=config.prime_limit)
        for sigma in config.sigmas:
            for t in config.ts:
                h = H_eval(beta, assignment, config.prime_limit,
                           complex(sigma, t))
                rows.append([sigma, t, config.prime_limit, seed,
                             abs(h.log_value), h.value.real, h.value.imag])
    _write_csv(outdir / "h_scan.csv",
               ["sigma", "t", "P", "seed", "log_H_abs", "H_re", "H_im"],
               rows)
    # recorded, not asserted: growth in t is a qualitative observation
    return {"experiment": "h-scan", "beta": beta.as_fraction_string(),
            "rows": len(rows), "pass": True}, True


def _run_campaign(config: ExperimentConfig, outdir: Path) -> tuple[dict, bool]:
    beta = config.beta_value()
    weighted = config.weighted
    window = tuple(config.window) if config.window else \
        (config.limit / 100, config.limit)
    ccfg = CampaignConfig(beta_numerator=beta.numerator, limit=config.limit,
                          seeds=tuple(config.seeds), window=window,
                          weighted=weighted)
    report = monte_carlo_campaign(ccfg)
    rows = [[r.seed, r.alpha, r.stderr, r.points_used, r.points_dropped,
             "" if r.terminal_ratio is None else r.terminal_ratio,
             "" if r.ratio_decade is None else r.ratio_decade]
            for r in report.per_seed]
    _write_csv(outdir / "campaign.csv",
               ["seed", "alpha", "stderr", "points_used", "points_dropped",
                "terminal_ratio", "ratio_decade"], rows)
    summary = report.to_dict()
    summary["experiment"] = "campaign"
    summary["beta"] = beta.as_fraction_string()
    summary["pass"] = True
    return summary, True


_RUNNERS = {
    "identity": _run_identity,
    "iet-test": _run_iet_test,
    "growth": lambda c, o: _growth_common(c, o, weighted=False),
    "weighted-growth": lambda c, o: _growth_common(c, o, weighted=True),
    "exp-form": _run_exp_form,
    "abel": _run_abel,
    "h-scan": _run_h_scan,
    "campaign": _run_campaign,
}


def run(config: ExperimentConfig) -> dict:
    """Validate, execute, persist. Returns the manifest."""
    violations = validate(config)
    if violations:
        raise LabError("; ".join(violations))
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "config.json", asdict(config))
    summary, ok = _RUNNERS[config.kind](config, outdir)
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


def _config_from_args(kind: str, args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        base = json.loads(Path(args.config).read_text())
        base.pop("kind", None)
    cfg = ExperimentConfig(kind=kind, **base)
    for name in ("level", "beta", "prime_limit", "limit", "sigmas", "ts",
                 "seeds", "window", "tolerance", "points", "weighted",
                 "outdir"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
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
                kind = json.loads(Path(args.config).read_text()).get("kind")
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
