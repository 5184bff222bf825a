"""Regression gate: every shipped config reproduces its recorded output bytes.

Each config in ``configs/`` is run through ``rmflab.cli.run`` and the sha256
of every emitted CSV and ``summary.json`` is compared with
``golden_outputs.json``.  ``manifest.json`` (timestamp) and ``config.json``
(output directory) are left out.  The three acc01 identity configs run at
full size; every other config runs with ``limit`` and ``prime_limit`` capped
at 10**5 and at most 3 seeds, with the default fit window scaled to the
capped limit.

``EXTRA_CASES`` cover paths no shipped config reaches: the default fit
window of growth, weighted growth and both kinds of campaign at limits
above 1000, an explicit weighted-growth window, growth and a weighted
campaign over two lane groups (9 seeds) at betas of 40 bits after the
point (the full hash through the lane pass), the four seed x sigma x t
sweeps over several seeds, sigmas and negative t, ``abel`` at beta = 1
(every prime minus, nothing hashed) and at a beta of 40 bits after the
point (the full hash of ``sampler._plus_blocks``), and the iet-test index
dynamics over every interval and over a random sample of them.

Re-record after a deliberate output change with

    PYTHONPATH=src python tests/test_golden_outputs.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from rmflab.cli import ExperimentConfig, run

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
CAP = 10**5
MAX_SEEDS = 3
SKIPPED_FILES = {"manifest.json", "config.json"}
EXTRA_CASES = {
    "extra_weighted_growth_default_window": {
        "kind": "weighted-growth", "beta": "7/8", "limit": 30000,
        "seeds": [1, 2]},
    "extra_weighted_growth_window": {
        "kind": "weighted-growth", "beta": "15/16", "limit": 20000,
        "seeds": [3], "window": [100, 20000]},
    "extra_growth_default_window": {
        "kind": "growth", "beta": "3/4", "limit": 50000, "seeds": [4, 5]},
    "extra_campaign_default_window": {
        "kind": "campaign", "beta": "1/2", "limit": 50000,
        "seeds": [1, 2, 3]},
    "extra_campaign_weighted_default_window": {
        "kind": "campaign", "beta": "15/16", "limit": 50000,
        "seeds": [1, 2], "weighted": True},
    "extra_growth_two_lane_groups_full_hash": {
        "kind": "growth", "beta": "824633720831/1099511627776",
        "limit": 30000, "seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9]},
    "extra_campaign_weighted_full_hash": {
        "kind": "campaign", "beta": "1030792151039/1099511627776",
        "limit": 50000, "seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9],
        "weighted": True},
    "extra_identity_sweep": {
        "kind": "identity", "level": 3, "prime_limit": 5000, "seeds": [7, 11],
        "sigmas": [1.05, 2.5], "ts": [-12.5, 0, 3]},
    "extra_exp_form_sweep": {
        "kind": "exp-form", "beta": "7/8", "prime_limit": 5000,
        "seeds": [4, 9], "sigmas": [0.6, 1.3], "ts": [-8, 0, 25]},
    "extra_abel_sweep": {
        "kind": "abel", "beta": "3/4", "limit": 20000, "seeds": [2, 8],
        "sigmas": [0.25, 1.1], "ts": [-6, 0, 14]},
    "extra_abel_beta_one": {
        "kind": "abel", "beta": "1", "limit": 30031, "seeds": [5],
        "sigmas": [0.5, 1.2], "ts": [0, 9]},
    "extra_abel_full_hash": {
        "kind": "abel", "beta": "824633720831/1099511627776",
        "limit": 40000, "seeds": [6, 42], "sigmas": [0.75], "ts": [-3, 0]},
    "extra_h_scan_sweep": {
        "kind": "h-scan", "beta": "15/16", "prime_limit": 5000,
        "seeds": [3, 10], "sigmas": [0.55, 1.4], "ts": [-40, 0, 7]},
    "extra_iet_all_intervals": {
        "kind": "iet-test", "level": 10, "points": 5000, "seeds": [5]},
    "extra_iet_sampled_intervals": {
        "kind": "iet-test", "level": 14, "points": 2000, "seeds": [6]},
}


def reduced(payload: dict) -> dict:
    """The shipped config at the gate's size."""
    cfg = dict(payload)
    if cfg["kind"] == "identity":
        return cfg
    cfg["seeds"] = cfg["seeds"][:MAX_SEEDS]
    for key in ("limit", "prime_limit"):
        if key in cfg and cfg[key] > CAP:
            cfg[key] = CAP
            if key == "limit" and "window" in cfg:
                cfg["window"] = [CAP / 100, CAP]
    return cfg


def case_config(name: str) -> dict:
    """The config a gate case runs: a reduced shipped config or an extra."""
    if name in EXTRA_CASES:
        return dict(EXTRA_CASES[name])
    return reduced(json.loads((ROOT / "configs" / f"{name}.json").read_text()))


def output_digests(name: str, outdir: Path) -> dict:
    cfg = case_config(name)
    cfg["outdir"] = str(outdir)
    run(ExperimentConfig(**cfg))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())
            if p.is_file() and p.name not in SKIPPED_FILES}


@pytest.mark.parametrize("config_file", CONFIGS, ids=lambda p: p.stem)
def test_golden_outputs(config_file, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert output_digests(config_file.stem, tmp_path / "run") == \
        golden[config_file.stem]


@pytest.mark.parametrize("name", sorted(EXTRA_CASES))
def test_golden_extra_outputs(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert output_digests(name, tmp_path / "run") == golden[name]


def test_golden_file_covers_every_config():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted([p.stem for p in CONFIGS] +
                                    list(EXTRA_CASES))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_outputs.py --record")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        names = [p.stem for p in CONFIGS] + sorted(EXTRA_CASES)
        digests = {name: output_digests(name, Path(tmp) / name)
                   for name in names}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} configs in {GOLDEN}")
