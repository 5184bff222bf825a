"""Regression gate: every shipped config reproduces its recorded output bytes.

Each config in ``configs/`` is run through ``rmflab.cli.run`` and the sha256
of every emitted CSV and ``summary.json`` is compared with
``golden_outputs.json``.  ``manifest.json`` (timestamp) and ``config.json``
(output directory) are left out.  The three acc01 identity configs run at
full size; every other config runs with ``limit`` and ``prime_limit`` capped
at 10**5 and at most 3 seeds, with the default fit window scaled to the
capped limit.

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


def output_digests(config_file: Path, outdir: Path) -> dict:
    cfg = reduced(json.loads(config_file.read_text()))
    cfg["outdir"] = str(outdir)
    run(ExperimentConfig(**cfg))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())
            if p.is_file() and p.name not in SKIPPED_FILES}


@pytest.mark.parametrize("config_file", CONFIGS, ids=lambda p: p.stem)
def test_golden_outputs(config_file, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert output_digests(config_file, tmp_path / "run") == \
        golden[config_file.stem]


def test_golden_file_covers_every_config():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == [p.stem for p in CONFIGS]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_outputs.py --record")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = {p.stem: output_digests(p, Path(tmp) / p.stem)
                   for p in CONFIGS}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} configs in {GOLDEN}")
