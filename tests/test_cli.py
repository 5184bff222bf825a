import csv
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rmflab import ConfigurationError, LabError, PreconditionError
from rmflab.cli import _RUNNERS, ExperimentConfig, main, parse_beta, run, \
    validate
from rmflab.sieve import MAX_LIMIT


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_parse_beta():
    assert float(parse_beta("3/4")) == 0.75
    assert parse_beta("1").is_one
    assert float(parse_beta("15/16")) == 0.9375
    with pytest.raises(ValueError):
        parse_beta("2/3")
    with pytest.raises(ValueError):
        parse_beta("0.75")


def test_identity_run_writes_residual_row(tmp_path):
    code = main(["identity", "--level", "1", "--prime-limit", "10000",
                 "--sigmas", "1.5", "--ts", "0", "--seeds", "42",
                 "--out", str(tmp_path / "r")])
    assert code == 0
    rows = read_csv(tmp_path / "r" / "identity.csv")
    assert len(rows) == 1
    assert float(rows[0]["residual"]) < 1e-10
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["beta_form"] == "1 - 1/2^2"


def test_iet_test_reports_bitwise_pass(tmp_path):
    code = main(["iet-test", "--level", "8", "--seeds", "3",
                 "--points", "20000", "--out", str(tmp_path / "r")])
    assert code == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["periodicity"] == "pass (bitwise)"


def test_validate_weighted_growth_threshold():
    cfg = ExperimentConfig(kind="weighted-growth", beta="3/4", seeds=[1])
    violations = validate(cfg)
    assert any("0.853553" in v for v in violations)


def test_validate_identity_sigma():
    cfg = ExperimentConfig(kind="identity", level=1, sigmas=[0.9], seeds=[1])
    violations = validate(cfg)
    assert any("Re(s) > 1" in v for v in violations)


def test_validate_ok_growth():
    cfg = ExperimentConfig(kind="growth", beta="3/4", seeds=[1, 2],
                           limit=10**4)
    assert validate(cfg) == []


def test_empty_seed_list_is_usage_error(tmp_path):
    code = main(["identity", "--level", "1", "--seeds",
                 "--out", str(tmp_path / "r")])
    assert code == 2


def test_cli_validate_subcommand_exit_codes():
    assert main(["validate", "growth", "--beta", "3/4", "--seeds", "1"]) == 0
    assert main(["validate", "weighted-growth", "--beta", "3/4",
                 "--seeds", "1"]) == 2


def test_rerun_checksums_identical(tmp_path):
    c = ExperimentConfig(kind="abel", beta="3/4", limit=2000, sigmas=[1.5],
                         ts=[0.0], seeds=[5], outdir=str(tmp_path / "r"))
    first = run(c)
    second = run(c)
    assert first["outputs"] == second["outputs"]


def test_growth_and_campaign_smoke(tmp_path):
    code = main(["growth", "--beta", "3/4", "--limit", "20000",
                 "--seeds", "1", "2", "--window", "100", "20000",
                 "--out", str(tmp_path / "g")])
    assert code == 0
    rows = read_csv(tmp_path / "g" / "growth.csv")
    assert {r["seed"] for r in rows} == {"1", "2"}
    assert any(r["ratio"] != "" for r in rows)

    code = main(["campaign", "--beta", "7/8", "--weighted",
                 "--limit", "20000", "--seeds", "1", "2", "3",
                 "--window", "100", "20000",
                 "--out", str(tmp_path / "c")])
    assert code == 0
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["config"]["weighted"] is True
    assert len(summary["per_seed"]) == 3


def test_exp_form_abel_hscan_smoke(tmp_path):
    assert main(["exp-form", "--beta", "3/4", "--prime-limit", "2000",
                 "--sigmas", "1.2", "2", "--ts", "0",
                 "--seeds", "1", "2", "--out", str(tmp_path / "e")]) == 0
    assert main(["abel", "--beta", "1/2", "--limit", "2000",
                 "--sigmas", "1.5", "--ts", "0", "--seeds", "1",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["h-scan", "--beta", "7/8", "--prime-limit", "2000",
                 "--sigmas", "0.75", "--ts", "10", "100",
                 "--seeds", "1", "--out", str(tmp_path / "h")]) == 0
    rows = read_csv(tmp_path / "h" / "h_scan.csv")
    assert len(rows) == 2


def test_shipped_configs_validate():
    root = Path(__file__).resolve().parents[1] / "configs"
    for cfg_file in sorted(root.glob("*.json")):
        payload = json.loads(cfg_file.read_text())
        cfg = ExperimentConfig(**payload)
        assert validate(cfg) == [], cfg_file.name


BETA_KINDS = ("growth", "weighted-growth", "exp-form", "abel", "h-scan",
              "campaign")


def pipeline_rejects(config: ExperimentConfig) -> bool:
    """True iff the experiment, run without validate(), raises a
    PreconditionError or ConfigurationError."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _RUNNERS[config.kind](config, Path(tmp))
        except (PreconditionError, ConfigurationError):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(BETA_KINDS), weighted=st.booleans(),
       bits=st.integers(0, 6), data=st.data(),
       limit=st.one_of(st.integers(1000, 3000), st.just(MAX_LIMIT + 1)))
def test_validate_rejects_what_run_rejects(kind, weighted, bits, data, limit):
    k = data.draw(st.integers(0, 2**bits), label="k")
    cfg = ExperimentConfig(kind=kind, beta=f"{k}/{2**bits}", limit=limit,
                           prime_limit=1000, seeds=[1], weighted=weighted)
    accepted = validate(cfg) == []
    assert accepted == (not pipeline_rejects(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        cfg.outdir = tmp
        if accepted:
            run(cfg)
        else:
            with pytest.raises(LabError):
                run(cfg)


def test_validate_names_beta_below_half_and_sieve_limit():
    for kind in ("growth", "abel", "campaign", "exp-form"):
        cfg = ExperimentConfig(kind=kind, beta="1/4", seeds=[1])
        assert any("beta >= 1/2" in v for v in validate(cfg)), kind
    cfg = ExperimentConfig(kind="growth", beta="3/4", limit=MAX_LIMIT + 1,
                           seeds=[1])
    assert any(str(MAX_LIMIT) in v for v in validate(cfg))
    # the identity experiment never sieves, so its limit is not checked
    cfg = ExperimentConfig(kind="identity", level=1, limit=MAX_LIMIT + 1,
                           seeds=[1])
    assert validate(cfg) == []
