import ast
import csv
import hashlib
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rmflab.cli as cli
import rmflab.dirichlet as dirichlet
import rmflab.sieve as sieve
from rmflab import (ConfigurationError, DomainError, FitError, LabError,
                    PreconditionError)
from rmflab.cli import _KINDS, ExperimentConfig, main, parse_beta, run, \
    validate
from rmflab.growth import (MIN_FIT_POINTS, SumGrid, checkpoint_grid,
                           coupled_sums, default_window, fit_growth_exponent)
from rmflab.sieve import _COUNT_LIMIT, MAX_LIMIT


ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def run_probe(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    rmflab from ``src/``, so that ``sys.modules`` holds only what it loads."""
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
         + code], check=True, capture_output=True, text=True, timeout=120)
    return out.stdout


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


def test_float_limit_in_a_config_file_is_a_usage_error(tmp_path, capsys):
    # JSON reads 1e4 as a float; run() would write config.json, then numpy
    # would raise a TypeError that main() does not catch
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"beta": "3/4", "limit": 1e4, "seeds": [1]}))
    code = main(["campaign", "--config", str(path),
                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert "limit=10000.0: must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name", ["limit", "prime_limit", "points", "level"])
def test_validate_rejects_bool_sizes(name):
    # True would be read as 1, as is_seed refuses it for a seed
    cfg = ExperimentConfig(**{"kind": "iet-test", "level": 3, name: True})
    assert validate(cfg) == [f"{name}=True: must be an integer"]


def test_rerun_checksums_identical(tmp_path):
    c = ExperimentConfig(kind="abel", beta="3/4", limit=2000, sigmas=[1.5],
                         ts=[0.0], seeds=[5], outdir=str(tmp_path / "r"))
    first = run(c)
    second = run(c)
    assert first["outputs"] == second["outputs"]


def test_a_manifest_lists_exactly_its_runs_outputs(tmp_path):
    # the manifest once hashed every file in its directory, so an iet-test
    # run after a growth run listed growth.csv
    run(ExperimentConfig(kind="growth", beta="3/4", limit=1000,
                         outdir=str(tmp_path)))
    manifest = run(ExperimentConfig(kind="iet-test", level=2, points=100,
                                    outdir=str(tmp_path)))
    assert sorted(manifest["outputs"]) == \
        ["config.json", "iet.csv", "summary.json"]
    assert manifest["outputs"] == {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in manifest["outputs"]}


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


@pytest.mark.parametrize("beta, weighted", [("3/4", False), ("7/8", True)])
def test_growth_and_campaign_read_one_fit(beta, weighted, tmp_path):
    # seeds 1-9 fill one lane group and start a second; each seed's fit in
    # the growth summary is the one in campaign's per_seed
    fields = {"beta": beta, "limit": 10**5, "seeds": list(range(1, 10))}
    growth = "weighted-growth" if weighted else "growth"
    for kind, extra in ((growth, {}), ("campaign", {"weighted": weighted})):
        run(ExperimentConfig(kind=kind, **fields, **extra,
                             outdir=str(tmp_path / kind)))
    fits = json.loads((tmp_path / growth / "summary.json").read_text())
    report = json.loads((tmp_path / "campaign" / "summary.json").read_text())
    keys = ("alpha", "stderr", "points_used", "points_dropped")
    assert [fits["fits"][str(r["seed"])] for r in report["per_seed"]] == \
        [{k: r[k] for k in keys} for r in report["per_seed"]]
    assert [r["seed"] for r in report["per_seed"]] == fields["seeds"]


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


def fails_only_on_zero_sums(config: ExperimentConfig) -> bool:
    """The first seed's fit fails, but would pass if the checkpoint sums that
    are exactly zero (which the fit drops) were nonzero.

    Such a FitError depends on the sampled signs, not on the config, so
    validate() cannot foresee it.
    """
    weight = _KINDS[config.kind].weight
    weighted = weight == "always" or weight == "optional" and config.weighted
    (_, sums), = coupled_sums(config.beta_value(), config.limit, weighted,
                              [config.seeds[0]])
    window = config.window or default_window(config.limit)
    try:
        fit_growth_exponent(sums, window)
        return False
    except FitError:
        pass
    nonzero = SumGrid(sums.checkpoints, np.where(sums.sums == 0, 1, sums.sums))
    try:
        fit_growth_exponent(nonzero, window)
    except FitError:
        return False
    return True


def pipeline_rejects(config: ExperimentConfig) -> bool:
    """True iff the experiment, run without validate(), raises an error that
    the config decides: PreconditionError, ConfigurationError, DomainError,
    or a FitError other than one caused only by zero sums."""
    try:
        _KINDS[config.kind].runner(config)
    except (PreconditionError, ConfigurationError, DomainError):
        return True
    except FitError:
        return not fails_only_on_zero_sums(config)
    return False


def fields_inside_the_table(data, kind: str) -> dict:
    """Fields drawn inside ``kind``'s ``_KINDS`` entry, which validate()
    accepts: a size inside its bounds (at most 3000), a level or a beta
    from 1/2, above WEIGHT_BETA_THRESHOLD where the kind weighs, a window of
    MIN_FIT_POINTS checkpoints or more where it fits, sigmas above its
    floor."""
    entry = _KINDS[kind]
    fits = entry.runner in (cli._run_growth, cli._run_campaign)
    lo, hi = entry.bounds
    if fits:  # checkpoint_grid(32) is the first with MIN_FIT_POINTS values
        lo = max(lo, 32)
    size = data.draw(st.integers(lo, min(hi, 3000)), label=entry.size)
    fields = {entry.size: size, "weighted": entry.weight == "optional" and
              data.draw(st.booleans(), label="weighted")}
    if entry.level:
        fields |= {"beta": None,
                   "level": data.draw(st.integers(1, 4), label="level")}
    else:
        # weighted: WEIGHT_BETA_THRESHOLD < beta < 1, else 1/2 <= beta <= 1
        weighs = fields["weighted"] or entry.weight == "always"
        bits = data.draw(st.integers(3 if weighs else 0, 6), label="bits")
        k = math.floor(dirichlet.WEIGHT_BETA_THRESHOLD * 2**bits) + 1 \
            if weighs else -(-2**bits // 2)
        k = data.draw(st.integers(k, 2**bits - weighs), label="k")
        fields["beta"] = f"{k}/{2**bits}"
    if fits:
        grid = checkpoint_grid(size).tolist()
        i = data.draw(st.integers(0, len(grid) - MIN_FIT_POINTS), label="i")
        j = data.draw(st.integers(i + MIN_FIT_POINTS - 1, len(grid) - 1),
                      label="j")
        fields["window"] = [grid[i], grid[j]]
    if entry.at:
        fields["sigmas"] = data.draw(st.lists(st.sampled_from(
            [s for s in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0) if s > entry.floor]),
            min_size=1, max_size=3), label="sigmas")
    return fields


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(cli.KINDS), weighted=st.booleans(),
       bits=st.integers(0, 6), data=st.data(),
       limit=st.one_of(st.integers(2, 60), st.integers(1000, 3000),
                       st.sampled_from([MAX_LIMIT + 1, _COUNT_LIMIT + 1])),
       window=st.one_of(st.none(), st.lists(st.integers(-100, 3500),
                                            min_size=2, max_size=2)),
       # [1.5] clears every sweep's floor; a drawn list seldom clears the
       # identity's
       sigmas=st.one_of(st.just([1.5]), st.lists(st.sampled_from(
           [-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, math.nan, math.inf]),
           min_size=1, max_size=3)))
def test_validate_rejects_what_run_rejects(kind, weighted, bits, data, limit,
                                           window, sigmas):
    k = data.draw(st.integers(0, 2**bits), label="k")
    fields = {"beta": f"{k}/{2**bits}", "limit": limit, "weighted": weighted,
              "window": window, "sigmas": sigmas, "prime_limit": 1000}
    if _KINDS[kind].level:
        # no beta or a beta it does not read, no level, levels on both sides
        # of the identity's cap and of 62, and the identity's prime_limit
        # past MAX_LIMIT
        fields |= {"beta": data.draw(st.sampled_from([None, fields["beta"]]),
                                     label="beta"),
                   "level": data.draw(st.one_of(
                       st.none(), st.integers(0, 3), st.integers(15, 18),
                       st.integers(60, 64)), label="level"),
                   "prime_limit": data.draw(st.sampled_from(
                       [1000, MAX_LIMIT + 1]), label="prime_limit"),
                   "points": data.draw(st.integers(1, 200), label="points")}
    # the free draws above are mostly refused; half the examples draw the
    # kind's own fields from its table entry instead, mostly accepted
    if data.draw(st.booleans(), label="inside the table"):
        fields |= fields_inside_the_table(data, kind)
    cfg = ExperimentConfig(kind=kind, seeds=[1], **fields)
    accepted = validate(cfg) == []
    fits = _KINDS[kind].runner in (cli._run_growth, cli._run_campaign)
    if accepted and fits and fails_only_on_zero_sums(cfg):
        # data-dependent: validate() accepts, run() raises FitError
        with tempfile.TemporaryDirectory() as tmp:
            cfg.outdir = tmp
            with pytest.raises(FitError):
                run(cfg)
        return
    assert accepted == (not pipeline_rejects(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        cfg.outdir = tmp
        if accepted:
            run(cfg)
        else:
            with pytest.raises(LabError):
                run(cfg)


def test_validate_names_beta_below_half_and_sieve_limit(tmp_path):
    for kind in ("growth", "abel", "campaign", "exp-form"):
        cfg = ExperimentConfig(kind=kind, beta="1/4", seeds=[1])
        assert any("beta >= 1/2" in v for v in validate(cfg)), kind
    # the sums count primes to _COUNT_LIMIT; abel sieves a table of X.  Each
    # is accepted at its own limit (a run at 10**11 would take minutes) and
    # refused past it, abel past the sums' limit too
    for kind, limit, what in (("growth", _COUNT_LIMIT, "prime count"),
                              ("weighted-growth", _COUNT_LIMIT,
                               "prime count"),
                              ("campaign", _COUNT_LIMIT, "prime count"),
                              ("abel", MAX_LIMIT, "sieve")):
        cfg = ExperimentConfig(kind=kind, beta="7/8", limit=limit, seeds=[1])
        assert validate(cfg) == [], kind
        for past in (limit + 1, _COUNT_LIMIT + 1):
            cfg = ExperimentConfig(kind=kind, beta="7/8", limit=past,
                                   seeds=[1])
            assert f"limit={past}: the {what} supports at most {limit}" in \
                validate(cfg), kind
    # ... and run past the tables' limit
    cfg = ExperimentConfig(kind="growth", beta="3/4", limit=MAX_LIMIT + 1,
                           seeds=[1], outdir=str(tmp_path / "r"))
    assert validate(cfg) == []
    assert run(cfg)["pass"]
    # kinds truncated at P never sieve to X, so their limit is not checked
    for kind, fields in (("identity", {"level": 1}),
                         ("exp-form", {"beta": "3/4"}),
                         ("h-scan", {"beta": "15/16"})):
        for limit in (MAX_LIMIT + 1, 1):
            cfg = ExperimentConfig(kind=kind, limit=limit, prime_limit=1000,
                                   seeds=[1], outdir=str(tmp_path / kind),
                                   **fields)
            assert validate(cfg) == [], (kind, limit)
            assert run(cfg)["pass"], (kind, limit)
    # kinds truncated at X ignore prime_limit, so it is not checked there
    for kind in ("growth", "abel", "campaign"):
        for prime_limit in (MAX_LIMIT + 1, 1, 0, -5):
            cfg = ExperimentConfig(kind=kind, beta="3/4", seeds=[1],
                                   limit=1000, prime_limit=prime_limit,
                                   outdir=str(tmp_path / kind))
            assert validate(cfg) == [], (kind, prime_limit)
            assert run(cfg)["pass"], (kind, prime_limit)


class Streamed(Exception):
    """Raised in place of the first sieve block: a run got that far."""


@pytest.mark.parametrize("kind, fields, cap", [
    ("exp-form", {"beta": "3/4"}, _COUNT_LIMIT),
    ("h-scan", {"beta": "15/16"}, _COUNT_LIMIT),
    ("identity", {"level": 1}, MAX_LIMIT)])
def test_validate_and_run_agree_at_the_P_caps(kind, fields, cap, monkeypatch,
                                              tmp_path):
    # at its cap a sweep is accepted and its run reaches the sieve, which
    # stops it before a block is sieved; one past it, validate() and the
    # runner both refuse it, the runner by the stream's or the identity's
    # own cap, before any block is sieved
    limits = []

    def sieved(limit):
        limits.append(limit)
        raise Streamed

    monkeypatch.setattr(sieve, "_odd_blocks", sieved)
    cfg = ExperimentConfig(kind=kind, prime_limit=cap, seeds=[1],
                           outdir=str(tmp_path / "r"), **fields)
    assert validate(cfg) == []
    with pytest.raises(Streamed):
        run(cfg)
    assert limits == [cap]
    cfg.prime_limit = cap + 1
    assert validate(cfg) == [
        f"prime_limit={cap + 1}: kind {kind} supports at most {cap}"]
    assert pipeline_rejects(cfg)
    with pytest.raises(LabError):
        run(cfg)
    assert limits == [cap]


def test_zero_sums_fit_error_is_data_dependent(tmp_path):
    # seed 1 at beta 3/4 has S(18) = S(24) = S(32) = 0; the window holds the
    # five checkpoints 10, 13, 18, 24 and 32, so two nonzero sums are left
    cfg = ExperimentConfig(kind="growth", beta="3/4", limit=60,
                           window=[10, 32], seeds=[1],
                           outdir=str(tmp_path / "r"))
    assert validate(cfg) == []
    assert fails_only_on_zero_sums(cfg)
    with pytest.raises(FitError, match="only 2 nonzero"):
        run(cfg)
    assert not (tmp_path / "r").exists()  # it once left a lone config.json


@pytest.mark.parametrize("kind", ["growth", "campaign"])
def test_fit_error_names_the_first_failing_seed(kind, tmp_path):
    # the zero-sum case above for seeds 1 (two nonzero sums left) and 3
    # (three), in the second flip word after nine seeds whose fits pass: the
    # first failing seed in config order decides the message
    passing = [0, 2, 5, 7, 13, 16, 17, 18, 21]
    for late, message in (([1, 3], "only 2 nonzero"),
                          ([3, 1], "only 3 nonzero")):
        cfg = ExperimentConfig(kind=kind, beta="3/4", limit=60,
                               window=[10, 32], seeds=passing + late,
                               outdir=str(tmp_path / "r"))
        with pytest.raises(FitError, match=re.escape(
                f"{message} checkpoints in window (10, 32); need 5")):
            run(cfg)


@pytest.mark.parametrize("changes, needle", [
    ({"kind": "growth", "limit": 5}, "limit=5"),
    ({"kind": "growth", "limit": 20}, "holds 4 checkpoints"),
    ({"kind": "weighted-growth", "beta": "7/8", "window": [10, 20]},
     "holds 3 checkpoints"),
    ({"kind": "campaign", "window": [2000, 10]}, "holds 0 checkpoints"),
    ({"kind": "abel", "sigmas": [0.0]}, "Re(s) > 0"),
    ({"kind": "abel", "sigmas": [1.5, -1.0]}, "sigma=-1.0"),
    ({"kind": "iet-test", "level": 3, "points": 0}, "points=0"),
    ({"kind": "iet-test", "level": 3, "points": -5}, "points=-5"),
    ({"kind": "iet-test", "level": 3, "seeds": [-1]}, "seeds=[-1]"),
    # the omega hash reads seeds as uint64: -1 would alias 2**64 - 1
    ({"kind": "campaign", "seeds": [-1, 2**64 - 1]}, "seeds=[-1, "),
    ({"kind": "growth", "seeds": [2**64]}, f"seeds=[{2**64}]"),
    # NaN passes every "<= floor" test; the identity's exact fsum never ends
    ({"kind": "identity", "level": 1, "sigmas": [math.nan]}, "sigmas=[nan]"),
    ({"kind": "exp-form", "ts": [math.inf]}, "ts=[inf]"),
    ({"kind": "abel", "ts": [math.nan]}, "ts=[nan]"),
    # the identity keeps bytes per prime, so it stops at MAX_LIMIT; the
    # products that stream the primes stop at _COUNT_LIMIT = 10**11
    ({"kind": "identity", "level": 1, "prime_limit": 10**11},
     f"prime_limit={10**11}"),
    ({"kind": "h-scan", "beta": "15/16", "prime_limit": _COUNT_LIMIT + 1},
     f"prime_limit={_COUNT_LIMIT + 1}"),
    ({"kind": "exp-form", "prime_limit": _COUNT_LIMIT + 1},
     f"prime_limit={_COUNT_LIMIT + 1}"),
    # a float start loses precision (1.5 and 2.0 hashed like seed 2), and
    # True hashed like seed 1
    ({"kind": "campaign", "seeds": [1, 1.5]}, "seeds=[1, 1.5]"),
    ({"kind": "growth", "seeds": [2.0]}, "seeds=[2.0]"),
    ({"kind": "weighted-growth", "beta": "7/8", "seeds": [True]},
     "seeds=[True]"),
    ({"kind": "abel", "seeds": [1000.5]}, "seeds=[1000.5]"),
    # level 1 is beta 3/4, below the weighted threshold
    ({"kind": "weighted-growth", "beta": None, "level": 1},
     "weighted sums require"),
    ({"kind": "h-scan", "beta": None, "level": 1}, "weighted sums require"),
    ({"kind": "campaign", "beta": None, "level": 1, "weighted": True},
     "weighted sums require"),
    # a float size reaches numpy, or the shift of beta_for_level
    ({"kind": "campaign", "limit": 1e4}, "limit=10000.0"),
    ({"kind": "abel", "limit": 1e4}, "limit=10000.0"),
    ({"kind": "identity", "prime_limit": 1e4, "level": 1},
     "prime_limit=10000.0"),
    ({"kind": "identity", "level": 1.5}, "level=1.5"),
    ({"kind": "weighted-growth", "beta": None, "level": 1.5}, "level=1.5"),
    ({"kind": "iet-test", "level": 3, "points": 10.5}, "points=10.5"),
    # the identity's 2**n + 2 products: level 40 would take years
    ({"kind": "identity", "level": 40, "prime_limit": 10**4},
     "2**40 + 2 = 1,099,511,627,778 Euler products"),
    ({"kind": "identity", "level": 17}, "levels above 16"),
    # weighted: true on a kind whose outputs no weight enters
    ({"kind": "growth", "weighted": True}, "kind weighted-growth"),
    ({"kind": "abel", "weighted": True}, "kind weighted-growth"),
    ({"kind": "exp-form", "weighted": True}, "kind weighted-growth"),
    ({"kind": "identity", "level": 1, "weighted": True},
     "kind weighted-growth"),
    ({"kind": "iet-test", "level": 3, "weighted": True},
     "kind weighted-growth"),
    # a sweep with no point wrote a header-only CSV and passed its check
    ({"kind": "identity", "level": 1, "sigmas": []}, "at least one of each"),
    ({"kind": "identity", "level": 1, "ts": []}, "at least one of each"),
    ({"kind": "abel", "sigmas": []}, "at least one of each"),
    ({"kind": "abel", "ts": []}, "at least one of each"),
    ({"kind": "exp-form", "sigmas": []}, "at least one of each"),
    ({"kind": "exp-form", "ts": []}, "at least one of each"),
    ({"kind": "h-scan", "beta": "15/16", "sigmas": []},
     "at least one of each"),
    ({"kind": "h-scan", "beta": "15/16", "ts": []}, "at least one of each"),
    # the identity just past MAX_LIMIT and the streamed products far past
    # _COUNT_LIMIT; the sums, which count primes up to _COUNT_LIMIT, just
    # past it; abel, which sieves up to MAX_LIMIT, past that and at
    # _COUNT_LIMIT
    ({"kind": "identity", "level": 1, "prime_limit": MAX_LIMIT + 1},
     f"prime_limit={MAX_LIMIT + 1}"),
    ({"kind": "h-scan", "beta": "15/16", "prime_limit": 10 * _COUNT_LIMIT},
     f"prime_limit={10 * _COUNT_LIMIT}"),
    ({"kind": "exp-form", "prime_limit": 10 * _COUNT_LIMIT},
     f"prime_limit={10 * _COUNT_LIMIT}"),
    ({"kind": "growth", "limit": _COUNT_LIMIT + 1},
     f"the prime count supports at most {_COUNT_LIMIT}"),
    ({"kind": "weighted-growth", "beta": "7/8", "limit": _COUNT_LIMIT + 1},
     f"the prime count supports at most {_COUNT_LIMIT}"),
    ({"kind": "campaign", "limit": _COUNT_LIMIT + 1},
     f"the prime count supports at most {_COUNT_LIMIT}"),
    ({"kind": "abel", "limit": MAX_LIMIT + 1},
     f"the sieve supports at most {MAX_LIMIT}"),
    ({"kind": "abel", "limit": _COUNT_LIMIT},
     f"the sieve supports at most {MAX_LIMIT}"),
    # growth kept one fit per seed and campaign counted it twice
    ({"kind": "growth", "seeds": [5, 5, 6]},
     "seeds=[5, 5, 6]: seed 5 repeats; every seed must be distinct"),
    ({"kind": "campaign", "seeds": [6, 5, 6, 5]}, "seed 6 repeats"),
    # the identity ran and reported the level's beta, 7/2^3; campaign
    # silently read beta
    ({"kind": "identity", "level": 2, "beta": "1/4"},
     "beta='1/4', level=2: give beta or level, not both"),
    ({"kind": "campaign", "level": 2, "beta": "3/4"},
     "beta='3/4', level=2: give beta or level, not both"),
])
def test_validate_rejects_fits_and_sigmas_run_would_reject(changes, needle,
                                                            tmp_path):
    # a row that gives a level gives no beta, unless it gives both
    fields = {"kind": "growth", "beta": None if "level" in changes else "3/4",
              "limit": 1000, "seeds": [1], **changes,
              "outdir": str(tmp_path / "r")}
    cfg = ExperimentConfig(**fields)
    assert any(needle in v for v in validate(cfg)), validate(cfg)
    if validate(cfg)[0].endswith(": must be an integer"):
        with pytest.raises(TypeError):
            _KINDS[cfg.kind].runner(cfg)
    elif cfg.kind == "iet-test":
        # numpy finds no KS gap in an empty sample and rejects a negative
        # size and seed
        with pytest.raises(ValueError):
            _KINDS[cfg.kind].runner(cfg)
    else:
        assert pipeline_rejects(cfg)
    with pytest.raises(LabError):
        run(cfg)
    assert not (tmp_path / "r").exists()  # rejected before any output


@pytest.mark.parametrize("kind, extra", [
    ("growth", ["--beta", "7/8", "--limit", "1000"]),
    ("abel", ["--beta", "3/4", "--limit", "1000"]),
    ("exp-form", ["--beta", "3/4", "--prime-limit", "1000"]),
    ("identity", ["--level", "1", "--prime-limit", "1000"]),
    ("iet-test", ["--level", "3", "--points", "100"])])
def test_weighted_flag_on_an_unweighted_kind_is_a_usage_error(kind, extra,
                                                              tmp_path,
                                                              capsys):
    # the flag once ran the unweighted experiment and recorded
    # "weighted": true in config.json and the manifest
    code = main([kind, *extra, "--seeds", "1", "--weighted",
                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert "weighted-growth" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    assert main(["validate", kind, *extra, "--seeds", "1",
                 "--weighted"]) == 2


def test_iet_test_points_cap_is_refused_by_validate():
    # run() at 10**12 points would ask numpy for about 8 TB; a config at the
    # cap is only validated, never run
    assert cli.MAX_IET_POINTS == 10**7
    at_cap = ExperimentConfig(kind="iet-test", level=3, points=10**7)
    assert validate(at_cap) == []
    for points in (10**7 + 1, 10**12):
        over = ExperimentConfig(kind="iet-test", level=3, points=points)
        assert validate(over) == [f"points={points}: must be in "
                                  "[1, 10000000]"]


def test_identity_level_cap_leaves_iet_test_at_62():
    assert validate(ExperimentConfig(kind="identity", level=16)) == []
    assert validate(ExperimentConfig(kind="iet-test", level=62)) == []


# JSON gives a field any type; each case once crashed validate() or run(),
# or (weighted "false") ran the other experiment
@pytest.mark.parametrize("payload, needle", [
    ({"kind": "identity", "level": 1, "tolerance": "1e-10"},
     "tolerance='1e-10'"),
    ({"kind": "identity", "level": 1, "tolerance": 0}, "tolerance=0"),
    ({"kind": "identity", "level": 1, "tolerance": True}, "tolerance=True"),
    ({"kind": "identity", "level": 1, "sigmas": ["2"]}, "sigmas=['2']"),
    ({"kind": "exp-form", "beta": "3/4", "sigmas": 2}, "sigmas=2"),
    ({"kind": "abel", "beta": "3/4", "ts": [False]}, "ts=[False]"),
    ({"kind": "campaign", "beta": "3/4", "weighted": "false"},
     "weighted='false'"),
    ({"kind": "growth", "beta": 0.75}, "beta=0.75"),
    ({"kind": "growth", "beta": "3/4", "seeds": 5}, "seeds=5"),
    ({"kind": "growth", "beta": "3/4", "window": 5}, "window=5"),
    ({"kind": "growth", "beta": "3/4", "window": ["a", "b"]},
     "window=['a', 'b']"),
    ({"kind": "growth", "beta": "3/4", "outdir": 5}, "outdir=5"),
])
def test_json_fields_of_the_wrong_type_are_usage_errors(payload, needle,
                                                        tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seeds": [1], "limit": 1000,
                                "prime_limit": 1000,
                                "outdir": str(tmp_path / "r"), **payload}))
    assert main(["validate", "--config", str(path)]) == 2
    assert f"violation: {needle}" in capsys.readouterr().out
    assert main([payload["kind"], "--config", str(path)]) == 2
    assert f"usage error: {needle}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


# a file that is not an object of config fields once exited 1, the code of
# a failed check, with a TypeError or AttributeError traceback
@pytest.mark.parametrize("payload, needle", [
    ({"kind": "abel", "beta": "3/4", "limt": 1000}, "unknown field 'limt'"),
    ({"limt": 1000}, "unknown field 'limt'"),
    ([1, 2], "expected a JSON object of fields, got [1, 2]"),
])
@pytest.mark.parametrize("command", [["abel"], ["validate"],
                                     ["validate", "abel"]])
def test_a_malformed_config_file_is_a_usage_error(payload, needle, command,
                                                  tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "r"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config file {path}: {needle}\n"
    assert not out.exists()


# the kind table is a dict: a kind that cannot be hashed must still be an
# unknown kind, not a TypeError
@pytest.mark.parametrize("kind", [[1], {"a": 1}])
def test_an_unhashable_kind_in_a_config_file_is_unknown(kind, tmp_path,
                                                        capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": kind, "seeds": [1]}))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().out == \
        f"violation: kind={kind!r}: must be one of {cli.KINDS}\n"


@pytest.mark.parametrize("limit", [500, 1000, 5000])
def test_growth_and_campaign_record_one_default_window(limit, tmp_path):
    windows = []
    for kind in ("growth", "campaign"):
        out = tmp_path / kind
        run(ExperimentConfig(kind=kind, beta="3/4", limit=limit, seeds=[1],
                             outdir=str(out)))
        summary = json.loads((out / "summary.json").read_text())
        windows.append(summary.get("window") or summary["config"]["window"])
    assert windows[0] == windows[1] == list(default_window(limit))


@pytest.mark.parametrize("level", [20, 62])
def test_iet_test_at_high_levels_checks_sampled_intervals(level, tmp_path):
    code = main(["iet-test", "--level", str(level), "--seeds", "3",
                 "--points", "20000", "--out", str(tmp_path / "r")])
    assert code == 0
    rows = {r["check"]: r["value"]
            for r in read_csv(tmp_path / "r" / "iet.csv")}
    assert rows["index_dynamics"] == "1"
    assert rows["periodicity_bitwise"] == "1"


@pytest.mark.parametrize("level", [3, 20])
def test_iet_test_catches_a_map_applying_T_twice(level, tmp_path,
                                                  monkeypatch):
    exact = cli.apply_T_power_numerators
    monkeypatch.setattr(cli, "apply_T_power_numerators",
                        lambda spec, nums, k: exact(spec, nums, 2 * k))
    code = main(["iet-test", "--level", str(level), "--seeds", "3",
                 "--points", "20000", "--out", str(tmp_path / "r")])
    assert code == 1
    rows = {r["check"]: r["value"]
            for r in read_csv(tmp_path / "r" / "iet.csv")}
    assert rows["index_dynamics"] == "0"


def test_campaign_does_not_import_numpy_ma(tmp_path):
    # importing numpy.ma (on the first np.median, np.quantile or np.unique
    # call) costs every campaign or identity process ~15 ms
    out = run_probe(
        "from rmflab.cli import ExperimentConfig, run; "
        "run(ExperimentConfig(kind='campaign', beta='3/4', limit=10**4, "
        f"seeds=[1, 2], outdir={str(tmp_path / 'c')!r})); "
        "run(ExperimentConfig(kind='identity', level=3, "
        "prime_limit=10**4, seeds=[1, 2], sigmas=[1.5], ts=[0.0, 2.0], "
        f"outdir={str(tmp_path / 'i')!r})); "
        "print('numpy.ma' in sys.modules)")
    assert out == "False\n"


def test_cli_import_leaves_out_fractions_and_decimal():
    # fractions imports decimal; together they cost every process 2-3 ms
    out = run_probe("import rmflab.cli; print('fractions' in sys.modules, "
                    "'decimal' in sys.modules)")
    assert out == "False False\n"


def test_cli_names_no_kind_outside_the_kind_table():
    # validate(), the runners and main() read a kind's entry, so that a new
    # kind is one more entry, not one more branch
    tree = ast.parse(Path(cli.__file__).read_text())
    [table] = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and
               [ast.unparse(t) for t in node.targets] == ["_KINDS"]]
    assert [key.value for key in table.keys] == list(cli.KINDS)
    named = [node for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in cli.KINDS]
    assert len(named) == len(cli.KINDS)
    assert all(node in table.keys for node in named)


def test_cli_and_iet_test_leave_out_scipy(tmp_path):
    # scipy.stats, once the source of the KS statistic, cost every iet-test
    # run 0.7-1.0 s and about 70 MiB of VmHWM
    config = str(ROOT / "configs" / "acc02_03_iet_n8.json")
    out = run_probe(
        "import rmflab.cli; imported = 'scipy' in sys.modules; "
        f"code = rmflab.cli.main(['iet-test', '--config', {config!r}, "
        f"'--out', {str(tmp_path / 'r')!r}]); "
        "print(imported, code, 'scipy' in sys.modules)")
    assert out.splitlines()[-1] == "False 0 False"


def test_manifest_digests_leave_out_openssl(tmp_path):
    # hashlib loads OpenSSL's libcrypto (3.6 MiB VmHWM, ~6 ms) to hash a
    # few KB of outputs; the built-in sha256 module gives the same digests
    out = run_probe(
        "import importlib.util, json; "
        "from rmflab.cli import ExperimentConfig, run; "
        "m = run(ExperimentConfig(kind='identity', level=2, "
        "prime_limit=10**3, seeds=[1], sigmas=[1.5], ts=[0.0], "
        f"outdir={str(tmp_path / 'i')!r})); "
        "built_in = any(importlib.util.find_spec(name) "
        "for name in ('_sha2', '_sha256')); "
        "print(json.dumps([built_in, '_hashlib' in sys.modules, "
        "m['outputs']]))")
    built_in, openssl, outputs = json.loads(out)
    if built_in:
        assert not openssl
    assert len(outputs) >= 3
    assert outputs == {
        name: hashlib.sha256((tmp_path / "i" / name).read_bytes()).hexdigest()
        for name in outputs}


def test_benchmark_tracer_finds_what_it_patches(tmp_path):
    # benchmarks/tracing.py looks every traced module up in sys.modules
    # after ``import rmflab.cli`` (a lazy import of one ended every traced
    # run in a KeyError) and patches OmegaAssignment's methods by name.  In
    # a fresh process, so no patch outlives the test
    out = run_probe(f"""
sys.path.insert(0, {str(ROOT / 'benchmarks')!r})
import json
import rmflab.cli as cli
from tracing import Tracer
tracer = Tracer("probe")
tracer.install()
cli.run(cli.ExperimentConfig(kind="campaign", beta="3/4", limit=1000,
                             seeds=[1, 2], outdir={str(tmp_path / 'c')!r}))
cli.run(cli.ExperimentConfig(kind="identity", level=1, prime_limit=100,
                             outdir={str(tmp_path / 'i')!r}))
tracer.uninstall()
print(json.dumps(sorted({{span[1] for span in tracer.spans}})))
""")
    spans = set(json.loads(out))
    assert {"cli.run", "growth.monte_carlo_campaign",
            "sampler.OmegaAssignment"} <= spans, spans


# one small run per kind, against the file and columns the schema documents
SCHEMA_RUNS = {
    "identity": {"level": 1, "prime_limit": 1000},
    "iet-test": {"level": 2, "points": 100},
    "growth": {"beta": "3/4", "limit": 1000},
    "weighted-growth": {"beta": "7/8", "limit": 1000},
    "exp-form": {"beta": "3/4", "prime_limit": 1000},
    "abel": {"beta": "3/4", "limit": 1000},
    "h-scan": {"beta": "15/16", "prime_limit": 1000},
    "campaign": {"beta": "3/4", "limit": 1000},
}


def test_schema_documents_every_kind():
    schema = json.loads((ROOT / "schemas" / "csv_columns.json").read_text())
    assert sorted(schema) == sorted(cli.KINDS) == sorted(SCHEMA_RUNS)


@pytest.mark.parametrize("kind", cli.KINDS)
def test_csv_file_and_header_match_the_schema(kind, tmp_path):
    doc = json.loads((ROOT / "schemas" / "csv_columns.json").read_text())[kind]
    assert (_KINDS[kind].csv, _KINDS[kind].header) == \
        (doc["file"], tuple(doc["columns"]))
    run(ExperimentConfig(kind=kind, seeds=[1], outdir=str(tmp_path),
                         **SCHEMA_RUNS[kind]))
    assert [p.name for p in tmp_path.glob("*.csv")] == [doc["file"]]
    with (tmp_path / doc["file"]).open(newline="") as fh:
        assert next(csv.reader(fh)) == list(doc["columns"])


@pytest.mark.parametrize("kind", cli.KINDS)
def test_runners_return_rows_and_write_nothing(kind, tmp_path, monkeypatch):
    # run() alone writes: a runner returns its rows and summary fields, and
    # run() adds experiment and pass
    monkeypatch.chdir(tmp_path)
    rows, summary, ok = _KINDS[kind].runner(
        ExperimentConfig(kind=kind, seeds=[1], **SCHEMA_RUNS[kind]))
    assert rows and {len(row) for row in rows} == {len(_KINDS[kind].header)}
    assert not {"experiment", "pass"} & set(summary)
    assert ok in (True, False)
    assert list(tmp_path.iterdir()) == []
