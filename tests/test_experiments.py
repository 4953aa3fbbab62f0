import builtins
import errno
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from affinity import set_cpus
from doilab import cli, experiments
from doilab.experiments import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    ViolationError,
    config_from_dict,
    row_to_csv,
    rows_to_csv,
    run_all,
    run_commutator_ratios,
    run_doi_identity,
    run_p2q2_mixed,
    run_psumming_check,
    run_truncation_growth,
    write_outputs,
    _complex_gaussian,
    _sample_controlled_operator,
    _trial_seed,
    _worker_count,
)
from doilab.norms import INF, opnorm, opnorm_upper
from doilab.spectral import DiagonalizableOperator, assemble

SMALL = ExperimentConfig(seed=7, dims=[2, 3], pq_pairs=[(1.0, 2.0), (2.0, 2.0)], trials=2)


# -------------------------------------------------------------------- config


def test_config_from_dict_roundtrip():
    cfg = config_from_dict(
        {
            "seed": 99,
            "dims": [2, 4],
            "pq_pairs": [[1, 2], [2, "inf"]],
            "trials": 3,
            "search": {"restarts": 4},
            "output_path": "out.csv",
        }
    )
    assert cfg == replace(
        ExperimentConfig(), seed=99, dims=[2, 4], pq_pairs=[(1.0, 2.0), (2.0, INF)], trials=3,
        restarts=4, output_path="out.csv",
    )


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"seeds": 1})


@pytest.mark.parametrize(
    "patch",
    [
        {"trials": 0}, {"dims": []}, {"seed": 1.5}, {"dims": 4}, {"pq_pairs": [[0.5, 2]]},
        {"dims": [4, 4]}, {"dims": [2, 4, 2]}, {"pq_pairs": [[2, 2], [2, 2]]},
        # duplicates after parsing: "inf" and 1e400 both parse to inf
        {"pq_pairs": [[1, "inf"], [1, 1e400]]}, {"pq_pairs": [[2, 2.0], [1, 2], [2, 2]]},
        # the only exponent strings are "inf" and "infinity"
        {"pq_pairs": [[2, "2"]]}, {"pq_pairs": [["1.5", 3]]}, {"pq_pairs": [[1, "1e400"]]},
        {"pq_pairs": [[1, "+inf"]]}, {"pq_pairs": [[1, " inf"]]}, {"pq_pairs": [[1, ""]]},
        {"pq_pairs": [[None, 2]]},
    ],
)
def test_config_validation_errors(patch):
    with pytest.raises(ConfigError):
        config_from_dict(patch)


def test_config_exponent_strings_are_inf_in_any_case():
    for word in ("inf", "INF", "Inf", "infinity", "Infinity", "INFINITY"):
        assert config_from_dict({"pq_pairs": [[1, word]]}).pq_pairs == [(1.0, INF)]


def test_removed_config_keys_are_unknown(tmp_path, capsys):
    # the mixed eps, the identity tolerance and the search's iteration
    # limits are constants; a config that sets one, even to its value, is
    # rejected as setting an unknown key
    for patch, key in [
        ({"eps": 0.5}, "eps"), ({"tol": 1e-9}, "tol"),
        ({"search": {"max_iter": 300}}, "max_iter"), ({"search": {"iter_tol": 1e-10}}, "iter_tol"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(f"keys: ['{key}']")):
            config_from_dict(patch)
        cfg = write_config(tmp_path, **patch)
        out = tmp_path / "out.csv"
        assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 3
        assert f"['{key}']" in capsys.readouterr().err
        assert not out.exists()


def test_row_csv_formatting():
    row = ResultRow("x", 4, 2.0, INF, 1, "m", 1.0 / 3.0, "exact", 42)
    line = row_to_csv(row)
    assert line == f"x,4,2,inf,1,m,{1.0 / 3.0:.17g},exact,42"
    assert CSV_HEADER == "experiment,n,p,q,trial,metric,value,certainty,seed_used"


def test_trial_seed_is_stable_and_distinct():
    s1 = _trial_seed(7, "lbl", 2.0, INF, 4, 0)
    assert s1 == _trial_seed(7, "lbl", 2.0, INF, 4, 0)
    assert s1 != _trial_seed(7, "lbl", 2.0, INF, 4, 1)
    assert s1 != _trial_seed(8, "lbl", 2.0, INF, 4, 0)


# ------------------------------------------------------------------- runners


def test_truncation_growth_emits_fits_and_exact_rows():
    rows = run_truncation_growth(ExperimentConfig(seed=1, dims=[2, 4, 8], pq_pairs=[(1.0, 1.0)], trials=1))
    norms = [r for r in rows if r.metric == "multiplier_norm"]
    assert [r.value for r in norms] == [1.0, 1.0, 1.0]
    assert all(r.certainty == "exact" for r in norms)
    slopes = [r for r in rows if r.metric == "fit_slope"]
    assert len(slopes) == 1 and abs(slopes[0].value) <= 1e-9


def test_truncation_growth_fits_nothing_through_one_dimension(tmp_path):
    cfg = ExperimentConfig(seed=1, dims=[4], pq_pairs=[(2.0, 2.0), (2.0, 4.0)], trials=1)
    rows = run_truncation_growth(cfg)
    assert sorted(r.metric for r in rows) == ["multiplier_norm", "multiplier_norm", "multiplier_norm_upper"]
    write_outputs(rows, cfg, str(tmp_path / "one.csv"))
    summary = json.loads((tmp_path / "one.csv.summary.json").read_text())
    assert summary["fits"] == {} and summary["row_count"] == 3


def test_commutator_ratios_identity_control_rows():
    cfg = ExperimentConfig(seed=3, dims=[3], pq_pairs=[(1.0, 2.0), (1.0, INF)], trials=3)
    rows = run_commutator_ratios(cfg)
    ctrl = [r for r in rows if r.metric == "identity_ratio"]
    assert len(ctrl) == 6 and all(r.value == pytest.approx(1.0, rel=1e-9) for r in ctrl)
    assert all(r.certainty == "exact" for r in ctrl)
    # at (1, 2) the ratio is divided by K_B at p = 2, an upper bound; at
    # (1, inf) both K are exact
    norm = {r.q: [] for r in rows}
    for r in rows:
        if r.metric == "normalized_ratio":
            norm[r.q].append(r.certainty)
    assert norm == {2.0: ["lower_bound"] * 3, INF: ["exact"] * 3}


def test_commutator_ratios_tags_off_the_exact_branches():
    # normalized_ratio divides by an upper bound on ||BS - SA||, a certified
    # lower bound; identity_ratio is one estimate divided by itself
    cfg = ExperimentConfig(seed=3, dims=[3], pq_pairs=[(2.0, 4.0), (3.0, 1.5)], trials=2)
    tags = {}
    for r in run_commutator_ratios(cfg):
        tags.setdefault(r.metric, set()).add(r.certainty)
    assert tags == {"normalized_ratio": {"lower_bound"}, "identity_ratio": {"derived"}}


def test_commutator_ratios_one_transform_per_trial(monkeypatch):
    set_cpus(monkeypatch, 1)  # the patch below counts calls in this process only
    calls, transform = [], experiments.commutator_transform

    def counting(a, b, S, fs, *args):
        calls.append(len(fs))
        return transform(a, b, S, fs, *args)

    monkeypatch.setattr(experiments, "commutator_transform", counting)
    cfg = ExperimentConfig(seed=3, dims=[2, 3], pq_pairs=[(1.0, 2.0), (2.0, 2.0)], trials=3)
    rows = run_commutator_ratios(cfg)
    trials = sum(r.metric == "normalized_ratio" for r in rows)
    assert trials == 12
    # one call for abs and the identity per trial, one for abs per n at (2,2)
    assert sorted(calls) == [1] * 2 + [2] * trials


def test_commutator_ratios_adversarial_rows_only_at_22():
    cfg = ExperimentConfig(seed=3, dims=[4, 8], pq_pairs=[(2.0, 2.0)], trials=1)
    rows = run_commutator_ratios(cfg)
    adv = [r for r in rows if r.metric == "adversarial_normalized_ratio"]
    assert sorted(r.n for r in adv) == [4, 8]
    assert adv[0].value < adv[1].value  # growth with n


SAMPLER_DIMS = [1, 4, 32, 128]
SAMPLER_PS = [1.0, 1.5, 2.0, 3.0, INF]
NEUMANN_RADIUS = (experiments.K_TARGET - 1.0) / (experiments.K_TARGET + 1.0)


def _sampled_operators(p):
    """The operator of every seed in 0-9 and n in SAMPLER_DIMS at exponent p."""
    return [_sample_controlled_operator(np.random.default_rng(seed), n, p) for seed in range(10) for n in SAMPLER_DIMS]


@pytest.mark.parametrize("p", SAMPLER_PS)
def test_sampler_draws_one_gaussian_and_makes_one_inverse(monkeypatch, p):
    inv, gaussians, inverses = np.linalg.inv, [], []

    def recording_gaussian(rng, n):
        gaussians.append(_complex_gaussian(rng, n))
        return gaussians[-1]

    def recording_inv(u):
        inverses.append(u)
        return inv(u)

    monkeypatch.setattr(experiments, "_complex_gaussian", recording_gaussian)
    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    for seed in range(10):
        for n in SAMPLER_DIMS:
            gaussians.clear()
            inverses.clear()
            rng = np.random.default_rng(seed)
            op = _sample_controlled_operator(rng, n, p)
            assert len(gaussians) == len(inverses) == 1, (seed, n)
            [g] = gaussians
            assert np.array_equal(op.u, np.eye(n) + (NEUMANN_RADIUS / opnorm_upper(g, p, p)) * g)
            assert np.array_equal(inverses[0], op.u)
            # lambda, then G, and nothing more is drawn from the generator
            fresh = np.random.default_rng(seed)
            assert np.array_equal(op.lambdas, fresh.uniform(-1.0, 1.0, size=n))
            _complex_gaussian(fresh, n)
            assert rng.standard_normal() == fresh.standard_normal()


@pytest.mark.parametrize("p", SAMPLER_PS)
def test_sampler_perturbation_is_within_the_neumann_radius(p):
    # ||U - I||_p <= c < 1 makes U invertible with K_p at most (1 + c) / (1 - c)
    for op in _sampled_operators(p):
        assert opnorm_upper(op.u - np.eye(op.n), p, p) <= NEUMANN_RADIUS * (1 + 1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_sampler_condition_bound_is_at_most_k_target(p):
    # at the exact exponents opnorm_upper is the norm itself
    for op in _sampled_operators(p):
        assert opnorm_upper(op.u, p, p) * opnorm_upper(op.u_inv, p, p) <= experiments.K_TARGET * (1 + 1e-12)


def test_p2q2_mixed_metrics_present():
    cfg = ExperimentConfig(seed=4, dims=[3], pq_pairs=[(2.0, 2.0)], trials=2)
    rows = run_p2q2_mixed(cfg)
    metrics = {r.metric for r in rows}
    assert metrics == {"lhs_norm", "mixed_2_to_2meps", "mixed_2peps_to_2", "implied_constant", "implied_constant_lower"}


def test_p2q2_mixed_certified_constant_is_below_the_derived_one():
    cfg = ExperimentConfig(seed=6, dims=[2, 4, 8, 16], pq_pairs=[(2.0, 2.0)], trials=5)
    rows = run_p2q2_mixed(cfg)
    by_trial = {}
    for r in rows:
        by_trial.setdefault((r.n, r.trial), {})[r.metric] = r
    assert len(by_trial) == 20
    for metrics in by_trial.values():
        lower, derived = metrics["implied_constant_lower"], metrics["implied_constant"]
        assert lower.certainty == "lower_bound" and derived.certainty == "derived"
        assert 0.0 < lower.value <= derived.value


def _p2q2_mixed_one_trial_at_a_time(cfg):
    """Reference: each trial's norms estimated on their own with its search."""
    rows = []
    for t in experiments._trials(cfg, "p2q2_mixed", 2.0, 2.0):
        rng, n = t.rng, t.n
        lam = rng.uniform(-1.0, 1.0, size=n)
        mu = rng.uniform(-1.0, 1.0, size=n)
        u = experiments._random_unitary(rng, n)
        v = experiments._random_unitary(rng, n)
        a = DiagonalizableOperator(lam, u, u.conj().T)
        b = DiagonalizableOperator(mu, v, v.conj().T)
        abs_a = a.u_inv @ np.diag(np.abs(lam)) @ a.u
        abs_b = b.u_inv @ np.diag(np.abs(mu)) @ b.u
        lhs = opnorm(abs_b - abs_a, 2.0, 2.0, t.search)
        mid = b.u @ (assemble(b) - assemble(a)) @ a.u_inv
        m1 = opnorm(mid, 2.0, 2.0 - experiments.MIXED_EPS, t.search)
        m2 = opnorm(mid, 2.0 + experiments.MIXED_EPS, 2.0, t.search)
        best = min(m1.value, m2.value)
        rows.append(t.row("lhs_norm", lhs.value, lhs.certainty))
        rows.append(t.row("mixed_2_to_2meps", m1.value, m1.certainty))
        rows.append(t.row("mixed_2peps_to_2", m2.value, m2.certainty))
        rows.append(t.row("implied_constant", lhs.value / best if best > 1e-14 else math.inf, "derived"))
        upper = min(opnorm_upper(mid, 2.0, 2.0 - experiments.MIXED_EPS), opnorm_upper(mid, 2.0 + experiments.MIXED_EPS, 2.0))
        rows.append(t.row("implied_constant_lower", lhs.value / upper if upper > 1e-14 else math.inf, "lower_bound"))
    return experiments._sort_rows(rows)


def test_p2q2_mixed_batched_trials_equal_one_trial_at_a_time():
    # n = 2 and 4 start from seeded Gaussians (n < multistarts - 1), which
    # differ from trial to trial
    cfg = ExperimentConfig(seed=21, dims=[2, 4, 8, 16], pq_pairs=[(2.0, 2.0)], trials=3)
    batched = rows_to_csv(run_p2q2_mixed(cfg))
    assert batched == rows_to_csv(_p2q2_mixed_one_trial_at_a_time(cfg))
    assert batched.count("lower_bound") == 36  # 4 dims x 3 trials x (2 mixed norms + the certified constant)
    # trial 0 does not see the trials batched with it
    trial0 = [r for r in run_p2q2_mixed(cfg) if r.trial == 0]
    assert rows_to_csv(trial0) == rows_to_csv(run_p2q2_mixed(replace(cfg, trials=1)))


def test_psumming_check_all_satisfied():
    cfg = ExperimentConfig(seed=5, dims=[3], pq_pairs=[(2.0, 2.0)], trials=3)
    rows = run_psumming_check(cfg)
    sat = [r for r in rows if r.metric.startswith("satisfied")]
    assert sat and all(r.value == 1.0 for r in sat)
    tight = [r for r in rows if r.metric.startswith("tightness")]
    assert all(0.0 <= r.value <= 1.0 + 1e-9 for r in tight)
    # divided by a bound built from interior-p K upper bounds
    assert tight and all(r.certainty == "lower_bound" for r in tight)


def test_psumming_check_without_an_interior_exponent_writes_no_rows(tmp_path):
    cfg = write_config(tmp_path, pq_pairs=[[1, "inf"]])
    out = tmp_path / "psum.csv"
    assert cli.main(["psumming-check", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == CSV_HEADER + "\n"
    assert json.loads((tmp_path / "psum.csv.summary.json").read_text())["row_count"] == 0


def test_doi_identity_violation_carries_its_dump(monkeypatch):
    monkeypatch.setattr(experiments, "IDENTITY_TOL", -1.0)
    with pytest.raises(ViolationError, match="DOI identity residual") as info:
        run_doi_identity(SMALL)
    dump = info.value.dump
    assert set(dump) == {"n", "trial", "residual", "allowed", "collision", "seed_used"}
    assert dump["allowed"] < 0.0 <= dump["residual"]


def test_doi_identity_runs_clean():
    rows = run_doi_identity(ExperimentConfig(seed=6, dims=[2, 5], pq_pairs=[(2.0, 2.0)], trials=6))
    assert len(rows) == 12
    assert all(r.value <= 1e-9 * 20 for r in rows)


def test_determinism_of_run_all():
    a = rows_to_csv(run_all(SMALL))
    b = rows_to_csv(run_all(SMALL))
    assert a == b
    assert a.startswith(CSV_HEADER + "\n")


def test_write_outputs_creates_csv_and_summary(tmp_path):
    rows = run_truncation_growth(ExperimentConfig(seed=1, dims=[2, 4], pq_pairs=[(1.0, 1.0)], trials=1))
    out = tmp_path / "res.csv"
    (tmp_path / "res.csv.summary.json").write_text("stale")
    path = write_outputs(rows, replace(SMALL, restarts=3), str(out))
    assert path == str(out)
    # both files are in place, the stale summary replaced, no temporary file left
    assert sorted(os.listdir(tmp_path)) == ["res.csv", "res.csv.summary.json"]
    text = out.read_text()
    assert text.startswith(CSV_HEADER)
    summary = json.loads((tmp_path / "res.csv.summary.json").read_text())
    assert summary["row_count"] == len(rows)
    assert "(1,1)" in summary["fits"]
    # the mixed eps and the identity tolerance are constants, still recorded
    assert (summary["config"]["eps"], summary["config"]["tol"]) == (0.5, 1e-9)
    # every power-iteration row depends on the number of restarts
    assert summary["config"]["restarts"] == 3


TRUNCATION_ROWS = ExperimentConfig(seed=1, dims=[2, 4], pq_pairs=[(1.0, 1.0)], trials=1)


def write_old_outputs(directory):
    directory.mkdir()
    (directory / "res.csv").write_text("old csv")
    (directory / "res.csv.summary.json").write_text("old summary")
    return directory / "res.csv"


def test_write_outputs_never_writes_over_an_existing_name(tmp_path, monkeypatch):
    # ext4 flushes a file's blocks when a rename lands on it or an open
    # truncates it; the writer unlinks the old outputs first
    rows = run_truncation_growth(TRUNCATION_ROWS)
    fresh = write_outputs(rows, SMALL, str(tmp_path / "res.csv"))
    out = write_old_outputs(tmp_path / "over")
    renames = []

    def rename_spy(real):
        def spy(src, dst, *args, **kwargs):
            assert not os.path.lexists(dst), f"renamed onto the existing {dst}"
            renames.append(dst)
            return real(src, dst, *args, **kwargs)

        return spy

    real_open = builtins.open

    def open_spy(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            assert not os.path.lexists(file), f"opened the existing {file} in mode {mode}"
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "rename", rename_spy(os.rename))
    monkeypatch.setattr(os, "replace", rename_spy(os.replace))
    monkeypatch.setattr(builtins, "open", open_spy)
    write_outputs(rows, SMALL, str(out))
    monkeypatch.undo()
    assert renames == [str(out) + ".summary.json", str(out)]
    assert sorted(os.listdir(out.parent)) == ["res.csv", "res.csv.summary.json"]
    for suffix in ("", ".summary.json"):
        assert Path(str(out) + suffix).read_bytes() == Path(fresh + suffix).read_bytes()
    assert out.read_text() == rows_to_csv(rows)


def test_write_outputs_failing_before_the_unlinks_keeps_the_old_outputs(tmp_path, monkeypatch):
    out = write_old_outputs(tmp_path / "out")
    real_open = builtins.open
    opened = []

    def full_disk_on_second_file(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        opened.append(file)
        if len(opened) == 2:
            def write(text):
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = write
        return fh

    monkeypatch.setattr(builtins, "open", full_disk_on_second_file)
    with pytest.raises(OSError, match="No space left"):
        write_outputs(run_truncation_growth(TRUNCATION_ROWS), SMALL, str(out))
    monkeypatch.undo()
    assert len(opened) == 2
    assert sorted(os.listdir(out.parent)) == ["res.csv", "res.csv.summary.json"]
    assert out.read_bytes() == b"old csv"
    assert (out.parent / "res.csv.summary.json").read_bytes() == b"old summary"


@pytest.mark.parametrize("failing_call", [1, 2])
def test_write_outputs_failing_in_a_rename_leaves_neither_output(tmp_path, monkeypatch, failing_call):
    out = write_old_outputs(tmp_path / "out")
    real_rename = os.rename
    calls = []

    def rename(src, dst):
        calls.append(dst)
        if len(calls) == failing_call:
            raise OSError(errno.EIO, "I/O error")
        return real_rename(src, dst)

    monkeypatch.setattr(os, "rename", rename)
    with pytest.raises(OSError, match="I/O error"):
        write_outputs(run_truncation_growth(TRUNCATION_ROWS), SMALL, str(out))
    monkeypatch.undo()
    assert len(calls) == failing_call
    assert os.listdir(out.parent) == []


# ----------------------------------------------------------------------- CLI


def write_config(tmp_path, **overrides):
    data = {
        "seed": 11,
        "dims": [2, 3],
        "pq_pairs": [[1, 2], [2, 2]],
        "trials": 2,
    }
    data.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_success_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["doi-identity", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["doi-identity", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["doi-identity", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["doi-identity", "--config", cfg, "--seed", "999", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    assert cli.main(["all", "--config", str(bad)]) == 3
    assert cli.main(["all", "--config", str(tmp_path / "missing.json")]) == 3
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert cli.main(["all", "--config", str(notjson)]) == 3


@pytest.mark.parametrize(
    "override",
    [
        {"dims": [0]},
        {"dims": [-2]},
        {"pq_pairs": [[1, "nan"]]},
        {"pq_pairs": [[1, 2, 3]]},
        {"search": {"restarts": 2, "retries": 1}},
        {"trials": True},
        {"seed": "11"},
        {"search": {"restarts": 0}},
        {"search": [8]},
        {"pq_pairs": [[True, 2]]},
        {"output_path": None},
        {"output_path": ""},
        {"pq_pairs": [[2, "2"]]},
        {"pq_pairs": [["3", "inf"]]},
        {"pq_pairs": [[1, int("9" * 400)]]},
    ],
)
def test_cli_malformed_values_exit_code(tmp_path, capsys, override):
    cfg = write_config(tmp_path, **override)
    out = tmp_path / "out.csv"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not out.exists()


def test_cli_unwritable_output_exit_code(tmp_path, capsys, monkeypatch):
    def not_run(cfg):
        raise AssertionError("experiment ran although its output cannot be written")

    monkeypatch.setitem(cli.RUNNERS, "doi-identity", not_run)
    cfg = write_config(tmp_path)
    # the last output's summary path is a directory
    (tmp_path / "out.csv.summary.json").mkdir()
    for out in (tmp_path / "missing" / "out.csv", tmp_path, tmp_path / "out.csv"):
        assert cli.main(["doi-identity", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "missing").exists()
    assert not (tmp_path / "out.csv").exists()


def test_cli_write_failure_exit_code(tmp_path, capsys, monkeypatch):
    def failing_write(rows, cfg, path):
        raise OSError("disk full")

    monkeypatch.setitem(cli.RUNNERS, "doi-identity", lambda cfg: [])
    monkeypatch.setattr(cli, "write_outputs", failing_write)
    out = tmp_path / "out.csv"
    assert cli.main(["doi-identity", "--config", write_config(tmp_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("config error: cannot write output: disk full")


def test_cli_summary_name_too_long_leaves_no_output(tmp_path, capsys, monkeypatch):
    # the CSV name fits NAME_MAX (255) and its summary's name does not; the
    # run exits before any row is computed
    def not_run(cfg):
        raise AssertionError("experiment ran although its summary name is too long")

    monkeypatch.setitem(cli.RUNNERS, "doi-identity", not_run)
    cfg = write_config(tmp_path)
    out = tmp_path / ("a" * 250 + ".csv")
    assert cli.main(["doi-identity", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("config error: cannot write output")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_cli_violation_exit_code(tmp_path, monkeypatch):
    def exploding(cfg):
        raise ViolationError("boom", {"n": 1})

    monkeypatch.setitem(cli.RUNNERS, "doi-identity", exploding)
    cfg = write_config(tmp_path)
    assert cli.main(["doi-identity", "--config", cfg]) == 2


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["nonsense"])


# ------------------------------------------------------- run_all in workers

linux_only = pytest.mark.skipif(sys.platform != "linux", reason="run_all forks workers only on Linux")


@linux_only
def test_worker_count_is_the_cpus_up_to_one_per_runner(monkeypatch):
    for cpus, workers in [(1, 1), (2, 2), (3, 3), (64, 5)]:
        set_cpus(monkeypatch, cpus)
        assert _worker_count(5) == workers
    # fork is not safe while another thread runs
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _worker_count(5) == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


@linux_only
def test_run_all_rows_do_not_depend_on_the_cpus(monkeypatch):
    serial = rows_to_csv([row for name in sorted(experiments.RUNNERS) for row in experiments.RUNNERS[name](SMALL)])
    assert rows_to_csv(run_all(SMALL)) == serial
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        assert rows_to_csv(run_all(SMALL)) == serial


def test_violation_error_survives_pickling():
    exc = pickle.loads(pickle.dumps(ViolationError("boom", {"n": 1})))
    assert type(exc) is ViolationError
    assert (str(exc), exc.dump) == ("boom", {"n": 1})


def _each_runner_raising(monkeypatch):
    def raising(name):
        def run(cfg):
            if name == "commutator-ratios":
                time.sleep(0.3)  # other workers take and fail later runners meanwhile
            raise ViolationError(f"{name} violated", {"runner": name})

        return run

    for name in list(experiments.RUNNERS):
        monkeypatch.setitem(experiments.RUNNERS, name, raising(name))


@pytest.mark.parametrize("cpus", [1, 2, 5])
def test_run_all_raises_the_first_failure_in_sorted_order(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    _each_runner_raising(monkeypatch)
    with pytest.raises(ViolationError, match="commutator-ratios violated") as info:
        run_all(SMALL)
    assert info.value.dump == {"runner": "commutator-ratios"}
    assert multiprocessing.active_children() == []


def _in_child() -> bool:
    return multiprocessing.parent_process() is not None


@linux_only
def test_run_all_leaves_no_child_process(monkeypatch):
    set_cpus(monkeypatch, 2)
    run_all(SMALL)
    assert multiprocessing.active_children() == []

    def failing(cfg):
        raise ValueError("runner failed")

    monkeypatch.setitem(experiments.RUNNERS, "p2q2-mixed", failing)
    with pytest.raises(ValueError, match="runner failed"):
        run_all(SMALL)
    assert multiprocessing.active_children() == []

    # a child that dies without its rows is an error, not a hang
    def dying(cfg):
        if _in_child():
            os._exit(1)
        time.sleep(0.2)  # the child takes a runner meanwhile
        return []

    for name in list(experiments.RUNNERS):
        monkeypatch.setitem(experiments.RUNNERS, name, dying)
    with pytest.raises(RuntimeError, match="exited without its results"):
        run_all(SMALL)
    assert multiprocessing.active_children() == []


# every runner raises a violation in a child and returns no rows in the
# parent, after a pause in which the child takes a runner
VIOLATING_RUN = """
import multiprocessing, os, sys, time
from doilab import cli, experiments

os.sched_getaffinity = lambda pid: {0, 1}

def runner(name):
    def run(cfg):
        if multiprocessing.parent_process() is None:
            time.sleep(0.2)
            return []
        raise experiments.ViolationError(f"{name} violated", {"runner": name})
    return run

for name in experiments.RUNNERS:
    experiments.RUNNERS[name] = runner(name)
sys.exit(cli.main(["all", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


@linux_only
def test_cli_all_violation_in_a_worker_exits_2_with_its_dump(tmp_path):
    src = Path(experiments.__file__).resolve().parents[1]
    out = tmp_path / "out.csv"
    # a hang fails the test at the timeout instead of blocking the suite
    done = subprocess.run(
        [sys.executable, "-c", VIOLATING_RUN, write_config(tmp_path), str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 2, done.stderr
    first, dump = done.stderr.split("\n", 1)
    name = first.removeprefix("violation: ").removesuffix(" violated")
    assert name in experiments.RUNNERS
    assert json.loads(dump) == {"runner": name}
    assert not out.exists()


# ------------------------------------------------ trials fanned out in workers

FAN_OUT_CASES = {
    "psumming": (run_psumming_check, ExperimentConfig(seed=3, dims=[2, 3, 8], pq_pairs=[(1.5, 1.5), (3.0, 3.0)], trials=2)),
    "commutator": (run_commutator_ratios, ExperimentConfig(seed=3, dims=[2, 3, 8], pq_pairs=[(1.0, 2.0), (2.0, 2.0)], trials=2)),
    "truncation": (run_truncation_growth, ExperimentConfig(seed=3, dims=[2, 3, 8], pq_pairs=[(2.0, 2.0), (2.0, 4.0), (3.0, 1.5)], trials=1)),
}


@linux_only
@pytest.mark.parametrize("case", sorted(FAN_OUT_CASES))
def test_fanned_out_rows_do_not_depend_on_the_cpus(monkeypatch, case):
    runner, cfg = FAN_OUT_CASES[case]
    set_cpus(monkeypatch, 1)
    rows = runner(cfg)
    if case == "commutator":
        # adversarial and sampled items share the fan-out
        assert {"adversarial_normalized_ratio", "normalized_ratio"} <= {r.metric for r in rows}
    for cpus in (2, 3):
        set_cpus(monkeypatch, cpus)
        assert rows_to_csv(runner(cfg)) == rows_to_csv(rows)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fan_out_raises_the_first_failing_trial_in_serial_order(monkeypatch, cpus):
    # the bound fails at every n >= 3, after a pause at n = 3 in which other
    # workers take and fail later trials
    check = experiments.lipschitz_commutator_check

    def failing(a, b, S, fs, ctx):
        results = check(a, b, S, fs, ctx)
        n = len(a.lambdas)
        if n == 3:
            time.sleep(0.3)
        return [{**res, "satisfied": n < 3} for res in results]

    monkeypatch.setattr(experiments, "lipschitz_commutator_check", failing)
    cfg = ExperimentConfig(seed=5, dims=[2, 3, 4, 5, 6], pq_pairs=[(1.5, 1.5)], trials=1)
    set_cpus(monkeypatch, cpus)
    with pytest.raises(ViolationError, match="p-summing commutator bound violated") as info:
        run_psumming_check(cfg)
    assert multiprocessing.active_children() == []
    set_cpus(monkeypatch, 1)
    with pytest.raises(ViolationError) as serial:
        run_psumming_check(cfg)
    assert (info.value.dump["n"], info.value.dump["f"]) == (3, "abs")
    assert info.value.dump == serial.value.dump


UNSORTED_TRUNCATION = ExperimentConfig(seed=3, dims=[4, 2, 8], pq_pairs=[(2.0, 2.0), (3.0, 1.5)], trials=1)


@linux_only
def test_truncation_growth_fits_unsorted_dims_in_their_own_order(monkeypatch):
    # the n run largest first, and the fits still take them in dims order
    cfg = UNSORTED_TRUNCATION
    set_cpus(monkeypatch, 1)
    rows = run_truncation_growth(cfg)
    for p, q in cfg.pq_pairs:
        norms = {r.n: r.value for r in rows if (r.p, r.q, r.metric) == (p, q, "multiplier_norm")}
        fits = {r.metric: r.value for r in rows if (r.p, r.q) == (p, q) and r.metric.startswith("fit_")}
        fit = experiments._fit_log(cfg.dims, [norms[n] for n in cfg.dims])
        assert fits == dict(zip(("fit_slope", "fit_intercept", "fit_residual"), fit))
    set_cpus(monkeypatch, 2)
    assert rows_to_csv(run_truncation_growth(cfg)) == rows_to_csv(rows)


def test_truncation_growth_lower_rows_take_the_largest_value_at_every_smaller_n(monkeypatch):
    # estimates that fall with n: each lower row at n reports the largest
    # estimate of its pair at every m <= n, taken by size and not by the
    # order of dims; exact rows, upper rows and the fits' dims order stay
    fake = {(2.0, 4.0): {2: 1.3, 4: 1.1, 8: 1.2}, (2.0, 2.0): {2: 2.0, 4: 1.5, 8: 3.0}}
    search = experiments.multiplier_norms

    def falling(M, pairs, cfg):
        ests = search(M, pairs, cfg)
        return [replace(e, value=fake[pq][len(M)]) if pq in fake else e for pq, e in zip(pairs, ests)]

    monkeypatch.setattr(experiments, "multiplier_norms", falling)
    cfg = ExperimentConfig(seed=3, dims=[8, 2, 4], pq_pairs=[(2.0, 4.0), (1.0, 1.0), (2.0, 2.0)], trials=1)
    rows = run_truncation_growth(cfg)
    norms = {(r.p, r.q, r.n): r for r in rows if r.metric == "multiplier_norm"}
    assert {n: norms[2.0, 4.0, n].value for n in cfg.dims} == {8: 1.3, 2: 1.3, 4: 1.3}
    assert {n: norms[2.0, 2.0, n].value for n in cfg.dims} == {8: 3.0, 2: 2.0, 4: 2.0}
    assert {norms[1.0, 1.0, n].certainty for n in cfg.dims} == {"exact"}
    uppers = {r.n: r.value for r in rows if r.metric == "multiplier_norm_upper"}
    assert uppers == {n: search(np.triu(np.ones((n, n))), [(2.0, 2.0)])[0].upper for n in cfg.dims}
    slope = [r.value for r in rows if (r.p, r.q, r.metric) == (2.0, 2.0, "fit_slope")]
    assert slope == [experiments._fit_log(cfg.dims, [3.0, 2.0, 2.0])[0]]


@pytest.mark.parametrize("cpus", [1, 2])
def test_truncation_growth_reports_the_largest_failing_n(monkeypatch, cpus):
    # n = 2 comes before n = 8 in dims, but n = 8 runs first
    search = experiments.multiplier_norms

    def failing(M, pairs, cfg):
        if len(M) in (2, 8):
            raise ValueError(f"n = {len(M)} failed")
        return search(M, pairs, cfg)

    monkeypatch.setattr(experiments, "multiplier_norms", failing)
    set_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="^n = 8 failed$"):
        run_truncation_growth(UNSORTED_TRUNCATION)
    assert multiprocessing.active_children() == []


# every trial but the first violates the bound in a child, and the first
# runs in the parent after a pause in which the child takes the second
VIOLATING_PSUMMING_RUN = """
import multiprocessing, os, sys, time
from doilab import cli, experiments

os.sched_getaffinity = lambda pid: {0, 1}
check = experiments.lipschitz_commutator_check

def failing(a, b, S, fs, ctx):
    results = check(a, b, S, fs, ctx)
    if multiprocessing.parent_process() is None:
        time.sleep(0.2)
        return results
    return [{**res, "satisfied": False} for res in results]

experiments.lipschitz_commutator_check = failing
sys.exit(cli.main(["psumming-check", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


@linux_only
def test_cli_psumming_violation_in_a_worker_exits_2_with_its_dump(tmp_path):
    src = Path(experiments.__file__).resolve().parents[1]
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, dims=[2, 3], pq_pairs=[[1.5, 1.5]], trials=1)
    done = subprocess.run(
        [sys.executable, "-c", VIOLATING_PSUMMING_RUN, cfg, str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 2, done.stderr
    first, dump = done.stderr.split("\n", 1)
    assert first == "violation: p-summing commutator bound violated"
    dump = json.loads(dump)
    assert (dump["p"], dump["n"], dump["trial"], dump["f"]) == (1.5, 3, 0, "abs")
    assert not out.exists()


@linux_only
def test_fan_out_leaves_no_child_process(monkeypatch):
    set_cpus(monkeypatch, 3)
    assert experiments._fan_out(lambda x: x * x, range(7)) == [x * x for x in range(7)]
    assert multiprocessing.active_children() == []

    def failing(x):
        if x == 4:
            raise ValueError("item failed")
        return x

    with pytest.raises(ValueError, match="item failed"):
        experiments._fan_out(failing, range(7))
    assert multiprocessing.active_children() == []

    # a child that dies without its results is an error, not a hang
    def dying(x):
        if _in_child():
            os._exit(1)
        time.sleep(0.2)  # the children take items meanwhile
        return x

    with pytest.raises(RuntimeError, match="exited without its results"):
        experiments._fan_out(dying, range(4))
    assert multiprocessing.active_children() == []


@linux_only
def test_fan_out_hands_each_item_to_one_process(monkeypatch):
    # more workers than CPUs contend for the shared counter: a lost update
    # would compute an item twice or skip one
    set_cpus(monkeypatch, 8)

    def item_and_pid(x):
        time.sleep(0.001)  # so that every process takes items
        return x, os.getpid()

    out = experiments._fan_out(item_and_pid, range(300))
    assert [x for x, _ in out] == list(range(300))
    assert len({pid for _, pid in out}) > 1
    assert multiprocessing.active_children() == []


@linux_only
def test_runners_inside_run_all_start_no_process(monkeypatch):
    set_cpus(monkeypatch, 3)

    def slow_pid(x):
        time.sleep(0.05)  # so that every process takes items
        return os.getpid()

    def fanning_out(cfg):
        return [(os.getpid(), experiments._fan_out(slow_pid, range(4)))]

    for name in list(experiments.RUNNERS):
        monkeypatch.setitem(experiments.RUNNERS, name, fanning_out)
    runs = run_all(SMALL)
    assert len(runs) == len(experiments.RUNNERS)
    assert len({pid for pid, _ in runs}) > 1  # run_all itself fanned out
    for runner_pid, pids in runs:
        assert pids == [runner_pid] * 4
    # outside run_all the same runner does fan out
    [(runner_pid, pids)] = fanning_out(SMALL)
    assert set(pids) != {runner_pid}
