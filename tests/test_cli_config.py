"""Configuration parsing and command-line behavior tests."""

import argparse
import csv
import io
import json
import math
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qprobe import cli, superop, verify
from qprobe.config import (distribution_from_config, merge_overrides,
                           model_from_config, parse_kv_text, seed_from_config)
from qprobe.errors import ConfigError, ConvergenceError, IllConditionedError
from qprobe.intervals import ExponentialInterval, FixedInterval, GammaInterval
from qprobe.model import build_ring, spectral_reduce
from qprobe.superop import (build_superops, detection_stats, fn_series,
                            universal_identity_check, zero_mode_census)

TLS_DENSE = """\
# symmetric two-level model, single-bond coupling 1
kind=dense
n=2
hamiltonian=0,0,-1,0,-1,0,0,0
x_in=0
x_d=0
"""


def test_parse_kv_text_comments_and_blanks():
    cfg = parse_kv_text("# header\n\na=1\nb = two # trailing\n")
    assert cfg == {"a": "1", "b": "two"}
    with pytest.raises(ConfigError):
        parse_kv_text("not-a-pair\n")


def test_ring_model_from_config():
    cfg = {"kind": "ring", "L": "7", "gamma": "1.0", "x_in": "1", "x_d": "0"}
    model = model_from_config(cfg)
    assert model.dim == 7
    assert model.psi_in[1] == 1.0
    with pytest.raises(ConfigError):
        model_from_config({"kind": "ring", "L": "7", "gamma": "1.0", "x_in": "1"})
    with pytest.raises(ConfigError):
        model_from_config({"kind": "hexagon"})


def test_dense_model_from_config_interleaved():
    cfg = parse_kv_text(TLS_DENSE)
    model = model_from_config(cfg)
    assert np.allclose(model.hamiltonian, [[0, -1], [-1, 0]])
    # explicit state vectors, real/imag interleaved
    cfg["psi_in"] = "0,0,1,0"
    cfg["psi_d"] = "1,0,0,0"
    model = model_from_config(cfg)
    assert model.psi_in[1] == 1.0 and model.psi_d[0] == 1.0
    cfg["hamiltonian"] = "1,2,3"
    with pytest.raises(ConfigError):
        model_from_config(cfg)


def test_distribution_from_config():
    assert isinstance(distribution_from_config({"dist": "fixed", "tau": "0.7"}),
                      FixedInterval)
    assert isinstance(distribution_from_config({"dist": "exp", "mean": "0.6"}),
                      ExponentialInterval)
    g = distribution_from_config({"dist": "gamma", "alpha": "5", "mean": "0.6"})
    assert isinstance(g, GammaInterval) and g.alpha == 5.0
    with pytest.raises(ConfigError):
        distribution_from_config({"dist": "weibull"})
    with pytest.raises(ConfigError):
        distribution_from_config({"dist": "exp", "mean": "-1"})
    with pytest.raises(ConfigError):
        distribution_from_config({})


def test_seed_and_overrides():
    assert seed_from_config({"seed": "42"}) == 42
    assert seed_from_config({}, default=7) == 7
    with pytest.raises(ConfigError):
        seed_from_config({"seed": "-1"})
    merged = merge_overrides({"mean": "0.6", "L": "7"}, {"mean": 0.9, "alpha": None})
    assert merged == {"mean": "0.9", "L": "7"}


def test_cli_stats_l24(capsys):
    rc = cli.main(["stats", "--L", "24", "--gamma", "1", "--xin", "12",
                   "--xd", "0", "--dist", "exp", "--mean", "0.6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reduced_dim"] == 13
    assert doc["stats"]["n_mean"] == pytest.approx(63.0, rel=1e-6)
    assert doc["stats"]["p_det"] == pytest.approx(1.0, abs=1e-9)
    assert doc["config"]["dist"] == "exp"
    assert doc["zero_modes"]["n_zero"] >= 25
    assert doc["zero_modes"]["structural"] is True          # Nr = 13 > 12
    assert doc["zero_modes"]["slowest_decay_im"] == 0.0
    assert set(doc["stats"]) == {"p_det", "n_mean", "n_sq", "t_mean", "t_sq", "n_var",
                                 "t_var", "condition", "reduced_dim"}
    assert doc["diagnostics"]["backend"] == "structured"
    assert 0 <= doc["diagnostics"]["residual"] < 1e-13


@pytest.mark.parametrize("L, x_in, method, solves", [(7, 1, "dense-eigvals", 0),
                                                     (24, 12, "shift-invert-arnoldi", 30)])
def test_cli_stats_reports_census_method_and_solves(capsys, L, x_in, method, solves):
    # Nr = 4 and 13; the two census keys are new, and every other key of
    # the document keeps its value from the solve and the census
    assert cli.main(["stats", "--L", str(L), "--gamma", "1", "--xin", str(x_in), "--xd", "0",
                     "--dist", "exp", "--mean", "0.6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    diagnostics = doc["diagnostics"]
    assert (diagnostics.pop("census_method"), diagnostics.pop("census_solves")) == (method, solves)
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_reduce(build_ring(L, 1.0, x_in, 0)), dist)
    stats = detection_stats(sset, dist)
    census = zero_mode_census(sset)
    assert diagnostics == {"backend": "structured", "residual": stats.residual, "dim": L,
                           "identity_residual": abs(stats.t_mean - 0.6 * stats.n_mean)}
    assert doc["zero_modes"] == {
        "n_zero": census.n_zero, "n_nonzero": census.n_nonzero,
        "slowest_decay_abs": abs(census.slowest_decay),
        "slowest_decay_re": census.slowest_decay.real,
        "slowest_decay_im": census.slowest_decay.imag, "structural": method != "dense-eigvals"}
    assert list(doc) == ["config", "reduced_dim", "stats", "zero_modes", "diagnostics"]


@pytest.mark.parametrize("flags, dist", [
    (["--dist", "fixed", "--tau", "0.7"], FixedInterval(0.7)),
    (["--dist", "exp", "--mean", "0.6"], ExponentialInterval(0.6)),
    (["--dist", "gamma", "--alpha", "5", "--mean", "0.6"], GammaInterval(5.0, 0.6)),
])
def test_cli_stats_diagnostics_report_dim_and_identity_residual(capsys, flags, dist):
    rc = cli.main(["stats", "--L", "9", "--gamma", "1", "--xin", "2", "--xd", "0", *flags])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    diag = doc["diagnostics"]
    assert set(diag) == {"backend", "residual", "dim", "identity_residual",
                         "census_method", "census_solves"}
    assert diag["dim"] == 9 and doc["reduced_dim"] == 5
    assert diag["identity_residual"] <= 1e-8 * max(1.0, doc["stats"]["t_sq"])
    report = universal_identity_check(
        build_superops(spectral_reduce(build_ring(9, 1.0, 2, 0)), dist), dist)
    assert diag["identity_residual"] == report.t_residual


def test_cli_stats_return_quantization(capsys):
    rc = cli.main(["stats", "--L", "7", "--gamma", "1", "--xin", "0",
                   "--xd", "0", "--dist", "exp", "--mean", "1.3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["n_mean"] == pytest.approx(4.0, abs=1e-8)
    assert doc["stats"]["p_det"] == pytest.approx(1.0, abs=1e-10)


def test_cli_stats_exceptional_interval_merges_levels(tmp_path, capsys):
    # tau = pi: U(tau) = -I on the two-level model, one merged level, so the
    # return is certain at the first attempt; 1e-9 off pi the gate refuses
    cfg = tmp_path / "tls.cfg"
    cfg.write_text(TLS_DENSE + "dist=fixed\ntau=3.141592653589793\n")
    assert cli.main(["stats", "--model", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["reduced_dim"], doc["stats"]["reduced_dim"]) == (2, 1)
    assert doc["stats"]["p_det"] == pytest.approx(1.0, abs=1e-15)
    assert doc["stats"]["n_mean"] == pytest.approx(1.0, abs=1e-15)
    assert doc["diagnostics"]["backend"] == "structured"
    assert cli.main(["stats", "--model", str(cfg), "--tau", "3.1415926567313"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "ill-conditioned" in captured.err


def test_cli_stats_exceptional_interval_matches_the_fn_sum(capsys):
    # tau = 2 pi / (E_max - E_min) on ring 5, the README example
    ring5 = ["--L", "5", "--gamma", "1", "--xin", "1", "--xd", "0", "--dist", "fixed",
             "--tau", "1.736629707381648"]
    assert cli.main(["stats", *ring5]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["reduced_dim"], doc["stats"]["reduced_dim"]) == (3, 2)
    assert cli.main(["fn", *ring5, "--nmax", "200", "--format", "json"]) == 0
    total = math.fsum(json.loads(capsys.readouterr().out)["fn"])
    assert total == pytest.approx(0.063661001875, abs=1e-12)
    assert doc["stats"]["p_det"] == pytest.approx(total, abs=1e-12)


def test_cli_stats_census_failure_exits_one(monkeypatch, capsys):
    def no_convergence(op, m):
        raise ConvergenceError("Arnoldi took 50 restarts (520 solves)")

    monkeypatch.setattr(superop, "_dominant_eigenvalues", no_convergence)
    rc = cli.main(["stats", "--L", "24", "--gamma", "1", "--xin", "12",
                   "--xd", "0", "--dist", "exp", "--mean", "0.6"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("numerical failure: shift-invert Arnoldi did not converge")


def test_cli_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "ring.cfg"
    cfg.write_text("kind=ring\nL=7\ngamma=1\nx_in=0\nx_d=0\ndist=exp\nmean=0.6\n")
    rc = cli.main(["stats", "--model", str(cfg), "--mean", "0.9"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["mean"] == "0.9"


def test_cli_bad_config_exits_two(capsys):
    rc = cli.main(["stats", "--L", "7", "--gamma", "1", "--xin", "0", "--xd", "0"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_fn_csv_matches_library(capsys):
    rc = cli.main(["fn", "--L", "7", "--gamma", "1", "--xin", "1", "--xd", "0",
                   "--dist", "exp", "--mean", "0.6", "--nmax", "8"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["n", "fn"]
    got = np.array([float(r[1]) for r in rows[1:]])
    sd = spectral_reduce(build_ring(7, 1.0, 1, 0))
    dist = ExponentialInterval(0.6)
    expect = fn_series(build_superops(sd, dist), 8)
    assert np.allclose(got, expect, atol=1e-12)
    assert np.all(got >= 0.0)


def test_cli_sweep_monotone_decreasing_for_exponential(capsys):
    grid = ",".join(str(x) for x in np.round(np.arange(0.3, 2.01, 0.1), 3))
    rc = cli.main(["sweep", "--L", "7", "--gamma", "1", "--xin", "1", "--xd", "0",
                   "--dist", "exp", "--axis", "mean_tau", "--grid", grid,
                   "--outputs", "n_mean,p_det"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["mean_tau", "n_mean", "p_det", "status"]
    n_mean = np.array([float(r[1]) for r in rows[1:]])
    assert np.all(np.diff(n_mean) <= 0)
    assert all(r[3] == "ok" for r in rows[1:])


def test_cli_sweep_flags_exceptional_fixed_interval(capsys):
    rc = cli.main(["sweep", "--L", "7", "--gamma", "1", "--xin", "1", "--xd", "0",
                   "--dist", "fixed", "--axis", "mean_tau",
                   "--grid", "1.0,1.6526270926756665,2.0", "--outputs", "n_mean"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    status = [r[2] for r in rows[1:]]
    assert status[0] == "ok" and status[2] == "ok"
    assert status[1].startswith("ill-conditioned")
    assert rows[2][1] == ""     # no fabricated value on the flagged row


EXCEPTIONAL_GRID = [1.0, 1.6526270926756665, 2.0]     # the middle point is ill-conditioned


def _sweep_reference():
    """Per point: the stats (None where ill-conditioned) and the condition."""
    sd = spectral_reduce(build_ring(7, 1.0, 1, 0))
    ref = []
    for tau in EXCEPTIONAL_GRID:
        dist = FixedInterval(tau)
        try:
            st = detection_stats(build_superops(sd, dist), dist)
        except IllConditionedError as exc:
            ref.append((tau, None, exc.condition))
        else:
            ref.append((tau, st, st.condition))
    return ref


def test_cli_sweep_json_rows_carry_condition(capsys):
    argv = ["sweep", *RING7, "--dist", "fixed", "--axis", "mean_tau",
            "--grid", ",".join(map(repr, EXCEPTIONAL_GRID))]
    assert cli.main([*argv, "--outputs", "n_mean", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    ref = _sweep_reference()
    assert [r["condition"] for r in rows] == [cond for _, _, cond in ref]
    assert [r["status"] == "ok" for r in rows] == [st is not None for _, st, _ in ref]
    assert rows[1]["condition"] > 1e12
    # no detection_stats on a lambda_max-only sweep, so no condition either
    assert cli.main([*argv, "--outputs", "lambda_max", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all("condition" not in r and r["status"] == "ok" for r in rows)


def test_cli_sweep_json_singular_point_condition_is_null(capsys):
    # alpha = 1e-300 puts every charfn at 1: J is exactly singular, cond inf
    assert cli.main(["sweep", *RING7, "--dist", "gamma", "--mean", "0.6", "--axis", "alpha",
                     "--grid", "1e-300,2", "--format", "json"]) == 0
    rows = _strict_json(capsys.readouterr().out)["rows"]
    assert rows[0]["status"] == "ill-conditioned cond~inf" and rows[0]["condition"] is None
    assert rows[1]["status"] == "ok" and rows[1]["condition"] > 1


def test_cli_sweep_csv_bytes(capsys):
    # the condition rides on the JSON rows only; the CSV keeps its columns
    assert cli.main(["sweep", *RING7, "--dist", "fixed", "--axis", "mean_tau",
                     "--grid", ",".join(map(repr, EXCEPTIONAL_GRID)),
                     "--outputs", "n_mean,t_mean"]) == 0
    expect = io.StringIO()
    writer = csv.writer(expect)
    writer.writerow(["mean_tau", "n_mean", "t_mean", "status"])
    for tau, st, cond in _sweep_reference():
        if st is None:
            writer.writerow([repr(tau), "", "", f"ill-conditioned cond~{cond:.3e}"])
        else:
            writer.writerow([repr(tau), repr(st.n_mean), repr(st.t_mean), "ok"])
    assert capsys.readouterr().out == expect.getvalue()


MOMENT_OUTPUTS = ("p_det", "n_mean", "n_sq", "t_mean", "t_sq")
SUBSETS = [tuple(name for i, name in enumerate(MOMENT_OUTPUTS) if mask >> i & 1)
           for mask in range(1, 2 ** len(MOMENT_OUTPUTS))]


def _sweep_cases():
    """(axis, points) on ring 7 under each law: fixed periods with an
    ill-conditioned one and an exact exceptional one, where levels 0 and 3
    merge; exp means; gamma shapes."""
    sd = spectral_reduce(build_ring(7, 1.0, 1, 0))
    tau_c = 2 * np.pi / (sd.energies[3] - sd.energies[0])
    fixed = [*EXCEPTIONAL_GRID, tau_c]
    return sd, {
        "fixed": ("mean_tau", [(t, FixedInterval(t)) for t in fixed]),
        "exp": ("mean_tau", [(m, ExponentialInterval(m)) for m in (0.3, 0.6, 1.7)]),
        "gamma": ("alpha", [(a, GammaInterval(a, 0.6)) for a in (0.5, 2.37, 10.0)]),
    }


def test_sweep_rows_equal_full_detection_stats_for_every_output_subset():
    # a sweep that prints no second moment skips their solves; what it prints
    # is bitwise the full detection_stats field, and flagged rows keep their
    # status and condition
    sd, cases = _sweep_cases()
    for law, (axis, points) in cases.items():
        full = []
        for _, dist in points:
            try:
                full.append(detection_stats(build_superops(sd, dist), dist))
            except IllConditionedError as exc:
                full.append(exc)
        assert any(isinstance(st, IllConditionedError) for st in full) == (law == "fixed")
        for outputs in SUBSETS:
            rows = cli.run_sweep(sd, axis, points, outputs)
            for row, st in zip(rows, full):
                if isinstance(st, IllConditionedError):
                    assert row["status"] == f"ill-conditioned cond~{st.condition:.3e}"
                    assert row["condition"] == st.condition
                    assert all(row[name] == "" for name in outputs)
                    continue
                assert row["status"] == "ok" and row["condition"] == st.condition
                for name in outputs:
                    assert row[name] == getattr(st, name), (law, outputs, name)
    assert build_superops(sd, cases["fixed"][1][-1][1]).dim == 3      # the merged point


@pytest.mark.parametrize("law", ["fixed", "exp", "gamma"])
def test_first_moments_take_the_full_solves_minus_the_second_moment_ones(monkeypatch, law):
    # the first moments' solves are the first 8 of the full 10, in order:
    # the condition estimate's 5 at ring 7, then f1, f2 and g; f3 and h follow
    seen = []
    solve = superop._ResolventSolver.solve

    def recording(self, b):
        seen.append(b.tobytes())
        return solve(self, b)

    monkeypatch.setattr(superop._ResolventSolver, "solve", recording)
    sd, cases = _sweep_cases()
    for _, dist in cases[law][1][:1]:
        runs = {}
        for second in (True, False):
            del seen[:]
            st = detection_stats(build_superops(sd, dist), dist, second_moments=second)
            runs[second] = list(seen)
            assert (st.n_sq is None) == (not second)
        full, first = runs[True], runs[False]
        assert len(full) == 10 and first == full[:8]


@pytest.mark.filterwarnings("error")
def test_sweep_without_t_sq_runs_where_only_t_sq_overflows(capsys):
    # t_sq overflows a double at mean 1e153, so stats exits 2; a sweep that
    # prints no second moment never solves for it, and one that does exits 2
    ring = ["--L", "24", "--gamma", "1", "--xin", "12", "--xd", "0", "--dist", "exp"]
    argv = ["sweep", *ring, "--axis", "mean_tau", "--grid", "0.6,1e153", "--format", "json"]
    assert cli.main([*argv, "--outputs", "p_det,n_mean,t_mean"]) == 0
    rows = _strict_json(capsys.readouterr().out)["rows"]
    assert [row["status"] for row in rows] == ["ok", "ok"]
    assert rows[1]["t_mean"] == pytest.approx(1e153 * rows[1]["n_mean"], rel=1e-12)
    assert cli.main([*argv, "--outputs", "n_mean,t_sq"]) == 2
    assert cli.main(["stats", *ring, "--mean", "1e153"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: t_sq = ") == 2


def test_cli_sweep_gamma_peaks_grow_with_alpha(capsys):
    grid = ",".join(str(x) for x in np.round(np.arange(1.5, 1.901, 0.025), 4))
    maxima = {}
    for alpha in (5, 25, 125):
        rc = cli.main(["sweep", "--L", "7", "--gamma", "1", "--xin", "1",
                       "--xd", "0", "--dist", "gamma", "--alpha", str(alpha),
                       "--mean", "0.6", "--axis", "mean_tau", "--grid", grid,
                       "--outputs", "n_mean"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        maxima[alpha] = max(float(r[1]) for r in rows[1:])
    assert maxima[5] < maxima[25] < maxima[125]


def test_cli_sweep_alpha_axis(capsys):
    rc = cli.main(["sweep", "--L", "5", "--gamma", "1", "--xin", "1", "--xd", "0",
                   "--dist", "gamma", "--mean", "0.6", "--axis", "alpha",
                   "--grid", "1,5,25", "--outputs", "n_mean,lambda_max"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["alpha", "n_mean", "lambda_max", "status"]
    assert len(rows) == 4
    lam = [float(r[2]) for r in rows[1:]]
    assert all(0 < x < 1 for x in lam)


def test_cli_sweep_lambda_max_matches_dense_perron_root(capsys):
    # Nr = 21 takes the shift-invert census; dense eigvals is the oracle
    rc = cli.main(["sweep", "--L", "40", "--gamma", "1", "--xin", "20", "--xd", "0",
                   "--dist", "exp", "--axis", "mean_tau", "--grid", "0.5,0.6",
                   "--outputs", "lambda_max"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["mean_tau", "lambda_max", "status"]
    sd = spectral_reduce(build_ring(40, 1.0, 20, 0))
    for row in rows[1:]:
        sset = build_superops(sd, ExponentialInterval(float(row[0])))
        rho = np.abs(np.linalg.eigvals(sset.transfer)).max()
        assert abs(float(row[1]) - rho) <= 1e-12 and row[2] == "ok"


def test_cli_sweep_grid_validation(capsys):
    rc = cli.main(["sweep", "--L", "5", "--gamma", "1", "--xin", "1", "--xd", "0",
                   "--dist", "exp", "--axis", "mean_tau", "--grid", "0.5,0.4"])
    assert rc == 2
    rc = cli.main(["sweep", "--L", "5", "--gamma", "1", "--xin", "1", "--xd", "0",
                   "--dist", "exp", "--axis", "alpha", "--grid", "1,2"])
    assert rc == 2


@pytest.mark.parametrize("threads", ["3", "abc"])
def test_cli_sweep_threads_env_same_result(capsys, monkeypatch, threads):
    # nothing reads QPROBE_THREADS: sweeps run serially whatever it says
    args = ["sweep", "--L", "7", "--gamma", "1", "--xin", "1", "--xd", "0",
            "--dist", "exp", "--axis", "mean_tau", "--grid", "0.4,0.6,0.8,1.0",
            "--outputs", "n_mean,t_mean"]
    assert cli.main(args) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("QPROBE_THREADS", threads)
    assert cli.main(args) == 0
    assert capsys.readouterr().out == serial


def test_cli_mc_deterministic_files(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["mc", "--L", "5", "--gamma", "1", "--xin", "1", "--xd", "0",
            "--dist", "exp", "--mean", "0.6", "--mode", "bernoulli",
            "--nreal", "3000", "--seed", "99", "--n-abort", "400"]
    assert cli.main(base + ["--out", str(out1)]) == 0
    summary1 = json.loads(capsys.readouterr().out)
    assert cli.main(base + ["--out", str(out2)]) == 0
    summary2 = json.loads(capsys.readouterr().out)
    assert out1.read_text() == out2.read_text()
    for doc in (summary1, summary2):     # the run's timing is all that may differ
        assert doc["summary"].pop("wall_s") > 0 and doc["summary"].pop("steps_per_s") > 0
    assert summary1 == summary2
    assert summary1["config"]["seed"] == "99"
    rows = list(csv.reader(io.StringIO(out1.read_text())))
    assert rows[0] == ["n", "t"]
    assert all(int(r[0]) >= 1 and float(r[1]) > 0 for r in rows[1:])


def test_cli_mc_censored_fraction(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = cli.main(["mc", "--L", "6", "--gamma", "1", "--xin", "1", "--xd", "0",
                   "--dist", "exp", "--mean", "0.6", "--mode", "bernoulli",
                   "--nreal", "4000", "--seed", "11", "--n-abort", "300",
                   "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    frac = summary["censored"] / summary["n_real"]
    assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 4000)


def test_cli_mc_per_realization_summary(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = cli.main(["mc", "--L", "2", "--gamma", "0.5", "--xin", "0", "--xd", "0",
                   "--dist", "exp", "--mean", "0.6", "--mode", "per_realization",
                   "--nreal", "20000", "--ncut", "90", "--seed", "8",
                   "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert abs(summary["nbar_mean"] - 2.0) <= 4 * summary["nbar_stderr"]
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["realization", "nbar"]
    assert len(rows) == 20001


@pytest.mark.parametrize("mode, flags", [("bernoulli", ["--n-abort", "40"]),
                                         ("per_realization", ["--ncut", "30"])])
def test_cli_mc_summary_reports_probe_steps_and_throughput(tmp_path, capsys, mode, flags):
    out = tmp_path / "r.csv"
    rc = cli.main(["mc", "--L", "6", "--gamma", "1", "--xin", "1", "--xd", "0",
                   "--dist", "exp", "--mean", "0.6", "--mode", mode, "--nreal", "400",
                   "--seed", "4", *flags, "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
    if mode == "bernoulli":
        # ring 6 from site 1 has dark overlap: about half the rows are censored
        assert summary["censored"] > 0 and summary["censored_reason"] == "n_abort"
        steps = sum(int(r[0]) for r in rows) + 40 * summary["censored"]
    else:
        assert summary["censored_reason"] is None
        steps = 400 * 30
    assert summary["probe_steps"] == steps
    assert summary["wall_s"] > 0
    assert summary["steps_per_s"] == pytest.approx(steps / summary["wall_s"])
    assert summary["threads"] == 1            # 400 rows of 6 make one chunk


def test_cli_mc_one_realization_summary_is_strict_json(tmp_path, capsys):
    # one realization has no sample variance: its keys are left out, not
    # written as NaN (which strict JSON rejects), and numpy warns of nothing
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["mc", "--L", "6", "--gamma", "1", "--xin", "1", "--xd", "0",
                       "--dist", "exp", "--mean", "0.6", "--mode", "per_realization",
                       "--nreal", "1", "--ncut", "5", "--out", str(tmp_path / "x.csv")])
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == ""
    summary = json.loads(captured.out, parse_constant=reject)["summary"]
    assert summary["n_real"] == 1 and summary["nbar_mean"] >= 1.0
    assert not {"nbar_var", "nbar_stderr", "nbar_var_stderr"} & summary.keys()


def test_cli_verify_quick_in_process(capsys):
    assert cli.main(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_run_verify_rejects_an_unknown_level():
    with pytest.raises(ValueError, match="level must be 'quick' or 'full', got 'medium'"):
        verify.run_verify("medium")


def test_cli_verify_names_a_check_that_raises(monkeypatch, capsys):
    # a QprobeError fails its own check; the checks after it still run
    def census_fails():
        raise ConvergenceError("shift-invert Arnoldi did not converge at Nr=21")

    checks = list(verify.CHECKS)
    at = [name for name, _, _ in checks].index("zero-mode-census")
    checks[at] = ("zero-mode-census", "quick", census_fails)
    monkeypatch.setattr(verify, "CHECKS", checks)
    assert cli.main(["verify", "--level", "quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    quick = [name for name, tier, _ in verify.CHECKS if tier == "quick"]
    assert [line.split()[1].rstrip(":") for line in lines] == quick
    assert lines[at] == ("FAIL zero-mode-census: ConvergenceError: "
                         "shift-invert Arnoldi did not converge at Nr=21")
    assert all(line.startswith("PASS") for i, line in enumerate(lines) if i != at)


RING7 = ["--L", "7", "--gamma", "1", "--xin", "1", "--xd", "0"]


@pytest.mark.parametrize("argv", [
    ["--dist", "gamma", "--mean", "0.6", "--axis", "mean_tau"],    # no --alpha
    ["--dist", "gamma", "--alpha", "3", "--axis", "alpha"],        # no --mean
])
def test_cli_sweep_missing_key_exits_two(capsys, argv):
    rc = cli.main(["sweep", *RING7, *argv, "--grid", "1,2"])
    assert rc == 2
    assert "config error: missing required key" in capsys.readouterr().err


def test_cli_sweep_non_numeric_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "ring.cfg"
    cfg.write_text("kind=ring\nL=7\ngamma=1\nx_in=1\nx_d=0\ndist=gamma\nalpha=three\n")
    rc = cli.main(["sweep", "--model", str(cfg), "--axis", "mean_tau", "--grid", "1,2"])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fn", *RING7, "--dist", "exp", "--mean", "0.6", "--nmax", "0"],
    ["mc", *RING7, "--dist", "exp", "--mean", "0.6", "--nreal", "0"],
    ["mc", *RING7, "--dist", "exp", "--mean", "0.6", "--nreal", "5", "--n-abort", "0"],
    ["mc", *RING7, "--dist", "exp", "--mean", "0.6", "--nreal", "5",
     "--mode", "per_realization", "--ncut", "1"],
    ["stats", *RING7, "--dist", "exp", "--mean", "0.6", "--degeneracy-tol", "-1"],
    ["stats", *RING7, "--dist", "exp", "--mean", "0.6", "--degeneracy-tol", "0"],
    ["stats", *RING7, "--dist", "exp", "--mean", "0.6", "--degeneracy-tol", "inf"],
    ["stats", *RING7, "--dist", "exp", "--mean", "inf"],
    ["stats", *RING7, "--dist", "fixed", "--tau", "inf"],
    ["stats", *RING7, "--dist", "gamma", "--alpha", "inf", "--mean", "0.6"],
    ["mc", *RING7, "--dist", "exp", "--mean", "inf", "--nreal", "10"],
    # finite parameters whose <tau^2> overflows a double
    ["stats", *RING7, "--dist", "exp", "--mean", "1e160"],
    ["fn", *RING7, "--dist", "fixed", "--tau", "1e300", "--nmax", "3"],
    ["sweep", *RING7, "--dist", "gamma", "--alpha", "1e-10", "--axis", "mean_tau",
     "--grid", "0.5,1e150"],
    ["mc", *RING7, "--dist", "exp", "--mean", "1e300", "--nreal", "10"],
])
def test_cli_invalid_argument_exits_two(capsys, argv):
    rc = cli.main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["fn", *RING7, "--dist", "exp", "--mean", "0.6", "--nmax", "10000000000000"],
    ["mc", *RING7, "--dist", "exp", "--mean", "0.6", "--nreal", "5",
     "--mode", "per_realization", "--ncut", "10000000000000"],
    # every run keeps at least one float64 per realization
    ["mc", *RING7, "--dist", "exp", "--mean", "0.6", "--nreal", "10000000000000"],
    ["mc", *RING7, "--dist", "exp", "--mean", "0.6", "--nreal", "10000000000000",
     "--mode", "per_realization"],
], ids=["fn-nmax", "mc-ncut", "mc-nreal-bernoulli", "mc-nreal-per_realization"])
def test_cli_oversized_count_exits_two_before_out(tmp_path, capsys, no_solve, argv):
    # one float64 array of 10^13 entries is far over the 1 GiB budget
    out = tmp_path / "x.csv"
    rc = cli.main([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # <tau^2> is finite, but t_sq overflows a double inside the solve
    ["stats", *RING7, "--dist", "fixed", "--tau", "1e154"],
    ["stats", "--L", "24", "--gamma", "1", "--xin", "12", "--xd", "0",
     "--dist", "exp", "--mean", "1e153"],
])
def test_cli_overflowing_moment_exits_two(capsys, argv):
    rc = cli.main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: t_sq = ") and captured.err.count("\n") == 1


def test_cli_mc_summary_to_stderr_without_out(capsys):
    rc = cli.main(["mc", *RING7, "--dist", "exp", "--mean", "0.6", "--nreal", "50",
                   "--seed", "2", "--n-abort", "30"])
    assert rc == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == ["n", "t"]
    assert json.loads(captured.err)["summary"]["n_real"] == 50


@pytest.fixture
def no_compute(monkeypatch):
    """Make every compute entry point the CLI calls fail if reached."""
    def reached(*args, **kwargs):
        raise AssertionError("computation started before --out was opened")
    for name in ("fn_series", "detection_stats", "zero_mode_census",
                 "run_bernoulli", "run_per_realization"):
        monkeypatch.setattr(cli, name, reached)


@pytest.fixture
def no_solve(monkeypatch, no_compute):
    """``no_compute``, and the model's eigendecomposition fails too: for the
    inputs checked before any solve."""
    def reached(*args, **kwargs):
        raise AssertionError("spectral_reduce reached before the inputs were checked")
    monkeypatch.setattr(cli, "spectral_reduce", reached)


@pytest.mark.parametrize("argv", [
    ["fn", *RING7, "--dist", "exp", "--mean", "0.6", "--nmax", "3"],
    ["mc", *RING7, "--dist", "exp", "--mean", "0.6", "--nreal", "5", "--n-abort", "10"],
    ["sweep", *RING7, "--dist", "exp", "--axis", "mean_tau", "--grid", "0.5,1"],
    ["mc", *RING7, "--dist", "exp", "--mean", "0.6", "--nreal", "5",
     "--mode", "per_realization"],
])
def test_cli_unwritable_out_exits_two(tmp_path, capsys, no_compute, argv):
    rc = cli.main([*argv, "--out", str(tmp_path / "missing" / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write --out") and err.count("\n") == 1


SUBCOMMAND_ARGV = {
    "stats": ["stats", *RING7, "--dist", "exp", "--mean", "0.6"],
    "fn": ["fn", *RING7, "--dist", "exp", "--mean", "0.6", "--nmax", "3"],
    "sweep": ["sweep", *RING7, "--dist", "exp", "--axis", "mean_tau", "--grid", "0.5,1"],
    "mc": ["mc", *RING7, "--dist", "exp", "--mean", "0.6", "--nreal", "5"],
}
SEED_ERROR = "seed must fit in unsigned 64 bits, got {}"
TOL_ERROR = "--degeneracy-tol must be positive and finite, got {}"


@pytest.mark.parametrize("command, flags, expect", [
    # mc takes --seed; stats, fn and sweep read a seed from a --model file only
    *(pytest.param(command, flags, SEED_ERROR.format(seed), id=f"{command}-{name}")
      for command in ("stats", "fn", "sweep", "mc")
      for name, seed in (("seed-negative", -5), ("seed-2^64", 2**64))
      for flags in [["--seed", str(seed)] if command == "mc" else [f"seed={seed}"]]),
    # the exact subcommands take --degeneracy-tol
    *(pytest.param(command, ["--degeneracy-tol", tol], TOL_ERROR.format(float(tol)),
                   id=f"{command}-{name}")
      for command in ("stats", "fn", "sweep")
      for name, tol in (("tol-negative", "-1"), ("tol-nan", "nan"))),
])
def test_cli_shared_flags_checked_on_every_subcommand(tmp_path, capsys, no_solve,
                                                      command, flags, expect):
    if flags[0].startswith("seed="):
        model = tmp_path / "seed.cfg"
        model.write_text(flags[0] + "\n")
        flags = ["--model", str(model)]
    out = tmp_path / "x.csv"
    argv = SUBCOMMAND_ARGV[command]
    if command != "stats":
        argv = [*argv, "--out", str(out)]
    assert cli.main([*argv, *flags]) == 2
    assert capsys.readouterr().err == f"config error: {expect}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("stats", ["--seed", "3"]),
    ("fn", ["--seed", "3"]),
    ("sweep", ["--seed", "3"]),
    ("stats", ["--pseudo-inverse"]),
    ("fn", ["--pseudo-inverse"]),
    ("sweep", ["--pseudo-inverse"]),
    ("mc", ["--pseudo-inverse"]),
    ("mc", ["--degeneracy-tol", "0.5"]),
], ids=["stats-seed", "fn-seed", "sweep-seed", "stats-pseudo-inverse", "fn-pseudo-inverse",
        "sweep-pseudo-inverse", "mc-pseudo-inverse", "mc-degeneracy-tol"])
def test_cli_flag_a_subcommand_does_not_read_exits_two(tmp_path, capsys, no_solve,
                                                       command, flags):
    # each subcommand takes only the flags it reads: the exact average has no
    # seed, the Monte Carlo does not cluster, and there is one solver, so no
    # subcommand takes a flag to choose it
    out = tmp_path / "x.csv"
    argv = SUBCOMMAND_ARGV[command]
    if command != "stats":
        argv = [*argv, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: unrecognized arguments: {' '.join(flags)}\n")
    assert not out.exists()


def test_cli_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert cli.main(["stats", "--L", "7"]) == 2          # no sites: a config error
        assert cli.main(["stats", "--L", "7"]) == 2
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert capsys.readouterr().err.count("config error: missing required key") == 2


def _fn_peak_growth(monkeypatch, fmt):
    """Traced peak growth of an ``fn`` run per float64 of its series, past
    the fixed cost of a small run."""
    monkeypatch.setattr(cli, "fn_series", lambda sset, n: np.linspace(-0.01, 0.5, n))

    def peak(nmax):
        tracemalloc.start()
        try:
            assert cli.main(["fn", *RING7, "--dist", "exp", "--mean", "0.6", "--nmax",
                             str(nmax), "--format", fmt, "--out", os.devnull]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base, nmax = 1 << 12, 1 << 16
    peak(base)
    return (peak(nmax) - peak(base)) / (8 * (nmax - base))


def test_cli_fn_csv_holds_one_series(monkeypatch):
    # past a fixed cost (the csv writer's record buffer, the I/O layer), a
    # CSV run holds one float64 per entry: no clamped copy, no list of floats
    assert _fn_peak_growth(monkeypatch, "csv") <= 1.2


def test_cli_fn_json_holds_one_series(monkeypatch):
    # the JSON encoder reads the series one float at a time: no list of
    # float64 scalars beside the array (5.1x the series before)
    assert _fn_peak_growth(monkeypatch, "json") <= 1.2


MODEL_FLAGS = ["--model", "--L", "--gamma", "--xin", "--xd", "--dist", "--tau", "--mean",
               "--alpha"]
SUBCOMMAND_FLAGS = {
    "stats": [*MODEL_FLAGS, "--degeneracy-tol"],
    "fn": [*MODEL_FLAGS, "--degeneracy-tol", "--nmax", "--out", "--format"],
    "sweep": [*MODEL_FLAGS, "--degeneracy-tol", "--axis", "--grid",
              "--outputs", "--out", "--format"],
    "mc": [*MODEL_FLAGS, "--seed", "--mode", "--nreal", "--ncut", "--n-abort", "--out"],
    "verify": ["--level"],
}


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _settable(subparser):
    """The option strings of the flags a user can set, --help aside."""
    return [a.option_strings[0] for a in subparser._actions
            if a.option_strings and a.option_strings[0] != "-h"]


def test_cli_each_subcommand_takes_only_the_flags_it_reads():
    subs = _subparsers(cli.build_parser())
    assert {name: _settable(p) for name, p in subs.items()} == SUBCOMMAND_FLAGS


def test_cli_mc_n_abort_help_names_the_dark_share_cost():
    # each undetected realization runs the whole cap, and a start with dark
    # overlap leaves a share 1 - p_det of them undetected
    n_abort = next(a for a in _subparsers(cli.build_parser())["mc"]._actions
                   if a.option_strings == ["--n-abort"])
    assert n_abort.default == 10**6
    text = n_abort.help % {"default": n_abort.default}
    assert "default 1000000" in text and "1 - p_det" in text and "dark overlap" in text


RING5 = ["--L", "5", "--gamma", "1", "--xin", "1", "--xd", "0"]
FIXED = ["--dist", "fixed", "--tau", "0.6"]
GAMMA = ["--dist", "gamma", "--alpha", "2", "--mean", "0.6"]
# two tiny runs of each subcommand, together reading every flag and both formats
MATRIX_BASES = {
    "stats": [["stats", *RING5, *FIXED], ["stats", *RING5, *GAMMA]],
    "fn": [["fn", *RING5, *FIXED, "--nmax", "5"],
           ["fn", *RING5, *GAMMA, "--nmax", "5", "--format", "json"]],
    "sweep": [["sweep", *RING5, *FIXED, "--axis", "mean_tau", "--grid", "0.5,1"],
              ["sweep", *RING5, *GAMMA, "--axis", "alpha", "--grid", "2,3", "--format", "json"]],
    "mc": [["mc", *RING5, *FIXED, "--nreal", "20", "--n-abort", "20"],
           ["mc", *RING5, *GAMMA, "--mode", "per_realization", "--nreal", "20", "--ncut", "5"]],
    "verify": [["verify"]],
}
MATRIX_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "abc", "2",
                 "3.141592653589793"]


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", list(MATRIX_BASES))
def test_cli_flag_matrix_exits_cleanly(tmp_path, monkeypatch, capsys, command):
    # every flag that takes a value, set alone to each value on a tiny run: the
    # exit code is 0, 1 or 2, a rejection is one line (argparse's after its
    # usage line), and what a run writes as JSON is strict JSON
    monkeypatch.chdir(tmp_path)
    subparser = _subparsers(cli.build_parser())[command]
    flags = [a.option_strings[0] for a in subparser._actions
             if a.option_strings and a.nargs != 0]
    failures = []
    for base in MATRIX_BASES[command]:
        for flag in flags:
            for value in MATRIX_VALUES:
                argv = [*base, f"{flag}={value}"]
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc, parser_error = exc.code, True
                else:
                    parser_error = False
                out, err = capsys.readouterr()
                try:
                    assert rc in (0, 1, 2) and "Traceback" not in err
                    if parser_error:
                        assert rc == 2 and err.startswith("usage: ")
                        assert err.splitlines()[-1].startswith("qprobe ")
                    elif rc:
                        assert out == "" and err.count("\n") == 1
                    elif command == "stats" or "json" in base:
                        _strict_json(Path(value).read_text() if flag == "--out" else out)
                    elif command == "mc":
                        _strict_json(out if flag == "--out" else err)
                except (AssertionError, ValueError) as exc:
                    failures.append((argv[-1], base[-2:], rc, err, repr(exc)))
    assert not failures, failures


@pytest.mark.parametrize("gamma", ["1e11", "1e12", "1e300"])
def test_cli_stats_at_a_large_hopping_matches_unit_hopping(capsys, gamma):
    # eigh splits degenerate ring pairs by a few eps max|E|, far over 1e-9 here
    argv = ["stats", "--L", "7", "--xin", "1", "--xd", "0", "--dist", "exp", "--mean", "0.6"]
    assert cli.main([*argv, "--gamma", gamma]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reduced_dim"] == 4
    assert doc["stats"]["p_det"] == pytest.approx(0.5, abs=1e-12)
    assert doc["stats"]["n_mean"] == pytest.approx(17 / 4, rel=1e-12)


# ring 4, psi_in = (|1> - |3>)/sqrt(2) is antisymmetric about the detector
_AMP = repr(float(1 / np.sqrt(2)))
DARK_RING4 = (
    "kind=dense\nn=4\nx_d=0\n"
    "hamiltonian=0,0,-1,0,0,0,-1,0, -1,0,0,0,-1,0,0,0,"
    " 0,0,-1,0,0,0,-1,0, -1,0,0,0,-1,0,0,0\n"
    f"psi_in=0,0,{_AMP},0,0,0,-{_AMP},0\n")


def test_cli_mc_dark_initial_state_exits_two(tmp_path, capsys):
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(DARK_RING4)
    rc = cli.main(["mc", "--model", str(cfg), "--dist", "exp", "--mean", "0.6",
                   "--mode", "per_realization", "--nreal", "100", "--ncut", "20"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: detection probability vanishes") and err.count("\n") == 1


def test_cli_stats_vanishing_pdet_names_its_cause(tmp_path, capsys):
    # tau = pi on ring 4: every phase exp(-i E tau) is 1, so U(tau) = I and
    # the one merged level carries the amplitude <0|1> = 0
    rc = cli.main(["stats", "--L", "4", "--gamma", "1", "--xin", "1", "--xd", "0",
                   "--dist", "fixed", "--tau", "3.141592653589793"])
    assert rc == 2
    err = capsys.readouterr().err
    prefix = ("error: detection probability vanishes: the initial state has no overlap "
              "with the bright subspace (bright weight ")
    assert err.startswith(prefix) and err.count("\n") == 1
    assert float(err[len(prefix):].split(")")[0]) < 1e-30
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(DARK_RING4)
    rc = cli.main(["stats", "--model", str(cfg), "--dist", "exp", "--mean", "0.6"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: detection probability vanishes: the initial state has "
                          "no overlap with the bright subspace")
    assert err.count("\n") == 1


@pytest.mark.parametrize("keys, expect", [
    ("x_in=5\n", "error: site index must lie in [0, 2), got 5"),
    ("x_in=-1\n", "error: site index must lie in [0, 2), got -1"),
    ("x_d=2\n", "error: site index must lie in [0, 2), got 2"),
    ("n=0\nhamiltonian=\n", "config error: dense model needs n >= 1, got 0"),
    ("n=-1\nhamiltonian=0,0\n", "config error: dense model needs n >= 1, got -1"),
    ("hamiltonian=inf,0,-1,0,-1,0,0,0\n", "error: hamiltonian has a non-finite entry"),
    ("hamiltonian=0,x,-1,0,-1,0,0,0\n",
     "config error: key 'hamiltonian' contains a non-numeric entry"),
], ids=["x_in=5", "x_in=-1", "x_d=2", "n=0", "n=-1", "H=inf", "H=x"])
def test_cli_dense_bad_size_or_site_exits_two(tmp_path, capsys, keys, expect):
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(TLS_DENSE + keys)       # later keys win
    rc = cli.main(["stats", "--model", str(cfg), "--dist", "exp", "--mean", "0.6"])
    assert rc == 2
    assert capsys.readouterr().err == expect + "\n"


def test_cli_ring_infinite_hopping_exits_two(capsys):
    rc = cli.main(["stats", "--L", "5", "--gamma", "inf", "--xin", "1", "--xd", "0",
                   "--dist", "exp", "--mean", "0.6"])
    assert rc == 2
    assert capsys.readouterr().err == "error: hamiltonian has a non-finite entry\n"


def test_cli_sweep_non_finite_grid_fails_before_compute(capsys, no_solve):
    rc = cli.main(["sweep", *RING7, "--dist", "exp", "--axis", "mean_tau",
                   "--grid", "0.5,inf"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_cli_out_truncated_before_run(tmp_path, capsys):
    cfg, out = tmp_path / "dark.cfg", tmp_path / "x.csv"
    cfg.write_text(DARK_RING4)
    out.write_text("stale\n")
    base = ["mc", "--model", str(cfg), "--dist", "exp", "--mean", "0.6",
            "--mode", "per_realization", "--out", str(out)]
    assert cli.main([*base, "--nreal", "0"]) == 2
    assert out.read_text() == "stale\n"          # bad input: --out never opened
    assert cli.main([*base, "--nreal", "100"]) == 2
    assert out.read_text() == ""                 # the run failed after opening it


@pytest.mark.parametrize("command", [
    ["stats"], ["fn", "--nmax", "3"], ["mc", "--nreal", "10"]], ids=["stats", "fn", "mc"])
def test_cli_ring_over_the_dense_budget_exits_two(monkeypatch, capsys, command):
    def reached(*args, **kwargs):
        raise AssertionError("np.zeros reached")

    monkeypatch.setattr(np, "zeros", reached)
    rc = cli.main([command[0], "--L", "1000000", "--gamma", "1", "--xin", "1", "--xd", "0",
                   "--dist", "exp", "--mean", "0.6", *command[1:]])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: a ring of L=1000000 sites needs a 16000000000000-byte Hamiltonian, "
        "over the 1073741824-byte budget (L <= 8192)\n")


SWEEP7 = ["sweep", *RING7, "--dist", "exp", "--mean", "0.6", "--axis", "mean_tau"]


@pytest.mark.parametrize("argv, expect", [
    ([*SWEEP7, "--grid", "a,b"], "config error: cannot parse --grid 'a,b'"),
    ([*SWEEP7, "--grid", ","], "config error: sweep grid is empty"),
    ([*SWEEP7, "--grid", "0,1"], "config error: sweep grid values must be positive"),
    ([*SWEEP7, "--grid", "1,2", "--outputs", "foo"],
     "config error: unknown sweep outputs: ['foo']"),
], ids=["grid-a,b", "grid-comma", "grid-0,1", "outputs-foo"])
def test_cli_sweep_bad_grid_or_outputs_exits_two(capsys, no_solve, argv, expect):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == expect + "\n"


def test_cli_unreadable_model_file_exits_two(tmp_path, capsys, no_compute):
    path = tmp_path / "missing.cfg"
    rc = cli.main(["stats", "--model", str(path), "--dist", "exp", "--mean", "0.6"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {str(path)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_dense_config_without_hamiltonian_exits_two(tmp_path, capsys, no_compute):
    cfg = tmp_path / "dense.cfg"
    cfg.write_text("kind=dense\nn=2\nx_in=0\nx_d=0\n")
    rc = cli.main(["stats", "--model", str(cfg), "--dist", "exp", "--mean", "0.6"])
    assert rc == 2
    assert capsys.readouterr().err == "config error: dense model needs the 'hamiltonian' key\n"


def test_cli_verify_names_a_check_that_fails_its_assertion(monkeypatch, capsys):
    # an AssertionError prints its message after the check's name
    def census_wrong():
        raise AssertionError("slowest decay 0.5 is not the dense 0.9")

    checks = list(verify.CHECKS)
    at = [name for name, _, _ in checks].index("zero-mode-census")
    checks[at] = ("zero-mode-census", "quick", census_wrong)
    monkeypatch.setattr(verify, "CHECKS", checks)
    assert cli.main(["verify", "--level", "quick"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[at] == "FAIL zero-mode-census: slowest decay 0.5 is not the dense 0.9"
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert err == "" and "Traceback" not in out
