"""Start-up tests: what a fresh ``qprobe`` process imports.

``fn``, ``mc``, ``--help``, input errors, sweeps of the moments and
``stats`` up to Nr = 12 run on numpy alone; scipy is imported only for the
Arnoldi census above Nr = 12 and for ``verify``'s matrix-exponential oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from qprobe import cli

SRC = Path(__file__).resolve().parents[1] / "src"
RING = ["--L", "7", "--gamma", "1", "--xin", "1", "--xd", "0", "--dist", "exp",
        "--mean", "0.6"]

NO_SOLVE = f"""
import contextlib, io, json, sys
import qprobe
from qprobe import cli

codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes.append(cli.main(["mc", *{RING!r}, "--nreal", "200", "--seed", "1",
                           "--n-abort", "100"]))
    codes.append(cli.main(["mc", *{RING!r}, "--mode", "per_realization", "--nreal", "200",
                           "--ncut", "20"]))
    codes.append(cli.main(["fn", *{RING!r}, "--nmax", "20"]))
    codes.append(cli.main(["stats", "--L", "7"]))          # no sites: a config error
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({{"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}}))
"""


SOLVES = f"""
import contextlib, io, json, sys
from qprobe import cli

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["sweep", "--L", "24", *{RING[2:8]!r}, "--dist", "gamma",
                           "--mean", "0.6", "--axis", "alpha", "--grid", "1,2,3",
                           "--outputs", "n_mean,t_mean"]))
    codes.append(cli.main(["stats", *{RING!r}]))
print(json.dumps({{"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}}))
"""


# a lambda_max-only sweep at Nr = 4 runs the dense census and no factorization,
# so scipy, whose numpy.testing import loads concurrent.futures, stays out
SWEEP_SERIAL = f"""
import contextlib, io, json, sys, threading
from qprobe import cli

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["sweep", *{RING[:10]!r}, "--axis", "mean_tau",
                     "--grid", "0.4,0.6,0.8,1.0", "--outputs", "lambda_max"])
print(json.dumps({{"code": code, "rows": out.getvalue().count("\\n"),
                  "futures": "concurrent.futures" in sys.modules,
                  "threads": threading.active_count()}}))
"""


# L = 64 with 20 000 realizations makes 20 tiles a probe step, enough for
# every CPU of the affinity mask up to 20
MC_POOL = f"""
import contextlib, io, json, os, sys, threading
from qprobe import cli

futures_at_import = "concurrent.futures" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["mc", "--L", "64", *{RING[2:]!r}, "--mode", "per_realization",
                     "--nreal", "20000", "--ncut", "2", "--out", os.devnull])
print(json.dumps({{"code": code, "futures_at_import": futures_at_import,
                  "summary_threads": json.loads(out.getvalue())["summary"]["threads"],
                  "cpus": len(os.sched_getaffinity(0)),
                  "threads": threading.active_count()}}))
"""


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=False)


def test_commands_without_a_solve_never_import_scipy():
    proc = _fresh_python("-c", NO_SOLVE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 2, 0], "scipy": []}


def test_moment_solves_never_import_scipy():
    # a moments sweep at Nr = 13 and stats at Nr = 4 (dense census)
    proc = _fresh_python("-c", SOLVES)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "scipy": []}


def test_stats_in_a_fresh_process_matches_in_process(capsys):
    # Nr = 13 > 12: the census imports scipy.sparse.linalg
    argv = ["stats", "--L", "24", "--gamma", "1", "--xin", "12", "--xd", "0",
            "--dist", "gamma", "--alpha", "5", "--mean", "0.6"]
    proc = _fresh_python("-m", "qprobe.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv) == 0
    in_process = json.loads(capsys.readouterr().out)
    assert in_process["zero_modes"]["structural"] is True
    assert json.loads(proc.stdout) == in_process


def test_sweep_runs_serially():
    proc = _fresh_python("-c", SWEEP_SERIAL)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "rows": 5, "futures": False, "threads": 1}


def test_mc_pool_lives_in_the_run_only():
    proc = _fresh_python("-c", MC_POOL)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["code"] == 0
    assert doc["futures_at_import"] is False
    assert doc["summary_threads"] == min(doc["cpus"], 20)
    assert doc["threads"] == 1
