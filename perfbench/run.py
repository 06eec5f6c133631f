"""qprobe benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point_nr41 --seed 1 --seconds 20 --trace 0

Every workload runs in a fresh child process (``child.py``) that calls
``qprobe.cli.main`` in-process for each operation; children run one at a
time.  ``QPROBE_THREADS`` is removed from the child's environment (serial
sweeps) and OpenBLAS keeps its default thread count unless a run asks for
one thread.  Every operation's output is checked by the oracles in
``checks.py``; a failed check makes ``correct`` false and the exit code 1.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median cold
start to "ready" over several children), ``wall_s`` (median time of one
pass over the workload's op list) and ``peak_rss_mb`` (the workload
child's peak RSS from wait4).  ``--trace 1`` runs the workload untraced,
traced, and traced with ``OPENBLAS_NUM_THREADS=1``, and reports per-layer
calls and self times, computed work counts and the tracing overhead.
The last line of stdout is the JSON result; a human-readable report and
the machine description come before it, and a JSON record with the spans
goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, make_ops

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0          # every run must end within 180 s
SETUP_ONLY_CHILDREN = 6      # plus the workload child: 7 cold starts per run
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

SPANS = (
    "model.spectral_reduce", "intervals.charfn", "intervals.sample",
    "superop.build_superops", "superop.detection_stats", "superop.lu_factor",
    "superop.lu_solve", "superop.zero_mode_census", "superop.fn_series",
    "trajectory.run_bernoulli", "trajectory.run_per_realization",
    "cli.stats", "cli.fn", "cli.sweep", "cli.mc",
)
TRAJECTORY_SPANS = ("trajectory.run_bernoulli", "trajectory.run_per_realization")
OP_METRICS = (("stats_p50_s", "s"), ("fn_p50_s", "s"), ("sweep_points_per_s", "1/s"),
              ("mc_bernoulli_real_per_s", "1/s"), ("mc_profile_real_per_s", "1/s"))


class ChildFailed(RuntimeError):
    pass


def child_env(blas_threads: int | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("QPROBE_THREADS", *BLAS_ENV)}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def spawn(job: dict | None, env: dict, deadline: float) -> tuple[float, dict | None, float]:
    """Run one child; return (seconds to ready, its result, peak RSS in MB)."""
    args = [sys.executable, str(CHILD)] + (["--setup-only"] if job is None else [])
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, env=env)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        try:
            proc.stdin.write(json.dumps(job).encode() if job else b"")
            proc.stdin.close()
        except BrokenPipeError:
            pass                      # the child died early; its exit status says why
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or first.strip() != b"ready":
        raise ChildFailed(f"child exited with {proc.returncode} (killed at the time limit "
                          f"if negative); first line {first[:200]!r}")
    result = json.loads(rest.splitlines()[-1]) if job else None
    return ready, result, usage.ru_maxrss / 1024.0


def machine_info() -> dict:
    info = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((l.split(":", 1)[1].strip() for l in fh
                                if l.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level}{'' if kind == 'Unified' else kind[0].lower()}={size}")
    info["caches"] = " ".join(caches) or "unknown"
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    info["commit"] = commit
    return info


def check_children(results: list[dict], ops: list[dict]) -> tuple[list[list], list[str]]:
    """Check every op of every pass; return per-op checks and failure messages."""
    sys.path.insert(0, str(ROOT / "src"))
    from checks import ALPHA_PER_RUN, check_op
    checked = [[[check_op(spec, op["rc"], op["out"], op["err"])
                 for spec, op in zip(ops, p["ops"])] for p in res["passes"]]
               for res in results]
    all_checks = [c for res in checked for p in res for c in p]
    threshold = ALPHA_PER_RUN / max(1, sum(len(c.pvalues) for c in all_checks))
    failures = []
    for c in all_checks:
        low = [p for p in c.pvalues if p < threshold]
        if low:
            c.errors.append(f"Monte Carlo test p={min(low):.3g} below {threshold:.3g}")
        failures += c.errors
    return checked, failures


def op_metrics(result: dict, checked: list, ops: list[dict]) -> dict:
    """Per-command latencies and rates of one child, with sample counts."""
    times, counts = defaultdict(list), defaultdict(float)
    for p, checks in zip(result["passes"], checked):
        for spec, op, chk in zip(ops, p["ops"], checks):
            key = spec["cmd"] if spec["cmd"] != "mc" else f"mc_{spec['mode']}"
            times[key].append(op["s"])
            for name, value in chk.counts.items():
                counts[name] += value
    out = {}
    for key in ("stats", "fn"):
        if times[key]:
            out[f"{key}_p50_s"] = (statistics.median(times[key]), "s", len(times[key]))
    if times["sweep"]:
        out["sweep_points_per_s"] = (counts["points"] / sum(times["sweep"]), "1/s",
                                     int(counts["points"]))
    for mode, label in (("bernoulli", "bernoulli"), ("per_realization", "profile")):
        t = times[f"mc_{mode}"]
        if t:
            n = counts[f"{label}_real"]
            out[f"mc_{label}_real_per_s"] = (n / sum(t), "1/s", int(n))
    return out


def layer_profile(result: dict, checked: list) -> dict:
    """Per-pass calls, self and inclusive times per span, and computed counts."""
    spans = result["spans"]
    n_pass = len(result["passes"])
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(lambda: [0] * n_pass)
    self_s = defaultdict(lambda: [0.0] * n_pass)
    incl_s = defaultdict(lambda: [0.0] * n_pass)
    work = defaultdict(lambda: [0.0] * n_pass)
    for i, (name, start, end, parent, p, _, count) in enumerate(spans):
        calls[name][p] += 1
        self_s[name][p] += end - start - child_time[i]
        incl_s[name][p] += end - start
        if count is not None:
            work[name][p] += count
    for p, checks in enumerate(checked):
        for chk in checks:
            for name, value in chk.counts.items():
                work[name][p] += value
    return {"calls": calls, "self_s": self_s, "incl_s": incl_s, "work": work,
            "wall": [p["wall"] for p in result["passes"]]}


def repeat_exactly(profiles: list[dict]) -> list[str]:
    """Self-check: computed counts and call counts are identical in every pass."""
    errors = []
    keys = [("calls", s) for s in SPANS] + [
        ("work", k) for k in ("superop.build_superops", "superop.lu_factor",
                              "superop.fn_series", "probe_steps", "useful_steps")]
    for kind, name in keys:
        seen = {v for prof in profiles for v in prof[kind].get(name, [0])}
        if len(seen) > 1:
            errors.append(f"computed count {kind}:{name} differs between runs: {sorted(seen)}")
    return errors


def layer_metrics(untraced: dict, prof: dict, prof1: dict, op_stats: dict) -> dict:
    med = statistics.median

    def per_pass(kind, name, p=prof):
        return med(p[kind].get(name, [0.0]))

    m = {}
    for s in SPANS:
        m[f"{s}.calls"] = (per_pass("calls", s), "count")
        m[f"{s}.self_s"] = (per_pass("self_s", s), "s")
        m[f"{s}.self_s_blas1"] = (per_pass("self_s", s, prof1), "s")
    builds = per_pass("calls", "superop.build_superops")
    factors = per_pass("calls", "superop.lu_factor")
    gflop = per_pass("work", "superop.lu_factor")
    m["superop.build_superops.bytes_computed"] = (
        per_pass("work", "superop.build_superops") / builds if builds else 0.0, "B")
    m["superop.lu_factor.gflop_computed"] = (gflop / factors if factors else 0.0, "GFLOP")
    for suffix, p in (("", prof), ("_blas1", prof1)):
        busy = per_pass("self_s", "superop.lu_factor", p)
        m[f"superop.lu_factor.gflops{suffix}"] = (gflop / busy if busy else 0.0, "GFLOP/s")
    m["superop.fn_series.steps"] = (per_pass("work", "superop.fn_series"), "count")
    steps = per_pass("work", "probe_steps")
    busy = sum(per_pass("incl_s", s) for s in TRAJECTORY_SPANS)
    bern = per_pass("work", "bernoulli_steps")
    m["trajectory.probe_steps"] = (steps, "count")
    m["trajectory.probe_steps_per_s"] = (steps / busy if busy else 0.0, "1/s")
    m["trajectory.useful_step_frac"] = (
        per_pass("work", "useful_steps") / bern if bern else 0.0, "ratio")
    m["cli.output_bytes"] = (per_pass("work", "output_bytes"), "B")
    for key, unit in OP_METRICS:
        m[f"cli.{key.replace('_', '.', 1)}"] = (op_stats.get(key, (0.0,))[0], unit)
    wall = med(p["wall"] for p in untraced["passes"])
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (med(prof["wall"]) - wall, "s")
    m["trace.wall_s_blas1"] = (med(prof1["wall"]), "s")
    return m


def run_e2e(ops: list[dict], seconds: float, deadline: float, report: list[str]):
    env = child_env(None)
    setups = [spawn(None, env, deadline)[0] for _ in range(SETUP_ONLY_CHILDREN)]
    job = {"ops": [op["argv"] for op in ops], "seconds": seconds, "trace": False}
    ready, result, rss = spawn(job, env, deadline)
    setups.append(ready)
    checked, failures = check_children([result], ops)
    walls = [p["wall"] for p in result["passes"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    attempted = sum(len(p["ops"]) for p in result["passes"])
    failed = sum(1 for p in checked[0] for c in p if c.errors)
    rows = [("setup_s", *metrics["setup_s"], f"median of n={len(setups)} cold starts"),
            ("wall_s", *metrics["wall_s"], f"median of n={len(walls)} passes over the op list"),
            ("peak_rss_mb", rss, "MB", "n=1 workload child"),
            ("fail_frac", failed / attempted, "", f"{failed} of {attempted} ops")]
    stats = op_metrics(result, checked[0], ops)
    for key, unit in OP_METRICS:
        value, _, n = stats.get(key, (None, unit, 0))
        rows.append((key, value, unit, f"n={n}" if n else "n=0, the workload runs no such op"))
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        report.append(f"{name:<24} {shown:<18} {note}")
    return metrics, attempted, failed, failures, {"machine": result["machine"], "pass_walls": walls}


def run_traced(ops: list[dict], seconds: float, deadline: float, report: list[str]):
    argvs = [op["argv"] for op in ops]
    share = seconds / 3.0
    _, untraced, _ = spawn({"ops": argvs, "seconds": share, "trace": False},
                           child_env(None), deadline)
    _, traced, _ = spawn({"ops": argvs, "seconds": share, "trace": True},
                         child_env(None), deadline)
    _, traced1, _ = spawn({"ops": argvs, "seconds": share, "trace": True},
                          child_env(1), deadline)
    results = [untraced, traced, traced1]
    checked, failures = check_children(results, ops)
    prof = layer_profile(traced, checked[1])
    prof1 = layer_profile(traced1, checked[2])
    failures += repeat_exactly([prof, prof1])
    metrics = layer_metrics(untraced, prof, prof1, op_metrics(untraced, checked[0], ops))
    attempted = sum(len(p["ops"]) for r in results for p in r["passes"])
    failed = sum(1 for r in checked for p in r for c in p if c.errors)
    wall = metrics["trace.wall_s"][0]
    self_total = sum(metrics[f"{s}.self_s"][0] for s in SPANS)
    report.append(f"passes: untraced {len(untraced['passes'])}, traced {len(traced['passes'])}, "
                  f"traced with 1 BLAS thread {len(traced1['passes'])}")
    report.append(f"untraced wall {wall:.6g} s/pass; traced self times sum to {self_total:.6g} "
                  f"s/pass; tracing overhead {metrics['trace.overhead_s'][0]:.6g} s/pass")
    report.append(f"{'span':<34}{'calls':>8}{'self_s':>12}{'share':>8}{'self_s_blas1':>14}")
    for s in SPANS:
        calls = metrics[f"{s}.calls"][0]
        if calls:
            own = metrics[f"{s}.self_s"][0]
            report.append(f"{s:<34}{calls:>8.0f}{own:>12.4f}{own / wall:>8.1%}"
                          f"{metrics[f'{s}.self_s_blas1'][0]:>14.4f}")
    extra = {"machine": traced["machine"], "machine_blas1": traced1["machine"],
             "spans": traced["spans"], "spans_blas1": traced1["spans"]}
    return metrics, attempted, failed, failures, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qprobe" / "cli.py").is_file():
        print(f"error: no qprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    ops = make_ops(args.workload, args.seed)
    report = [f"qprobe benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}",
              f"workload: {WORKLOADS[args.workload]}"]
    runner = run_traced if args.trace else run_e2e
    try:
        metrics, attempted, failed, failures, extra = runner(
            ops, args.seconds, deadline, report)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    machine = {**machine_info(), **extra.pop("machine")}
    report.insert(2, "machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    report += [f"FAILED: {msg}" for msg in failures[:20]]
    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"argv": sys.argv[1:], "machine": machine, "ops": ops,
                                  "failures": failures, "report": report,
                                  **result, **extra}))
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
