"""Workload child of the qprobe benchmark.

Run by ``run.py`` in a fresh process per workload.  It puts ``src`` on
the import path, imports ``qprobe.cli`` (with numpy and scipy), prints
``ready`` and, unless ``--setup-only`` is given, reads a job from stdin::

    {"ops": [argv, ...], "seconds": float, "trace": bool}

It then runs the whole op list in passes, calling ``qprobe.cli.main`` in
this process and capturing each op's stdout and stderr, until another
pass would overrun ``seconds`` (at least one pass).  The last line of
its stdout is one JSON object with the passes, the spans (when tracing)
and the BLAS and library versions it ran with.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import io
import json
import sys
import time
import traceback
from pathlib import Path


class Tracer:
    """Spans around calls into qprobe's layers, recorded from outside.

    Each span is ``[name, start, end, parent, pass, op, count]``; ``parent``
    indexes the enclosing span (-1 for an op's root span) and ``count`` is
    a computed work count for the call, or None.  Spans stay in memory
    until the child reports them.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_index = 0
        self.op_index = 0

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.pass_index, self.op_index, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[6] = count(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Replace the layer entry points as bound in qprobe.cli and qprobe.superop."""
        import numpy as np
        from qprobe import cli, intervals, model, superop, trajectory

        def held_bytes(args, kwargs, sset):
            held = getattr(sset, "__dict__", {}).values()
            return sum(v.nbytes for v in held if isinstance(v, np.ndarray))

        def lu_gflop(args, kwargs, result):
            n = np.shape(args[0] if args else kwargs["a"])[0]
            return 8.0 / 3.0 * float(n) ** 3 / 1e9     # complex LU, real flops

        def fn_steps(args, kwargs, result):
            return len(result)

        # a name the program no longer has is skipped; its calls then read 0
        targets = [
            (model, "spectral_reduce", None), (superop, "build_superops", held_bytes),
            (superop, "detection_stats", None), (superop, "lu_factor", lu_gflop),
            (superop, "lu_solve", None), (superop, "zero_mode_census", None),
            (superop, "fn_series", fn_steps), (trajectory, "run_bernoulli", None),
            (trajectory, "run_per_realization", None),
        ]
        wrapped = {}
        for module, attr, count in targets:
            fn = getattr(module, attr, None)
            if fn is not None:
                wrapped[fn] = self.wrap(f"{module.__name__.split('.')[-1]}.{attr}", fn, count)
        for module in (cli, superop):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        for cls in intervals.IntervalDistribution.__subclasses__():
            for attr, name in (("charfn", "intervals.charfn"),
                               ("weighted_charfn", "intervals.charfn"),
                               ("sample", "intervals.sample")):
                if attr in vars(cls):
                    setattr(cls, attr, self.wrap(name, vars(cls)[attr]))


def blas_info() -> dict:
    """BLAS builds and thread counts of the numpy and scipy in this process."""
    import numpy as np
    import scipy
    info = {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}
    for lib in (np, scipy):
        blas = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info[f"{lib.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info[f"threads {Path(path).name}"] = getter()
    return info


def run_op(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:            # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                    # report the failed op, keep the loop running
            traceback.print_exc()
            rc = -1
    return {"rc": rc, "s": time.perf_counter() - start,
            "out": out.getvalue(), "err": err.getvalue()}


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from qprobe import cli
    print("ready", flush=True)
    if "--setup-only" in sys.argv[1:]:
        return 0
    job = json.loads(sys.stdin.read())
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    passes = []
    start = time.perf_counter()
    while True:
        ops, pass_start = [], time.perf_counter()
        for i, argv in enumerate(job["ops"]):
            entry = cli.main
            if tracer:
                tracer.pass_index, tracer.op_index = len(passes), i
                entry = tracer.wrap(f"cli.{argv[0]}", cli.main)
            ops.append(run_op(entry, argv))
        wall = time.perf_counter() - pass_start
        passes.append({"wall": wall, "ops": ops})
        if time.perf_counter() - start + wall > job["seconds"]:
            break
    result = {"passes": passes, "spans": tracer.spans if tracer else [],
              "machine": blas_info()}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
