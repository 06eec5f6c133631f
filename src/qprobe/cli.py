"""Command-line front end.

Subcommands: ``stats`` (single-point moments as JSON), ``fn`` (averaged
detection series), ``sweep`` (parameter scans as CSV), ``mc`` (Monte
Carlo runs, CSV records plus JSON summary) and ``verify`` (built-in
cross-check suite).  Models and distributions come from a flat key=value
config file (``--model``) and/or flags; flags override the file.

Each subcommand takes only the flags it reads.  The model and law flags
(--model --L --gamma --xin --xd --dist --tau --mean --alpha) are on all
four model subcommands.  The exact interval average adds
--degeneracy-tol (``stats``, ``fn``, ``sweep``); the Monte Carlo adds
--seed (``mc``).  A ``seed`` key in a --model file is checked by every
subcommand.

``stats`` prints Nr, the spectrum's bright levels, as ``reduced_dim``, and
as ``stats.reduced_dim`` the levels solved in: fewer at an exceptional
fixed period, where levels sharing an eigenphase of U(tau) are merged.

Exit codes: 0 on success, 1 on numerical failure (ill-conditioned solve,
as near an exceptional fixed period; closed-form divergence; an
eigenvalue iteration that fails its check), 2 on configuration errors
(out-of-range flag values and an unwritable
--out included), on degenerate problems, on dense matrices over the
memory budget and on a moment that overflows a double (an interval
scale too large for the model).
Every input is checked, and --out created, before the computation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
import time

import numpy as np

from . import config as cfgmod
from .errors import (ConfigError, ConvergenceError, DivergenceError, IllConditionedError,
                     QprobeError)
from .model import DEFAULT_DEGENERACY_TOL, DENSE_MAX_BYTES, ring_spectrum, spectral_reduce
from .superop import build_superops, detection_stats, fn_series, zero_mode_census
from .trajectory import DEFAULT_ABORT, run_bernoulli, run_per_realization
from .verify import run_verify

SWEEP_OUTPUTS = ("p_det", "n_mean", "n_sq", "t_mean", "t_sq", "lambda_max")
# the config keys a flag sets; each of those flags has its key as dest
FLAG_KEYS = ("L", "gamma", "x_in", "x_d", "dist", "tau", "mean", "alpha", "seed")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="key=value config file")
    p.add_argument("--L", type=int, help="ring size")
    p.add_argument("--gamma", type=float, help="hopping strength")
    p.add_argument("--xin", dest="x_in", type=int, help="initial site")
    p.add_argument("--xd", dest="x_d", type=int, help="detection site")
    p.add_argument("--dist", choices=("fixed", "exp", "gamma"), help="interval family")
    p.add_argument("--tau", type=float, help="fixed interval value")
    p.add_argument("--mean", type=float, help="mean interval")
    p.add_argument("--alpha", type=float, help="gamma shape parameter")


def _add_exact_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the exact interval average."""
    p.add_argument("--degeneracy-tol", type=float, default=DEFAULT_DEGENERACY_TOL,
                   help="energy clustering tolerance (default %(default)g), raised to "
                        "eigh's error bound 8 N eps max|E| where that is larger")


def _merged_config(args) -> tuple[dict[str, str], int]:
    """The config file with the flags laid over it, and its seed.  The
    seed, which a --model file may set for any subcommand, is checked
    here, before any solve and before --out is opened."""
    file_cfg = cfgmod.load_config_file(args.model) if args.model else {}
    flags = vars(args)
    cfg = cfgmod.merge_overrides(file_cfg, {key: flags.get(key) for key in FLAG_KEYS})
    if "kind" not in cfg and "L" in cfg:
        cfg["kind"] = "ring"
    return cfg, cfgmod.seed_from_config(cfg)


def _positive(flag: str, value):
    if not 0 < value < np.inf:
        raise ConfigError(f"{flag} must be positive and finite, got {value}")
    return value


def _array_length(flag: str, n: int) -> int:
    """Reject a count whose float64 array would exceed DENSE_MAX_BYTES."""
    if 8 * n > DENSE_MAX_BYTES:
        raise ConfigError(f"{flag} must be at most {DENSE_MAX_BYTES // 8} (a float64 array "
                          f"within the {DENSE_MAX_BYTES}-byte budget), got {n}")
    return n


def _reduce_from_args(args, cfg):
    """The spectral reduction of the configured model, and the model's
    dimension N.  A ring is reduced in its sector even about the detector,
    without its L x L Hamiltonian."""
    tol = _positive("--degeneracy-tol", args.degeneracy_tol)
    ring = cfgmod.ring_from_config(cfg)
    if ring is not None:
        return ring_spectrum(*ring, degeneracy_tol=tol), ring[0]
    model = cfgmod.model_from_config(cfg)
    return spectral_reduce(model, degeneracy_tol=tol), model.dim


@contextlib.contextmanager
def _opened_out(path):
    """Yield ``path`` opened for writing, or stdout when it is None or '-'."""
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path!r}: {exc.strerror}") from exc
    with fh:
        yield fh


class _JsonFloats(list):
    """A float array that ``json.dump`` writes as a list of floats, one
    element at a time, so no list of Python floats is ever held.  The
    pure-Python encoder that ``json.dump`` runs reads only ``len`` and the
    iterator of a list."""

    def __init__(self, values: np.ndarray):
        super().__init__()
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return map(float, self._values)


def _emit(fh, fmt: str, doc: dict | None, header=(), rows=()) -> None:
    """Write ``doc`` as JSON, or ``header`` and ``rows`` as CSV, to ``fh``."""
    if fmt == "json":
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    else:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_stats(args) -> int:
    cfg, _ = _merged_config(args)
    sd, dim = _reduce_from_args(args, cfg)
    dist = cfgmod.distribution_from_config(cfg)
    sset = build_superops(sd, dist)
    stats = detection_stats(sset, dist)
    census = zero_mode_census(sset)
    moments = stats.as_dict()
    diagnostics = {key: moments.pop(key) for key in ("backend", "residual")}
    diagnostics["dim"] = dim
    diagnostics["identity_residual"] = abs(stats.t_mean - dist.mean * stats.n_mean)
    diagnostics["census_method"] = "shift-invert-arnoldi"
    diagnostics["census_solves"] = census.solves
    doc = {
        "config": cfg,
        "reduced_dim": sd.reduced_dim,
        "stats": moments,
        "zero_modes": {
            "n_zero": census.n_zero,
            "n_nonzero": census.n_nonzero,
            "slowest_decay_abs": abs(census.slowest_decay),
            "slowest_decay_re": census.slowest_decay.real,
            "slowest_decay_im": census.slowest_decay.imag,
            "structural": census.structural,
        },
        "diagnostics": diagnostics,
    }
    _emit(sys.stdout, "json", doc)
    return 0


def cmd_fn(args) -> int:
    cfg, _ = _merged_config(args)
    dist = cfgmod.distribution_from_config(cfg)
    nmax = _array_length("--nmax", _positive("--nmax", args.nmax))
    sd, _ = _reduce_from_args(args, cfg)
    with _opened_out(args.out) as fh:
        series = fn_series(build_superops(sd, dist), nmax)
        np.maximum(series, 0.0, out=series)   # clamp roundoff negatives on output only
        doc = {"config": cfg, "fn": _JsonFloats(series)} if args.format == "json" else None
        _emit(fh, args.format, doc, ["n", "fn"],
              ([n, repr(float(value))] for n, value in enumerate(series, 1)))
    return 0


def run_sweep(sd, axis: str, points, outputs) -> list[dict]:
    """Evaluate every (grid value, interval law) point in order;
    ill-conditioned points are flagged in-row.  Each point solves only for
    the moments in ``outputs``: the second moments, and their overflow
    check, only when n_sq or t_sq is printed.  Rows whose point ran
    ``detection_stats`` (every row unless ``outputs`` is only lambda_max)
    also carry its ``condition``, which the CSV does not show.  A point's
    superoperator set is freed before the next point builds its own: two at
    once lift the heap's high-water mark past glibc's trim threshold, and
    each point then refaults the pages that a free returned."""
    moments = set(outputs) - {"lambda_max"}
    second_moments = bool(moments & {"n_sq", "t_sq"})
    rows = []
    for value, dist in points:
        row = {axis: value}
        try:
            sset = build_superops(sd, dist)
            stats = None
            if moments:
                stats = detection_stats(sset, dist, second_moments=second_moments)
            for name in outputs:
                if name == "lambda_max":
                    row[name] = abs(zero_mode_census(sset).slowest_decay)
                else:
                    row[name] = getattr(stats, name)
            row["status"] = "ok"
            if stats is not None:
                row["condition"] = stats.condition
            del sset                      # freed before the next point makes its own
        except IllConditionedError as exc:
            for name in outputs:
                row[name] = ""
            row["status"] = f"ill-conditioned cond~{exc.condition:.3e}"
            # strict JSON has no Infinity: an exactly singular solve reads null
            row["condition"] = exc.condition if np.isfinite(exc.condition) else None
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    cfg, _ = _merged_config(args)
    try:
        grid = [float(x) for x in args.grid.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"cannot parse --grid {args.grid!r}") from None
    if not grid:
        raise ConfigError("sweep grid is empty")
    if any(g <= 0 for g in grid):
        raise ConfigError("sweep grid values must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sweep grid must be strictly increasing")
    outputs = args.outputs.split(",") if args.outputs else SWEEP_OUTPUTS
    bad = [o for o in outputs if o not in SWEEP_OUTPUTS]
    if bad:
        raise ConfigError(f"unknown sweep outputs: {bad}")
    # the config key the axis sets: alpha, or the interval's scale
    if args.axis == "alpha" and cfg.get("dist") != "gamma":
        raise ConfigError("alpha axis requires dist=gamma")
    key = "alpha" if args.axis == "alpha" else "tau" if cfg.get("dist") == "fixed" else "mean"
    points = [(v, cfgmod.distribution_from_config({**cfg, key: str(v)})) for v in grid]
    sd, _ = _reduce_from_args(args, cfg)
    with _opened_out(args.out) as fh:
        rows = run_sweep(sd, args.axis, points, outputs)
        _emit(fh, args.format, {"config": cfg, "rows": rows},
              [args.axis, *outputs, "status"],
              ([repr(float(row[args.axis])),
                *[repr(float(row[o])) if row[o] != "" else "" for o in outputs],
                row["status"]] for row in rows))
    return 0


def cmd_mc(args) -> int:
    cfg, seed = _merged_config(args)
    model = cfgmod.model_from_config(cfg)
    dist = cfgmod.distribution_from_config(cfg)
    # every run keeps at least one float64 per realization
    n_real = _array_length("--nreal", _positive("--nreal", args.nreal))
    bernoulli = args.mode == "bernoulli"
    if bernoulli:
        n_abort = _positive("--n-abort", args.n_abort)
    elif args.ncut < 2:
        raise ConfigError(f"--ncut must be >= 2, got {args.ncut}")
    else:
        _array_length("--ncut", args.ncut)
    with _opened_out(args.out) as fh:
        start = time.perf_counter()
        if bernoulli:
            ens = run_bernoulli(model, dist, n_real=n_real, seed=seed, n_abort=n_abort)
            header, rows = ["n", "t"], ([int(n), repr(float(t))]
                                        for n, t in zip(ens.attempts, ens.times))
        else:
            ens = run_per_realization(model, dist, n_real=n_real, n_cut=args.ncut, seed=seed)
            header, rows = ["realization", "nbar"], ([i, repr(float(nb))]
                                                     for i, nb in enumerate(ens.nbar))
        wall = time.perf_counter() - start
        _emit(fh, "csv", None, header, rows)
    summary = ens.summary()
    summary["wall_s"] = wall                  # the Monte Carlo run, output excluded
    summary["steps_per_s"] = ens.probe_steps / wall
    stream = sys.stderr if args.out in (None, "-") else sys.stdout
    _emit(stream, "json", {"config": cfg, "summary": summary})
    return 0


def cmd_verify(args) -> int:
    ok = run_verify(args.level)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprobe",
        description="First-detection statistics under randomly timed projective probing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="single-point detection statistics (JSON)")
    _add_model_flags(p_stats)
    _add_exact_flags(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_fn = sub.add_parser("fn", help="averaged detection series")
    _add_model_flags(p_fn)
    _add_exact_flags(p_fn)
    p_fn.add_argument("--nmax", type=int, required=True, help="series length")
    p_fn.add_argument("--out", help="output file ('-' for stdout)")
    p_fn.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fn.set_defaults(func=cmd_fn)

    p_sweep = sub.add_parser("sweep", help="parameter scan (CSV)")
    _add_model_flags(p_sweep)
    _add_exact_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=("mean_tau", "alpha"), required=True)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated strictly increasing positive values")
    p_sweep.add_argument("--outputs",
                         help=f"comma-separated subset of {','.join(SWEEP_OUTPUTS)}")
    p_sweep.add_argument("--out", help="output file ('-' for stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mc = sub.add_parser("mc", help="Monte Carlo run (CSV + JSON summary)")
    _add_model_flags(p_mc)
    p_mc.add_argument("--seed", type=int, help="rng seed (unsigned 64-bit)")
    p_mc.add_argument("--mode", choices=("bernoulli", "per_realization"),
                      default="bernoulli")
    p_mc.add_argument("--nreal", type=int, required=True, help="realization count")
    p_mc.add_argument("--ncut", type=int, default=200,
                      help="probes per realization (per_realization mode)")
    p_mc.add_argument("--n-abort", type=int, default=DEFAULT_ABORT,
                      help="attempt cap per realization (bernoulli mode, default "
                           "%(default)s); an undetected realization runs all of them, which "
                           "happens with probability 1 - p_det for a start with dark "
                           "overlap, so lower it for such models")
    p_mc.add_argument("--out", help="CSV output file; summary JSON goes to stdout")
    p_mc.set_defaults(func=cmd_mc)

    p_verify = sub.add_parser("verify", help="run the built-in cross-check suite")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IllConditionedError, DivergenceError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except QprobeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
