"""Command-line interface.

Subcommands: ``sweep`` (grid of paradox measures to CSV/JSON),
``simulate`` (grow or ingest networks, empirical report as JSON),
``validate`` (cross-checks between the closed forms and the simulator),
``nn-table`` (dump one neighbor distribution as CSV).

Exit codes: 0 ok, 1 validation failure, 2 usage error, 3 numeric
non-convergence, 4 ingestion parse error.  Data goes to files or
stdout; diagnostics go to stderr.  Output files are written atomically
(temp file + rename) so a failed run never leaves a partial file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
import time

from . import analytic, measures, simulate
from .errors import (
    DomainError,
    GraphParseError,
    NonConvergenceError,
    QpanetError,
)
from .quality import make_family

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3
EXIT_PARSE = 4


def _parse_grid(text: str) -> list[float]:
    """Parse ``lo:hi:step`` ranges (inclusive within 1e-12) or comma lists."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"range must be lo:hi:step, got {text!r}")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0:
            raise DomainError(f"range step must be positive, got {step}")
        out = []
        v = lo
        i = 0
        while v <= hi + 1e-12:
            out.append(round(v, 12))
            i += 1
            v = lo + i * step
        return out
    return [float(p) for p in text.split(",") if p.strip() != ""]


def _parse_int_list(text: str, name: str) -> list[int]:
    """Parse a comma list of integers >= 1."""
    try:
        values = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise DomainError(f"{name} must be a comma list of integers, got {text!r}") from None
    bad = [v for v in values if v < 1]
    if bad:
        raise DomainError(f"{name} must be >= 1, got {bad[0]}")
    return values


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".qpanet-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _quality_from_args(args) -> tuple[str, float]:
    if args.family == "bernoulli":
        if args.p is None:
            raise DomainError("bernoulli family requires --p")
        if args.q is not None:
            raise DomainError("--q is not valid with the bernoulli family")
        return "bernoulli", args.p
    if args.family == "exponential":
        if args.q is None:
            raise DomainError("exponential family requires --q")
        if args.p is not None:
            raise DomainError("--p is not valid with the exponential family")
        return "exponential", args.q
    raise DomainError(f"unknown family {args.family!r}")


def _default_threads() -> int:
    """``QPANET_THREADS``, else 1."""
    env = os.environ.get("QPANET_THREADS", "").strip()
    if not env:
        return 1
    try:
        return _positive_int(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise DomainError(f"QPANET_THREADS must be an integer >= 1, got {env!r}") from None


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    family, spec = _quality_from_args(args)
    grid = _parse_grid(spec)
    if family == "bernoulli":
        bad = [x for x in grid if not (0.0 <= x <= 1.0)]
    else:
        bad = [x for x in grid if not (x > 0.0)]
    if bad:
        raise DomainError(f"{family} parameter out of domain: {bad[0]}")
    betas = _parse_int_list(args.beta, "--beta")
    theta_maxes = _parse_int_list(args.theta_max, "--theta-max")
    t0 = time.monotonic()
    rows = measures.sweep(family, grid, betas, theta_maxes, threads=args.threads)
    elapsed = time.monotonic() - t0
    print(
        f"sweep: {len(rows)} grid points in {elapsed:.1f} s", file=sys.stderr
    )
    failed = [r for r in rows if r.error]
    for r in failed:
        print(
            f"sweep: grid point (x={r.x:g}, beta={r.beta}, theta_max={r.theta_max})"
            f" failed: {r.error}",
            file=sys.stderr,
        )
    if any("NonConvergence" in (r.error or "") for r in failed):
        return EXIT_NONCONVERGENCE
    if args.format == "csv":
        buf = io.StringIO()
        measures.write_sweep_csv(rows, buf)
        _emit(args.output, buf.getvalue())
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "rows": [_row_json(r) for r in rows],
        }
        _emit(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _crit_json(c):
    if c is None:
        return None
    return {
        "quality_mean": c.quality_mean,
        "quality_median": c.quality_median,
        "degree_mean": c.degree_mean,
        "degree_median": c.degree_median,
        "notes": list(c.notes),
    }


def _row_json(r) -> dict:
    return {
        "family": r.family,
        "x": r.x,
        "beta": r.beta,
        "theta_max": r.theta_max,
        "qpa": _crit_json(r.qpa),
        "uncorrelated": _crit_json(r.uncorrelated),
        "fractions": None
        if r.fractions is None
        else {
            "quality_mean": round(r.fractions.quality_mean, 6),
            "quality_median": round(r.fractions.quality_median, 6),
            "degree_mean": round(r.fractions.degree_mean, 6),
            "degree_median": round(r.fractions.degree_median, 6),
        },
        "error": r.error,
    }


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.input is not None or args.qualities is not None:
        if args.input is None or args.qualities is None:
            raise DomainError("ingestion needs both --input and --qualities")
        net = simulate.load_graph(args.input, args.qualities)
        rep = simulate.empirical_report(net)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": "ingested",
            "n": rep.n,
            "isolated": rep.isolated,
            "fractions": _report_fractions(rep),
            "histogram_summary": _hist_summary(rep.histogram),
        }
        _emit(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if args.emit_edges:
            buf = io.StringIO()
            simulate.write_edge_list(net, buf)
            _atomic_write(args.emit_edges, buf.getvalue())
        return EXIT_OK

    if args.n is None or args.beta is None:
        raise DomainError("growth needs --n and --beta")
    family, x = _quality_from_args(args)
    if args.theta_max is None:
        raise DomainError("growth needs --theta-max")
    pmf = make_family(family, x, args.theta_max)
    params = analytic.ModelParams(beta=args.beta, quality=pmf)
    grow = simulate.grow_qpa if args.mode == "qpa" else simulate.grow_uniform
    seeds = [args.seed + i for i in range(args.replicas)]
    if seeds[0] < 0 or seeds[-1] >= 2**64:
        raise DomainError(f"seeds {seeds[0]}..{seeds[-1]} must lie in [0, 2**64)")
    reps = []
    pooled: dict = {}
    t0 = time.monotonic()
    last_net = None
    for s in seeds:
        net = grow(args.n, params, s)
        last_net = net
        rep = simulate.empirical_report(net)
        reps.append(rep)
        for key, val in rep.histogram.items():
            pooled[key] = pooled.get(key, 0.0) + val / len(seeds)
    print(
        f"simulate: {args.replicas} replica(s) of n={args.n} in "
        f"{time.monotonic() - t0:.1f} s",
        file=sys.stderr,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode": args.mode,
        "n": args.n,
        "beta": args.beta,
        "family": family,
        "x": x,
        "theta_max": args.theta_max,
        "seeds": seeds,
        "replicas": [
            {
                "seed": s,
                "isolated": rep.isolated,
                "fractions": _report_fractions(rep),
            }
            for s, rep in zip(seeds, reps)
        ],
        "pooled_fractions": {
            name: round(
                sum(getattr(r, attr) for r in reps) / len(reps), 9
            )
            for name, attr in _FRACTION_ATTRS
        },
        "histogram_summary": _hist_summary(pooled),
    }
    _emit(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.emit_edges:
        buf = io.StringIO()
        simulate.write_edge_list(last_net, buf)
        _atomic_write(args.emit_edges, buf.getvalue())
    return EXIT_OK


_FRACTION_ATTRS = [
    ("degree_mean", "frac_degree_mean"),
    ("degree_median", "frac_degree_median"),
    ("quality_mean", "frac_quality_mean"),
    ("quality_median", "frac_quality_median"),
]


def _report_fractions(rep) -> dict:
    return {name: round(getattr(rep, attr), 9) for name, attr in _FRACTION_ATTRS}


def _hist_summary(hist: dict) -> dict:
    """Low-degree slice of the joint histogram, keyed ``"k,theta"``."""
    out = {}
    for (k, t), v in sorted(hist.items()):
        if k <= 20:
            out[f"{k},{t}"] = round(v, 9)
    return out


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------


def cmd_validate(args) -> int:
    from . import validation

    checks = validation.run_checks(quick=args.quick, threads=args.threads)
    worst = EXIT_OK
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name}: {c.detail}: {status}")
        if not c.passed:
            worst = EXIT_VALIDATION
    return worst


# --------------------------------------------------------------------------
# nn-table
# --------------------------------------------------------------------------


def cmd_nn_table(args) -> int:
    family, x = _quality_from_args(args)
    if args.theta_max is None:
        raise DomainError("nn-table needs --theta-max")
    pmf = make_family(family, x, args.theta_max)
    params = analytic.ModelParams(beta=args.beta, quality=pmf)
    buf = io.StringIO()
    analytic.write_nn_table(params, args.k, args.theta, buf, l_max=args.l_max)
    _emit(args.output, buf.getvalue())
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qpanet",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="paradox measures over a parameter grid")
    sp.add_argument(
        "--family",
        choices=["bernoulli", "exponential"],
        required=True,
        help="quality distribution family",
    )
    sp.add_argument(
        "--p",
        default=None,
        help="bernoulli parameter grid in [0,1]: lo:hi:step or comma list",
    )
    sp.add_argument(
        "--q",
        default=None,
        help="exponential decay factor grid (> 0): lo:hi:step or comma list",
    )
    sp.add_argument("--beta", required=True, help="comma list of beta >= 1")
    sp.add_argument(
        "--theta-max",
        dest="theta_max",
        required=True,
        help="comma list of theta_max >= 1",
    )
    sp.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--threads", type=_positive_int, default=None)
    sp.set_defaults(func=cmd_sweep)

    sm = sub.add_parser("simulate", help="grow or ingest networks, report paradoxes")
    sm.add_argument("--mode", choices=["qpa", "uniform"], default="qpa")
    sm.add_argument("--n", type=_positive_int, default=None, help="number of nodes")
    sm.add_argument("--beta", type=_positive_int, default=None, help="links per new node")
    sm.add_argument(
        "--family", choices=["bernoulli", "exponential"], default="exponential"
    )
    sm.add_argument("--p", type=float, default=None, help="bernoulli parameter in [0,1]")
    sm.add_argument("--q", type=float, default=None, help="exponential decay factor > 0")
    sm.add_argument(
        "--theta-max", dest="theta_max", type=_positive_int, default=None
    )
    sm.add_argument("--seed", type=int, default=0, help="base 64-bit seed")
    sm.add_argument(
        "--replicas", type=_positive_int, default=1, help="independent runs, seeds seed+i"
    )
    sm.add_argument("--input", default=None, help="edge list file (ingestion mode)")
    sm.add_argument("--qualities", default=None, help="node quality file (ingestion mode)")
    sm.add_argument("--emit-edges", dest="emit_edges", default=None, help="write edge list here")
    sm.add_argument("-o", "--output", default=None, help="report path (default stdout)")
    sm.set_defaults(func=cmd_simulate)

    sv = sub.add_parser("validate", help="cross-check closed forms against simulation")
    sv.add_argument("--quick", action="store_true", help="analytic-only checks")
    sv.add_argument("--threads", type=_positive_int, default=None)
    sv.set_defaults(func=cmd_validate)

    sn = sub.add_parser("nn-table", help="dump P(ell, phi | k, theta) as CSV")
    sn.add_argument(
        "--family",
        choices=["bernoulli", "exponential"],
        required=True,
        help="quality distribution family",
    )
    sn.add_argument("--p", type=float, default=None, help="bernoulli parameter in [0,1]")
    sn.add_argument("--q", type=float, default=None, help="exponential decay factor > 0")
    sn.add_argument(
        "--theta-max",
        dest="theta_max",
        type=_positive_int,
        default=None,
        help="largest quality value (integer >= 1)",
    )
    sn.add_argument("--beta", type=_positive_int, required=True)
    sn.add_argument("--k", type=_positive_int, required=True, help="focal degree >= beta")
    sn.add_argument("--theta", type=int, required=True, help="focal quality")
    sn.add_argument(
        "--l-max", dest="l_max", type=_positive_int, default=analytic.NN_TABLE_L_MAX
    )
    sn.add_argument("-o", "--output", default=None)
    sn.set_defaults(func=cmd_nn_table)
    return ap


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return v


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        if hasattr(args, "threads") and args.threads is None:
            args.threads = _default_threads()
        return args.func(args)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (DomainError, QpanetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
