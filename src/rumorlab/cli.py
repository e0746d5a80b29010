"""Command-line surface.

Commands: pc-table, theta, psi, alpha-c, max-h, audit-beta, offspring,
simulate, gw.  Every command is deterministic given its flags and seed; the
seed defaults to the RUMORLAB_SEED environment variable, then OS entropy,
and is always echoed in the emitted manifest.

Exit codes: 0 success, 2 usage error, 3 numeric fault.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import secrets
import sys
import time
from fractions import Fraction

from . import __version__
from . import ctmc, gw, laws, thresholds, treegen
from ._seeds import substream
from .errors import NumericFault, check_at_least

_EXIT_NUMERIC_FAULT = 3


def _seed(text: str) -> int:
    """--seed's type, also applied to its default RUMORLAB_SEED; ``substream``
    raises ValueError for a seed outside the range it can hash."""
    try:
        seed = int(text)
        substream(seed)
        return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"a seed (--seed or RUMORLAB_SEED) must be an integer in [-2**127, 2**127), got {text!r}")


def _thread_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _parent_parsers() -> tuple[argparse.ArgumentParser, ...]:
    """The flags every command takes, ``--threads`` for the commands that
    run replica jobs, and ``--exact`` for those that print exact rationals."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=os.environ.get("RUMORLAB_SEED"), help="master seed in [-2**127, 2**127) (default: RUMORLAB_SEED env or OS entropy)")
    common.add_argument("--format", choices=("csv", "json"), default="csv", dest="out_format")
    common.add_argument("--out", default="-", help="output path (default stdout)")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument(
        "--threads", type=_thread_count, default=1,
        help="at most this many worker processes (capped at the core count) for replica jobs "
        "still left after a short inline start",
    )
    exact = argparse.ArgumentParser(add_help=False)
    exact.add_argument("--exact", action="store_true", help=f"exact rationals past d = {laws.EXACT_LIMIT} too (log-space floats by default)")
    return common, threads, exact


def _manifest(args: argparse.Namespace, started: float) -> dict:
    # options left unset (None, or --exact not given) are omitted
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "func", "out", "out_format", "seed") and v is not None and v is not False
    }
    return {
        "command": args.command,
        "duration_s": round(time.perf_counter() - started, 6),
        "parameters": params,
        "seed": args.seed,
        "version": __version__,
    }


def _finite(value):
    """``value`` with every infinite or NaN float, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _emit(args: argparse.Namespace, manifest: dict, rows: list[dict], payload: dict | None = None) -> None:
    """Write the report: JSON embeds the manifest; CSV carries it as a
    '#'-prefixed preamble above the header row (comma-delimited, UTF-8, LF).
    JSON, which has no infinity or NaN, writes a non-finite float as null;
    CSV writes ``inf``.
    """
    if args.out_format == "json":
        doc = {"manifest": manifest}
        if payload is not None:
            doc.update(payload)
        if rows:
            doc["rows"] = rows
        text = json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False, default=str) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# manifest: " + json.dumps(manifest, sort_keys=True, default=str) + "\n")
        if payload:
            buf.write("# summary: " + json.dumps(payload, sort_keys=True, default=str) + "\n")
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None


def _digits(n: int) -> str:
    """Every digit of n.  Exact values at large d (p_c from d = 1,372 on)
    outgrow the interpreter's limit on int-to-str conversion (4,300 digits
    by default since Python 3.10.7), so the limit is lifted for this
    conversion alone."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)  # an interpreter without the limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def _fraction_fields(value) -> tuple[str, str]:
    if isinstance(value, Fraction):
        return _digits(value.numerator), _digits(value.denominator)
    return "", ""


def cmd_pc_table(args) -> tuple[list[dict], dict | None]:
    check_at_least("--d-min", args.d_min, 3)  # p_c(2) = 9/8: no threshold below d = 3
    if args.d_min > args.d_max:
        raise ValueError(f"empty range: d-min={args.d_min} > d-max={args.d_max}")
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        report = thresholds.p_critical(d, exact=args.exact)
        num, den = _fraction_fields(report.value)
        rows.append(
            {
                "d": d,
                "pc_numerator": num,
                "pc_denominator": den,
                "pc_float": report.float_value,
                "pc_asymptotic": report.asymptotic_value,
            }
        )
    return rows, None


def cmd_theta(args) -> tuple[list[dict], dict | None]:
    methods = ("analytic", "gw_mc", "ctmc_mc") if args.method == "all" else (args.method,)
    payload: dict = {}
    rows = []
    for method in methods:
        if method == "analytic":
            value = thresholds.theta(args.d, args.p)
            payload["analytic"] = value
            rows.append({"method": "analytic", "estimate": value, "ci_low": "", "ci_high": ""})
        elif method == "gw_mc":
            est = gw.survival_mc(args.d, args.p, args.replicas, seed=args.seed, workers=args.threads)
            payload["gw_mc"] = est.__dict__
            rows.append({"method": "gw_mc", "estimate": est.estimate, "ci_low": est.ci_low, "ci_high": est.ci_high})
        else:
            est = ctmc.estimate_survival_ctmc(
                treegen.cayley(args.d), args.p, target_level=args.level,
                replicas=args.replicas, seed=args.seed, workers=args.threads,
            )
            payload["ctmc_mc"] = est.__dict__
            rows.append({"method": "ctmc_mc", "estimate": est.estimate, "ci_low": est.ci_low, "ci_high": est.ci_high})
    return rows, payload


def cmd_psi(args) -> tuple[list[dict], dict | None]:
    root = thresholds.psi_root(args.d, args.p)
    rows = [{"psi": root.psi, "iterations": root.iterations, "residual": root.residual}]
    return rows, None


def cmd_alpha_c(args) -> tuple[list[dict], dict | None]:
    report = thresholds.alpha_critical(args.d, args.k, args.h, beta_form=args.beta_form, exact=args.exact)
    num, den = _fraction_fields(report.value)
    rows = [
        {
            "alpha_c_numerator": num,
            "alpha_c_denominator": den,
            "alpha_c_float": report.float_value,
            "feasible": report.feasible,
            "beta_form": args.beta_form,
        }
    ]
    return rows, None


def cmd_max_h(args) -> tuple[list[dict], dict | None]:
    h_max = thresholds.max_h(args.d, args.k, beta_form=args.beta_form, exact=args.exact)
    bound = thresholds.asymptotic_h_bound(args.d, args.k)
    payload = {"h_max": h_max, "asymptotic_bound_logd_logk": bound}
    log_d = math.log(args.d)
    if 0.5 * log_d <= args.k <= 2.0 * log_d:
        # k = Theta(log d) regime: feasibility scales like log d / log log d
        payload["k_theta_logd"] = True
        payload["asymptotic_bound_logd_loglogd"] = log_d / math.log(log_d)
    rows = [{"h_max": h_max, "asymptotic_bound": bound}]
    return rows, payload


def cmd_audit_beta(args) -> tuple[list[dict], dict | None]:
    check_at_least("k", args.k, 3)  # k = 2 has zero paper-form traversal
    m = args.k - 1
    paper = laws.beta_paper(m)
    series = laws.beta_series(m)
    gap = laws.beta_gap(m)
    est = ctmc.path_traversal_empirical(args.k, args.replicas, seed=args.seed)
    payload = {
        "beta_paper": float(paper),
        "beta_series": float(series),
        "exact_gap": f"{_digits(gap.numerator)}/{_digits(gap.denominator)}",
        "gap_float": float(gap),
        "empirical": est.__dict__,
        "empirical_covers": (
            "series" if est.ci_low <= float(series) <= est.ci_high else
            "paper" if est.ci_low <= float(paper) <= est.ci_high else "neither"
        ),
    }
    rows = [
        {"form": form, "numerator": num, "denominator": den, "value": float(value)}
        for form, (num, den), value in (
            ("paper", _fraction_fields(paper), paper),
            ("series", _fraction_fields(series), series),
            ("empirical", ("", ""), est.estimate),
        )
    ]
    return rows, payload


def cmd_offspring(args) -> tuple[list[dict], dict | None]:
    empirical = ctmc.offspring_empirical(args.d, args.p, args.replicas, seed=args.seed)
    analytic = laws.Pmf(tuple(laws.law_X_prime_float(args.d, args.p)))
    tv = laws.tv_distance(empirical, analytic)
    rows = [
        {"i": i, "empirical": float(empirical.p(i)), "analytic": float(analytic.p(i))}
        for i in empirical.support()
    ]
    payload = {"tv_distance": tv, "empirical_mean": float(empirical.mean()), "analytic_mean": float(analytic.mean())}
    return rows, payload


def cmd_simulate(args) -> tuple[list[dict], dict | None]:
    topology = treegen.TreeTopology(args.tree, args.d, args.k, args.alpha, args.h)
    run = dict(
        replicas=args.replicas,
        seed=args.seed,
        workers=args.threads,
        level_unit=args.level_unit,
    )

    if args.level_sweep:
        try:
            lo, hi, step = (int(x) for x in args.level_sweep.split(":"))
        except ValueError:
            raise ValueError("--level-sweep expects MIN:MAX:STEP") from None
        if lo < 1 or hi < lo or step < 1:
            raise ValueError("--level-sweep expects 1 <= MIN <= MAX and STEP >= 1")
        estimates = ctmc.estimate_survival_levels(
            topology, args.p, list(range(lo, hi + 1, step)), **run
        )
        rows = [
            {"level": est.target_level, "estimate": est.estimate, "ci_low": est.ci_low,
             "ci_high": est.ci_high, "cap_hits": est.cap_hits}
            for est in estimates
        ]
        return rows, None

    est = ctmc.estimate_survival_ctmc(topology, args.p, target_level=args.level, **run)
    fields = ("estimate", "ci_low", "ci_high", "replicas", "cap_hits", "target_level", "level_unit")
    payload = {key: getattr(est, key) for key in fields}
    rows = [dict(payload)]
    return rows, payload


def cmd_gw(args) -> tuple[list[dict], dict | None]:
    est = gw.survival_mc(args.d, args.p, args.replicas, seed=args.seed, workers=args.threads)
    payload = est.__dict__
    rows = [
        {"estimate": est.estimate, "ci_low": est.ci_low, "ci_high": est.ci_high,
         "replicas": est.replicas}
    ]
    return rows, payload


def build_parser() -> argparse.ArgumentParser:
    common, threads, exact = _parent_parsers()
    parser = argparse.ArgumentParser(
        prog="rumorlab",
        description="Thresholds and simulation for rumor spreading on trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pc-table", parents=[common, exact], help="critical probability table")
    p.add_argument("--d-min", type=int, default=3)
    p.add_argument("--d-max", type=int, default=11)
    p.set_defaults(func=cmd_pc_table)

    p = sub.add_parser("theta", parents=[common, threads], help="survival probability")
    p.add_argument("d", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--method", choices=("analytic", "gw_mc", "ctmc_mc", "all"), default="analytic")
    p.add_argument("--replicas", type=int, default=10_000)
    p.add_argument("--level", type=int, default=ctmc.DEFAULT_LEVEL_CAYLEY)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("psi", parents=[common], help="extinction fixed point")
    p.add_argument("d", type=int)
    p.add_argument("p", type=float)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("alpha-c", parents=[common, exact], help="hub-tree critical alpha")
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)
    p.add_argument("h", type=int)
    p.add_argument("--beta-form", choices=("paper", "series"), default="paper")
    p.set_defaults(func=cmd_alpha_c)

    p = sub.add_parser("max-h", parents=[common, exact], help="largest feasible hub distance")
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--beta-form", choices=("paper", "series"), default="paper")
    p.set_defaults(func=cmd_max_h)

    p = sub.add_parser("audit-beta", parents=[common], help="compare traversal probability forms")
    p.add_argument("k", type=int)
    p.add_argument("--replicas", type=int, default=100_000)
    p.set_defaults(func=cmd_audit_beta)

    p = sub.add_parser("offspring", parents=[common], help="empirical offspring law")
    p.add_argument("d", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--replicas", type=int, default=100_000)
    p.set_defaults(func=cmd_offspring)

    p = sub.add_parser("simulate", parents=[common, threads], help="level-reach survival estimate from the simulated dynamics")
    p.add_argument("--tree", choices=("cayley", "hub_path"), default="cayley")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--h", type=int)
    p.add_argument("--p", type=float, default=1.0)
    level = p.add_mutually_exclusive_group()
    level.add_argument("--level", type=int)
    level.add_argument("--level-sweep", help="MIN:MAX:STEP emits a CSV series of reach estimates")
    p.add_argument("--level-unit", choices=("graph", "hub"))
    p.add_argument("--replicas", type=int, default=10_000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gw", parents=[common, threads], help="branching-process survival estimate")
    p.add_argument("d", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--replicas", type=int, default=10_000)
    p.set_defaults(func=cmd_gw)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = secrets.randbits(63)
    started = time.perf_counter()
    try:
        rows, payload = args.func(args)
        _emit(args, _manifest(args, started), rows, payload)
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC_FAULT
    except ValueError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
