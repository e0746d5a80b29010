"""Command-line surface.

Commands: pc-table, theta, psi, alpha-c, max-h, audit-beta, offspring,
simulate, gw.  Every command is deterministic given its flags and seed; the
seed defaults to the RUMORLAB_SEED environment variable, then OS entropy,
and is always echoed in the emitted manifest.

One table, ``_COMMANDS``, defines every command's flags and arguments.  A
call builds the parser of the command it names alone; the full tree
(``build_parser``) is built only for top-level help and errors.

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
from itertools import zip_longest

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


def _common_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every command takes."""
    parser.add_argument("--seed", type=_seed, default=os.environ.get("RUMORLAB_SEED"), help="master seed in [-2**127, 2**127) (default: RUMORLAB_SEED env or OS entropy)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="out_format")
    parser.add_argument("--out", default="-", help="output path (default stdout)")


def _threads_flag(parser: argparse.ArgumentParser) -> None:
    """``--threads``, for the commands that run replica jobs."""
    parser.add_argument(
        "--threads", type=_thread_count, default=1,
        help="at most this many worker processes (capped at the core count) for replica jobs "
        "still left after a short inline start",
    )


def _exact_flag(parser: argparse.ArgumentParser) -> None:
    """``--exact``, for the commands that print exact rationals."""
    parser.add_argument("--exact", action="store_true", help=f"exact rationals past d = {laws.EXACT_LIMIT} too (log-space floats by default)")


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
    if not args.exact and args.d_max > laws.LOG_LIMIT:  # log_ints' error, before any row
        raise ValueError(f"d = {args.d_max} exceeds {laws.LOG_LIMIT}, the largest d evaluated in log space")
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        pc = thresholds.p_critical(d, exact=args.exact)
        num, den = _fraction_fields(pc)
        rows.append(
            {
                "d": d,
                "pc_numerator": num,
                "pc_denominator": den,
                "pc_float": float(pc),
                "pc_asymptotic": thresholds.pc_asymptotic(d),
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
    alpha_c = thresholds.alpha_critical(args.d, args.k, args.h, beta_form=args.beta_form, exact=args.exact)
    num, den = _fraction_fields(alpha_c)
    try:
        alpha_float = float(alpha_c)
    except OverflowError:  # an exact value past the float range
        alpha_float = math.inf
    rows = [
        {
            "alpha_c_numerator": num,
            "alpha_c_denominator": den,
            "alpha_c_float": alpha_float,
            "feasible": alpha_c < 1,
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
        "exact_gap": "/".join(_fraction_fields(gap)) if isinstance(gap, Fraction) else "",
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
    analytic = laws.law_X_prime_float(args.d, args.p)
    tv = laws.tv_distance(empirical, analytic)
    # rows end at the last nonzero mass of either column, the other zero-filled
    size = max(i for probs in (empirical, analytic) for i, q in enumerate(probs, 1) if q)
    rows = [
        {"i": i, "empirical": float(q_emp), "analytic": float(q_law)}
        for i, (q_emp, q_law) in enumerate(zip_longest(empirical[:size], analytic[:size], fillvalue=0.0))
    ]
    mean_emp, mean_law = (float(sum(n * q for n, q in enumerate(probs))) for probs in (empirical, analytic))
    payload = {"tv_distance": tv, "empirical_mean": mean_emp, "analytic_mean": mean_law}
    return rows, payload


def cmd_simulate(args) -> tuple[list[dict], dict | None]:
    topology = treegen.TreeTopology(args.tree, args.d, args.k, args.alpha, args.h)
    run = dict(replicas=args.replicas, seed=args.seed, workers=args.threads)

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


# name: (help, flag groups past the common ones, arguments, handler); an
# argument is (name or flag, add_argument keywords), and a list of them is
# one mutually exclusive group
_D, _K, _P = ("d", dict(type=int)), ("k", dict(type=int)), ("p", dict(type=float))
_BETA_FORM = ("--beta-form", dict(choices=("paper", "series"), default="paper"))
_COMMANDS = {
    "pc-table": ("critical probability table", (_exact_flag,), [
        ("--d-min", dict(type=int, default=3)),
        ("--d-max", dict(type=int, default=11)),
    ], cmd_pc_table),
    "theta": ("survival probability", (_threads_flag,), [
        _D, _P,
        ("--method", dict(choices=("analytic", "gw_mc", "ctmc_mc", "all"), default="analytic")),
        ("--replicas", dict(type=int, default=10_000)),
        ("--level", dict(type=int, default=ctmc.DEFAULT_LEVEL_CAYLEY)),
    ], cmd_theta),
    "psi": ("extinction fixed point", (), [_D, _P], cmd_psi),
    "alpha-c": ("hub-tree critical alpha", (_exact_flag,), [_D, _K, ("h", dict(type=int)), _BETA_FORM], cmd_alpha_c),
    "max-h": ("largest feasible hub distance", (_exact_flag,), [_D, _K, _BETA_FORM], cmd_max_h),
    "audit-beta": ("compare traversal probability forms", (), [
        _K, ("--replicas", dict(type=int, default=100_000)),
    ], cmd_audit_beta),
    "offspring": ("empirical offspring law", (), [
        _D, _P, ("--replicas", dict(type=int, default=100_000)),
    ], cmd_offspring),
    "simulate": ("level-reach survival estimate from the simulated dynamics", (_threads_flag,), [
        ("--tree", dict(choices=("cayley", "hub_path"), default="cayley")),
        ("--d", dict(type=int, required=True)),
        ("--k", dict(type=int)),
        ("--alpha", dict(type=float)),
        ("--h", dict(type=int)),
        ("--p", dict(type=float, default=1.0)),
        [
            ("--level", dict(type=int, help="target level in hub generations, which are graph levels on cayley "
                             f"(default {ctmc.DEFAULT_LEVEL_CAYLEY} on cayley, {ctmc.DEFAULT_LEVEL_HUB} on hub_path)")),
            ("--level-sweep", dict(help="MIN:MAX:STEP emits a CSV series of reach estimates")),
        ],
        ("--replicas", dict(type=int, default=10_000)),
    ], cmd_simulate),
    "gw": ("branching-process survival estimate", (_threads_flag,), [
        _D, _P, ("--replicas", dict(type=int, default=10_000)),
    ], cmd_gw),
}


def _command_parser(name: str, parser: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """Command ``name``'s flags and arguments, added to ``parser`` (the tree's
    subparser) or by default to a parser of that command alone."""
    if parser is None:
        parser = argparse.ArgumentParser(prog=f"rumorlab {name}")
    _, flag_groups, arguments, handler = _COMMANDS[name]
    for add_flags in (_common_flags, *flag_groups):
        add_flags(parser)
    for argument in arguments:
        exclusive = isinstance(argument, list)
        group = parser.add_mutually_exclusive_group() if exclusive else parser
        for flag, keywords in argument if exclusive else [argument]:
            group.add_argument(flag, **keywords)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="rumorlab",
        description="Thresholds and simulation for rumor spreading on trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = extras = None
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args is None or extras:
        # no command, an unknown one, or unrecognized arguments: the full
        # tree reports them at top level, as it reports a command's ValueError
        args = build_parser().parse_args(argv)
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
        build_parser().error(str(exc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
