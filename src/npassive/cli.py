"""Command-line front end: JSON verdicts in, JSON/CSV reports out.

Exit codes: 0 = success / property holds, 1 = property fails (not passive,
bound violated), 2 = input error.  Every input error, whichever layer
raises it, leaves ``main`` as one ``error:`` line on stderr.  Each command
returns its report and exit code; ``main`` alone writes the report, to
``--output`` or to stdout, and an ``--output`` it cannot write is an input
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import commensurability as comm_mod
from . import extremal as extremal_mod
from . import flattening as flat_mod
from . import gibbs as gibbs_mod
from . import passivity as pass_mod
from .spectra import (DiagonalState, EnumerationCapError, Spectrum, SpectrumError, check_size,
                      normalize_spectrum)


class InputError(ValueError):
    """Malformed command-line or state-file input."""


def _list_of(values, kind=(int, float)) -> bool:
    """Whether values is a JSON list of items of kind (JSON numbers by default);
    true and false are of no kind."""
    return isinstance(values, list) and all(
        isinstance(x, kind) and not isinstance(x, bool) for x in values)


def _load_state_file(path, need_populations=True):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top-level JSON object expected")
    if "rational_energies" in data:
        pairs = data["rational_energies"]
        if not _list_of(pairs, list) or not all(len(pq) == 2 and _list_of(pq, int) for pq in pairs):
            raise InputError(f"{path}: 'rational_energies' must be a list of [p, q] integer pairs")
        try:
            fracs = [Fraction(p, q) for p, q in pairs]
            spectrum = Spectrum.from_rationals(fracs)
        except (ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"{path}: bad rational_energies: {exc}") from exc
        if sorted(fracs) != fracs:
            raise InputError(f"{path}: rational_energies must be non-decreasing")
    elif "energies" in data:
        energies = data["energies"]
        if not energies or not _list_of(energies):
            raise InputError(f"{path}: 'energies' must be a non-empty list of numbers")
        if sorted(energies) != energies:
            raise InputError(
                f"{path}: 'energies' must be non-decreasing so populations align"
            )
        try:
            spectrum = normalize_spectrum(energies)
        except (SpectrumError, OverflowError) as exc:
            raise InputError(f"{path}: {exc}") from exc
    else:
        raise InputError(f"{path}: missing 'energies' (or 'rational_energies')")
    rho = None
    if "populations" in data:
        if not _list_of(data["populations"]):
            raise InputError(f"{path}: 'populations' must be a list of numbers")
        try:
            rho = DiagonalState(tuple(float(x) for x in data["populations"]))
        except (ValueError, OverflowError) as exc:
            raise InputError(f"{path}: bad populations: {exc}") from exc
        if rho.d != spectrum.d:
            raise InputError(
                f"{path}: {rho.d} populations but spectrum dimension {spectrum.d}"
            )
    elif need_populations:
        raise InputError(f"{path}: missing 'populations'")
    return spectrum, rho


def _emit(payload, output=None):
    """Write payload to the file output, or else to stdout as it is at call
    time.  A str is written as it is.  Anything else is written as strict
    JSON, every non-finite float as "inf", "-inf" or "nan", and integers of
    any size: the interpreter's limit on the digits of an int-to-str
    conversion, where it has one, is lifted for the dump."""

    def strict(x):
        if isinstance(x, float) and not math.isfinite(x):
            return repr(float(x))
        if isinstance(x, dict):
            return {k: strict(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(v) for v in x]
        return x

    if isinstance(payload, str):
        text = payload
    else:
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            text = json.dumps(strict(payload), indent=2, allow_nan=False) + "\n"
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> tuple[object, int]:
    s, rho = _load_state_file(args.state)
    verdict = pass_mod.is_n_passive(s, rho, args.n, tol=args.tol)
    out = {
        "n": args.n,
        "passive": verdict.passive,
        "witness": None
        if verdict.witness is None
        else {
            "higher": list(verdict.witness[0].counts),
            "lower": list(verdict.witness[1].counts),
        },
    }
    if args.stability is not None:
        out["stability"] = {
            "k": args.stability,
            "stable": pass_mod.is_k_structurally_stable(s, rho, args.stability),
        }
    return out, 0 if verdict.passive else 1


def cmd_ergotropy(args) -> tuple[object, int]:
    s, rho = _load_state_file(args.state)
    out = {"ergotropy_1": pass_mod.ergotropy_1(s, rho.populations)}
    if args.n is not None:
        out["n"] = args.n
        out["n_ergotropy"] = pass_mod.n_ergotropy(s, rho, args.n)
    return out, 0


def cmd_gibbs(args) -> tuple[object, int]:
    s, rho = _load_state_file(args.state, need_populations=False)
    if (args.beta is None) == (args.entropy is None):
        raise InputError("give exactly one of --beta / --entropy")
    if args.beta is not None:
        gp = gibbs_mod.gibbs_point(s, math.inf if args.beta == "inf" else float(args.beta))
    else:
        gp = gibbs_mod.isentropic_point(s, args.entropy)
    return dataclasses.asdict(gp), 0


def cmd_bounds(args) -> tuple[object, int]:
    s, rho = _load_state_file(args.state)
    rep = bounds_mod.bound_report(s, rho, args.n)
    out = dataclasses.asdict(rep)
    if args.table:
        # the report's own rows: set only in the regimes that define them
        rows = [out] + [
            {"regime": regime, "bound_value": value}
            for regime, value in ((bounds_mod.EXPONENTIAL, rep.bound_exponential),
                                  (bounds_mod.INVERSE, rep.bound_inverse))
            if value is not None
        ]
        out = {"rows": rows}
    return out, 0 if rep.slack >= -bounds_mod.SLACK_TOL else 1


def cmd_flatten(args) -> tuple[object, int]:
    s, rho = _load_state_file(args.state)
    res = flat_mod.flatten(s, rho)
    return {
        "flattened": list(res.flattened.populations),
        "delta_S": res.delta_S,
        "delta_S0": res.delta_S0,
    }, 0


def emit_scan_csv(s, N, rows, stream):
    """Write order-N ``max_alpha_scan`` rows on s as CSV: beta, alpha, and the two
    bound factors, which it computes itself (``bounds.alpha_max``, ``exponential_factor``)."""
    R = bounds_mod.spectral_ratio(s)
    f_inv = bounds_mod.alpha_max(N, R)
    stream.write("beta,alpha,bound_inverse,bound_exponential\n")
    for row in rows:
        f_exp = bounds_mod.exponential_factor(row.beta_rho, s.eps_max, R, N)
        stream.write("%.17g,%.17g,%.17g,%.17g\n" % (row.beta_rho, row.alpha, f_inv, f_exp))


def cmd_scan_alpha(args) -> tuple[object, int]:
    if len(args.energies) != len(args.degeneracies):
        raise InputError("--energies and --degeneracies need equal length")
    s = Spectrum.from_levels(zip(args.energies, args.degeneracies))
    if not 0 < args.beta_min <= args.beta_max < math.inf:
        raise InputError("need finite 0 < beta-min <= beta-max")
    if args.points < 1:
        raise InputError("need --points >= 1")
    check_size(args.points, "beta grid")
    import numpy as np

    grid = np.linspace(args.beta_min, args.beta_max, args.points)
    rows = extremal_mod.max_alpha_scan(s, args.n, grid)
    buf = io.StringIO()
    emit_scan_csv(s, args.n, rows, buf)
    return buf.getvalue(), 0


def cmd_saturate(args) -> tuple[object, int]:
    res = extremal_mod.saturation_construct(args.n, args.m, args.frac)
    return {
        "levels": [[e, g] for e, g in res.spectrum.distinct_levels],
        "log_populations": list(res.state.log_populations),
        "alpha_measured": res.alpha_measured,
        "alpha_max": res.alpha_max,
        "beta_rho": res.beta_rho,
    }, 0


def cmd_nstar(args) -> tuple[object, int]:
    if (args.energies is None) == (args.rational is None):
        raise InputError("give exactly one of --energies / --rational")
    if args.rational is not None:
        try:
            fracs = [Fraction(tok) for tok in args.rational.split()]
        except ZeroDivisionError as exc:
            raise InputError(f"--rational: {exc}") from exc
        s = Spectrum.from_rationals(fracs)
    else:
        s = normalize_spectrum(args.energies)
    res = comm_mod.n_star(s, max_den=args.max_den, tol=args.tol)
    return {
        "n_star": res.n_star,
        "triples": [{"p": t[0], "q": t[1], "index": t[2]} if t else None for t in res.triples],
        "all_triples_lcm": res.all_triples_lcm,
    }, 0


def cmd_classify_cp(args) -> tuple[object, int]:
    s, rho = _load_state_file(args.state)
    cls = pass_mod.classify_complete_passivity(s, rho, tol=args.tol)
    return dataclasses.asdict(cls), 0 if cls.tag != "NotCP" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npassive",
        description="Order-N passivity, ergotropy, and thermal energy-bound toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --state leads the options of each command that reads a state file
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state", required=True, help="JSON file with energies/populations")

    p = sub.add_parser("check", parents=[state], help="order-N passivity / stability verdict")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stability", type=int, default=None, metavar="K")
    p.add_argument("--tol", type=float, default=pass_mod.DEFAULT_LOG_TOL)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ergotropy", parents=[state], help="single-copy and N-copy ergotropy")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_ergotropy)

    p = sub.add_parser("gibbs", parents=[state], help="thermal functionals at beta or at entropy")
    p.add_argument("--beta", default=None, help="inverse temperature (or 'inf')")
    p.add_argument("--entropy", type=float, default=None)
    p.set_defaults(func=cmd_gibbs)

    p = sub.add_parser("bounds", parents=[state], help="energy-bound report for the applicable regime")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--table", action="store_true", help="emit all applicable rows")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("flatten", parents=[state], help="average populations within degenerate levels")
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("scan-alpha", help="max energy ratio over a beta grid (CSV)")
    p.add_argument("--energies", type=float, nargs="+", required=True)
    p.add_argument("--degeneracies", type=int, nargs="+", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta-min", type=float, required=True, dest="beta_min")
    p.add_argument("--beta-max", type=float, required=True, dest="beta_max")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--resolution", type=int, default=200, help="ignored: the maximizer is exact")
    p.set_defaults(func=cmd_scan_alpha)

    p = sub.add_parser("saturate", help="three-level near-maximal ratio construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--frac", type=float, required=True)
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("nstar", help="commensurability cutoff order")
    p.add_argument("--energies", type=float, nargs="+", default=None)
    p.add_argument("--rational", default=None, help="space-separated fractions, e.g. '0 1 3/1'")
    p.add_argument("--max-den", type=int, default=comm_mod.DEFAULT_MAX_DEN, dest="max_den")
    p.add_argument("--tol", type=float, default=comm_mod.DEFAULT_RATIO_TOL)
    p.set_defaults(func=cmd_nstar)

    p = sub.add_parser("classify-cp", parents=[state], help="thermal / ground / neither classification")
    p.add_argument("--tol", type=float, default=pass_mod.DEFAULT_CP_TOL)
    p.set_defaults(func=cmd_classify_cp)

    for p in sub.choices.values():
        p.add_argument("--output", default=None, help="write result here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
    except (ValueError, EnumerationCapError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a ratio above a proved ceiling, or no saturating state on the ladder
    except (bounds_mod.BoundViolationError, extremal_mod.InfeasibleSaturationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(payload, args.output)
    except OSError as exc:
        where = args.output or "stdout"
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
