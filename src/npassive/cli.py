"""Command-line front end: JSON verdicts in, JSON/CSV reports out.

Exit codes: 0 = success / property holds, 1 = property fails (not passive,
bound violated), 2 = input error.  Every input error, whichever layer
raises it, leaves ``main`` as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
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
from .spectra import DiagonalState, EnumerationCapError, Spectrum, SpectrumError, normalize_spectrum


class InputError(ValueError):
    """Malformed command-line or state-file input."""


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
        try:
            fracs = [Fraction(int(p), int(q)) for p, q in data["rational_energies"]]
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{path}: bad rational_energies: {exc}") from exc
        if sorted(fracs) != fracs:
            raise InputError(f"{path}: rational_energies must be non-decreasing")
        spectrum = Spectrum.from_rationals(fracs)
    elif "energies" in data:
        energies = data["energies"]
        if (
            not isinstance(energies, list)
            or not energies
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in energies)
        ):
            raise InputError(f"{path}: 'energies' must be a non-empty list of numbers")
        if sorted(energies) != energies:
            raise InputError(
                f"{path}: 'energies' must be non-decreasing so populations align"
            )
        try:
            spectrum = normalize_spectrum(energies)
        except SpectrumError as exc:
            raise InputError(f"{path}: {exc}") from exc
    else:
        raise InputError(f"{path}: missing 'energies' (or 'rational_energies')")
    rho = None
    if "populations" in data:
        try:
            rho = DiagonalState(tuple(float(x) for x in data["populations"]))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: bad populations: {exc}") from exc
        if rho.d != spectrum.d:
            raise InputError(
                f"{path}: {rho.d} populations but spectrum dimension {spectrum.d}"
            )
    elif need_populations:
        raise InputError(f"{path}: missing 'populations'")
    return spectrum, rho


def _emit(obj, output=None):
    """Write obj as strict JSON, every non-finite float as "inf", "-inf" or "nan"."""

    def strict(x):
        if isinstance(x, float) and not math.isfinite(x):
            return repr(float(x))
        if isinstance(x, dict):
            return {k: strict(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(v) for v in x]
        return x

    text = json.dumps(strict(obj), indent=2, allow_nan=False)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_check(args) -> int:
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
    _emit(out, args.output)
    return 0 if verdict.passive else 1


def cmd_ergotropy(args) -> int:
    s, rho = _load_state_file(args.state)
    out = {"ergotropy_1": pass_mod.ergotropy_1(s, rho.populations)}
    if args.n is not None:
        out["n"] = args.n
        out["n_ergotropy"] = pass_mod.n_ergotropy(s, rho, args.n)
    _emit(out, args.output)
    return 0


def cmd_gibbs(args) -> int:
    s, rho = _load_state_file(args.state, need_populations=False)
    if (args.beta is None) == (args.entropy is None):
        raise InputError("give exactly one of --beta / --entropy")
    if args.beta is not None:
        beta = math.inf if args.beta == "inf" else float(args.beta)
    else:
        beta = gibbs_mod.solve_beta_for_entropy(s, args.entropy)
    gp = gibbs_mod.gibbs_point(s, beta)
    _emit(
        {
            "beta": gp.beta,
            "logZ": gp.logZ,
            "energy": gp.energy,
            "entropy": gp.entropy,
        },
        args.output,
    )
    return 0


def _report_dict(rep):
    return {
        "regime": rep.regime,
        "bound_value": rep.bound_value,
        "slack": rep.slack,
        "energy": rep.energy,
        "entropy": rep.entropy,
        "N": rep.N,
        "beta_rho": rep.beta_rho,
        "R": rep.R,
        "eps_max": rep.eps_max,
        "d0": rep.d0,
        "u_rho": rep.u_rho,
        "asymptotic": rep.asymptotic,
        "bound_exponential": rep.bound_exponential,
        "bound_inverse": rep.bound_inverse,
    }


def cmd_bounds(args) -> int:
    s, rho = _load_state_file(args.state)
    rep = bounds_mod.bound_report(s, rho, args.n)
    out = _report_dict(rep)
    if args.table:
        rows = [out]
        if rep.beta_rho is not None and math.isfinite(rep.beta_rho):
            E_beta = gibbs_mod.gibbs_point(s, rep.beta_rho).energy
            f_exp = bounds_mod.exponential_factor(
                rep.beta_rho, s.eps_max, rep.R, args.n
            )
            rows.append(
                {"regime": "Exponential", "bound_value": E_beta * f_exp}
            )
            f_inv = bounds_mod.inverse_factor(rep.R, args.n)
            if f_inv is not None:
                rows.append({"regime": "Inverse", "bound_value": E_beta * f_inv})
        _emit({"rows": rows}, args.output)
    else:
        _emit(out, args.output)
    return 0 if rep.slack >= -bounds_mod.SLACK_TOL else 1


def cmd_flatten(args) -> int:
    s, rho = _load_state_file(args.state)
    res = flat_mod.flatten(s, rho)
    _emit(
        {
            "flattened": list(res.flattened.populations),
            "delta_S": res.delta_S,
            "delta_S0": res.delta_S0,
        },
        args.output,
    )
    return 0


def emit_scan_csv(rows, factor_rows, stream):
    """Write scan rows as CSV: beta, alpha, and the two bound factors."""
    stream.write("beta,alpha,bound_inverse,bound_exponential\n")
    for row, (f_inv, f_exp) in zip(rows, factor_rows):
        stream.write(
            "%.17g,%.17g,%.17g,%.17g\n" % (row.beta_rho, row.alpha, f_inv, f_exp)
        )


def cmd_scan_alpha(args) -> int:
    if len(args.energies) != len(args.degeneracies):
        raise InputError("--energies and --degeneracies need equal length")
    s = Spectrum.from_levels(zip(args.energies, args.degeneracies))
    if not 0 < args.beta_min <= args.beta_max < math.inf:
        raise InputError("need finite 0 < beta-min <= beta-max")
    import numpy as np

    grid = np.linspace(args.beta_min, args.beta_max, args.points)
    rows = extremal_mod.max_alpha_scan(s, args.n, grid, resolution=args.resolution)
    R = bounds_mod.spectral_ratio(s)
    factors = []
    for row in rows:
        f_inv = bounds_mod.inverse_factor(R, args.n)
        factors.append(
            (
                f_inv if f_inv is not None else math.inf,
                bounds_mod.exponential_factor(row.beta_rho, s.eps_max, R, args.n),
            )
        )
    if args.output:
        with open(args.output, "w", newline="") as fh:
            emit_scan_csv(rows, factors, fh)
    else:
        emit_scan_csv(rows, factors, sys.stdout)
    return 0


def cmd_saturate(args) -> int:
    try:
        res = extremal_mod.saturation_construct(args.n, args.m, args.frac)
    except (extremal_mod.InfeasibleSaturationError, bounds_mod.BoundViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    p = res.params
    _emit(
        {
            "params": {
                "N": p.N, "m": p.m, "r": p.r, "beta_eps1": p.beta_eps1,
                "g1": p.g1, "g2": p.g2, "xi": p.xi,
            },
            "levels": [[e, g] for e, g in res.spectrum.distinct_levels],
            "log_populations": list(res.state.log_populations),
            "alpha_measured": res.alpha_measured,
            "alpha_pred": res.alpha_pred,
            "alpha_max": res.alpha_max,
            "beta_rho": res.beta_rho,
        },
        args.output,
    )
    return 0


def cmd_nstar(args) -> int:
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
    _emit(
        {
            "n_star": res.n_star,
            "triples": [
                {"p": t[0], "q": t[1], "index": t[2]} if t else None
                for t in res.triples
            ],
            "all_triples_lcm": res.all_triples_lcm,
        },
        args.output,
    )
    return 0


def cmd_classify_cp(args) -> int:
    s, rho = _load_state_file(args.state)
    cls = pass_mod.classify_complete_passivity(s, rho, tol=args.tol)
    _emit(
        {
            "tag": cls.tag,
            "beta": cls.beta,
            "fit_residual": cls.fit_residual,
        },
        args.output,
    )
    return 0 if cls.tag != "NotCP" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npassive",
        description="Order-N passivity, ergotropy, and thermal energy-bound toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(p):
        p.add_argument("--state", required=True, help="JSON file with energies/populations")

    def add_output(p):
        p.add_argument("--output", default=None, help="write result here instead of stdout")

    p = sub.add_parser("check", help="order-N passivity / stability verdict")
    add_state(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stability", type=int, default=None, metavar="K")
    p.add_argument("--tol", type=float, default=1e-12)
    add_output(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ergotropy", help="single-copy and N-copy ergotropy")
    add_state(p)
    p.add_argument("--n", type=int, default=None)
    add_output(p)
    p.set_defaults(func=cmd_ergotropy)

    p = sub.add_parser("gibbs", help="thermal functionals at beta or at entropy")
    add_state(p)
    p.add_argument("--beta", default=None, help="inverse temperature (or 'inf')")
    p.add_argument("--entropy", type=float, default=None)
    add_output(p)
    p.set_defaults(func=cmd_gibbs)

    p = sub.add_parser("bounds", help="energy-bound report for the applicable regime")
    add_state(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--table", action="store_true", help="emit all applicable rows")
    add_output(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("flatten", help="average populations within degenerate levels")
    add_state(p)
    add_output(p)
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("scan-alpha", help="max energy ratio over a beta grid (CSV)")
    p.add_argument("--energies", type=float, nargs="+", required=True)
    p.add_argument("--degeneracies", type=int, nargs="+", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta-min", type=float, required=True, dest="beta_min")
    p.add_argument("--beta-max", type=float, required=True, dest="beta_max")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--resolution", type=int, default=200)
    add_output(p)
    p.set_defaults(func=cmd_scan_alpha)

    p = sub.add_parser("saturate", help="three-level near-maximal ratio construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--frac", type=float, required=True)
    add_output(p)
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("nstar", help="commensurability cutoff order")
    p.add_argument("--energies", type=float, nargs="+", default=None)
    p.add_argument("--rational", default=None, help="space-separated fractions, e.g. '0 1 3/1'")
    p.add_argument("--max-den", type=int, default=10**6, dest="max_den")
    p.add_argument("--tol", type=float, default=1e-9)
    add_output(p)
    p.set_defaults(func=cmd_nstar)

    p = sub.add_parser("classify-cp", help="thermal / ground / neither classification")
    add_state(p)
    p.add_argument("--tol", type=float, default=1e-8)
    add_output(p)
    p.set_defaults(func=cmd_classify_cp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not math.isfinite(getattr(args, "tol", 0.0)):
            raise InputError(f"--tol must be finite, got {args.tol}")
        return args.func(args)
    except (ValueError, EnumerationCapError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
