"""The four workloads: seeded inputs, one op each, and the output checks.

Every workload is a closed loop run by one client in one process.  Inputs
come in decks: one deck holds every input shape of the workload once (sizes,
orders, state kinds) in a seeded random order, and the seed also draws the
values inside each shape.  A run times whole decks, so every run has the
same mix of cheap and expensive ops and the spread between runs comes from
the values and the host, not from the mix.

Library calls go through module attributes (``P.is_n_passive``), so the
tracer's wrappers see them.  Input construction and the checks run outside
the ops' timed windows.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from npassive import bounds as B
from npassive import cli as C
from npassive import extremal as X
from npassive import flattening as F
from npassive import gibbs as G
from npassive import passivity as P
from npassive import spectra as S

import reference as ref

TINY_DECK = 6


@dataclass
class Outcome:
    """Checks an op failed, and the relative entropy errors it produced."""

    failed: list[str] = field(default_factory=list)
    entropy_errs: list[float] = field(default_factory=list)
    out_of_class: int = 0


class Workload:
    name = ""
    # (case label, check name) pairs that fail at the commit that defined
    # the benchmark; they count in ok_ratio but do not mark the run incorrect
    known_defects: dict[tuple[str, str], str] = {}

    def __init__(self, seed, workdir: Path, tiny: bool = False):
        """``seed`` is anything numpy's default_rng accepts, e.g. [seed, worker]."""
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.tiny = tiny

    def deck(self) -> list:
        """One input per shape, in a seeded order."""
        shapes = self.shapes()
        order = self.rng.permutation(len(shapes))
        if self.tiny:
            order = order[:TINY_DECK]
        return [self.make_input(shapes[k]) for k in order]

    def label(self, inp) -> str:
        return self.name

    def close(self):
        pass


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    spectrum: int
    N: int
    kind: str  # "dense" | "stable" samples, or "gibbs" states
    seed: int
    betas: tuple[float, ...]


class BoundSweep(Workload):
    """The paper's core loop: sample order-N passive states on the acceptance
    spectra, then check passivity, the regime-dispatched bound and, on a
    degenerate ground level, the flattening entropy bound."""

    name = "bound_sweep"
    SPECTRA = ([0, 1, 1.9], [0, 1, 2, 3.5], [0, 0, 1, 2], [0, 0, 0, 1, 2])
    K = 8  # states per cell

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.spectra = [S.normalize_spectrum(e) for e in self.SPECTRA]

    def shapes(self):
        return [
            (i, N, kind)
            for i in range(len(self.SPECTRA))
            for N in range(2, 9)
            for kind in ("dense", "stable", "gibbs")
        ]

    def make_input(self, shape):
        i, N, kind = shape
        betas = ()
        if kind == "gibbs":
            # beta*eps_max in [10, 60]: entropies down to ~1e-24
            eps_max = self.spectra[i].eps_max
            betas = tuple(float(x) / eps_max for x in self.rng.uniform(10, 60, self.K))
        return Cell(i, N, kind, int(self.rng.integers(1 << 30)), betas)

    def label(self, cell):
        return f"{self.name}:{cell.kind}"

    def op(self, cell):
        s, N = self.spectra[cell.spectrum], cell.N
        if cell.kind == "gibbs":
            states = [G.gibbs_populations(s, b) for b in cell.betas]
        else:
            states = X.sample_n_passive(s, N, self.K, cell.seed, stable=cell.kind == "stable")
        rows = []
        for rho in states:
            passive = P.is_n_passive(s, rho, N).passive
            try:
                rep = B.bound_report(s, rho, N)
                bound = (rep.regime, rep.slack, rep.asymptotic, rep.beta_rho, rep.entropy)
            except B.HypothesisError:
                bound = None
            flat = None
            if s.d0 > 1:
                dS = F.flatten(s, rho).delta_S
                try:
                    flat = (dS, F.delta_S_bound(s, rho, N))
                except F.RegimeError:
                    flat = (dS, None)
            rows.append((passive, bound, flat))
        return tuple(rows)

    def check(self, cell, rows) -> Outcome:
        res = Outcome()
        levels = self.spectra[cell.spectrum].distinct_levels
        for passive, bound, flat in rows:
            if not passive:
                res.failed.append("sample_passive")
            if bound is None:
                res.out_of_class += 1
            else:
                regime, slack, asymptotic, beta, entropy = bound
                if not asymptotic and not slack >= -1e-9:
                    res.failed.append("bound_slack")
                if regime != B.LOW_ENTROPY and entropy > 0:
                    res.entropy_errs.append(ref.entropy_rel_err(levels, beta, entropy))
            if flat is not None:
                dS, dS_bound = flat
                if dS_bound is None:
                    res.out_of_class += 1
                elif not dS <= dS_bound + 1e-12:
                    res.failed.append("delta_S")
        return res


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    s: S.Spectrum
    rho: S.DiagonalState
    N: int
    kind: str  # "gibbs" | "rearranged" | "late_witness"


class PassivityScan(Workload):
    """Fresh random spectra (d 3..10, N 2..5): passivity, 2-stability and
    N-copy ergotropy of one state per op."""

    name = "passivity_scan"
    KINDS = ("gibbs", "rearranged", "late_witness")

    def shapes(self):
        return [(d, N, kind) for d in range(3, 11) for N in range(2, 6) for kind in self.KINDS]

    def make_input(self, shape):
        d, N, kind = shape
        rng = self.rng
        energies = sorted([0.0] + list(rng.uniform(0.2, 3.0, d - 1)))
        if rng.random() < 0.2:
            energies[1] = energies[2]  # a degenerate pair
        s = S.normalize_spectrum(energies)
        eps = np.asarray(s.energies)
        if kind == "rearranged":
            rho = P.passive_rearrangement(s, rng.dirichlet(np.ones(d)))
        else:
            w = np.exp(-rng.uniform(0.2, 3.0) * eps)
            if kind == "late_witness":
                w[1] = 1.01 * w[0]
            rho = S.DiagonalState.from_weights(w)
        return Probe(s, rho, N, kind)

    def label(self, probe):
        return f"{self.name}:{probe.kind}"

    def op(self, probe):
        v = P.is_n_passive(probe.s, probe.rho, probe.N)
        witness = None if v.witness is None else (v.witness[0].counts, v.witness[1].counts)
        stable = P.is_k_structurally_stable(probe.s, probe.rho, 2)
        erg = P.n_ergotropy(probe.s, probe.rho, probe.N)
        return (v.passive, witness, stable, erg)

    def check(self, probe, out) -> Outcome:
        res = Outcome()
        passive, witness, _, erg = out
        if passive != (erg <= 1e-10):
            res.failed.append("ergotropy_oracle")
        if not passive and not (
            witness is not None
            and ref.is_violation(probe.s.energies, probe.rho.populations, *witness, probe.N)
        ):
            res.failed.append("witness")
        return res


# ---------------------------------------------------------------------------


class AlphaScan(Workload):
    """max_alpha_scan at one beta per op on (0,1), (1,1), (1.001, g2)."""

    name = "alpha_scan"
    DEGENERACIES = (10**3, 10**6, 10**9, 10**12)
    BETAS = 16  # geometric grid cells on [0.5, 200]
    N = 5
    known_defects = {
        ("alpha_scan", "alpha_range"): "alpha above N/(N-R) at beta >~ 120: chord entropies lose "
        "the -lambda_0 ln lambda_0 term (ROADMAP item 3)",
    }

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.spectra = [S.Spectrum.from_levels([(0, 1), (1, 1), (1.001, g)]) for g in self.DEGENERACIES]
        R = ref.spectral_ratio([0.0, 1.0, 1.001])
        self.alpha_ceiling = self.N / (self.N - R)

    def shapes(self):
        return [(i, k) for i in range(len(self.DEGENERACIES)) for k in range(self.BETAS)]

    def make_input(self, shape):
        i, k = shape
        beta = 0.5 * 400.0 ** ((k + self.rng.random()) / self.BETAS)
        return (i, float(beta))

    def op(self, inp):
        i, beta = inp
        (row,) = X.max_alpha_scan(self.spectra[i], self.N, [beta], resolution=40)
        return (row.alpha, row.state.log_populations)

    def check(self, inp, out) -> Outcome:
        res = Outcome()
        if not 1 - 1e-9 <= out[0] <= self.alpha_ceiling + 1e-9:
            res.failed.append("alpha_range")
        return res


# ---------------------------------------------------------------------------


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@dataclass(frozen=True)
class Call:
    case: str
    argv: tuple[str, ...]
    exit_code: int  # what README states


class CliMix(Workload):
    """``npassive.cli.main`` in-process on small seeded state files: all nine
    subcommands plus the README's exit-code cases."""

    name = "cli_mix"
    POOL = 8
    known_defects = {
        ("nan_population", "exit_code"): "NaN population accepted, verdict exit 1 (ROADMAP item 4)",
        ("check_n0", "exception:ValueError"): "check --n 0 raises out of main (ROADMAP item 4)",
        ("gibbs_beta_neg", "exception:ValueError"): "gibbs --beta -1 raises out of main (ROADMAP item 4)",
        ("bounds", "exception:OverflowError"): "exponential_factor overflows math.exp when R is "
        "large (near-degenerate levels); the error escapes main (ROADMAP item 4)",
        ("bounds_table", "exception:OverflowError"): "as for bounds",
        ("gibbs_beta_nan", "exit_code"): "gibbs --beta nan exits 0 and prints NaN (ROADMAP item 4)",
        ("saturate_3_2", "ceiling"): "measured ratio above alpha_max from the low-S inversion (ROADMAP item 3)",
    }

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        workdir.mkdir(parents=True, exist_ok=True)
        rng = self.rng
        self.files = {"gibbs": [], "inverted": [], "degenerate": []}
        for j in range(self.POOL):
            e = sorted([0.0] + [round(x, 6) for x in rng.uniform(0.2, 3.0, int(rng.integers(2, 4)))])
            w = np.exp(-rng.uniform(0.3, 3.0) * np.asarray(e))
            self._write("gibbs", j, {"energies": e, "populations": list(w / w.sum())})
            w = rng.dirichlet(np.ones(len(e)))
            w[0], w[1] = min(w[0], w[1]) * 0.5, max(w[0], w[1])
            self._write("inverted", j, {"energies": e, "populations": list(w / w.sum())})
            e = [0.0, 0.0, 1.0, 1.0, round(float(rng.uniform(1.5, 3.0)), 6)]
            self._write("degenerate", j, {"energies": e, "populations": list(rng.dirichlet(np.ones(5)))})
        self.nan_file = self._raw("nan.json", '{"energies": [0, 1, 1.9], "populations": [0.5, NaN, 0.5]}')
        self.bad_file = self._raw("bad.json", '{"energies": [0, 1,')
        self.missing_file = str(workdir / "missing.json")

    def _raw(self, name, text):
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def _write(self, kind, j, data):
        path = self._raw(f"{kind}{j}.json", json.dumps(data))
        self.files[kind].append((path, data))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def shapes(self):
        return [
            "check_passive", "check_inverted", "ergotropy", "gibbs_beta", "gibbs_entropy",
            "bounds", "bounds_table", "flatten", "scan_alpha", "nstar_float", "nstar_rational",
            "classify_gibbs", "classify_inverted",
            "missing_file", "invalid_json", "nan_population", "check_n0",
            "gibbs_beta_neg", "gibbs_beta_nan", "saturate_2_1", "saturate_3_2", "saturate_5_4",
        ]

    def make_input(self, case):
        rng = self.rng
        pick = lambda kind: self.files[kind][int(rng.integers(self.POOL))]  # noqa: E731
        gibbs, _ = pick("gibbs")
        inverted, _ = pick("inverted")
        n = str(int(rng.integers(2, 5)))
        if case == "check_passive":
            return Call(case, ("check", "--state", gibbs, "--n", n), 0)
        if case == "check_inverted":
            return Call(case, ("check", "--state", inverted, "--n", n, "--stability", "2"), 1)
        if case == "ergotropy":
            return Call(case, ("ergotropy", "--state", inverted, "--n", n), 0)
        if case == "gibbs_beta":
            return Call(case, ("gibbs", "--state", gibbs, "--beta", repr(float(rng.uniform(0.1, 5)))), 0)
        if case == "gibbs_entropy":
            path, data = pick("gibbs")
            S_target = float(rng.uniform(0.05, 0.95)) * math.log(len(data["energies"]))
            return Call(case, ("gibbs", "--state", path, "--entropy", repr(S_target)), 0)
        if case == "bounds":
            return Call(case, ("bounds", "--state", gibbs, "--n", "5"), 0)
        if case == "bounds_table":
            return Call(case, ("bounds", "--state", gibbs, "--n", n, "--table"), 0)
        if case == "flatten":
            return Call(case, ("flatten", "--state", pick("degenerate")[0]), 0)
        if case == "scan_alpha":
            b = float(rng.uniform(1, 40))
            return Call(case, (
                "scan-alpha", "--energies", "0", "1", "1.001", "--degeneracies", "1", "1",
                str(10 ** int(rng.integers(2, 7))), "--n", "5", "--beta-min", repr(b),
                "--beta-max", repr(2 * b), "--points", "1", "--resolution", "8"), 0)
        if case == "nstar_float":
            e = ["0"] + [repr(float(x)) for x in sorted(rng.uniform(0.2, 3.0, 3))]
            return Call(case, ("nstar", "--energies", *e), 0)
        if case == "nstar_rational":
            q = int(rng.integers(1, 5))
            tops = sorted(set(int(x) for x in rng.integers(q + 1, 8 * q, 3)))
            fracs = " ".join(["0", "1"] + [f"{p}/{q}" for p in tops if p > q])
            return Call(case, ("nstar", "--rational", fracs), 0)
        if case == "classify_gibbs":
            return Call(case, ("classify-cp", "--state", gibbs), 0)
        if case == "classify_inverted":
            return Call(case, ("classify-cp", "--state", inverted), 1)
        if case == "missing_file":
            return Call(case, ("check", "--state", self.missing_file, "--n", n), 2)
        if case == "invalid_json":
            return Call(case, ("check", "--state", self.bad_file, "--n", n), 2)
        if case == "nan_population":
            return Call(case, ("check", "--state", self.nan_file, "--n", n), 2)
        if case == "check_n0":
            return Call(case, ("check", "--state", gibbs, "--n", "0"), 2)
        if case == "gibbs_beta_neg":
            return Call(case, ("gibbs", "--state", gibbs, "--beta", "-1"), 2)
        if case == "gibbs_beta_nan":
            return Call(case, ("gibbs", "--state", gibbs, "--beta", "nan"), 2)
        N, m = case.split("_")[1:]
        return Call(case, ("saturate", "--n", N, "--m", m, "--frac", "0.9"), 0)

    def label(self, call):
        return call.case

    def op(self, call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = C.main(list(call.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return (code, out.getvalue(), err.getvalue())

    def check(self, call, out) -> Outcome:
        res = Outcome()
        code, stdout, _ = out
        if code != call.exit_code:
            res.failed.append("exit_code")
        if code not in (0, 1) or call.exit_code not in (0, 1):
            return res
        if call.argv[0] == "scan-alpha":
            if not stdout.startswith("beta,alpha,bound_inverse,bound_exponential\n"):
                res.failed.append("csv_header")
            return res
        try:
            data = _strict_json(stdout)
        except ValueError:
            res.failed.append("strict_json")
            return res
        if call.argv[0] == "saturate" and not data["alpha_measured"] <= data["alpha_max"]:
            res.failed.append("ceiling")
        return res


WORKLOADS = {w.name: w for w in (BoundSweep, PassivityScan, AlphaScan, CliMix)}
