"""Command-line audit driver: config ingestion, orchestration, reports.

Subcommands
    algebra-suite    double-form algebra property suites (seeded random inputs)
    collar-audit     boundary-jet identities and parity of collar invariants
    renvol           renormalized-volume asymptotics and finite parts
    gauss-bonnet     interior Pfaffian + boundary transgression audit
    linearize-check  linearized-curvature formulas vs finite differences
    el-residual      Euler-Lagrange residual and slice diagnostics
    flow             gradient descent on the radial profile family

Exit codes: 0 all checks pass; 1 at least one check fails; 2 config or
usage error; 3 numerical non-convergence.  Reports are JSON (optionally
CSV), written atomically (temp file + rename), and each check row carries
its anchor (a self-contained formula string), the seed, and a tolerance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__, dfalg, renorm, variation
from . import collar as _collar

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


class ConfigError(ValueError):
    """Invalid or incomplete configuration (maps to exit code 2)."""


# the geometry class of each family: every eps-family integrates out to its
# rho_max, which 'eps_hi' must stay below, and a class that declares chi is
# capped there
_FAMILIES = {"radial": _collar.RadialGeometry, "torus-collar": _collar.TorusJetGeometry}
_FORMATS = ("json", "csv")
# a curvature slice peaks at about 12 KiB of temporaries per boundary point
# (6.2 MiB at n_grid 8, 49 MiB at n_grid 16), so n_grid = 32 (32768 points)
# peaks near 390 MiB per slice.  n_grid 4 is the coarsest grid the tests
# use; below it the spectral derivative resolves at most wave number 1 of jet
# fields that carry wave numbers up to 3
_N_GRID_MIN = 4
_N_GRID_MAX = 32
# upper bounds, so that no config asks for unbounded work: eps_n 64 is about
# 68 eps-family panels, which take torus jet 3's renvol from 0.1 s (eps_n 12)
# to 0.2-0.4 s and radial renvol and gauss-bonnet to under 0.05 s on a 2-core
# Xeon (the curvature families' Chebyshev ladder does not grow with eps_n, and
# the volume density is one det per slice); 1000 linearize-check trials take
# about 10 s, and 10000 flow steps about 10 minutes
_EPS_N_MAX = 64
_TRIALS_MAX = 1000
_FLOW_STEPS_MAX = 10000

# every check row a subcommand emits, by subcommand in SUBCOMMANDS order:
# name -> (anchor, default tolerance).  flow_target's tolerance is the config's
# target fraction.  slice_norms_finite and flow_monotone count what they judge
# (non-finite slice norms, flow steps where Z rose), so they pass at 0.
_CHECKS = {
    "contraction_commutator": ("c(g.w) == g c(w) + (n-p-q) w", 1e-10),
    "metric_contraction_adjointness": ("inner(g.w1, w2) == inner(w1, c w2)", 1e-10),
    "hodge_metric_multiplication": ("g.w == (-1)^(n(p+q)) * c * w", 1e-10),
    "f_h_derivation": ("F_h(a.b) == F_h(a).b + a.F_h(b)", 1e-10),
    "f_h_self_adjoint": ("inner(F_h a, b) == inner(a, F_h b)", 1e-10),
    "contract_fh_pairing": ("<z, c F_h R> == 2<rcirc(z), h> + 2<r o z, h>", 1e-10),
    "rcirc_self_adjoint": ("<z, rcirc(h)> == <rcirc(z), h>", 1e-10),
    "trace_identity": ("tr_gamma g3 == 2 v3", 1e-8),
    "g3_curvature_identity": ("g3 == -1/3 d/drho Rbar_i4j4 at rho=0", 1e-6),
    "v3_curvature_identity": ("v3 == -1/6 d/drho ricbar_44 at rho=0", 1e-6),
    "invariant_parity": ("rho^1 coefficient of s, |r|^2, |R|^2 == 0", 1e-6),
    "volume_asymptotics_fit": (
        "vol(eps) == C0 eps^-3 + C2 eps^-1 + L log(1/eps) + V + o(1)", 1e-6),
    "hyperbolic_C0": ("C0 == 2 pi^2 / 3", 1e-6),
    "hyperbolic_C2": ("C2 == -3 pi^2 / 2", 1e-6),
    "hyperbolic_L": ("L == 0", 1e-6),
    "hyperbolic_V": ("V == 4 pi^2 / 3", 1e-6),
    "gauss_bonnet_sum_constant": (
        "int_{rho>eps} Pff + int_{rho=eps} II == chi, all eps", 1e-6),
    "boundary_finite_part_zero": ("FP int II == 0", 1e-5),
    "interior_finite_part_chi": ("FP int Pff == chi", 1e-4),
    "fd_convergence_order": (
        "order(||formula - [curv(g+th)-curv(g-th)]/2t||) == 2 +/- 0.2", 0.2),
    "scaling_riem": ("R'g == R", 1e-10),
    "scaling_ric": ("r'g == 0", 1e-10),
    "scaling_scal": ("s'g == -s", 1e-10),
    "slice_norms_finite": ("int_{rho = const} |E| dvol finite on all slices", 1.0),
    "einstein_residual": ("E == 0 on Einstein backgrounds (z == 0)", 1e-8),
    "phi4_pairing": ("phi^(4) == <E0, h4> + <E1, h3> + <E2, h2>", 1e-4),
    "low_order_residual_parity": (
        "E^(0) == 0 and E^(1) == 0 on radial profile families", 1e-9),
    "flow_monotone": ("Z(theta_k+1) <= Z(theta_k) for all k", 1.0),
    "flow_target": ("Z(theta_end) <= target_fraction * Z(theta_0) within the step budget", None),
}
# A 'tolerances' key must name a check row.  One config serves every subcommand
# (scripts/run_all_audits.py), so a row of any subcommand is accepted.
CHECK_NAMES = frozenset(_CHECKS)
# the rows whose tolerance no config sets, and why: an override would be
# reported, and either not judged or a pass for a failing count
_FIXED_TOLERANCES = {
    "slice_norms_finite": "it counts non-finite slice norms and passes at 0 only",
    "flow_monotone": "it counts the flow steps where Z rose and passes at 0 only",
    "flow_target": "its bound is 'flow.target_fraction'",
}


# -- configuration ---------------------------------------------------------------

# every config key and the AuditConfig field it sets, by JSON object: None is
# the top level ('config' in messages), whose other keys are the sections.  A
# key left out takes the field's default; a key not listed here exits 2.
_KEYS = {
    None: {"family": "family", "seed": "seed", "trials": "trials", "tolerances": "tolerances"},
    "profile": {"theta": "theta"},
    "jet": {"n_grid": "jet_n_grid", "amplitude": "jet_amplitude"},
    "grid": {"eps_n": "eps_n", "eps_lo": "eps_lo", "eps_hi": "eps_hi"},
    "flow": {"theta0": "flow_theta0", "steps": "flow_steps", "eta": "flow_eta",
             "target_fraction": "flow_target_fraction"},
    "outputs": {"directory": "out_dir", "format": "out_format"},
}


def _given(raw) -> dict:
    """{field: value} for each key of :data:`_KEYS` that ``raw`` gives."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    given = {}
    for section, keys in _KEYS.items():
        obj = raw if section is None else raw.get(section, {})
        name = section or "config"
        if not isinstance(obj, dict):
            raise ConfigError(f"'{name}' must be a JSON object")
        for key, value in obj.items():
            if key in keys:
                given[keys[key]] = value
            elif section or key not in _KEYS:
                raise ConfigError(f"unknown key '{key}' in '{name}'")
    return given


def _one_of(names) -> str:
    """The names quoted and joined: 'a', 'b' or 'c'."""
    *rest, last = [f"'{name}'" for name in names]
    return f"{', '.join(rest)} or {last}" if rest else last


def _integer(value, key: str, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer")
    if value < minimum:
        raise ConfigError(f"'{key}' must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"'{key}' must be at most {maximum}")
    return value


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number")
    # json.load reads NaN and Infinity, which would pass every range check below
    if not math.isfinite(value):
        raise ConfigError(f"'{key}' must be finite")
    return float(value)


def _numbers(value, key: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"'{key}' must be a list of numbers")
    return tuple(_number(v, key) for v in value)


@dataclass(frozen=True)
class AuditConfig:
    """Validated audit configuration (strict JSON schema, see README)."""

    family: str
    seed: int
    theta: tuple = (0.0, 0.0, 0.0)
    jet_n_grid: int = 8
    jet_amplitude: float = 0.05
    eps_n: int = 12
    eps_lo: float = 0.02
    eps_hi: float = 0.3
    trials: int = 3
    flow_theta0: tuple = (0.05, 0.05, 0.05)
    flow_steps: int = 200
    flow_eta: float = 1e-3
    flow_target_fraction: float = 0.01
    tolerances: dict = field(default_factory=dict)
    out_dir: str = "."
    out_format: str = "json"

    @classmethod
    def from_dict(cls, raw: dict) -> "AuditConfig":
        given = _given(raw)
        for key in ("family", "seed"):
            if given.get(key) is None:
                raise ConfigError(f"missing required key '{key}'")
        # an equality test: a list or an object is no family, and not hashable
        if given["family"] not in tuple(_FAMILIES):
            raise ConfigError(f"'family' must be {_one_of(_FAMILIES)}")
        v = asdict(cls(**given))  # each given key over its field's default
        v["seed"] = _integer(v["seed"], "seed", 0)
        v["theta"] = _numbers(v["theta"], "theta")
        # the eps grid renorm.finite_part needs: MIN_EPS_SAMPLES nodes over MIN_EPS_SPAN
        eps_lo = v["eps_lo"] = _number(v["eps_lo"], "eps_lo")
        eps_hi = v["eps_hi"] = _number(v["eps_hi"], "eps_hi")
        if eps_lo <= 0.0 or eps_hi / eps_lo < renorm.MIN_EPS_SPAN:
            raise ConfigError("'eps_lo' must be positive and 'eps_hi' / 'eps_lo' at least "
                              f"{renorm.MIN_EPS_SPAN:g}")
        rho_max = _FAMILIES[v["family"]].rho_max
        if eps_hi >= rho_max:
            raise ConfigError(f"'eps_hi' (here {eps_hi:g}) must be below {rho_max:g}, "
                              f"the rho_max of the {v['family']} family")
        v["flow_eta"] = _number(v["flow_eta"], "eta")
        if v["flow_eta"] < 0.0:
            raise ConfigError("'eta' must be non-negative")
        fraction = v["flow_target_fraction"] = _number(v["flow_target_fraction"],
                                                       "target_fraction")
        if not 0.0 < fraction <= 1.0:
            raise ConfigError("'target_fraction' must lie in (0, 1]")
        theta0 = v["flow_theta0"] = _numbers(v["flow_theta0"], "theta0")
        try:
            _collar.perturbed_profile(theta0)
        except ValueError as exc:
            raise ConfigError(f"'theta0' {list(theta0)} gives an invalid profile: {exc}")
        if not isinstance(v["tolerances"], dict):
            raise ConfigError("'tolerances' must be a JSON object")
        for name, value in v["tolerances"].items():
            if _number(value, name) <= 0:
                raise ConfigError(f"tolerance '{name}' must be a positive number")
            if name not in CHECK_NAMES:
                raise ConfigError(f"unknown tolerance '{name}': no check row has that name")
            if name in _FIXED_TOLERANCES:
                raise ConfigError(f"tolerance '{name}' cannot be set: {_FIXED_TOLERANCES[name]}")
        if not isinstance(v["out_dir"], str):
            raise ConfigError("'outputs.directory' must be a string")
        if v["out_format"] not in _FORMATS:
            raise ConfigError(f"'outputs.format' must be {_one_of(_FORMATS)}")
        v["jet_n_grid"] = _integer(v["jet_n_grid"], "n_grid", _N_GRID_MIN, _N_GRID_MAX)
        v["jet_amplitude"] = _number(v["jet_amplitude"], "amplitude")
        v["eps_n"] = _integer(v["eps_n"], "eps_n", renorm.MIN_EPS_SAMPLES, _EPS_N_MAX)
        v["trials"] = _integer(v["trials"], "trials", 1, _TRIALS_MAX)
        v["flow_steps"] = _integer(v["flow_steps"], "steps", 0, _FLOW_STEPS_MAX)
        return cls(**v)

    def geometry(self):
        """The collar geometry; a torus jet must be Riemannian out to its rho_max."""
        if self.family == "radial":
            try:
                return _collar.RadialGeometry(_collar.perturbed_profile(self.theta))
            except ValueError as exc:
                raise ConfigError(f"'theta' {list(self.theta)} gives an invalid profile: {exc}")
        try:
            geom = _collar.TorusJetGeometry(
                _collar.random_jet(self.seed, self.jet_n_grid, self.jet_amplitude))
            _collar.require_positive(geom, np.linspace(geom.rho_max / 16, geom.rho_max, 16))
            return geom
        except ValueError as exc:
            raise ConfigError(f"'amplitude' {self.jet_amplitude:g} is too large: {exc}")

    @property
    def is_hyperbolic(self) -> bool:
        return self.family == "radial" and all(t == 0.0 for t in self.theta)

    def eps_grid(self) -> np.ndarray:
        return renorm.default_eps_grid(self.eps_n, self.eps_lo, self.eps_hi)


@dataclass
class AuditReport:
    """Self-contained audit result: config echo, check rows, timing, stamp."""

    subcommand: str
    config: dict
    seed: int
    checks: list
    artifacts: dict = field(default_factory=dict)
    version: str = __version__
    elapsed_seconds: float = 0.0
    timestamp: str = ""

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(_jsonable(asdict(self)), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# ahrenvol {self.version} :: {self.subcommand}\n")
        writer = csv.writer(buf)
        writer.writerow(["name", "anchor", "value", "tolerance", "passed", "seed"])
        for row in self.checks:
            writer.writerow(
                [row["name"], row["anchor"], repr(row["value"]),
                 repr(row["tolerance"]), row["passed"], self.seed]
            )
        return buf.getvalue()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check(name, value, config, passed=None, tolerance=None, claim=0.0):
    """Row ``name`` of :data:`_CHECKS`; ``tolerance`` replaces a default of None.
    Unless ``passed`` is given (flow_target), the row passes when |value - claim| < tolerance."""
    anchor, default = _CHECKS[name]
    tol = float(config.tolerances.get(name, default if tolerance is None else tolerance))
    value = float(value)
    if passed is None:
        passed = abs(value - claim) < tol
    return {
        "name": name,
        "anchor": anchor,
        "value": value,
        "tolerance": tol,
        "passed": bool(passed),
    }


# -- subcommand: algebra-suite -----------------------------------------------------


def _random_form(rng, n, p, q):
    coeffs = rng.standard_normal((math.comb(n, p), math.comb(n, q)))
    return dfalg.DoubleForm(n, p, q, coeffs)


def _random_curvature(rng, n=4):
    dense = rng.standard_normal((n,) * 4)
    dense = dense - dense.transpose(1, 0, 2, 3)
    dense = dense - dense.transpose(0, 1, 3, 2)
    dense = 0.5 * (dense + dense.transpose(2, 3, 0, 1))
    return dfalg.DoubleForm.from_dense(n, 2, 2, dense)


def _random_sym(rng, n=4):
    m = rng.standard_normal((n, n))
    return dfalg.SymBilinear(n, 0.5 * (m + m.T))


def run_algebra_suite(config: AuditConfig) -> AuditReport:
    rng = np.random.default_rng(config.seed)
    degrees = [(3, 1, 1), (4, 1, 1), (4, 2, 1), (4, 2, 2), (5, 1, 2), (5, 2, 2)]
    dev_comm = dev_adj = dev_hodge = 0.0
    for _ in range(100):
        n, p, q = degrees[rng.integers(0, len(degrees))]
        g = dfalg.metric_g(n)
        w = _random_form(rng, n, p, q)
        lhs = dfalg.contract(dfalg.kn_product(g, w))
        cw = dfalg.contract(w)
        if isinstance(cw, float):
            rhs = (n - p - q) * w + cw * dfalg.kn_product(g, dfalg.unit_scalar(n))
        else:
            rhs = dfalg.kn_product(g, cw) + (n - p - q) * w
        scale = max(1.0, float(np.max(np.abs(lhs.coeffs))))
        dev_comm = max(dev_comm, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))) / scale)

        b = _random_form(rng, n, p + 1, q + 1)
        lhs2 = dfalg.inner(dfalg.kn_product(g, w), b)
        cb = dfalg.contract(b)
        rhs2 = cb * w.coeffs[0, 0] if isinstance(cb, float) else dfalg.inner(w, cb)
        dev_adj = max(dev_adj, abs(lhs2 - rhs2) / max(1.0, abs(lhs2)))

        lhs3 = dfalg.kn_product(g, w)
        sign = (-1.0) ** (n * (p + q))
        rhs3 = sign * dfalg.hodge_star(dfalg.contract(dfalg.hodge_star(w)))
        scale = max(1.0, float(np.max(np.abs(lhs3.coeffs))))
        dev_hodge = max(dev_hodge, float(np.max(np.abs(lhs3.coeffs - rhs3.coeffs))) / scale)

    dev_deriv = dev_selfadj = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 6))
        h = _random_sym(rng, n)
        a = _random_form(rng, n, 1, 1)
        b = _random_form(rng, n, 1, 1)
        lhs = dfalg.f_h(h, dfalg.kn_product(a, b))
        rhs = dfalg.kn_product(dfalg.f_h(h, a), b) + dfalg.kn_product(a, dfalg.f_h(h, b))
        scale = max(1.0, float(np.max(np.abs(lhs.coeffs))))
        dev_deriv = max(dev_deriv, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))) / scale)
        p1 = dfalg.inner(dfalg.f_h(h, a), b)
        p2 = dfalg.inner(a, dfalg.f_h(h, b))
        dev_selfadj = max(dev_selfadj, abs(p1 - p2) / max(1.0, abs(p1)))

    dev_pair = dev_rcirc = 0.0
    for _ in range(100):
        R = _random_curvature(rng)
        z = _random_sym(rng)
        h = _random_sym(rng)
        lhs = dfalg.inner(z.to_doubleform(), dfalg.contract(dfalg.f_h(h, R)))
        parts = dfalg.bilinear_algebra(z, R)
        rhs = 2.0 * float(np.sum(parts["rcirc"].entries * h.entries)) + 2.0 * float(
            np.sum(parts["compose"].entries * h.entries)
        )
        dev_pair = max(dev_pair, abs(lhs - rhs) / max(1.0, abs(lhs)))
        p1 = float(np.sum(z.entries * dfalg.bilinear_algebra(h, R)["rcirc"].entries))
        p2 = float(np.sum(parts["rcirc"].entries * h.entries))
        dev_rcirc = max(dev_rcirc, abs(p1 - p2) / max(1.0, abs(p1)))

    checks = [
        _check("contraction_commutator", dev_comm, config),
        _check("metric_contraction_adjointness", dev_adj, config),
        _check("hodge_metric_multiplication", dev_hodge, config),
        _check("f_h_derivation", dev_deriv, config),
        _check("f_h_self_adjoint", dev_selfadj, config),
        _check("contract_fh_pairing", dev_pair, config),
        _check("rcirc_self_adjoint", dev_rcirc, config),
    ]
    return AuditReport("algebra-suite", asdict(config), config.seed, checks)


# -- subcommand: collar-audit --------------------------------------------------------


def run_collar_audit(config: AuditConfig) -> AuditReport:
    jet_rep = _collar.jet_identity_report(config.geometry())
    checks = [
        _check("trace_identity", jet_rep["dev_trace_identity"], config),
        _check("g3_curvature_identity", jet_rep["dev_g3_identity"], config),
        _check("v3_curvature_identity", jet_rep["dev_v3_identity"], config),
        _check("invariant_parity", jet_rep["dev_invariant_parity"], config),
    ]
    artifacts = {"v3": jet_rep["v3"], "rho_nodes": _collar.chebyshev_rho_nodes()}
    return AuditReport("collar-audit", asdict(config), config.seed, checks, artifacts)


# -- subcommand: renvol ---------------------------------------------------------------


def run_renvol(config: AuditConfig) -> AuditReport:
    geom = config.geometry()
    eps = config.eps_grid()
    volumes, quad_error = renorm.volume_family(geom, eps_grid=eps)
    fit = renorm.finite_part((eps, volumes))
    fit_dev = fit.fit_residual / max(1.0, abs(fit.finite))
    checks = [_check("volume_asymptotics_fit", fit_dev, config)]
    if config.is_hyperbolic:
        oracle = (2.0 * math.pi**2 / 3.0, -1.5 * math.pi**2, 0.0, 4.0 * math.pi**2 / 3.0)
        for got, want, name in zip(fit.as_tuple(), oracle, ("C0", "C2", "L", "V")):
            dev = abs(got - want) / max(1.0, abs(want))
            checks.append(_check(f"hyperbolic_{name}", dev, config))
    artifacts = {
        "eps_grid": eps,
        "volumes": volumes,
        "coefficients": {"C0": fit.c0, "C2": fit.c2, "L": fit.log_coeff, "V": fit.finite},
        "quadrature_error": quad_error,
        "fit_cond": fit.cond,
        "half_grid_drift": fit.half_grid_drift,
        "kept_powers": fit.kept_powers,
        "log_ambiguous": fit.log_ambiguous,
    }
    return AuditReport("renvol", asdict(config), config.seed, checks, artifacts)


# -- subcommand: gauss-bonnet ----------------------------------------------------------


def run_gauss_bonnet(config: AuditConfig) -> AuditReport:
    if _FAMILIES[config.family].chi is None:  # chi closes the identity: only a capped family declares one
        capped = [name for name, geom in _FAMILIES.items() if geom.chi is not None]
        raise ConfigError(f"gauss-bonnet requires 'family' to be {_one_of(capped)}")
    audit = renorm.gauss_bonnet_audit(config.geometry(), eps_grid=config.eps_grid())
    chi = audit["chi"]
    fits = {"interior": audit["fp_interior"], "boundary": audit["fp_boundary"]}
    sum_dev = float(np.max(np.abs(audit["total"] - chi))) / max(1.0, abs(chi))
    checks = [
        _check("gauss_bonnet_sum_constant", sum_dev, config),
        _check("boundary_finite_part_zero", fits["boundary"].finite, config),
        _check("interior_finite_part_chi", fits["interior"].finite, config, claim=chi),
    ]
    artifacts = {
        "eps_grid": audit["eps_grid"],
        "interior": audit["interior"],
        "boundary": audit["boundary"],
        "total": audit["total"],
        "fp_interior": audit["fp_interior"].finite,
        "fp_boundary": audit["fp_boundary"].finite,
        "quadrature_error": audit["quadrature_error"],
        "interpolant_nodes": audit["interpolant_nodes"],
        "fit_cond": {key: fit.cond for key, fit in fits.items()},
        "half_grid_drift": {key: fit.half_grid_drift for key, fit in fits.items()},
        "kept_powers": {key: fit.kept_powers for key, fit in fits.items()},
        "log_ambiguous": {key: fit.log_ambiguous for key, fit in fits.items()},
    }
    return AuditReport("gauss-bonnet", asdict(config), config.seed, checks, artifacts)


# -- subcommand: linearize-check --------------------------------------------------------


def _linearize_trial(seed: int):
    rng = np.random.default_rng(seed)
    geom = _collar.RadialGeometry(
        _collar.perturbed_profile(0.05 * rng.uniform(-1.0, 1.0, 3))
    )

    def sym(a):
        return 0.5 * (a + a.transpose(0, 2, 1))

    pert = _collar.PolynomialPerturbation(
        {
            2: sym(1.5 * rng.uniform(-1, 1, (1, 3, 3))),
            3: sym(1.5 * rng.uniform(-1, 1, (1, 3, 3))),
        }
    )
    lin = variation.linearized_curvature(geom, pert, 0.25)
    steps = (1e-2, 5e-3, 2.5e-3)
    devs = []
    for t in steps:
        fd = variation.fd_curvature_derivative(geom, pert, 0.25, t)
        devs.append(
            max(
                float(np.max(np.abs(fd["riem_p"] - lin["riem_p"]))),
                float(np.max(np.abs(fd["ric_p"] - lin["ric_p"]))),
                float(np.max(np.abs(fd["s_p"] - lin["s_p"]))),
            )
        )
    return variation.convergence_order(steps, devs)


def run_linearize_check(config: AuditConfig) -> AuditReport:
    orders = [_linearize_trial(config.seed + k) for k in range(config.trials)]

    geom = config.geometry()

    class _MetricJet:  # h = g: the frame metric blocks and their rho-derivatives
        def value(self, rho, order=0):
            return _collar._gbar_blocks(geom, rho)[order]

    lin = variation.linearized_curvature(geom, _MetricJet(), 0.3)
    cur = lin["background"]
    inv = cur["invariants"]
    scale = max(1.0, float(np.max(np.abs(cur["riem_on"]))))
    dev_r = float(np.max(np.abs(lin["riem_p"] - cur["riem_on"]))) / scale
    dev_ric = float(np.max(np.abs(lin["ric_p"]))) / scale
    dev_s = float(np.max(np.abs(lin["s_p"] + inv["s"]))) / scale

    checks = [
        _check("fd_convergence_order", max(abs(o - 2.0) for o in orders), config),
        _check("scaling_riem", dev_r, config),
        _check("scaling_ric", dev_ric, config),
        _check("scaling_scal", dev_s, config),
    ]
    artifacts = {"orders": orders}
    return AuditReport("linearize-check", asdict(config), config.seed, checks, artifacts)


# -- subcommand: el-residual --------------------------------------------------------------


def run_el_residual(config: AuditConfig) -> AuditReport:
    geom = config.geometry()
    result = variation.functional_gradient(geom)
    norms = result["slice_norms"]
    max_norm = float(np.max(norms))
    checks = [_check("slice_norms_finite", np.sum(~np.isfinite(norms)), config)]
    artifacts = {"rhos": result["rhos"], "slice_norms": norms, "max_norm": max_norm,
                 "z_tail": result["z_tail"]}
    if config.is_hyperbolic:
        checks.append(_check("einstein_residual", max_norm, config))
    if config.family == "radial":
        m = np.eye(3)[None]
        pert = _collar.PolynomialPerturbation({2: 0.4 * m, 3: -0.6 * m})
        rep = variation.el_slice_analysis(geom, pert)
        artifacts["phi_coefficients"] = rep["coefficients"]
        artifacts["phi_contributions"] = rep["contributions"]
        artifacts["vanishing_orders"] = rep["vanishing_orders"]
        artifacts["critical"] = rep["critical"]
        if not config.is_hyperbolic:
            c4 = rep["coefficients"][4]
            pairing_dev = abs(rep["phi4_from_pairing"] - c4) / max(1e-12, abs(c4))
            parity_dev = float(np.max(np.abs(rep["e_series"][:2])))
            checks.append(_check("phi4_pairing", pairing_dev, config))
            checks.append(_check("low_order_residual_parity", parity_dev, config))
    return AuditReport("el-residual", asdict(config), config.seed, checks, artifacts)


# -- subcommand: flow --------------------------------------------------------------------


def run_flow_command(config: AuditConfig) -> AuditReport:
    # the flow runs on the radial profile family from theta0
    if config.family != "radial":
        raise ConfigError("flow requires 'family' to be 'radial'")
    history = variation.run_flow(config.flow_theta0, steps=config.flow_steps,
                                 eta=config.flow_eta, target_fraction=config.flow_target_fraction)
    values = [step.value for step in history]
    rises = sum(not b <= a for a, b in zip(values, values[1:]))  # a NaN counts as a rise
    reached = values[-1] <= config.flow_target_fraction * max(values[0], 1e-300)
    checks = [
        _check("flow_monotone", rises, config),
        _check("flow_target", values[-1] / max(values[0], 1e-300), config,
               passed=reached, tolerance=config.flow_target_fraction),
    ]
    artifacts = {"history": [{"step": s.step, "theta": list(s.theta), "value": s.value,
                              "eta": s.eta} for s in history]}
    return AuditReport("flow", asdict(config), config.seed, checks, artifacts)


def _flow_progress_csv(report: AuditReport) -> str:
    buf = io.StringIO()
    buf.write("# gradient-flow progress\n")
    writer = csv.writer(buf)
    n_theta = len(report.artifacts["history"][0]["theta"])
    writer.writerow(["step"] + [f"theta{k}" for k in range(n_theta)] + ["value", "eta"])
    for row in report.artifacts["history"]:
        writer.writerow([row["step"]] + [repr(float(t)) for t in row["theta"]]
                        + [repr(float(row["value"])), repr(float(row["eta"]))])
    return buf.getvalue()


# -- driver ---------------------------------------------------------------------------------


_RUNNERS = {
    "algebra-suite": run_algebra_suite,
    "collar-audit": run_collar_audit,
    "renvol": run_renvol,
    "gauss-bonnet": run_gauss_bonnet,
    "linearize-check": run_linearize_check,
    "el-residual": run_el_residual,
    "flow": run_flow_command,
}
SUBCOMMANDS = tuple(_RUNNERS)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and returned by every later one.

    Parsing leaves nothing on it, so a batch of :func:`main` calls in one
    process shares it instead of building its 43 arguments again per call;
    a caller must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="ahrenvol",
        description="Audit driver for the renormalized-volume calculus.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out-dir", default=None, help="report output directory")
        p.add_argument("--format", default=None, choices=_FORMATS)
        p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="no effect: every subcommand runs single-threaded")
    return parser


def _load_config(args) -> AuditConfig:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        # a missing file, a directory, or bytes that are not UTF-8
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
    else:
        raw = {"family": "radial", "seed": 0}
    config = AuditConfig.from_dict(raw)
    if args.seed is not None:
        _integer(args.seed, "seed", 0)
    overrides = {"seed": args.seed, "out_dir": args.out_dir, "out_format": args.format}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    # before any work, so that a directory that cannot hold the reports costs no run
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"'outputs.directory' {config.out_dir!r} cannot be created: {exc}")
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    start = time.perf_counter()
    try:
        report = _RUNNERS[args.subcommand](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _collar.NonConvergence as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    report.elapsed_seconds = time.perf_counter() - start
    report.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())

    base = os.path.join(config.out_dir, f"{args.subcommand}-report")
    _write_atomic(base + ".json", report.to_json())
    if config.out_format == "csv":
        _write_atomic(base + ".csv", report.to_csv())
    if args.subcommand == "flow":
        _write_atomic(os.path.join(config.out_dir, "flow-progress.csv"), _flow_progress_csv(report))

    for row in report.checks:
        verdict = "pass" if row["passed"] else "FAIL"
        print(f"[{verdict}] {row['name']}: {row['value']:.3e} "
              f"(tol {row['tolerance']:.1e}) :: {row['anchor']}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
