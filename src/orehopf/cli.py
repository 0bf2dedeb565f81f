"""Command-line front end.

Every invocation emits exactly one JSON report object on standard output
with "status", "facts", and "witnesses" fields.  Exit codes: 0 on
success / property true, 1 on property failure / false, 2 on usage or
validation errors.  Usage errors (a missing or malformed argument, an
unknown subcommand) take the same JSON error path; only --help prints
plain text.  A call whose standard output is closed before the report is
written exits 2 with one "error:" line on standard error.  Randomness is
seed-controlled; the seed is recorded in the report.  The environment
variable ORE_HOPF_SEED supplies the default seed.  quotient-check is
exact: it still accepts --samples and --seed and echoes the seed, but
samples nothing.

Input bounds: the conductor is an integer in [1, MAX_CONDUCTOR], JSON
booleans are not integers, --samples lies in [1, MAX_SAMPLES]
(quotient-check too, where it is otherwise unused), --max-degree lies in
[0, MAX_DEGREE], the x, y, z degree of each term of an expression is at
most exprparse.MAX_TERM_DEGREE, and a module (a module file, or the output
of module build) has dimension at most MAX_MODULE_DIM.  module build checks
the dimension of the family before it builds the module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Layers that some subcommands do not use are imported as modules and read
# on use: each runs on its first attribute read (see orehopf/__init__.py), and
# annotations stay strings, so a call runs only the layers it reads.
from . import catalog, exprparse, quotient, reps
from .abgroup import AbelianGroup, Character, SubgroupCharacter, _is_int, joint_kernel
from .hopfcore import (AlgebraSpec, _raw_key, antipode, antipode_order,
                       comultiply, counit, cyclotomic_to_literal,
                       hopf_axiom_check, literal_to_cyclotomic, validate_spec)
from .report import Report


class ConfigError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError instead of printing usage text and
    exiting; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


_TOP_KEYS = {"conductor", "group", "chi", "eta", "b", "c", "beta",
             "quotient", "seed"}
_REQUIRED_KEYS = ("conductor", "group", "chi", "eta", "b", "c", "beta")

# Costs grow with N: building Phi_N and its reduction table, phi(N)^2 work per
# field product (phi(420) = 96), and up to N roots of unity tried when a
# coefficient is printed.  Larger conductors are rejected rather than slow.
MAX_CONDUCTOR = 420

# One hopf-check sample of degree 8 takes under a second on the catalog
# specs u1, diff-z2 and taft, one of degree 12 up to 13 s, and the cost
# keeps growing steeply.
MAX_DEGREE = 8

# hopf-check draws and checks each sample afresh: at --max-degree 8, 1000
# samples take 15 to 25 s on the catalog specs u1, diff-z2 and taft, whose
# conductors are 2 to 12.  A sample's cost grows with the field, and near
# conductor 420 one sample of degree 8 can take minutes, so this bounds the
# count, not the run time.
MAX_SAMPLES = 1000

# The bound rests on the exact Burnside closure alone: it spans up to dim^2
# matrices, so its cost grows like dim^6, while rep_check is cheap at any
# size.  It bounds no run time.  Module commands inside every stated bound
# have been measured at minutes (CPU seconds, one 2-vCPU machine, CPython
# 3.11): Burnside took 205 s on a conjugated direct sum of dimension 8 at
# conductor 420 and 119 s on one of dimension 16, and one dimension-12
# module iso whose lift failed took 65.8 s.
MAX_MODULE_DIM = 16


class Config:
    """Validated configuration: the algebra spec, optional quotient data,
    and an optional default seed."""

    __slots__ = ("spec", "quotient", "seed")

    def __init__(self, spec: AlgebraSpec, quotient, seed):
        self.spec = spec
        self.quotient = quotient
        self.seed = seed


def _exponent_vector(data, key, length):
    value = data[key]
    if (not isinstance(value, list) or len(value) != length
            or not all(_is_int(v) for v in value)):
        raise ConfigError(f"config key '{key}' must be a list of {length} "
                          f"integer(s), one per group generator")
    return value


def config_from_dict(data) -> Config:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise ConfigError(f"missing config key '{key}'")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    conductor = data["conductor"]
    if not _is_int(conductor) or not 1 <= conductor <= MAX_CONDUCTOR:
        raise ConfigError(f"config key 'conductor' must be an integer in "
                          f"[1, {MAX_CONDUCTOR}]")

    gdata = data["group"]
    if not isinstance(gdata, dict):
        raise ConfigError("config key 'group' must be an object with "
                          "'free_rank' and 'torsion'")
    for key in ("free_rank", "torsion"):
        if key not in gdata:
            raise ConfigError(f"group section missing key '{key}'")
    unknown = sorted(set(gdata) - {"free_rank", "torsion"})
    if unknown:
        raise ConfigError(f"unknown group key(s): {', '.join(unknown)}")
    free_rank = gdata["free_rank"]
    torsion = gdata["torsion"]
    if not _is_int(free_rank) or free_rank < 0:
        raise ConfigError("group key 'free_rank' must be a non-negative integer")
    if not isinstance(torsion, list) or not all(_is_int(t) for t in torsion):
        raise ConfigError("group key 'torsion' must be a list of integers")
    if any(t < 2 for t in torsion):
        raise ConfigError("torsion orders must be >= 2")
    group = AbelianGroup(free_rank, tuple(torsion))

    chi = Character(group, conductor, _exponent_vector(data, "chi", group.ngens))
    eta = Character(group, conductor, _exponent_vector(data, "eta", group.ngens))
    b = group.element(_exponent_vector(data, "b", group.ngens))
    c = group.element(_exponent_vector(data, "c", group.ngens))
    try:
        beta = literal_to_cyclotomic(data["beta"], conductor)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"config key 'beta': {exc}") from exc

    spec = validate_spec(group, chi, eta, b, c, beta)

    quotient_spec = None
    if "quotient" in data:
        qdata = data["quotient"]
        if not isinstance(qdata, dict):
            raise ConfigError("config key 'quotient' must be an object with "
                              "'lambda1' and 'lambda2'")
        for key in ("lambda1", "lambda2"):
            if key not in qdata:
                raise ConfigError(f"quotient section missing key '{key}'")
        unknown = sorted(set(qdata) - {"lambda1", "lambda2"})
        if unknown:
            raise ConfigError(f"unknown quotient key(s): {', '.join(unknown)}")
        try:
            lam1 = literal_to_cyclotomic(qdata["lambda1"], conductor)
            lam2 = literal_to_cyclotomic(qdata["lambda2"], conductor)
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"quotient lambda literal: {exc}") from exc
        quotient_spec = quotient.QuotientSpec(spec, lam1, lam2)

    seed = data.get("seed")
    if seed is not None and not _is_int(seed):
        raise ConfigError("config key 'seed' must be an integer")
    return Config(spec, quotient_spec, seed)


def _json(text: str, what: str):
    """text decoded as JSON, else a ConfigError naming what.  The decoder
    recurses once per nesting level, so a deep enough nesting raises
    RecursionError; that text is invalid JSON too."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON (line {exc.lineno}, "
                          f"column {exc.colno}): {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{what} is not valid JSON: nested too deeply") from exc


def parse_config(text: str) -> Config:
    return config_from_dict(_json(text, "config"))


def _load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def _resolve_seed(flag_seed, config: Config):
    if flag_seed is not None:
        return flag_seed
    if config is not None and config.seed is not None:
        return config.seed
    env = os.environ.get("ORE_HOPF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError("ORE_HOPF_SEED must be an integer") from exc
    return 0


def _emit(status: str, facts: dict) -> None:
    print(json.dumps({"status": status, "facts": facts, "witnesses": []},
                     indent=2))


def _emit_report(report: Report) -> int:
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.passed else 1


def serialize_tensor(t) -> list:
    """Sorted [(left monomial, right monomial, coeff)] over the raw basis,
    each monomial as [group exponents, i, j]."""
    out = []
    for (k1, k2), coeff in t.terms.items():
        (g1, i1, j1), f1 = _raw_key(t.spec, k1)
        (g2, i2, j2), f2 = _raw_key(t.spec, k2)
        out.append([[list(g1.exps), i1, j1], [list(g2.exps), i2, j2],
                    cyclotomic_to_literal(coeff * f1 * f2)])
    out.sort(key=lambda row: (row[0][0], row[0][1], row[0][2],
                              row[1][0], row[1][1], row[1][2]))
    return out


# families exposed by `module build`
def _need(params: dict, family: str, *keys):
    for key in keys:
        if key not in params:
            raise ConfigError(f"family '{family}' params missing key '{key}'")
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ConfigError(f"family '{family}' got unknown param(s): "
                          f"{', '.join(unknown)}")


def _exponents(params, key, what):
    exps = params[key]
    if not isinstance(exps, list) or not all(_is_int(e) for e in exps):
        raise ConfigError(f"param '{key}' must be a list of integer exponents, {what}")
    return exps


def _group_character(spec, params, key):
    return Character(spec.group, spec.conductor,
                     _exponents(params, key, "one per group generator"))


def _kernel_character(spec, sub, params, key):
    return SubgroupCharacter(sub, spec.conductor, _exponents(
        params, key, f"one per Hermite generator of the kernel subgroup "
                     f"({len(sub.rows)} expected)"))


def _literal(spec, value, name):
    try:
        return literal_to_cyclotomic(value, spec.conductor)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"param '{name}': {exc}") from exc


def build_family_module(family: str, params: dict, spec: AlgebraSpec) -> reps.ModuleRep:
    if not isinstance(params, dict):
        raise ConfigError("--params must be a JSON object")
    if family == "torsion-char":
        _need(params, family, "lam")
        return reps.build_torsion_char(_group_character(spec, params, "lam"), spec)
    if family == "skew-vx":
        _need(params, family, "alpha", "lam")
        lam = _kernel_character(spec, spec.chi.kernel(), params, "lam")
        _check_module_dim(spec.chi.order())
        return reps.build_Vx_skew(_literal(spec, params["alpha"], "alpha"), lam, spec)
    if family == "skew-vy":
        _need(params, family, "alpha", "lam")
        lam = _kernel_character(spec, spec.eta.kernel(), params, "lam")
        _check_module_dim(spec.eta.order())
        return reps.build_Vy_skew(_literal(spec, params["alpha"], "alpha"), lam, spec)
    if family == "skew-vxy":
        _need(params, family, "alpha_x", "alpha_y", "t", "lam")
        t = params["t"]
        if not _is_int(t):
            raise ConfigError("param 't' must be an integer")
        lam = _kernel_character(spec, spec.chi.kernel(), params, "lam")
        _check_module_dim(spec.chi.order())
        return reps.build_Vxy_skew(_literal(spec, params["alpha_x"], "alpha_x"),
                                   _literal(spec, params["alpha_y"], "alpha_y"),
                                   lam, t, spec)
    if family == "induced":
        _need(params, family, "kvals", "lam")
        kvals = params["kvals"]
        if not isinstance(kvals, list) or len(kvals) != 2:
            raise ConfigError("param 'kvals' must be a list of two scalars")
        kvals = [_literal(spec, k, f"kvals[{i}]") for i, k in enumerate(kvals)]
        sub = joint_kernel([spec.chi, spec.eta])
        lam = _kernel_character(spec, sub, params, "lam")
        _check_module_dim(sub.index())
        return reps.build_induced_skew(kvals, lam, spec)
    if family == "diff-vbar":
        _need(params, family, "rho")
        rho = _group_character(spec, params, "rho")
        _check_module_dim(reps.truncation_index(rho, spec))
        return reps.build_Vbar_diff(rho, spec)
    if family in ("diff-vx", "diff-vy"):
        _need(params, family, "rho", "lam", "mu")
        rho = _group_character(spec, params, "rho")
        lam, mu = (_literal(spec, params[key], key) for key in ("lam", "mu"))
        _check_module_dim(spec.chi.order())
        build = reps.build_Vx_diff if family == "diff-vx" else reps.build_Vy_diff
        return build(rho, lam, mu, spec)
    raise ConfigError(
        f"unknown module family {family!r}; known: torsion-char, skew-vx, "
        f"skew-vy, skew-vxy, induced, diff-vbar, diff-vx, diff-vy")


def _check_module_dim(dim) -> None:
    if _is_int(dim) and dim > MAX_MODULE_DIM:
        raise ConfigError(f"module dimension {dim} exceeds the bound "
                          f"{MAX_MODULE_DIM}")


def _load_module(path: str) -> reps.ModuleRep:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read module file {path!r}: {exc}") from exc
    data = _json(text, f"module file {path!r}")
    if not isinstance(data, dict) or "config" not in data or "module" not in data:
        raise ConfigError(f"module file {path!r} must be an object with "
                          f"'config' and 'module' keys")
    if isinstance(data["module"], dict):
        _check_module_dim(data["module"].get("dim"))
    spec = config_from_dict(data["config"]).spec
    return reps.ModuleRep.from_dict(spec, data["module"])


# ---------------------------------------------------------------- commands

def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    spec = config.spec
    facts = {
        "config": spec.config_dict(),
        "mode": spec.mode.value,
        "q": cyclotomic_to_literal(spec.q),
        "antipode_order": antipode_order(spec),
    }
    if config.quotient is not None:
        facts["quotient"] = {"n": config.quotient.n, "m": config.quotient.m}
    _emit("pass", facts)
    return 0


def _element_command(args, transform) -> int:
    config = _load_config(args.config)
    elem = exprparse.parse_element(args.expr, config.spec)
    facts = {"input": args.expr}
    facts.update(transform(elem, config))
    _emit("pass", facts)
    return 0


def _cmd_nf(args) -> int:
    def transform(elem, config):
        return {"normal_form": exprparse.serialize_element(elem),
                "expression": exprparse.element_to_expr(elem)}
    return _element_command(args, transform)


def _cmd_coproduct(args) -> int:
    def transform(elem, config):
        return {"coproduct": serialize_tensor(comultiply(elem)),
                "counit": cyclotomic_to_literal(counit(elem))}
    return _element_command(args, transform)


def _cmd_antipode(args) -> int:
    if args.power < 0:
        raise ConfigError("--power must be a non-negative integer")

    def transform(elem, config):
        out = elem
        # S^ord = id, so only the power mod the order is applied
        for _ in range(args.power % antipode_order(config.spec)):
            out = antipode(out)
        return {"power": args.power,
                "result": exprparse.serialize_element(out),
                "expression": exprparse.element_to_expr(out)}
    return _element_command(args, transform)


def _check_samples(args) -> None:
    if args.samples < 1:
        raise ConfigError("--samples must be a positive integer")
    if args.samples > MAX_SAMPLES:
        raise ConfigError(f"--samples must be at most {MAX_SAMPLES}")


def _cmd_hopf_check(args) -> int:
    _check_samples(args)
    if not 0 <= args.max_degree <= MAX_DEGREE:
        raise ConfigError(f"--max-degree must be an integer in [0, {MAX_DEGREE}]")
    config = _load_config(args.config)
    seed = _resolve_seed(args.seed, config)
    report = hopf_axiom_check(config.spec, sample_count=args.samples,
                              max_degree=args.max_degree, seed=seed)
    return _emit_report(report)


def _cmd_quotient_check(args) -> int:
    _check_samples(args)
    config = _load_config(args.config)
    if config.quotient is None:
        raise ConfigError("config has no quotient section; quotient-check "
                          "needs 'quotient': {lambda1, lambda2}")
    seed = _resolve_seed(args.seed, config)
    ideal = quotient.hopf_ideal_check(config.quotient)
    facts = {"hopf_ideal": ideal.facts,
             "basis": quotient.quotient_basis(config.quotient)}
    report = Report("quotient_check", ideal.passed, facts,
                    witnesses=ideal.witnesses, seed=seed)
    return _emit_report(report)


def _cmd_module_build(args) -> int:
    config = _load_config(args.config)
    params = _json(args.params, "--params")
    module = build_family_module(args.family, params, config.spec)
    payload = {"config": config.spec.config_dict(),
               "family": args.family,
               "params": params,
               "module": module.to_dict()}
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_module_check(args) -> int:
    module = _load_module(args.file)
    return _emit_report(reps.rep_check(module, module.spec))


def _cmd_module_simple(args) -> int:
    return _emit_report(reps.is_simple_burnside(_load_module(args.file)))


def _cmd_module_iso(args) -> int:
    mod_a = _load_module(args.fileA)
    mod_b = _load_module(args.fileB)
    if mod_a.spec.fingerprint() != mod_b.spec.fingerprint():
        raise ConfigError("modules belong to different algebras "
                          "(config mismatch)")
    result = reps.are_isomorphic(mod_a, mod_b)
    facts = {"result": result.status.replace("_", " ")}
    if result.detail:
        facts["detail"] = result.detail
    if result.witness is not None:
        # the certificate T, with T A = B T for A acting on A and B on B
        facts["intertwiner"] = [[cyclotomic_to_literal(v) for v in row]
                                for row in result.witness]
    status = "pass" if result.status == "isomorphic" else "fail"
    _emit(status, facts)
    return 0 if result.status == "isomorphic" else 1


def _cmd_module_classify(args) -> int:
    module = _load_module(args.file)
    try:
        params = reps.classify_simple(module, module.spec)
    except reps.ClassifyError as exc:
        _emit("fail", {"error": str(exc)})
        return 1
    _emit("pass", {"family": params.family,
                   "parameters": params.describe(),
                   "dimension": module.dim,
                   "torsion_profile": reps.torsion_profile(module)})
    return 0


def _cmd_catalog(args) -> int:
    if args.name is None:
        _emit("pass", {"entries": catalog.catalog_names()})
        return 0
    entry = catalog.catalog_entry(args.name)
    out = entry.report.to_dict()
    out["facts"]["name"] = entry.name
    out["facts"]["spec"] = entry.spec.config_dict()
    print(json.dumps(out, indent=2))
    return 0 if entry.report.passed else 1


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="orehopf",
        description="Exact Hopf algebra computations for iterated Ore "
                    "extensions of abelian group algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a config and report the "
                                        "derived algebra data")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("nf", help="normalize an element expression")
    p.add_argument("config")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("coproduct", help="coproduct and counit of an element")
    p.add_argument("config")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_coproduct)

    p = sub.add_parser("antipode", help="iterated antipode of an element")
    p.add_argument("config")
    p.add_argument("expr")
    p.add_argument("--power", type=int, default=1)
    p.set_defaults(func=_cmd_antipode)

    p = sub.add_parser("hopf-check", help="randomized Hopf axiom verification")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_hopf_check)

    p = sub.add_parser("quotient-check", help="Hopf ideal certificate and "
                                              "basis of the quotient in the config")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=20,
                   help="accepted for compatibility and unused")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_quotient_check)

    p = sub.add_parser("module", help="finite-dimensional module operations")
    msub = p.add_subparsers(dest="module_command", required=True)

    m = msub.add_parser("build", help="build a module from family parameters; "
                                      "emits a self-contained module file")
    m.add_argument("family")
    m.add_argument("config")
    m.add_argument("--params", required=True,
                   help="family parameters as a JSON object")
    m.set_defaults(func=_cmd_module_build)

    m = msub.add_parser("check", help="verify the defining relations")
    m.add_argument("file")
    m.set_defaults(func=_cmd_module_check)

    m = msub.add_parser("simple", help="Burnside simplicity certificate")
    m.add_argument("file")
    m.set_defaults(func=_cmd_module_simple)

    m = msub.add_parser("iso", help="decide isomorphism of two modules")
    m.add_argument("fileA")
    m.add_argument("fileB")
    m.set_defaults(func=_cmd_module_iso)

    m = msub.add_parser("classify", help="identify the family and parameters "
                                         "of a simple module")
    m.add_argument("file")
    m.set_defaults(func=_cmd_module_classify)

    p = sub.add_parser("catalog", help="build a named catalog entry and run "
                                       "its fact checks")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    return parser


def _run(argv) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        _emit("error", {"error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run one command.  Standard output is flushed here, so that a reader
    that closed it early is an error (exit 2) and not a traceback."""
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would fail again: point stdout at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output is closed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
