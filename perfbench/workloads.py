"""The benchmark's workloads: seeded set-up, cycles of ops, and per-op checks.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned.  Ops come in cycles whose make-up (how many
ops of each kind and size) is fixed; the seed draws the parameters.  A run
is a whole number of cycles, so every run sees the same mix.

An op returns True when its verdict equals the answer known by
construction; the reference is never one of the library's closed forms.
Import this module after ``Tracer.install()`` so the names bound below are
the traced ones.
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys

from orehopf.abgroup import Character, char_kernel
from orehopf.catalog import catalog_entry
from orehopf.cyclotomic import Cyclotomic
from orehopf.hopfcore import hopf_axiom_check, random_element
from orehopf.quotient import QuotientElem, QuotientSpec, hopf_ideal_check, q_multiply
from orehopf.reps import (are_isomorphic, build_torsion_char, build_Vbar_diff,
                          build_Vx_diff, build_Vx_skew, build_Vxy_skew,
                          build_Vy_diff, build_Vy_skew, classify_simple,
                          conjugate, direct_sum, is_simple_burnside, rep_check,
                          truncation_index)

from inputs import (diff_sweep_spec, quotient_sweep_spec, random_group_char,
                    random_kernel_char, random_scalar, random_term_expr,
                    skew_sweep_spec, unimodular_matrix)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AXIOM_CHECKS = {"coassociativity", "counit", "antipode",
                "delta_multiplicative", "counit_multiplicative"}


def cycle_rng(seed: int, workload: str, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


# ---------------------------------------------------------------------------
# hopf-axioms


def sample_size(spec, sample_seed: int) -> int:
    """Expected cost of ``hopf_axiom_check(spec, sample_count=1, seed=s)``.

    The check draws a and b with ``random_element(spec, Random(s), 3)``,
    expands the coproduct of a and multiplies a by b; with
    s(e) = sum over the terms x^i w^j of e of (i+1)(j+1), the cost grows
    like s(a)^2 + s(a)s(b) (rank correlation 0.8-0.9 with time).
    """
    rng = random.Random(sample_seed)
    a, b = (sum((i + 1) * (j + 1) for _, i, j in
                random_element(spec, rng, max_degree=3).terms) for _ in range(2))
    return a * a + a * b


class HopfAxioms:
    """Sampled Hopf-axiom checks on four catalog specs, both modes and
    phi(N) in {1, 2, 4}, plus a minority of quotient ops."""

    name = "hopf-axioms"
    SPECS = ("u1", "skew-z2", "diff-z2", "taft")
    # per spec and cycle, one axiom sample near each of these points of the
    # spec's sample-size distribution, so every cycle costs about the same.
    # The points are dense around the middle to steady the median op.  Six
    # large taft samples (about 18% of the ops, nearly always the slowest)
    # hold the 90th percentile in their middle, not on the edge between
    # kinds of op whose costs vary independently from seed to seed.
    SIZE_POINTS = {"u1": (0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9),
                   "skew-z2": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
                   "diff-z2": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
                   "taft": (0.2, 0.5) + (0.8,) * 6}
    CALIBRATION_SAMPLES = 100
    CANDIDATES = 96
    IDEAL_OPS = 2
    ASSOC_OPS = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = {name: catalog_entry(name).spec for name in self.SPECS}
        self.quotient_specs = {(n, m): quotient_sweep_spec(n, m)
                               for n in (2, 3, 4) for m in (2, 3, 4)}
        # fixed calibration seeds, so the targets do not depend on --seed
        self.targets = {}
        for name, spec in self.specs.items():
            rng = random.Random(f"{self.name}:calibration:{name}")
            sizes = sorted(sample_size(spec, rng.randrange(2 ** 31))
                           for _ in range(self.CALIBRATION_SAMPLES))
            self.targets[name] = [sizes[int(p * len(sizes))]
                                  for p in self.SIZE_POINTS[name]]

    def cycle(self, index: int):
        rng = cycle_rng(self.seed, self.name, index)
        ops = []
        for name in self.SPECS:
            spec = self.specs[name]
            # each target takes the nearest sample seed left in the pool
            pool = {}
            for _ in range(self.CANDIDATES):
                s = rng.randrange(2 ** 31)
                pool[s] = sample_size(spec, s)
            for target in self.targets[name]:
                best = min(pool, key=lambda s: abs(math.log(pool[s] / target)))
                del pool[best]
                ops.append((f"axiom:{name}", self._axiom_op(spec, best)))
        for _ in range(self.IDEAL_OPS):
            ops.append(("ideal", self._ideal_op(*self._quotient(rng))))
        for _ in range(self.ASSOC_OPS):
            ops.append(("assoc", self._assoc_op(rng, *self._quotient(rng))))
        rng.shuffle(ops)
        return ops

    def _quotient(self, rng):
        n, m = rng.choice((2, 3, 4)), rng.choice((2, 3, 4))
        spec = self.quotient_specs[(n, m)]
        lam = (random_scalar(rng, spec.conductor), random_scalar(rng, spec.conductor))
        return n, m, spec, lam

    @staticmethod
    def _axiom_op(spec, sample_seed):
        def op():
            report = hopf_axiom_check(spec, sample_count=1, seed=sample_seed)
            return (report.passed and not report.witnesses
                    and report.facts["samples"] == 1
                    and report.facts["checks"] == dict.fromkeys(AXIOM_CHECKS, 1))
        return op

    @staticmethod
    def _ideal_op(n, m, spec, lam):
        def op():
            report = hopf_ideal_check(QuotientSpec(spec, *lam))
            return report.passed and report.facts["n"] == n and report.facts["m"] == m
        return op

    @staticmethod
    def _assoc_op(rng, n, m, spec, lam):
        G = spec.group

        def element():
            return {(G.element([rng.randint(-2, 2), rng.randint(-2, 2)]),
                     rng.randrange(n), rng.randrange(m)):
                    random_scalar(rng, spec.conductor, nonzero=True)
                    for _ in range(3)}
        terms = [element() for _ in range(3)]

        def op():
            qs = QuotientSpec(spec, *lam)
            a, b, c = (QuotientElem(qs, t) for t in terms)
            return q_multiply(q_multiply(a, b, qs), c, qs) \
                == q_multiply(a, q_multiply(b, c, qs), qs)
        return op

    def close(self):
        pass


# ---------------------------------------------------------------------------
# module-sweep


class ModuleSweep:
    """Simple modules of all seven families on skew and diff sweep specs with
    n in {2, 3, 4}, each run through rep_check, Burnside, classification of
    the module and of a conjugate, and two isomorphism decisions."""

    name = "module-sweep"
    # per cycle: every family at n = 2 and n = 3, one family at n = 4
    # (rotating with the cycle index, so six cycles hold each once), and
    # cheap ops.  The counts put the median op among the n = 2 modules and
    # the 90th percentile in the middle of the n = 3 block, away from the
    # edges between blocks, whose costs vary independently with the seed.
    SKEW = ("SkewVx", "SkewVy", "SkewVxy")
    DIFF = ("DiffVbar", "DiffVx", "DiffVy")
    # a module's partner has the same dimension and a different torsion
    # profile, so it is not isomorphic by construction
    PARTNER = {"SkewVx": "SkewVy", "SkewVy": "SkewVxy", "SkewVxy": "SkewVx",
               "DiffVbar": "DiffVx", "DiffVx": "DiffVy", "DiffVy": "DiffVbar"}

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = {}
        for n in (2, 3, 4):
            for t in sorted({1, n - 1}):
                self.specs[("skew", n, t)] = skew_sweep_spec(n, t)
            self.specs[("diff", n)] = diff_sweep_spec(n)
        # rho with a full-length torsion module: truncation index n
        self.full_rhos = {}
        for n in (2, 3, 4):
            spec = self.specs[("diff", n)]
            N = spec.conductor
            chars = (Character(spec.group, N, [a, b]) for a in range(N) for b in range(N))
            self.full_rhos[n] = [rho for rho in chars if truncation_index(rho, spec) == n]

    def strata(self, index: int):
        out = [("TorsionChar", n) for n in (2, 3, 4) for _ in range(2)]
        out += [("control", n) for n in (1, 1, 2, 2)]
        out += [(fam, 2) for fam in self.SKEW for _ in range(3)]
        out += [(fam, 2) for fam in self.DIFF for _ in range(5)]
        out += [(fam, 3) for fam in self.SKEW + self.DIFF]
        out += [((self.SKEW + self.DIFF)[index % 6], 4)]
        return out

    def cycle(self, index: int):
        rng = cycle_rng(self.seed, self.name, index)
        ops = []
        for family, n in self.strata(index):
            if family == "control":
                ops.append((f"control:{n}", self._control_op(rng, n)))
            else:
                ops.append((f"{family}:{n}", self._module_op(rng, family, n)))
        rng.shuffle(ops)
        return ops

    def _skew_spec(self, rng, n):
        t = rng.choice(sorted({1, n - 1}))
        return self.specs[("skew", n, t)], t

    def _build(self, rng, family, n, spec, t=1):
        N = spec.conductor
        if family == "TorsionChar":
            return build_torsion_char(random_group_char(rng, spec), spec)
        if family == "SkewVx":
            return build_Vx_skew(random_scalar(rng, N, nonzero=True),
                                 random_kernel_char(rng, spec, char_kernel(spec.chi)), spec)
        if family == "SkewVy":
            return build_Vy_skew(random_scalar(rng, N, nonzero=True),
                                 random_kernel_char(rng, spec, char_kernel(spec.eta)), spec)
        if family == "SkewVxy":
            return build_Vxy_skew(random_scalar(rng, N, nonzero=True),
                                  random_scalar(rng, N, nonzero=True),
                                  random_kernel_char(rng, spec, char_kernel(spec.chi)),
                                  t, spec)
        if family == "DiffVbar":
            return build_Vbar_diff(rng.choice(self.full_rhos[n]), spec)
        zero = Cyclotomic.zero(N)
        if family == "DiffVx":
            # mu = 0: x invertible, z strictly upper triangular (nilpotent)
            return build_Vx_diff(random_group_char(rng, spec),
                                 random_scalar(rng, N, nonzero=True), zero, spec)
        # DiffVy with lam = 0: z invertible, x nilpotent
        return build_Vy_diff(random_group_char(rng, spec), zero,
                             random_scalar(rng, N, nonzero=True), spec)

    def _module_op(self, rng, family, n):
        if family.startswith("Diff"):
            spec, t = self.specs[("diff", n)], 1
        else:
            spec, t = self._skew_spec(rng, n)
        module = self._build(rng, family, n, spec, t)
        if family == "TorsionChar":
            # no other family has dimension 1 on a skew spec: the partner is
            # a one-dimensional module with another character
            while True:
                partner = self._build(rng, family, n, spec, t)
                if partner.group_mats != module.group_mats:
                    break
        else:
            partner = self._build(rng, self.PARTNER[family], n, spec, t)
        T = unimodular_matrix(rng, module.dim, spec.conductor)
        dim2 = module.dim * module.dim

        def op():
            if not rep_check(module, spec).passed:
                return False
            burnside = is_simple_burnside(module)
            if not burnside.passed or burnside.facts["span_dimension"] != dim2:
                return False
            if classify_simple(module, spec).family != family:
                return False
            conj = conjugate(module, T)
            if classify_simple(conj, spec).family != family:
                return False
            return (are_isomorphic(module, conj).status == "isomorphic"
                    and are_isomorphic(module, partner).status == "not_isomorphic")
        return op

    def _control_op(self, rng, n):
        """A direct sum of two simple modules of dimension n (1 or 2) on a
        skew spec is never simple."""
        if n == 1:
            spec, _ = self._skew_spec(rng, 2)
            parts = [self._build(rng, "TorsionChar", 2, spec) for _ in range(2)]
        else:
            spec, t = self._skew_spec(rng, 2)
            parts = [self._build(rng, rng.choice(self.SKEW), 2, spec, t)
                     for _ in range(2)]

        def op():
            total = direct_sum(*parts)
            burnside = is_simple_burnside(total)
            return (rep_check(total, spec).passed and not burnside.passed
                    and burnside.facts["span_dimension"] < total.dim ** 2)
        return op

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli


def skew_config(n: int, t: int = 1) -> dict:
    """Config of ``skew_sweep_spec(n, t)`` in the CLI format."""
    return {"conductor": n, "group": {"free_rank": 2, "torsion": []},
            "chi": [1, 0], "eta": [t % n, 0], "b": [(-pow(t, -1, n)) % n, 0],
            "c": [1, 0], "beta": 0}


def diff_config(n: int) -> dict:
    """Config of ``diff_sweep_spec(n)`` in the CLI format."""
    N = 2 * n
    return {"conductor": N, "group": {"free_rank": 2, "torsion": []},
            "chi": [2, 0], "eta": [N - 2, 0], "b": [1, 0], "c": [1, 1], "beta": 1}


def quotient_config(n: int, m: int, lam1: int, lam2: int) -> dict:
    """Config of ``quotient_sweep_spec(n, m)`` with a quotient section."""
    N = n * m // math.gcd(n, m)
    return {"conductor": N, "group": {"free_rank": 2, "torsion": []},
            "chi": [N // n, 0], "eta": [0, N // m], "b": [1, 0], "c": [0, 1],
            "beta": 0, "quotient": {"lambda1": lam1, "lambda2": lam2}}


U1_CONFIG = {"conductor": 2, "group": {"free_rank": 1, "torsion": []},
             "chi": [1], "eta": [1], "b": [1], "c": [1], "beta": -1}


def cli_env() -> dict:
    """Environment for CLI children: the repository's src on the path."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("ORE_HOPF_SEED", None)
    return env


def write_json(directory, name, data) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def probe_known_violations(work_dir) -> dict:
    """Inputs that broke the CLI contract when the benchmark was written.

    Each must exit 2 with one JSON object and no traceback.  They run once
    per run, after the loop and outside the op count, through the plain
    ``python -m orehopf.cli``.  Returns {name: True when the contract holds}.
    """
    big = dict(U1_CONFIG, conductor=1000, eta=[999], beta=0)
    cases = {
        "conductor-1000": ["validate", write_json(work_dir, "probe-big.json", big)],
        "conductor-bool": ["validate", write_json(
            work_dir, "probe-bool.json", dict(U1_CONFIG, conductor=True, beta=0))],
        "negative-samples": ["hopf-check", write_json(
            work_dir, "probe-u1.json", U1_CONFIG), "--samples", "-3"],
    }
    out = {}
    for name, argv in cases.items():
        try:
            proc = subprocess.run([sys.executable, "-m", "orehopf.cli"] + argv,
                                  capture_output=True, text=True, env=cli_env(),
                                  cwd=ROOT, timeout=Cli.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out[name] = False
            continue
        out[name] = contract_holds(proc.returncode, proc.stdout, proc.stderr,
                                   2, "error", None)
    return out


class Cli:
    """One-shot ``python -m orehopf.cli`` subprocess calls covering every
    subcommand, on config and module files written during set-up.

    Three calls per cycle build a catalog entry with its ten-sample axiom
    check (u1, skew-z2, diff-z2; about five plain calls each).  They are
    13% of the calls, so the 90th percentile falls among them and not in
    the jittery upper tail of the plain calls."""

    name = "cli"
    TIMEOUT_S = 120

    def __init__(self, seed: int, launcher=None, trace_dir=None):
        self.seed = seed
        self.launcher = launcher
        self.trace_dir = trace_dir
        self.calls = 0
        self.work = os.path.join(ROOT, "perfbench", "out", f"cli-work-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        try:
            self._setup()
        except BaseException:
            self.close()
            raise

    def _setup(self):
        self.env = cli_env()
        rng = random.Random(f"{self.name}:{self.seed}:setup")
        spec = skew_sweep_spec(3)
        chars = [build_torsion_char(random_group_char(rng, spec), spec) for _ in range(2)]
        self.files = {
            "u1": self._write("u1.json", U1_CONFIG),
            "unknown-key": self._write("unknown-key.json",
                                       dict(skew_config(3), colour="blue")),
            "sum": self._write("sum.json", {"config": skew_config(3),
                                            "module": direct_sum(*chars).to_dict()}),
        }
        # one variant per mode, both with two-dimensional modules so that
        # every cycle costs about the same; cycles alternate between them
        self.variants = [self._variant(rng, mode, 2) for mode in ("skew", "diff")]

    def _write(self, name, data):
        return write_json(self.work, name, data)

    def _variant(self, rng, mode, n):
        """Config, module files and build params for one (mode, n)."""
        tag = f"{mode}{n}"
        if mode == "skew":
            cfg, spec = skew_config(n), skew_sweep_spec(n)
            alpha = rng.randint(1, 3)
            lam = random_kernel_char(rng, spec, char_kernel(spec.chi))
            module = build_Vx_skew(Cyclotomic.rational(n, alpha), lam, spec)
            partner = build_Vy_skew(random_scalar(rng, n, nonzero=True),
                                    random_kernel_char(rng, spec, char_kernel(spec.eta)),
                                    spec)
            build = ("skew-vx", {"alpha": alpha, "lam": list(lam.exps)})
            family = "SkewVx"
        else:
            cfg, spec = diff_config(n), diff_sweep_spec(n)
            rho = random_group_char(rng, spec)
            lam = rng.randint(1, 3)
            module = build_Vx_diff(rho, Cyclotomic.rational(spec.conductor, lam),
                                   Cyclotomic.zero(spec.conductor), spec)
            partner = build_Vy_diff(random_group_char(rng, spec),
                                    Cyclotomic.zero(spec.conductor),
                                    random_scalar(rng, spec.conductor, nonzero=True),
                                    spec)
            build = ("diff-vx", {"rho": list(rho.exps), "lam": lam, "mu": 0})
            family = "DiffVx"
        T = unimodular_matrix(rng, module.dim, spec.conductor)
        files = {"config": self._write(f"{tag}.json", cfg)}
        for key, mod in (("module", module), ("conj", conjugate(module, T)),
                         ("partner", partner)):
            files[key] = self._write(f"{tag}-{key}.json",
                                     {"config": cfg, "module": mod.to_dict()})
        files["quotient"] = self._write(
            f"{tag}-quotient.json",
            quotient_config(rng.choice((2, 3)), rng.choice((2, 3)),
                            rng.randint(-2, 2), rng.randint(-2, 2)))
        return {"files": files, "build": build, "family": family, "dim": module.dim,
                "ngens": spec.group.ngens}

    def cycle(self, index: int):
        """One call per subcommand, plus calls that must exit 1 or 2."""
        rng = cycle_rng(self.seed, self.name, index)
        v = self.variants[index % len(self.variants)]
        f = v["files"]
        expr = random_term_expr(rng, v["ngens"])
        family, params = v["build"]
        dim2 = v["dim"] ** 2
        # (label, argv, expected exit code, expected status, fact check)
        script = [
            ("validate", ["validate", f["config"]], 0, "pass",
             lambda o: o["facts"]["mode"] in ("SkewGroupRing", "DifferentialOperator")),
            ("validate-u1", ["validate", self.files["u1"]], 0, "pass", None),
            ("nf", ["nf", f["config"], expr], 0, "pass", None),
            ("coproduct", ["coproduct", f["config"], random_term_expr(rng, v["ngens"], 1, 2)],
             0, "pass", None),
            ("antipode", ["antipode", f["config"], random_term_expr(rng, v["ngens"], 1, 2),
                          "--power", str(rng.randint(1, 2))], 0, "pass", None),
            ("hopf-check", ["hopf-check", f["config"], "--samples", "1",
                            "--max-degree", "1", "--seed", str(rng.randrange(10 ** 6))],
             0, "pass", lambda o: o["facts"]["samples"] == 1),
            ("quotient-check", ["quotient-check", f["quotient"], "--samples", "3",
                                "--seed", str(rng.randrange(10 ** 6))], 0, "pass", None),
            ("module-build", ["module", "build", family, f["config"],
                              "--params", json.dumps(params)], 0, None,
             lambda o: o["module"]["dim"] == v["dim"]),
            ("module-check", ["module", "check", f["module"]], 0, "pass", None),
            ("module-simple", ["module", "simple", f["conj"]], 0, "pass",
             lambda o: o["facts"]["span_dimension"] == dim2),
            ("module-iso", ["module", "iso", f["module"], f["conj"]], 0, "pass", None),
            ("module-iso-partner", ["module", "iso", f["module"], f["partner"]], 1, "fail",
             None),
            ("module-classify", ["module", "classify", f["conj"]], 0, "pass",
             lambda o: o["facts"]["family"] == v["family"]),
            ("module-classify-sum", ["module", "classify", self.files["sum"]], 1, "fail",
             None),
            ("catalog", ["catalog"], 0, "pass",
             lambda o: "u1" in o["facts"]["entries"]),
            ("catalog-u1", ["catalog", "u1"], 0, "pass", None),
            ("catalog-skew-z2", ["catalog", "skew-z2"], 0, "pass", None),
            ("catalog-diff-z2", ["catalog", "diff-z2"], 0, "pass", None),
            ("catalog-taft", ["catalog", "taft"], 0, "pass", None),
            ("nf-parse-error", ["nf", f["config"], expr + " +"], 2, "error", None),
            ("module-unknown-family", ["module", "build", "no-such-family", f["config"],
                                       "--params", "{}"], 2, "error", None),
            ("validate-unknown-key", ["validate", self.files["unknown-key"]], 2, "error",
             None),
            ("catalog-unknown", ["catalog", "no-such-entry"], 2, "error", None),
        ]
        return [(label, self._call_op(argv, code, status, check))
                for label, argv, code, status, check in script]

    def run_cli(self, argv):
        """One CLI process; returns (exit code, stdout, stderr)."""
        self.calls += 1
        env = self.env
        if self.launcher:
            cmd = [sys.executable, self.launcher] + argv
            env = dict(env, PERFBENCH_OP=str(self.calls - 1),
                       PERFBENCH_TRACE_OUT=os.path.join(self.trace_dir,
                                                        f"call-{self.calls:05d}"))
        else:
            cmd = [sys.executable, "-m", "orehopf.cli"] + argv
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=self.TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def _call_op(self, argv, code, status, check):
        def op():
            rc, out, err = self.run_cli(argv)
            return contract_holds(rc, out, err, code, status, check)
        return op

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def contract_holds(rc, stdout, stderr, code, status, check) -> bool:
    """Exactly one JSON object on stdout, the expected exit code and status,
    no traceback on stderr, and the fact check if any."""
    if rc != code or "Traceback" in stderr:
        return False
    try:
        obj = json.loads(stdout)
    except ValueError:
        return False
    if not isinstance(obj, dict):
        return False
    if obj.get("status") != status:
        return False
    return check is None or bool(check(obj))


WORKLOADS = {cls.name: cls for cls in (HopfAxioms, ModuleSweep, Cli)}
