"""Seeded input factories for the benchmark.

The spec and parameter factories are copies of the sweep factories the
test-suite uses, kept here so that a change to the tests cannot move the
benchmark's inputs.  Everything takes an explicit ``random.Random``; the
same seed gives the same inputs.
"""

import math
import random

from orehopf.abgroup import AbelianGroup, Character, SubgroupCharacter
from orehopf.cyclotomic import Cyclotomic, root_of_unity
from orehopf.hopfcore import AlgebraSpec, validate_spec


def skew_sweep_spec(n: int, t: int = 1) -> AlgebraSpec:
    """Skew spec over G = Z^2 with ord(chi) = n, chi(c) primitive, eta = chi^t."""
    if math.gcd(t, n) != 1:
        raise ValueError("t must be coprime to n")
    G = AbelianGroup(2)
    chi = Character(G, n, [1, 0])
    eta = Character(G, n, [t % n, 0])
    m = (-pow(t, -1, n)) % n
    return validate_spec(G, chi, eta, G.element([m, 0]), G.element([1, 0]), 0)


def diff_sweep_spec(n: int) -> AlgebraSpec:
    """Diff spec over G = Z^2, conductor 2n, with q = eta(b) primitive n-th."""
    N = 2 * n
    G = AbelianGroup(2)
    chi = Character(G, N, [2, 0])
    eta = Character(G, N, [N - 2, 0])
    return validate_spec(G, chi, eta, G.element([1, 0]), G.element([1, 1]), 1)


def quotient_sweep_spec(n: int, m: int) -> AlgebraSpec:
    """Skew spec with ord(chi(b)) = n, ord(eta(c)) = m and chi(c) = eta(b) = 1,
    so x^n and y^m are central and every (lambda1, lambda2) is admissible."""
    N = n * m // math.gcd(n, m)
    G = AbelianGroup(2)
    chi = Character(G, N, [N // n, 0])
    eta = Character(G, N, [0, N // m])
    return validate_spec(G, chi, eta, G.element([1, 0]), G.element([0, 1]), 0)


def random_scalar(rng: random.Random, conductor: int,
                  nonzero: bool = False) -> Cyclotomic:
    """Random small element of Q(zeta_N): a rational plus maybe a zeta power."""
    while True:
        value = Cyclotomic.rational(conductor, rng.randint(-3, 3))
        if rng.random() < 0.6:
            value = value + root_of_unity(conductor, rng.randrange(conductor))
        if not (nonzero and value.is_zero()):
            return value


def random_group_char(rng: random.Random, spec) -> Character:
    return Character(spec.group, spec.conductor,
                     [rng.randrange(spec.conductor)
                      for _ in range(spec.group.ngens)])


def random_kernel_char(rng: random.Random, spec, sub) -> SubgroupCharacter:
    """Random character of a kernel subgroup, retried until well-defined."""
    while True:
        exps = [rng.randrange(spec.conductor) for _ in range(len(sub.rows))]
        try:
            return SubgroupCharacter(sub, spec.conductor, exps)
        except ValueError:
            continue


def unimodular_matrix(rng: random.Random, dim: int, conductor: int):
    """L*U with L unit lower and U unit upper triangular, small integer
    entries: invertible by construction (determinant 1)."""
    L = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0)
          for j in range(dim)] for i in range(dim)]
    U = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0)
          for j in range(dim)] for i in range(dim)]
    return [[Cyclotomic.rational(conductor,
                                 sum(L[i][k] * U[k][j] for k in range(dim)))
             for j in range(dim)] for i in range(dim)]


def random_term_expr(rng: random.Random, ngens: int, max_degree: int = 2,
                     max_terms: int = 3) -> str:
    """Random element expression in the CLI grammar, e.g. '2 x^2 g1^-1 - y'."""
    terms = []
    for k in range(rng.randint(1, max_terms)):
        coeff = rng.choice(["", "2", "1/2", "3", "zeta", "zeta^2"])
        atoms = [coeff] if coeff else []
        for name, top in (("x", max_degree), ("y", max_degree)):
            power = rng.randint(0, top)
            if power:
                atoms.append(name if power == 1 else f"{name}^{power}")
        g = rng.randrange(ngens)
        e = rng.randint(-2, 2)
        if e:
            atoms.append(f"g{g + 1}^{e}")
        text = " ".join(atoms) or "1"
        sign = " - " if k and rng.random() < 0.3 else " + "
        terms.append(text if not k else sign + text)
    return "".join(terms)
