"""Deterministic factories for sweep specs and random parameter draws."""

import random

from orehopf.abgroup import AbelianGroup, Character, SubgroupCharacter
from orehopf.cyclotomic import Cyclotomic, root_of_unity
from orehopf.hopfcore import AlgebraSpec, validate_spec
from orehopf.linalg import inverse


def skew_sweep_spec(n: int, t: int = 1) -> AlgebraSpec:
    """Skew spec over G = Z^2 with ord(chi) = n, chi(c) primitive, eta = chi^t.

    chi = [1, 0] over conductor n, c = (1, 0); b solves eta(b) = chi(c)^-1.
    gcd(t, n) = 1 keeps eta(b) primitive as well, so every skew module
    family is admissible on one spec.
    """
    import math
    if math.gcd(t, n) != 1:
        raise ValueError("t must be coprime to n")
    G = AbelianGroup(2)
    chi = Character(G, n, [1, 0])
    eta = Character(G, n, [t % n, 0])
    m = (-pow(t, -1, n)) % n
    b = G.element([m, 0])
    c = G.element([1, 0])
    return validate_spec(G, chi, eta, b, c, 0)


def diff_sweep_spec(n: int) -> AlgebraSpec:
    """Diff spec over G = Z^2, conductor 2n, with q = eta(b) primitive n-th.

    chi = [2, 0], c = (1, 1), b = (1, 0): chi(c) = zeta_2n^2 primitive n-th,
    eta = chi^-1, e = c^-1 - b nonzero, and the second generator leaves room
    for many characters rho.
    """
    N = 2 * n
    G = AbelianGroup(2)
    chi = Character(G, N, [2, 0])
    eta = Character(G, N, [N - 2, 0])
    b = G.element([1, 0])
    c = G.element([1, 1])
    return validate_spec(G, chi, eta, b, c, 1)


def quotient_sweep_spec(n: int, m: int):
    """Skew spec with ord(chi(b)) = n, ord(eta(c)) = m, and both x^n, y^m
    central: chi(c) = eta(b) = 1 via independent generators."""
    import math
    N = n * m // math.gcd(n, m)
    G = AbelianGroup(2)
    chi = Character(G, N, [N // n, 0])
    eta = Character(G, N, [0, N // m])
    b = G.element([1, 0])
    c = G.element([0, 1])
    return validate_spec(G, chi, eta, b, c, 0)


def audit_spec(n: int) -> AlgebraSpec:
    """The torsion-module example spec: G = Z^2 = <b, c>,
    chi(b) = chi(c) = q^-1, eta = chi^-1, beta = 1."""
    G = AbelianGroup(2)
    chi = Character(G, n, [n - 1, n - 1])
    eta = Character(G, n, [1, 1])
    b = G.element([1, 0])
    c = G.element([0, 1])
    return validate_spec(G, chi, eta, b, c, 1)


def random_scalar(rng: random.Random, conductor: int,
                  nonzero: bool = False) -> Cyclotomic:
    """Random small element of Q(zeta_N): rational +- zeta powers."""
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
    """Random character of a kernel subgroup, retried until well-defined
    on the torsion relations."""
    while True:
        exps = [rng.randrange(spec.conductor) for _ in range(len(sub.rows))]
        try:
            return SubgroupCharacter(sub, spec.conductor, exps)
        except ValueError:
            continue


def random_invertible(dim: int, conductor: int, rng: random.Random):
    """Random invertible matrix with small rational entries."""
    while True:
        T = [[Cyclotomic.rational(conductor, rng.randint(-2, 2))
              for _ in range(dim)] for _ in range(dim)]
        if inverse(T) is not None:
            return T


def random_monomial(dim: int, conductor: int, rng: random.Random):
    """Random permutation matrix times an invertible diagonal one, entries
    in +-{1, 2, 3}: conjugating by it keeps a diagonal matrix diagonal."""
    perm = list(range(dim))
    rng.shuffle(perm)
    zero = Cyclotomic.zero(conductor)
    T = [[zero] * dim for _ in range(dim)]
    for i, j in enumerate(perm):
        T[i][j] = Cyclotomic.rational(conductor, rng.choice([-3, -2, -1, 1, 2, 3]))
    return T
