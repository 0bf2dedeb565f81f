"""Parser for the element expression language used by the CLI.

Grammar (whitespace insignificant):

    expr  := term (('+' | '-') term)*
    term  := coeff* atom*          (factors optionally separated by '*')
    atom  := ident ('^' int)?      ident in {g1..gk, x, y, z}
    coeff := rational ('3', '-2/5') | 'zeta' ('^' int)?

'zeta' denotes the canonical root of unity of the spec's conductor.
Coefficients must precede generator atoms inside a term.  Results are
normalized to PBW form.  The exponents of x, y and z in one term add up to
at most MAX_TERM_DEGREE; group and zeta exponents are unbounded, since they
reduce exactly.
"""

from fractions import Fraction

from .cyclotomic import Cyclotomic, root_of_unity
from .hopfcore import AlgebraSpec, HopfElem


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


_OPS = set("+-*^")

# the coproduct of x^16 y^16 (289 tensor terms) takes about a second
MAX_TERM_DEGREE = 32


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == "/":
                j = i + 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("expected digits after '/'", i)
                i = j
                while i < n and text[i].isdigit():
                    i += 1
            try:
                tokens.append(("num", Fraction(text[start:i]), start))
            except ZeroDivisionError:
                raise ParseError("zero denominator", start) from None
            continue
        if ch.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, spec: AlgebraSpec):
        self.tokens = tokens
        self.pos = 0
        self.spec = spec

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect_int(self, context: str) -> int:
        sign = 1
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.next()
            sign = -1
        tok = self.next()
        if tok is None or tok[0] != "num" or tok[1].denominator != 1:
            where = tok[2] if tok else (self.tokens[-1][2] + 1 if self.tokens else 0)
            raise ParseError(f"expected an integer exponent after {context}", where)
        return sign * int(tok[1])

    def parse(self) -> HopfElem:
        result = self.parse_term_signed()
        while True:
            tok = self.peek()
            if tok is None:
                return result
            if tok[0] == "op" and tok[1] in "+-":
                self.next()
                term = self.parse_term()
                result = result + term if tok[1] == "+" else result - term
            else:
                raise ParseError("expected '+' or '-' between terms", tok[2])

    def parse_term_signed(self) -> HopfElem:
        tok = self.peek()
        negate = False
        if tok is not None and tok[0] == "op" and tok[1] in "+-":
            self.next()
            negate = tok[1] == "-"
        term = self.parse_term()
        return -term if negate else term

    def parse_term(self) -> HopfElem:
        spec = self.spec
        coeff = Cyclotomic.one(spec.conductor)
        saw_factor = False
        saw_atom = False
        result = None
        degree = 0

        def emit(elem):
            nonlocal result
            result = elem if result is None else result * elem

        while True:
            tok = self.peek()
            if tok is None or (tok[0] == "op" and tok[1] in "+-"):
                break
            if tok[0] == "op" and tok[1] == "*":
                if not saw_factor:
                    raise ParseError("'*' needs a left factor", tok[2])
                self.next()
                continue
            if tok[0] == "num":
                if saw_atom:
                    raise ParseError("coefficients must precede generators "
                                     "inside a term", tok[2])
                self.next()
                coeff = coeff * Cyclotomic.rational(spec.conductor, tok[1])
                saw_factor = True
                continue
            if tok[0] == "ident" and tok[1] == "zeta":
                if saw_atom:
                    raise ParseError("coefficients must precede generators "
                                     "inside a term", tok[2])
                self.next()
                k = 1
                nxt = self.peek()
                if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
                    self.next()
                    k = self.expect_int("'zeta^'")
                coeff = coeff * root_of_unity(spec.conductor, k)
                saw_factor = True
                continue
            if tok[0] == "ident":
                self.next()
                power = 1
                nxt = self.peek()
                if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
                    self.next()
                    power = self.expect_int(f"'{tok[1]}^'")
                if tok[1] in ("x", "y", "z") and power > 0:
                    degree += power
                    if degree > MAX_TERM_DEGREE:
                        raise ParseError(f"the x, y, z degree of a term is at most "
                                         f"{MAX_TERM_DEGREE}", tok[2])
                emit(self.atom_power(tok[1], power, tok[2]))
                saw_factor = True
                saw_atom = True
                continue
            raise ParseError("unexpected token", tok[2])

        if not saw_factor:
            where = self.tokens[self.pos][2] if self.pos < len(self.tokens) \
                else (self.tokens[-1][2] + 1 if self.tokens else 0)
            raise ParseError("empty term", where)
        base = spec.unit(coeff)
        return base if result is None else base * result

    def atom_power(self, name: str, power: int, pos: int) -> HopfElem:
        spec = self.spec
        if name.startswith("g") and name[1:].isdigit():
            k = int(name[1:]) - 1
            if not 0 <= k < spec.group.ngens:
                raise ParseError(f"unknown identifier {name!r} "
                                 f"(group has {spec.group.ngens} generators)", pos)
            return spec.group_element(spec.group.generator(k) ** power)
        if name in ("x", "y", "z"):
            if power < 0:
                raise ParseError(f"negative powers are only defined for "
                                 f"group generators, not {name!r}", pos)
            if power == 0:
                return spec.one()
            base = {"x": spec.x, "y": spec.y, "z": spec.z}[name]()
            return base ** power
        raise ParseError(f"unknown identifier {name!r}", pos)


def parse_element(text: str, spec: AlgebraSpec) -> HopfElem:
    """Parse an expression into a PBW-normalized element."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens, spec)
    return parser.parse()


def element_to_expr(elem: HopfElem) -> str:
    """Render an element in the expression grammar.

    parse_element(element_to_expr(a), spec) == a for every a.
    """
    bits = []
    for exps, i, j, coeff in elem.sorted_raw():
        atoms = []
        for k, e in enumerate(exps):
            if e != 0:
                atoms.append(f"g{k + 1}" if e == 1 else f"g{k + 1}^{e}")
        if i:
            atoms.append("x" if i == 1 else f"x^{i}")
        if j:
            atoms.append("y" if j == 1 else f"y^{j}")
        for k, r in enumerate(coeff.coeffs):
            if r == 0:
                continue
            neg = r < 0
            mag = -r if neg else r
            factors = []
            if mag != 1 or (k == 0 and not atoms):
                factors.append(str(mag))
            if k == 1:
                factors.append("zeta")
            elif k > 1:
                factors.append(f"zeta^{k}")
            factors.extend(atoms)
            bits.append(("-" if neg else "+", " * ".join(factors)))
    if not bits:
        return "0"
    out = ("-" if bits[0][0] == "-" else "") + bits[0][1]
    for sign, text in bits[1:]:
        out += f" {sign} {text}"
    return out


def serialize_element(elem: HopfElem):
    """Sorted monomial list [(group exponents, i, j, coeff literal)] over the
    raw basis."""
    from .hopfcore import cyclotomic_to_literal
    out = []
    for exps, i, j, coeff in elem.sorted_raw():
        if coeff.is_zero():
            continue
        out.append([list(exps), i, j, cyclotomic_to_literal(coeff)])
    return out
