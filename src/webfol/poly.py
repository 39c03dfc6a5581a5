"""Exact sparse multivariate polynomials over the rationals.

A polynomial in ``nvars`` variables is stored as one positive rational
content times a primitive integer polynomial: a finite map from packed
monomials (one ``int`` each, below) to nonzero ``int`` coefficients whose
gcd is 1.

    3/2*x0^2*x1 - 3  ->  content Fraction(3, 2), {key(2, 1): 1, key(0, 0): -2}

This form is unique (the zero polynomial is the empty map with content 1),
so identity of polynomials is literal equality of variable count, content
and term map.  Ring operations work on the ``int`` coefficients and touch
the content once: by Gauss's lemma a product of primitive polynomials is
primitive, so only sums need a gcd.  Results of ring operations are built
by a trusted constructor; the public constructor validates its input.
Every coefficient handed out (``terms``, ``coefficient``, ``leading_term``,
``evaluate``, rendering and JSON) is a ``fractions.Fraction``.

Everything is exact: no floating point appears anywhere, and all normal
forms are deterministic.  The canonical term order is graded lexicographic
with x0 < x1 < ... (compare total degree first, then the exponent vector
read from the last variable down).  Serialisation lists terms in descending
canonical order with numerators and denominators as decimal strings, read
back, like every number that arrives as text, by ``read_int``.

Monomials are graded packed exponent vectors (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  In n variables, with fields of W = 32 bits, x^e is

    key(e) = deg << (n*W) | e_{n-1} << ((n-1)*W) | ... | e_1 << W | e_0

with the total degree deg = sum(e) in the top field.  Integer order of keys
is the canonical order, so sorts and leading terms compare plain ints, and
the product of two monomials is the sum of their keys.  Every exponent and
every total degree stays below the ceiling 2^31: the constructor refuses
more, and products, powers, compositions and ``_join`` check a bound on
the degree of their result (for compositions, the largest sum of
e_i * deg(S_i) over the terms) before any work, with the
``degree_too_large`` code.  So no field carries into the next, and with G
holding bit 31 of every field, x^d divides x^r exactly when
((r | G) - d) & G == G.  Exponent tuples appear only at the edges: the
constructor, ``monomial``, ``coefficient``, ``terms``, ``leading_term``,
``evaluate``, rendering, JSON, the hash, and the tail multi-indices of
``_split`` and ``_join``.

GCDs come from one algorithm, W. S. Brown's modular GCD (JACM 1971): images
modulo primes and at points, Newton interpolation, the CRT, trial division.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import struct
import sys
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import InputError, ValidationError

Exponent = tuple[int, ...]
Scalar = Union[Fraction, int]

_ONE = Fraction(1)

# Bits per packed exponent field, the field mask, and the degree ceiling.
_W = 32
_FIELD = (1 << _W) - 1
_CEILING = 1 << (_W - 1)


@functools.lru_cache(maxsize=None)
def _codec(n: int) -> tuple[struct.Struct, struct.Struct]:
    """Byte layouts of a key in n variables: the n exponents alone, and all n + 1 fields."""
    return struct.Struct(f"<{n}I4x"), struct.Struct(f"<{n + 1}I")


def _pack(n: int, exp: Sequence[int]) -> int:
    """The key of a checked exponent vector (entries and sum below the ceiling)."""
    return int.from_bytes(_codec(n)[1].pack(*exp, sum(exp)), "little")


def _unpack(n: int, key: int) -> Exponent:
    return _codec(n)[0].unpack(key.to_bytes(4 * n + 4, "little"))


def _guards(n: int) -> int:
    """Bit W - 1 of each of the n + 1 fields of a key."""
    return ((1 << (_W * (n + 1))) - 1) // _FIELD << (_W - 1)


def _divides(d: int, r: int, guards: int) -> bool:
    """Whether the monomial with key d divides the one with key r.

    Each field of r | guards is at least 2^31 > d's field, so the difference
    never borrows across fields, and a field keeps its guard bit exactly when
    r's exponent is at least d's.
    """
    return ((r | guards) - d) & guards == guards


def _check_degree(degree: int) -> None:
    if degree >= _CEILING:
        raise ValidationError(
            "degree_too_large", f"degree {degree} is not below the ceiling 2^31"
        )


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``_terms`` maps packed monomial keys to nonzero ints with gcd 1 and
    ``_c`` is the positive ``Fraction`` content; the value is
    ``_c * sum(v * x^e)``.
    """

    __slots__ = ("nvars", "_terms", "_c", "_hash")

    def __new__(cls, nvars: int, terms: Optional[Mapping[Exponent, Scalar]] = None):
        ratios = {}
        for exp, coeff in (terms or {}).items():
            c = Fraction(coeff)
            ratios[tuple(int(e) for e in exp)] = c.numerator, c.denominator
        return _from_ratios(nvars, ratios)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise InputError(f"variable index {index} out of range for nvars={nvars}")
        return _make(nvars, {1 << (index * _W) | 1 << (nvars * _W): 1}, _ONE)

    @classmethod
    def monomial(cls, nvars: int, exp: Exponent, coeff: Scalar = 1) -> "Polynomial":
        return cls(nvars, {tuple(exp): Fraction(coeff)})

    @classmethod
    def variables(cls, nvars: int) -> list["Polynomial"]:
        """All generators at once: ``x, y, z = Polynomial.variables(3)``."""
        return [cls.variable(nvars, i) for i in range(nvars)]

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending canonical order (leading term first)."""
        n, c, terms = self.nvars, self._c, self._terms
        return [(_unpack(n, k), c * terms[k]) for k in sorted(terms, reverse=True)]

    def coefficient(self, exp: Exponent) -> Fraction:
        exp = tuple(exp)
        if len(exp) != self.nvars or min(exp, default=0) < 0 or sum(exp) >= _CEILING:
            return Fraction(0)
        return self._c * self._terms.get(_pack(self.nvars, exp), 0)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        if self.is_zero:
            raise InputError("zero polynomial has no leading term")
        key = max(self._terms)
        return _unpack(self.nvars, key), self._c * self._terms[key]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return max(self._terms) >> (self.nvars * _W)

    def is_homogeneous(self) -> bool:
        """Whether all terms share one total degree (vacuously true for 0)."""
        shift = self.nvars * _W
        return len({k >> shift for k in self._terms}) <= 1

    def homogeneous_degree(self) -> int:
        if self.is_zero:
            raise InputError("zero polynomial has no homogeneous degree")
        shift = self.nvars * _W
        degrees = {k >> shift for k in self._terms}
        if len(degrees) != 1:
            raise InputError("polynomial is not homogeneous")
        return degrees.pop()

    def x_order(self, index: int) -> int:
        """Largest power of the given variable dividing the polynomial."""
        if not 0 <= index < self.nvars:
            raise InputError(f"variable index {index} out of range")
        if self.is_zero:
            raise InputError("zero polynomial has no finite variable order")
        shift = index * _W
        return min(k >> shift & _FIELD for k in self._terms)

    # -- equality and hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self._c == other._c
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            n, c = self.nvars, self._c
            h = hash((n, frozenset((_unpack(n, k), c * v) for k, v in self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> Optional["Polynomial"]:
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise InputError(
                    f"variable-count mismatch: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return _constant(self.nvars, other)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make(self.nvars, {e: -v for e, v in self._terms.items()}, self._c)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other or not self._terms:
                return _make(self.nvars, {}, _ONE)
            if other > 0:
                return _make(self.nvars, self._terms, self._c * other)
            return _make(self.nvars, _negated(self._terms), self._c * -other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return _make(self.nvars, {}, _ONE)
        top = self.nvars * _W
        _check_degree((max(self._terms) >> top) + (max(other._terms) >> top))
        # Gauss's lemma: the product of primitive polynomials is primitive.
        return _make(self.nvars, _mul_ints(self._terms, other._terms), self._c * other._c)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise InputError(f"polynomial power must be a non-negative int, got {power!r}")
        _check_degree(self.degree() * power)
        result = _make(self.nvars, {0: 1}, _ONE)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    # -- calculus and evaluation ----------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to the given variable."""
        if not 0 <= index < self.nvars:
            raise InputError(f"variable index {index} out of range for nvars={self.nvars}")
        shift = index * _W
        step = 1 << shift | 1 << (self.nvars * _W)
        out: dict[int, int] = {}
        for k, v in self._terms.items():
            e = k >> shift & _FIELD
            if e:
                out[k - step] = v * e
        return _primitive(self.nvars, out, self._c)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point (one value per variable)."""
        values = [Fraction(v) for v in point]
        if len(values) != self.nvars:
            raise InputError(
                f"point length {len(values)} does not match nvars={self.nvars}"
            )
        # Integral coordinates (the sample schedule's) are powered as ints.
        values = [v.numerator if v.denominator == 1 else v for v in values]
        total = 0
        for k, term in self._terms.items():
            for e, v in zip(_unpack(self.nvars, k), values):
                if e:
                    term *= v ** e
            total += term
        return self._c * total

    def compose(self, substitutions: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute a polynomial for every variable.

        All substituted polynomials must share one variable count, which
        becomes the variable count of the result.
        """
        if len(substitutions) != self.nvars:
            raise InputError(
                f"need {self.nvars} substitutions, got {len(substitutions)}"
            )
        target = substitutions[0].nvars
        if any(s.nvars != target for s in substitutions):
            raise InputError("substituted polynomials disagree on variable count")
        # Term c*v*x^e becomes (c * v * prod c_i^e_i) * prod S_i^e_i, where
        # s_i = c_i * S_i.  With c_i = a_i/b_i and E_i the largest exponent
        # of x_i, the scalars are the ints v * prod a_i^e_i * b_i^(E_i - e_i)
        # over den = prod b_i^E_i, so the sum runs in ints and is normalised
        # once.  Powers of each S_i are cached as they are needed, each one
        # product: S_i times the power below, or the square of the half when
        # the power below is not at hand, so dense exponents cost one product
        # per power and a large one about 2 log2 e.  Term x^e becomes terms of
        # degree at most sum e_i * deg(S_i), checked first.
        one = {0: 1}
        powers: list[dict[int, dict[int, int]]] = [{0: one} for _ in substitutions]

        def power(i: int, e: int) -> dict[int, int]:
            cache = powers[i]
            if e not in cache:
                if e & 1 or e - 1 in cache:
                    cache[e] = _mul_ints(power(i, e - 1), substitutions[i]._terms)
                else:
                    half = power(i, e // 2)
                    cache[e] = _mul_ints(half, half)
            return cache[e]

        unpack, size = _codec(self.nvars)[0].unpack, 4 * self.nvars + 4
        den, weights = 1, [(unpack(k.to_bytes(size, "little")), v) for k, v in self._terms.items()]
        degrees = [max(s.degree(), 0) for s in substitutions]
        _check_degree(max((sum(map(mul, exp, degrees)) for exp, _ in weights), default=0))
        for i, s in enumerate(substitutions):
            if s._c != 1 and weights:
                a, b = s._c.numerator, s._c.denominator
                top = max(exp[i] for exp, _ in weights)
                den *= b ** top
                weights = [(exp, v * a ** exp[i] * b ** (top - exp[i])) for exp, v in weights]
        total: dict[int, int] = {}
        get = total.get
        for exp, k in weights:
            factors = [power(i, e) for i, e in enumerate(exp) if e] or [one]
            last = factors.pop()
            head = factors[0] if factors else one
            for f in factors[1:]:
                head = _mul_ints(head, f)
            for ea, va in head.items():
                va *= k
                for eb, vb in last.items():
                    e = ea + eb
                    total[e] = get(e, 0) + va * vb
        return _primitive(target, {e: v for e, v in total.items() if v}, self._c / den)

    # -- division ---------------------------------------------------------------

    def try_divide(self, divisor: "Polynomial") -> Optional["Polynomial"]:
        """Exact quotient self/divisor, or None when division is not exact."""
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero:
            raise InputError("division by zero polynomial")
        if self.is_zero:
            return Polynomial.zero(self.nvars)
        # Long division of the primitive parts in Z.  By Gauss's lemma an
        # exact quotient of primitive polynomials is itself integral, so a
        # leading coefficient that does not divide means "not divisible".
        quotient = _quotient(self._terms, divisor._terms, _guards(self.nvars))
        if quotient is None:
            return None
        return _make(self.nvars, quotient, self._c / divisor._c)

    def shift_down(self, index: int, amount: int) -> "Polynomial":
        """Divide by x_index**amount; the power must divide every term."""
        if amount < 0:
            raise InputError("shift amount must be non-negative")
        if amount == 0 or self.is_zero:
            return self
        if self.x_order(index) < amount:
            raise InputError(f"x_{index}^{amount} does not divide the polynomial")
        step = amount << (index * _W) | amount << (self.nvars * _W)
        return _make(self.nvars, {k - step: v for k, v in self._terms.items()}, self._c)

    def monic(self) -> "Polynomial":
        """Scale so the leading coefficient in canonical order is 1."""
        if self.is_zero:
            return self
        lead = self._terms[max(self._terms)]
        terms = self._terms if lead > 0 else _negated(self._terms)
        return _make(self.nvars, terms, Fraction(1, abs(lead)))

    # -- serialisation ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        # Term v*a/b (content a/b in lowest terms) reduces by g = gcd(v, b),
        # which is 1 for an integer content.
        n, a, b = self.nvars, self._c.numerator, self._c.denominator
        unpack, size = _codec(n)[0].unpack, 4 * n + 4
        items = self._terms
        terms = []
        for k in sorted(items, reverse=True):
            v = items[k]
            g = math.gcd(v, b) if b != 1 else 1
            exp = list(unpack(k.to_bytes(size, "little")))
            terms.append({"exp": exp, "num": str(v // g * a), "den": str(b // g)})
        return {"nvars": n, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Polynomial":
        try:
            nvars = read_int(data["nvars"], "nvars")
            ratios = {
                tuple([read_int(e, "exp") for e in t["exp"]]):
                (read_int(t["num"], "num"), read_int(t["den"], "den"))
                for t in data["terms"]
            }
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed polynomial JSON: {exc}") from exc
        return _from_ratios(nvars, ratios)

    # -- rendering ------------------------------------------------------------------

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        """Deterministic human-readable form, canonical term order."""
        if names is None:
            names = _default_names(self.nvars)
        if self.is_zero:
            return "0"
        pieces = []
        for i, (exp, c) in enumerate(self.terms()):
            mono = "*".join(
                f"{names[j]}^{e}" if e > 1 else names[j]
                for j, e in enumerate(exp)
                if e
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.render()!r})"


def _default_names(nvars: int) -> list[str]:
    if nvars <= 4:
        return ["x", "y", "z", "w"][:nvars]
    return [f"x{i}" for i in range(nvars)]


def _from_ratios(nvars: int, ratios: Mapping[Exponent, tuple[int, int]]) -> Polynomial:
    """The sum of num/den * x^exp over ``ratios``, after checking nvars, the exponents and den."""
    if not isinstance(nvars, int) or nvars < 1:
        raise InputError(f"nvars must be a positive integer, got {nvars!r}")
    clean: dict[int, tuple[int, int]] = {}
    for exp, (num, den) in ratios.items():
        if len(exp) != nvars or min(exp) < 0:
            raise InputError(f"bad exponent vector {exp} for nvars={nvars}")
        _check_degree(sum(exp))
        if not den:
            raise InputError(f"den: zero denominator at exponent {exp}")
        if num:
            clean[_pack(nvars, exp)] = num, den
    den = math.lcm(*(d for _, d in clean.values()))
    return _primitive(nvars, {e: n * (den // d) for e, (n, d) in clean.items()}, Fraction(1, den))


# -- numbers and JSON from outside -------------------------------------------------

# Digits allowed in each integer read from text, whatever the interpreter's own
# int-string limit: text-to-int conversion is quadratic in the digit count.
MAX_DIGITS = 4300


def read_int(value, field: str) -> int:
    """The integer a JSON integer or a string -?[0-9]+ spells; anything else is an ``InputError``."""
    if type(value) is int:  # not bool
        return value
    digits = value.removeprefix("-") if type(value) is str else ""
    if not (len(digits) <= MAX_DIGITS and digits.isascii() and digits.isdigit()):
        text = f"a {type(value).__name__}" if isinstance(value, (list, dict)) else repr(value)
        raise InputError(f"{field}: bad integer {text if len(text) <= 40 else text[:37] + '...'}")
    try:
        return int(value)
    except ValueError:  # the interpreter's own limit is below MAX_DIGITS
        with unlimited_digits():
            return int(value)


def read_fraction(value, field: str) -> Fraction:
    """What read_int reads, or a string of two such integers n/d with d > 0."""
    num, _, den = value.partition("/") if type(value) is str and "/" in value else (value, "", 1)
    n, d = read_int(num, field), read_int(den, field)
    if d < 1:
        raise InputError(f"{field}: zero or negative denominator in {value[:40]!r}")
    return Fraction(n, d)


def load_json(text: str, source: str):
    """A JSON document from outside; integer literals meet read_int's digit budget."""
    try:
        return json.loads(text, parse_int=functools.partial(read_int, field=source))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{source}: invalid JSON: {exc}") from exc


@contextlib.contextmanager
def unlimited_digits():
    """Lift the interpreter's int-string digit limit, so any exact integer prints."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# -- trusted construction ----------------------------------------------------------
#
# The helpers below build results of ring operations without re-validating:
# callers guarantee keys of ``nvars`` variables, nonzero int values,
# a positive Fraction content, and content 1 for the empty map.


def _make(nvars: int, ints: dict[int, int], content: Fraction) -> Polynomial:
    """A polynomial from a primitive int map and its content, unchecked."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "_terms", ints)
    object.__setattr__(p, "_c", content)
    object.__setattr__(p, "_hash", None)
    return p


def _primitive(nvars: int, ints: dict[int, int], scale: Fraction) -> Polynomial:
    """``scale`` times a map of nonzero ints, with their gcd moved into the content."""
    if not ints:
        return _make(nvars, {}, _ONE)
    g = math.gcd(*ints.values())
    if g == 1:
        return _make(nvars, ints, scale)
    return _make(nvars, {e: v // g for e, v in ints.items()}, scale * g)


def _constant(nvars: int, value: Scalar) -> Polynomial:
    if not value:
        return _make(nvars, {}, _ONE)
    return _make(nvars, {0: 1 if value > 0 else -1}, Fraction(abs(value)))


def _negated(ints: dict[int, int]) -> dict[int, int]:
    return {e: -v for e, v in ints.items()}


def _mul_ints(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two int term maps, cancelled terms dropped."""
    out: dict[int, int] = {}
    get = out.get
    items = list(b.items())
    for ea, va in a.items():
        for eb, vb in items:
            e = ea + eb
            out[e] = get(e, 0) + va * vb
    return {e: v for e, v in out.items() if v}


def _quotient(f: dict[int, int], g: dict[int, int], guards: int, p: int = 0) -> Optional[dict[int, int]]:
    """f / g for int maps by long division, or None if g does not divide f: over Z, or over F_p for p > 0 and g monic."""
    lead = max(g)
    lc, r, out = g[lead], dict(f), {}
    while r:
        k = max(r)
        if not _divides(lead, k, guards):
            return None
        q, rem = divmod(r[k], lc)
        if rem:
            return None
        step, get = k - lead, r.get
        out[step] = q
        for e, v in g.items():
            e += step
            v = get(e, 0) - q * v
            if p:
                v %= p
            if v:
                r[e] = v
            else:
                del r[e]
    return out


def _relabel(p: Polynomial, images: Sequence[int], signs: Sequence[int]) -> Polynomial:
    """p with x_i -> signs[i] * x_{images[i]}, ``images`` a permutation of the variables, signs +-1.

    Each term goes to one term, so nothing is expanded: v*x^e becomes v times
    the monomial with permuted exponents, negated when the flipped variables
    have odd total degree in x^e, that is when an odd number of them has an
    odd exponent: the parity of the low bits of their fields.  The int map
    only changes signs, so it stays primitive and the content is kept.
    """
    n = p.nvars
    sources = [0] * n
    for i, j in enumerate(images):
        sources[j] = i
    # The degree field (index n) stays in place.
    move = itemgetter(*sources, n)
    parity = sum(1 << (i * _W) for i, s in enumerate(signs) if s == -1)
    full = _codec(n)[1]
    unpack, pack, size = full.unpack, full.pack, 4 * n + 4
    terms = {
        int.from_bytes(pack(*move(unpack(k.to_bytes(size, "little")))), "little"):
        -v if (k & parity).bit_count() & 1 else v
        for k, v in p._terms.items()
    }
    return _make(n, terms, p._c)


def _split(p: Polynomial, m: int) -> dict[Exponent, Polynomial]:
    """p = sum_t C_t * x_tail^t as {t: C_t}, each C_t in the first m variables.

    A key's tail is its fields m .. n-1, and its head keeps the first m fields
    under the head degree, the total minus the tail's.  The tail's fields sum
    to less than 2^31 < 2^W - 1, so that sum is the tail modulo 2^W - 1.
    """
    n = p.nvars
    head, top = m * _W, n * _W
    low, tails = (1 << head) - 1, (1 << (top - head)) - 1
    groups: dict[int, dict[int, int]] = {}
    for k, v in p._terms.items():
        groups.setdefault(k >> head & tails, {})[k] = v
    parts = {}
    for t, terms in groups.items():
        td = t % _FIELD
        ints = {k & low | ((k >> top) - td) << head: v for k, v in terms.items()}
        parts[_unpack(n - m, t)] = _primitive(m, ints, p._c)
    return parts


def _join(parts: Mapping[Exponent, Polynomial], nvars: int) -> Polynomial:
    """sum_t C_t * x_tail^t in nvars variables, the inverse of ``_split``; zero parts are skipped.

    A key of C_t keeps its m fields, its degree moves up to the top field,
    and the tail's fields and degree are added.
    """
    parts = [(t, C) for t, C in parts.items() if C._terms]
    if not parts:
        return _make(nvars, {}, _ONE)
    m = nvars - len(parts[0][0])
    head, top = m * _W, nvars * _W
    low = (1 << head) - 1
    moved = []
    for t, C in parts:
        _check_degree(C.degree() + sum(t))
        s = sum(e << (j * _W) for j, e in enumerate(t)) << head | sum(t) << top
        moved.append({(k & low | (k >> head) << top) + s: v for k, v in C._terms.items()})
    if len(parts) == 1:
        return _make(nvars, moved[0], parts[0][1]._c)
    # Each part is c_t * P_t with P_t primitive; c_t = g * w_t / den with
    # coprime ints w_t makes sum_t w_t * P_t * x_tail^t primitive.
    den = math.lcm(*(C._c.denominator for _, C in parts))
    nums = [C._c.numerator * (den // C._c.denominator) for _, C in parts]
    g = math.gcd(*nums)
    terms: dict[int, int] = {}
    for ints, w in zip(moved, nums):
        w //= g
        terms.update({k: w * v for k, v in ints.items()})
    return _make(nvars, terms, Fraction(g, den))


def _ratio(p: Polynomial, q: Polynomial) -> Optional[Fraction]:
    """The c with p = c * q (0 when p is zero), or None.

    Primitive parts are unique, so for nonzero p they must agree up to sign,
    and then c is that sign times the content ratio.  Keys only mean the
    same monomial in one ring (key 0 is the constant of every ring), so p
    and q in different rings are never proportional.
    """
    if p.nvars != q.nvars:
        return None
    if not p._terms:
        return Fraction(0)
    if p._terms == q._terms:
        return p._c / q._c
    if p._terms == _negated(q._terms):
        return -p._c / q._c
    return None


def _combine(p: Polynomial, q: Polynomial, sign: int) -> Polynomial:
    """p + sign*q: both contents as integer multiples of their rational gcd."""
    if not q._terms:
        return p
    if not p._terms:
        return q if sign > 0 else -q
    cp, cq = p._c, q._c
    if cp == cq:
        g, sp, sq = cp, 1, sign
    else:
        gn = math.gcd(cp.numerator, cq.numerator)
        den = math.lcm(cp.denominator, cq.denominator)
        g = Fraction(gn, den)
        sp = cp.numerator // gn * (den // cp.denominator)
        sq = sign * (cq.numerator // gn) * (den // cq.denominator)
    out = dict(p._terms) if sp == 1 else {e: sp * v for e, v in p._terms.items()}
    get = out.get
    for e, v in q._terms.items():
        out[e] = get(e, 0) + sq * v
    return _primitive(p.nvars, {e: v for e, v in out.items() if v}, g)


# -- greatest common divisors ----------------------------------------------------
#
# W. S. Brown's dense modular GCD ("On Euclid's algorithm and the computation
# of polynomial greatest common divisors", JACM 1971) on the primitive int
# parts, behind the certificate ``_gcd_degree_bounds``: ``_gcd_ints`` combines
# images modulo primes by the CRT, ``_gcd_mod`` evaluates and interpolates one
# variable at a time, and ``_gcd_mod_p`` (Euclid in F_p[x]) is the base case.
# Leading monomials are the packed keys'; each loop's end is argued in its
# function's docstring.

# The first prime of every modular computation in the package, 2^61 - 1.
_PRIME = 2305843009213693951


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """A GCD of p and q, normalised to leading coefficient 1.

    ``poly_gcd(p, 0)`` is the monic normalisation of p; the GCD of two zero
    polynomials is zero.
    """
    return poly_gcd_many([p, q])


def poly_gcd_many(polys: Iterable[Polynomial]) -> Polynomial:
    """GCD of a family, monic (zero for an all-zero family)."""
    family = list(polys)
    if not family:
        raise InputError("gcd of an empty family")
    n = family[0].nvars
    for p in family:
        if p.nvars != n:
            raise InputError(f"variable-count mismatch: {n} vs {p.nvars}")
    nonzero = [p for p in family if not p.is_zero]
    if not nonzero:
        return family[0]
    if len(nonzero) == 1:
        return nonzero[0].monic()
    bounds = _gcd_degree_bounds(nonzero)
    if bounds is not None and not any(bounds):
        return _constant(n, 1)
    ints = [p._terms for p in nonzero]
    if n == 1 or not all(p.is_homogeneous() for p in nonzero):
        return _make(n, _gcd_ints(ints, n), _ONE).monic()
    # Homogeneous x_{n-1}^(o_j) * h_j, x_{n-1} prime to h_j, have the GCD
    # x_{n-1}^(min o_j) times the homogenised GCD of the h_j(.., 1): x_{n-1} = 1
    # keeps divisibility between homogeneous polynomials prime to x_{n-1}, and
    # spares the images a variable.  Keys drop field n - 1 from their degree.
    last, top = (n - 1) * _W, n * _W
    low = (1 << last) - 1
    g = _gcd_ints([{k & low | ((k >> top) - (k >> last & _FIELD)) << last: v for k, v in f.items()} for f in ints], n - 1)
    d = (max(g) >> last) + min(p.x_order(n - 1) for p in nonzero)
    return _make(n, {k & low | (d - (k >> last)) << last | d << top: v for k, v in g.items()}, _ONE).monic()


def _gcd_degree_bounds(polys: list[Polynomial]) -> Optional[list[int]]:
    """Upper bounds on deg_i of the GCD g of nonzero polynomials, one per variable, or None.

    For each variable x_i of positive degree in every member, the others are
    fixed at x_j = j + 2 and the primitive int parts are reduced modulo the
    prime.  g divides every member, so lc_i(g) divides each member's leading
    coefficient: an image that keeps some member's x_i-degree keeps
    g's, and g's image divides every image, so the degree of their GCD in
    F_p[x_i] bounds deg_i g.  A variable of degree 0 in some member has bound
    0.  When no member keeps its degree in some variable there is no bound
    (None).
    """
    p, n = _PRIME, polys[0].nvars
    unpack, size = _codec(n)[0].unpack, 4 * n + 4
    members = [[(unpack(k.to_bytes(size, "little")), v) for k, v in f._terms.items()] for f in polys]
    degrees = [list(map(max, zip(*(e for e, _ in terms)))) for terms in members]
    bounds = []
    for i in range(n):
        if not min(d[i] for d in degrees):
            bounds.append(0)
            continue
        gcd, kept = [], False
        for terms, d in zip(members, degrees):
            image = [0] * (d[i] + 1)
            for exp, v in terms:
                for j, e in enumerate(exp):
                    if e and j != i:
                        v *= pow(j + 2, e, p)
                image[exp[i]] += v
            image = [c % p for c in image]
            kept = kept or image[-1] != 0
            while image and not image[-1]:
                image.pop()
            gcd = _gcd_mod_p(image, gcd)
        if not kept:
            return None
        bounds.append(len(gcd) - 1)
    return bounds


def _gcd_ints(family: list[dict[int, int]], n: int) -> dict[int, int]:
    """A GCD in Z[x_0..x_{n-1}] of two or more nonzero primitive int maps, up to sign.

    Let g be the primitive GCD, gamma the gcd of the members' leading
    coefficients, and H = (gamma / lc(g)) * g, integral because lc(g)
    divides every leading coefficient.  Mahler's bound gives |H| <= gamma *
    2^(sum_i d_i) * min_j ||f_j||_2, d_i the least deg_i of a member.  For a
    prime p not dividing gamma, g mod p keeps its leading monomial and
    divides the GCD G_p of the images, so lm(G_p) >= lm(g), with equality
    ("lucky") exactly when gamma * G_p = H mod p.  Images of one leading
    monomial are combined by the CRT in the symmetric range; a smaller one
    restarts the run and a larger one is dropped.  The candidate, the
    primitive part of the combination, is tried when a prime leaves it
    unchanged and when the modulus passes 2 |H|.  It is accepted when it
    divides every member: then it divides g, and its leading monomial
    lm(G_p) >= lm(g) leaves g / candidate constant.

    Why the loop ends: the primes dividing gamma are skipped, and the
    unlucky ones divide a nonzero integer (a resultant of the cofactors), so
    only finitely many come.  A lucky run gives H once the modulus passes
    2 |H| (the Mignotte bound).  A run that passes it without a divisor was
    unlucky: its leading monomial and every larger one are refused after.
    """
    if any(not max(f) >> (n * _W) for f in family):
        return {0: 1}
    gamma = math.gcd(*(f[max(f)] for f in family))
    spread = sum(min(max(k >> (i * _W) & _FIELD for k in f) for f in family) for i in range(n))
    norm = min(math.isqrt(sum(v * v for v in f.values())) + 1 for f in family)
    bound, guards = (gamma * norm << spread) * 2, _guards(n)
    ceiling = lead = None
    for p in _primes():
        if not gamma % p:
            continue
        images = [{k: r for k, v in f.items() if (r := v % p)} for f in family]
        image = _gcd_mod([f for f in images if f], n, p)
        new = max(image)
        if ceiling is not None and new >= ceiling or lead is not None and new > lead:
            continue
        if lead is None or new < lead:
            lead, modulus, h = new, 1, {}
        # h + modulus * t, t = (gamma * image - h) / modulus mod p, in the symmetric range.
        inv, half, changed = pow(modulus, -1, p), modulus * p // 2, False
        for k in h.keys() | image.keys():
            t = (gamma * image.get(k, 0) - h.get(k, 0)) * inv % p
            if t:
                v = h.get(k, 0) + modulus * t
                h[k], changed = v - modulus * p if v > half else v, True
        modulus *= p
        complete = modulus > bound
        if complete or not changed:
            c = math.gcd(*h.values())
            candidate = {k: v // c for k, v in h.items()}
            if all(_quotient(f, candidate, guards) is not None for f in family):
                return candidate
            if complete:
                ceiling, lead = lead, None


def _gcd_mod(family: list[dict[int, int]], m: int, p: int) -> dict[int, int]:
    """The monic GCD in F_p[x_0..x_{m-1}] of nonzero int maps with values in [0, p).

    A member maps monomials in x_0..x_{m-2} (the head) to coefficient lists
    in y = x_{m-1}.  The GCD is G = c * P, c in F_p[y] the GCD of all those
    lists (the content; in one variable, G itself) and P primitive.  Let
    gamma be the GCD of the members' leading coefficients (at their leading
    head monomials) and H = (gamma / lc(P)) * P.  At y = a with
    gamma(a) != 0, P(a) keeps its head leading monomial and divides the GCD
    G_a of the images, so lm(G_a) >= lm(P), with equality ("lucky") exactly
    when gamma(a) * G_a = H(a).  Points of one leading monomial are
    Newton-interpolated; a smaller one restarts the run and a larger one is
    dropped.  A lucky run of deg gamma + min_j deg_y f_j + 1 points gives H.
    The candidate c * H' / cont(H'), H' the interpolant, is tried when a
    point leaves H' unchanged and when the run has that many points, and
    accepted when it divides every member: it is then G, as c times a
    primitive polynomial with a head leading monomial at least P's.

    Why the loop ends: the roots of gamma are skipped, and the unlucky
    points are roots of a nonzero polynomial of bounded degree (a
    resultant), so only finitely many come.  A run that reaches the point
    count without a divisor was unlucky: its leading monomial and every
    larger one are refused after.
    """
    if len(family) == 1:
        return _monic_mod(family[0], p)
    last, top = (m - 1) * _W, m * _W
    low = (1 << last) - 1
    members = []
    for f in family:
        rows: dict[int, list[int]] = {}
        for k, v in f.items():
            e = k >> last & _FIELD
            row = rows.setdefault(k & low | ((k >> top) - e) << last, [])
            row.extend([0] * (e + 1 - len(row)))
            row[e] = v
        members.append(rows)
    content = _gcd_rows((row for rows in members for row in rows.values()), p)
    if m == 1:
        return _monic_mod({e << _W | e: v for e, v in enumerate(content) if v}, p)
    gamma = _gcd_rows((rows[max(rows)] for rows in members), p)
    points = len(gamma) - 1 + min(max(map(len, rows.values())) for rows in members)
    guards, ceiling, lead, a = _guards(m), None, None, 0
    while True:
        a += 1
        scale = _horner(gamma, a, p)
        if not scale:
            continue
        images = [{h: v for h, row in rows.items() if (v := _horner(row, a, p))} for rows in members]
        image = _gcd_mod([f for f in images if f], m - 1, p)
        new = max(image)
        if ceiling is not None and new >= ceiling or lead is not None and new > lead:
            continue
        if lead is None or new < lead:
            lead, h, q, count = new, {}, [1], 0
        # h + q * (scale * image - h(a)) / q(a), q the product of the y - a_j
        # so far; each changed row ends in d != 0, so rows have no trailing zeros.
        w, changed = pow(_horner(q, a, p), -1, p), False
        for head in h.keys() | image.keys():
            row = h.get(head, [])
            d = (scale * image.get(head, 0) - _horner(row, a, p)) * w % p
            if d:
                row = row + [0] * (len(q) - len(row))
                h[head], changed = [(x + d * y) % p for x, y in zip(row, q)], True
        q = [(x - a * y) % p for x, y in zip([0] + q, q + [0])]
        count += 1
        if count == points or not changed:
            c = _gcd_rows(h.values(), p)
            candidate = _monic_mod({
                head & low | e << last | ((head >> last) + e) << top: v
                for head, row in h.items()
                for e, v in enumerate(_mul_mod_p(_quo_mod_p(row, c, p), content, p)) if v
            }, p)
            if all(_quotient(f, candidate, guards, p) is not None for f in family):
                return candidate
            if count == points:
                ceiling, lead = lead, None


def _monic_mod(f: dict[int, int], p: int) -> dict[int, int]:
    inv = pow(f[max(f)], -1, p)
    return {k: v * inv % p for k, v in f.items()}


def _primes():
    """_PRIME, then the primes below it in descending order.

    Below 3.8 * 10^18 a strong probable prime to the bases 2, 3, ..., 23 is
    prime (Jaeschke 1993): with q - 1 = d * 2^s, d odd, x = a^d is 1 or has
    x^(2^i) = -1 for some i < s.  2^61 - 1 < 2.4 * 10^18.
    """
    q = _PRIME
    yield q
    while True:
        q -= 2
        s = ((q - 1) & (1 - q)).bit_length() - 1
        xs = (pow(a, (q - 1) >> s, q) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23))
        if all(x == 1 or q - 1 in [pow(x, 1 << i, q) for i in range(s)] for x in xs):
            yield q


# Dense polynomials in F_p[x]: coefficient lists, constant term first, no trailing zeros.


def _horner(row: list[int], a: int, p: int) -> int:
    v = 0
    for c in reversed(row):
        v = (v * a + c) % p
    return v


def _gcd_rows(rows: Iterable[list[int]], p: int) -> list[int]:
    """The GCD of the rows, stopping at a constant."""
    g: list[int] = []
    for row in rows:
        if len(g) != 1:
            g = _gcd_mod_p(list(row), g, p)
    return g


def _mul_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [x % p for x in out]


def _quo_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The quotient of a by b, which divides it."""
    a, inv, m = list(a), pow(b[-1], -1, p), len(b) - 1
    out = [0] * (len(a) - m)
    for s in reversed(range(len(out))):
        c = out[s] = a[s + m] * inv % p
        for i, y in enumerate(b):
            a[s + i] -= c * y
    return out


def _gcd_mod_p(a: list[int], b: list[int], p: int = _PRIME) -> list[int]:
    """Euclid in F_p[x] on coefficient lists (constant term first, no trailing zeros)."""
    while b:
        inv = pow(b[-1], -1, p)
        m = len(b) - 1
        while len(a) > m:
            q = a.pop() * inv % p
            s = len(a) - m
            a[s:] = [(x - q * y) % p for x, y in zip(a[s:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return a
