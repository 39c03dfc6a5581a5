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
canonical order with numerators and denominators as decimal strings, so
files survive any integer size.

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
"""

from __future__ import annotations

import functools
import math
import struct
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

    def __init__(self, nvars: int, terms: Optional[Mapping[Exponent, Scalar]] = None):
        if not isinstance(nvars, int) or nvars < 1:
            raise InputError(f"nvars must be a positive integer, got {nvars!r}")
        clean: dict[int, Fraction] = {}
        pack = _codec(nvars)[1].pack
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise InputError(f"bad exponent vector {exp} for nvars={nvars}")
            degree = sum(exp)
            _check_degree(degree)
            c = Fraction(coeff)
            if c:
                clean[int.from_bytes(pack(*exp, degree), "little")] = c
        den = math.lcm(*(c.denominator for c in clean.values()))
        ints = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        g = math.gcd(*ints.values())
        if g > 1:
            ints = {e: v // g for e, v in ints.items()}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", ints)
        object.__setattr__(self, "_c", Fraction(g, den) if ints else _ONE)
        object.__setattr__(self, "_hash", None)

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
        dterms = divisor._terms
        dexp = max(dterms)
        dcoeff = dterms[dexp]
        guards = _guards(self.nvars)
        quotient: dict[int, int] = {}
        remainder = dict(self._terms)
        while remainder:
            rexp = max(remainder)
            if not _divides(dexp, rexp, guards):
                return None
            q, r = divmod(remainder[rexp], dcoeff)
            if r:
                return None
            step = rexp - dexp
            quotient[step] = q
            get = remainder.get
            for e, v in dterms.items():
                e += step
                v = get(e, 0) - q * v
                if v:
                    remainder[e] = v
                else:
                    del remainder[e]
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
            nvars = int(data["nvars"])
            terms = {
                tuple(int(e) for e in t["exp"]): Fraction(int(t["num"]), int(t["den"]))
                for t in data["terms"]
            }
        except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise InputError(f"malformed polynomial JSON: {exc}") from exc
        return cls(nvars, terms)

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
# Multivariate GCD over Q.  Two fast paths run in front of the exact one, and
# both are checked against modular images so that every answer is the exact
# GCD g up to a constant:
#
# - ``_gcd_degree_bounds`` reduces the members to one univariate image per
#   variable modulo a prime and takes the degree of their GCD there: an upper
#   bound on deg_i g (the image argument behind Brown's modular GCD, 1971).
#   All bounds 0 certify a constant GCD.
# - ``_gcd_by_evaluation`` builds a candidate G by integer evaluation (the
#   heuristic GCD of Char, Geddes and Gonnet, 1989) and keeps it only when G
#   divides every member and deg_i G equals every bound.  G | g and
#   deg_i G <= deg_i g <= bound_i = deg_i G leave g/G constant.
#
# Every other input takes the exact path, ``_gcd_nonzero``: each member is
# the list of its coefficients in the last variable (``_split``), the
# contents are GCDs of those lists, and a primitive pseudo-remainder
# sequence reduces the primitive parts, entry by entry.  The sequence is
# exponential in the degree.

# The prime of every modular computation in the package, 2^61 - 1.
_PRIME = 2305843009213693951

# Evaluation points tried per variable by ``_gcd_by_evaluation``.
_HEU_TRIES = 6


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
    if len(nonzero) >= 2:
        verified = _verified_gcd(nonzero)
        if verified is not None:
            return verified
    nonzero.sort(key=lambda p: (p.degree(), len(p._terms)))
    result = nonzero[0]
    for p in nonzero[1:]:
        result = _gcd_nonzero(result, p)
        if result.degree() == 0:
            break
    return result.monic()


def _verified_gcd(polys: list[Polynomial]) -> Optional[Polynomial]:
    """The monic GCD of nonzero polynomials from the fast paths, or None."""
    bounds = _gcd_degree_bounds(polys)
    if bounds is None:
        return None
    if not any(bounds):
        return _constant(polys[0].nvars, 1)
    return _gcd_by_evaluation(polys, bounds)


def _gcd_degree_bounds(polys: list[Polynomial]) -> Optional[list[int]]:
    """Upper bounds on deg_i of the GCD g of nonzero polynomials, one per variable, or None.

    For each variable x_i of positive degree in every member, the others are
    fixed at x_j = j + 2 and the primitive int parts are reduced modulo the
    prime.  g divides every member, so lc_i(g) divides each member's leading
    coefficient in x_i: an image that keeps some member's x_i-degree keeps
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


def _gcd_by_evaluation(polys: list[Polynomial], bounds: list[int]) -> Optional[Polynomial]:
    """The monic GCD of nonzero polynomials when evaluation finds it, or None.

    The candidate from ``_heu_gcd`` divides every member; it is kept only
    when its degree in each variable equals the bound, which makes it the
    GCD.
    """
    n = polys[0].nvars
    ints = _heu_gcd([f._terms for f in polys], n, [_HEU_TRIES * n])
    if ints is None or list(map(max, zip(*(_unpack(n, k) for k in ints)))) != bounds:
        return None
    return _make(n, ints, _ONE).monic()


def _heu_gcd(
    family: list[dict[int, int]], m: int, budget: list[int]
) -> Optional[dict[int, int]]:
    """A GCD in Z[x_0..x_{m-1}] of nonzero int maps that divides every member, or None.

    Takes out the integer content c of the family, evaluates the last
    variable at an integer xi, recurses, and reads the candidate off the
    balanced xi-adic digits of the integer-coefficient GCD found there.  The
    candidate's primitive part times c is returned when it divides every
    member; otherwise xi grows, at most ``_HEU_TRIES`` values here and
    ``budget[0]`` evaluations in all.  A failure below returns None at once.
    """
    if m == 0:
        return {0: math.gcd(*(f[0] for f in family))}
    c = math.gcd(*(v for f in family for v in f.values()))
    if c > 1:
        family = [{e: v // c for e, v in f.items()} for f in family]
    xi = 2 * min(max(map(abs, f.values())) for f in family) + 29
    members = [_make(m, f, _ONE) for f in family]
    for _ in range(_HEU_TRIES):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        evaluated = [_evaluate_last(f, m, xi) for f in family]
        if all(evaluated):
            inner = _heu_gcd(evaluated, m - 1, budget)
            if inner is None:
                return None
            candidate = _primitive(m, _xi_adic(inner, m, xi), _ONE)
            # A constant candidate is +-1, being primitive, and divides every member.
            if candidate.degree() == 0 or all(f.try_divide(candidate) is not None for f in members):
                return {e: c * v for e, v in candidate._terms.items()}
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluate_last(f: dict[int, int], m: int, xi: int) -> dict[int, int]:
    """The int map f in m variables with its last one set to xi, cancelled terms dropped.

    A key keeps its first m - 1 fields under the degree less the last exponent.
    """
    last, top = (m - 1) * _W, m * _W
    low = (1 << last) - 1
    out: dict[int, int] = {}
    get = out.get
    for k, v in f.items():
        e = k >> last & _FIELD
        head = k & low | ((k >> top) - e) << last
        out[head] = get(head, 0) + v * xi ** e
    return {e: v for e, v in out.items() if v}


def _xi_adic(h: dict[int, int], m: int, xi: int) -> dict[int, int]:
    """sum_k D_k x_last^k in m variables, where D_k holds the k-th balanced xi-adic digit of each coefficient of h.

    Its value at x_last = xi is h.  A key of h keeps its m - 1 fields, its
    degree moves up to the top field, and x_last^k adds k to both.
    """
    last, top = (m - 1) * _W, m * _W
    low, step = (1 << last) - 1, 1 << last | 1 << top
    out: dict[int, int] = {}
    half = xi // 2
    h = {k & low | (k >> last) << top: v for k, v in h.items()}
    while h:
        rest = {}
        for e, v in h.items():
            digit = v % xi
            if digit > half:
                digit -= xi
            if digit:
                out[e] = digit
            v = (v - digit) // xi
            if v:
                rest[e + step] = v
        h = rest
    return out


def _gcd_mod_p(a: list[int], b: list[int]) -> list[int]:
    """Euclid in F_p[x] on coefficient lists (constant term first, no trailing zeros)."""
    p = _PRIME
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


def _gcd_univariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """Euclid's algorithm on the primitive int parts: a GCD up to a unit.

    Each step a <- lb*a - la*x^s*b is the Fraction step a - (la/lb)*x^s*b
    times the nonzero integer lb, followed by dropping the integer content.
    """
    a, b = p._terms, q._terms
    while b:
        bexp = max(b)
        lb = b[bexp]
        while a:
            aexp = max(a)
            if aexp < bexp:
                break
            la, shift = a[aexp], aexp - bexp
            out = {e: lb * v for e, v in a.items()}
            get = out.get
            for e, v in b.items():
                e += shift
                out[e] = get(e, 0) - la * v
            a = {e: v for e, v in out.items() if v}
            if a:
                g = math.gcd(*a.values())
                if g > 1:
                    a = {e: v // g for e, v in a.items()}
        a, b = b, a
    return _make(1, a, _ONE)


def _gcd_nonzero(p: Polynomial, q: Polynomial) -> Polynomial:
    """A GCD of nonzero p and q up to a constant.

    In one variable, Euclid.  In more, p and q are lists of coefficients in
    the last variable: the GCD of their contents times the last nonzero
    member of the primitive pseudo-remainder sequence of their primitive
    parts (Collins 1967, Brown 1971).
    """
    n = p.nvars
    if n == 1:
        return _gcd_univariate(p, q)
    f, g = _coefficients_last(p), _coefficients_last(q)
    cf, cg = poly_gcd_many(f), poly_gcd_many(g)
    content = poly_gcd_many([cf, cg])
    f, g = _divided(f, cf), _divided(g, cg)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _prem(f, g)
        if r:
            r = _divided(r, poly_gcd_many(r))
        f, g = g, r
    return _join({(i,): content * c for i, c in enumerate(f)}, n)


def _coefficients_last(p: Polynomial) -> list[Polynomial]:
    """C_0 .. C_d of p = sum_i C_i x_last^i (C_d nonzero), each in the other variables."""
    parts = _split(p, p.nvars - 1)
    zero = _make(p.nvars - 1, {}, _ONE)
    return [parts.get((i,), zero) for i in range(max(parts)[0] + 1)]


def _divided(parts: list[Polynomial], d: Polynomial) -> list[Polynomial]:
    """Each entry over the monic d, which divides them all, with one rational scale making the integers coprime.

    A constant d is 1, so only a d of positive degree is divided out.  The
    scale is a unit, so no GCD changes; it keeps the integers of a
    remainder sequence from growing from one remainder to the next.
    """
    if d.degree() > 0:
        parts = [c.try_divide(d) for c in parts]
    scales = [c._c for c in parts if c._terms]
    scale = Fraction(
        math.gcd(*(c.numerator for c in scales)), math.lcm(*(c.denominator for c in scales))
    )
    return [_make(c.nvars, c._terms, c._c / scale) if c._terms else c for c in parts]


def _prem(f: list[Polynomial], g: list[Polynomial]) -> list[Polynomial]:
    """The pseudo-remainder of f by g, coefficient lists with nonzero last entries, len(f) >= len(g).

    Each step r <- lc(g)*r - lc(r)*x^s*g cancels the leading entry of r.
    """
    lg, dg = g[-1], len(g) - 1
    r = list(f)
    while len(r) > dg:
        lr = r.pop()
        s = len(r) - dg
        r = [lg * c for c in r]
        for i, c in enumerate(g[:-1], s):
            r[i] -= lr * c
        while r and not r[-1]:
            r.pop()
    return r
