"""Exact arithmetic on rational combinations of square roots.

Connectivity-index values are finite sums of reciprocal square roots of
small integers, i.e. numbers of the form ``sum q_s * sqrt(s)`` with
rational ``q_s``.  Keeping every ``s`` squarefree makes such sums a
canonical form: square roots of distinct squarefree integers are linearly
independent over the rationals, so two values are equal exactly when
their term maps coincide, and the sign of a nonzero value can always be
pinned down by refining integer-square-root intervals.  That is what lets
argmax ties and "equality iff" claims be decided exactly, with no
floating-point tolerance: a comparison trusts the difference of two float
enclosures only when it lies outside a proven error bound (see the
soundness argument in ``_decide``) and refines the rest with integer
square roots.

Values are normalized once, by the public constructor.  Arithmetic merges
operands that are already canonical and builds its result through
``_from_canonical``, which skips the squarefree factoring.  Each value
computes its float enclosure (``_enclosure``) and its hash on first use
and keeps them, so comparing or grouping a value again repeats neither.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import fsum, inf, isqrt, lcm, sqrt
from typing import Iterable, Iterator, Mapping, Union

Rational = Union[int, Fraction]

# Interval refinement doubles the working precision each round; values in
# this package are nonzero sums of a handful of small radicals, so a few
# rounds always suffice.  The cap only guards against misuse.
_MAX_SIGN_BITS = 1 << 13

# Radicands seen in practice are degree sums and products of graphs on at
# most 16 vertices; the bound only keeps odd inputs from growing the memo.
_MEMO_SIZE = 1 << 12

# ``_enclosure`` takes radicands that are exact doubles, and terms whose
# magnitudes stay far from overflow and from the subnormal range;
# ``_decide`` trusts a difference of enclosures beyond this relative margin.
_FILTER_MAX_RADICAND = 1 << 53
_FILTER_TINY = 2.0**-900
_FILTER_HUGE = 2.0**900
_FILTER_MARGIN = 2.0**-48


@lru_cache(maxsize=_MEMO_SIZE)
def squarefree_decompose(value: int) -> tuple[int, int]:
    """Split a positive integer as ``a*a*b`` with ``b`` squarefree.

    Returns ``(a, b)``; e.g. ``12 -> (2, 3)`` since ``sqrt(12) = 2*sqrt(3)``.
    """
    if value <= 0:
        raise ValueError(f"expected a positive integer, got {value}")
    a, b, m = 1, 1, value
    p = 2
    # Divide out whole prime powers while p**3 <= m.  Afterwards every prime
    # factor of m is at least p > cbrt(m), so m is 1, q, q*r or q*q.
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            a *= p ** (e // 2)
            b *= p ** (e % 2)
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        return a * r, b
    return a, b * m


class RadicalValue:
    """An exact number ``sum q_s * sqrt(s)`` with squarefree ``s``.

    Immutable.  Supports exact addition, subtraction, scaling by
    rationals, and exact comparison against other values or rationals.
    A value equal to a rational hashes like it.

    Besides its terms, a value keeps its float enclosure ``(S, A)`` in
    ``_sum`` and ``_abs`` and its hash in ``_hash``, each filled on first
    use; ``None`` in ``_abs`` or ``_hash`` marks one not yet computed.
    """

    __slots__ = ("_terms", "_sum", "_abs", "_hash")

    def __init__(self, terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for s, q in items:
            a, b = squarefree_decompose(s)
            q = Fraction(q) * a
            if q:
                total = acc.get(b, 0) + q
                if total:
                    acc[b] = total
                else:
                    acc.pop(b, None)
        self._terms = tuple(sorted(acc.items()))
        self._abs = self._hash = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "RadicalValue":
        return cls()

    @classmethod
    def from_rational(cls, q: Rational) -> "RadicalValue":
        q = Fraction(q)
        return _from_canonical(((1, q),) if q else ())

    @classmethod
    def sqrt(cls, s: int) -> "RadicalValue":
        return cls(((s, 1),))

    @classmethod
    def reciprocal_sqrt(cls, s: int) -> "RadicalValue":
        """Exact ``1/sqrt(s)``, stored as ``(a/s)*sqrt(b)`` for ``s = a*a*b``."""
        return cls.reciprocal_sqrt_sum({s: 1})

    @classmethod
    def reciprocal_sqrt_sum(cls, counts: Mapping[int, int]) -> "RadicalValue":
        """Exact ``sum k/sqrt(s)`` over a histogram ``{s: k}``.

        ``k/sqrt(a*a*b)`` is ``(k*a/s)*sqrt(b)``; the terms that share a
        squarefree ``b`` are summed as one integer fraction, reduced once.
        """
        acc: dict[int, tuple[int, int]] = {}
        for s, k in counts.items():
            a, b = squarefree_decompose(s)
            if b in acc:
                num, den = acc[b]
                acc[b] = (num * s + k * a * den, den * s)
            else:
                acc[b] = (k * a, s)
        return _from_canonical(
            tuple(sorted((b, Fraction(num, den)) for b, (num, den) in acc.items() if num))
        )

    # -- views -------------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        """Term map ``{s: q_s}`` (a fresh dict; the value is immutable)."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __float__(self) -> float:
        return fsum(float(q) * sqrt(s) for s, q in self._terms)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other: "RadicalValue" | Rational) -> "RadicalValue | None":
        if isinstance(other, RadicalValue):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalValue.from_rational(other)
        return None

    def __add__(self, other: "RadicalValue" | Rational) -> "RadicalValue":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc = dict(self._terms)
        for s, q in rhs._terms:
            total = acc.get(s, 0) + q
            if total:
                acc[s] = total
            else:
                del acc[s]
        return _from_canonical(tuple(sorted(acc.items())))

    __radd__ = __add__

    def __neg__(self) -> "RadicalValue":
        return _from_canonical(tuple((s, -q) for s, q in self._terms))

    def __sub__(self, other: "RadicalValue" | Rational) -> "RadicalValue":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: Rational) -> "RadicalValue":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __mul__(self, scalar: Rational) -> "RadicalValue":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return _from_canonical(())
        return _from_canonical(tuple((s, q * scalar) for s, q in self._terms))

    __rmul__ = __mul__

    # -- exact comparison ----------------------------------------------------

    def _enclose(self) -> None:
        """Fill the cached enclosure.  A value ``_enclosure`` refuses gets
        ``(0.0, inf)``: its margin is infinite, so ``_decide`` never
        trusts it and every comparison with it takes the exact path."""
        enclosure = _enclosure(self._terms)
        self._sum, self._abs = (0.0, inf) if enclosure is None else enclosure

    def sign(self) -> int:
        """Exact sign (-1, 0, +1).

        The cached float enclosure decides the sign only when it lies
        outside a proven error bound (see ``_decide`` for the argument);
        every other value goes to exact interval refinement in scaled
        integers.
        """
        terms = self._terms
        if not terms:
            return 0
        if self._abs is None:
            self._enclose()
        return _decide(self._sum, self._abs, 0.0, 0.0) or _exact_sign(terms)

    def _cmp(self, other: "RadicalValue" | Rational) -> int | None:
        rhs = self._coerce(other)
        if rhs is None:
            return None
        if self is rhs:
            return 0
        if self._abs is None:
            self._enclose()
        if rhs._abs is None:
            rhs._enclose()
        return _decide(self._sum, self._abs, rhs._sum, rhs._abs) or (
            0 if self._terms == rhs._terms else (self - rhs).sign()
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        rhs = self._coerce(other) if isinstance(other, (RadicalValue, int, Fraction)) else None
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __lt__(self, other: "RadicalValue" | Rational) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c < 0

    def __le__(self, other: "RadicalValue" | Rational) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c <= 0

    def __gt__(self, other: "RadicalValue" | Rational) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c > 0

    def __ge__(self, other: "RadicalValue" | Rational) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c >= 0

    def __hash__(self) -> int:
        # Equal to the hash of the rational a value equals, if it is one.
        h = self._hash
        if h is None:
            terms = self._terms
            if not terms:
                h = hash(0)
            elif len(terms) == 1 and terms[0][0] == 1:
                h = hash(terms[0][1])
            else:
                h = hash(terms)
            self._hash = h
        return h

    # -- formatting / serialization -------------------------------------------

    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for s, q in self._terms:
            if s == 1:
                body = _frac_str(abs(q))
            elif abs(q) == 1:
                body = f"sqrt({s})"
            else:
                body = f"{_frac_str(abs(q))}*sqrt({s})"
            if not parts:
                parts.append(body if q > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if q > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RadicalValue({str(self)!r})"

    def to_json_dict(self) -> dict:
        """JSON form: ``{"terms": [[s, "p/q"], ...], "float": x}``."""
        return {
            "terms": [[s, f"{q.numerator}/{q.denominator}"] for s, q in self._terms],
            "float": float(self),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RadicalValue":
        return cls(tuple((int(s), Fraction(q)) for s, q in data["terms"]))


def _from_canonical(terms: tuple[tuple[int, Fraction], ...]) -> RadicalValue:
    """A value from terms already in canonical form.

    ``terms`` must be sorted by radicand, each radicand squarefree and each
    coefficient a nonzero ``Fraction``; nothing is checked.
    """
    value = object.__new__(RadicalValue)
    value._terms = terms
    value._abs = value._hash = None
    return value


def _enclosure(terms: tuple[tuple[int, Fraction], ...]) -> tuple[float, float] | None:
    """Float enclosure ``(S, A)`` of ``sum(terms)``, or None when a guard
    fails: S is the ``fsum`` of the per-term doubles and A the ``fsum`` of
    their absolute values, and |S - sum(terms)| <= 4.1u*A (u = 2**-53).

    ``terms`` are sorted by radicand, as a value's are.  For the empty sum
    both are 0, and exact.

    Soundness.  Let x_i = q_i*sqrt(s_i) exactly and f_i = (n_i / d_i) *
    sqrt(s_i) evaluated in doubles, for q_i = n_i/d_i in lowest terms.
    n_i / d_i is Python's int/int true division, which is correctly
    rounded; it is the same division float(q_i) makes, without the
    ``__float__`` call frames.  sqrt(s_i) is IEEE sqrt of s_i, an exact
    double since s_i < 2**53, so it is correctly rounded too, and so is
    their product.  While nothing is subnormal or overflows,
    f_i = x_i*(1+d1)*(1+d2)*(1+d3) with every |d_j| <= u, so
    |f_i - x_i| <= ((1+u)**3 - 1)*|x_i| <= 3.01u*|f_i|.  math.fsum is
    correctly rounded too: S is within u*sum|f_i| of sum(f_i), and
    A >= (1-u)*sum|f_i|.  Hence |S - sum(x_i)| <= 4.1u*A.  Requiring every
    |f_i| in (2**-900, 2**900) keeps n_i / d_i (sqrt(s_i) lies in
    [1, 2**26.5]), each product and each fsum normal and finite: every f_i
    is a multiple of 2**-952, so S is 0 or at least that large.  A
    quotient too large for a double raises OverflowError, which also
    returns None.
    """
    if not terms:
        return 0.0, 0.0
    if terms[-1][0] >= _FILTER_MAX_RADICAND:
        return None
    try:
        f = [q.numerator / q.denominator * sqrt(s) for s, q in terms]
    except OverflowError:
        return None
    a = [abs(x) for x in f]
    if not (_FILTER_TINY < min(a) and max(a) < _FILTER_HUGE):
        return None
    return fsum(f), fsum(a)


def _decide(sa: float, aa: float, sb: float, ab: float) -> int:
    """Sign of x_a - x_b from enclosures ``(sa, aa)`` of x_a and
    ``(sb, ab)`` of x_b, or 0 when undecided.

    Soundness.  By ``_enclosure``, |S - x| <= 4.1u*A on each side, so
    |(sa - sb) - (x_a - x_b)| <= 4.1u*(aa + ab).  D = sa - sb and
    M = aa + ab each add one rounding: D = (sa - sb)*(1+e1) and
    M = (aa + ab)*(1+e2) with |e1|, |e2| <= u (a difference that lands
    below the normal range is exact), and 2**-48*M = 32u*M is exact.  If
    |D| > 32u*M, then |sa - sb| >= |D|/(1+u) > 32u*(1-u)/(1+u)*(aa + ab),
    and 32u*(1-u)/(1+u) > 8.2u, twice the 4.1u*(aa + ab) by which
    sa - sb can miss x_a - x_b; so x_a - x_b has the sign of sa - sb,
    which rounding gives D too.  An infinite A (a value ``_enclosure``
    refused) makes the margin infinite and the decision 0.
    """
    d = sa - sb
    if abs(d) > _FILTER_MARGIN * (aa + ab):
        return 1 if d > 0 else -1
    return 0


def _float_sign(
    terms: tuple[tuple[int, Fraction], ...],
    minus: tuple[tuple[int, Fraction], ...] = (),
) -> int:
    """Sign of ``sum(terms) - sum(minus)`` decided in doubles, or 0 when
    undecided: ``_decide`` on the two sides' enclosures, computed afresh.
    Values make the same decision on the enclosures they keep."""
    a, b = _enclosure(terms), _enclosure(minus)
    if a is None or b is None:
        return 0
    return _decide(*a, *b)


def _exact_sign(terms: tuple[tuple[int, Fraction], ...]) -> int:
    """Sign of a nonempty sum by interval refinement in integers.

    Scaling by the lcm of the denominators gives integer coefficients p_i.
    r_i = isqrt(s_i << 2b) satisfies r_i <= sqrt(s_i)*2**b < r_i + 1, so
    2**b * sum(p_i*sqrt(s_i)) lies in [lo, lo + sum|p_i|], where lo takes
    r_i for positive p_i and r_i + 1 for negative ones.
    """
    scale = lcm(*(q.denominator for _, q in terms))
    coeffs = [(s, q.numerator * (scale // q.denominator)) for s, q in terms]
    width = sum(abs(p) for _, p in coeffs)
    bits = 32
    while bits <= _MAX_SIGN_BITS:
        lo = 0
        for s, p in coeffs:
            root = isqrt(s << (2 * bits))
            lo += p * (root if p > 0 else root + 1)
        if lo > 0:
            return 1
        if lo + width < 0:
            return -1
        bits *= 2
    # Unreachable for genuinely nonzero values: independence of the
    # radicals guarantees only the empty sum is zero.
    raise AssertionError("sign refinement did not converge")


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
