"""Exact values of radical sums, compared exactly.

Connectivity-index values are finite sums ``sum c_s/sqrt(s)`` over a
histogram of radicands, i.e. numbers of the form ``sum q_b * sqrt(b)``
with rational ``q_b``.  Keeping every ``b`` squarefree makes such sums a
canonical form: square roots of distinct squarefree integers are linearly
independent over the rationals, so two values are equal exactly when
their terms coincide, and the sign of a nonzero value can always be
pinned down by refining integer-square-root intervals.  That is what lets
argmax ties and "equality iff" claims be decided exactly, with no
floating-point tolerance.  Every sign is decided by that refinement
(``_exact_sign``).  The one float filter is for index values packed as
histograms, below: two of them compare by their float enclosures when
the difference lies outside a proven error bound (see the soundness
argument in ``_decide``), and by their exact forms otherwise.

A value is built from a histogram, by ``reciprocal_sqrt_sum`` or
``reciprocal_sqrt_packed``, and is then compared, printed or written as
JSON; there is no arithmetic on values.  A difference is a histogram too:
``{3: 1, 1: Fraction(-5, 8)}`` is 1/sqrt(3) - 5/8.

Representation.  A value keeps its terms as integer coordinates over one
denominator: q_b = n_b/den, with ``_coords`` the pairs ``(b, n_b)``
sorted by b, each b squarefree and each n_b a nonzero int, and ``_den``
the int den >= 1, where gcd(den, every n_b) = 1.  The form is unique, so
equal values have equal fields: equality reads integers, and a
comparison takes one lcm and one gcd and no ``Fraction``.  Iteration
gives the q_b back as Fractions in lowest terms.

``float()`` sums n_b / den * sqrt(b), and is bit-identical to summing
float(q_b) * sqrt(b): n_b / den is Python's int/int true division, which
rounds the exact rational correctly, and float(Fraction(n_b, den)) is the
correctly rounded value of the same rational, whether or not n_b/den is
in lowest terms; so the two are the same double.

A value hashes like the tuple of its (b, q_b) pairs with Fraction q_b,
and a value whose one term has b = 1 like that rational q_1: both hashes
are Python's own, of the ``Fraction`` q_b.  Values compare only with
values: no value equals an int or a ``Fraction``, even one it hashes
like.

Values are normalized once, by ``reciprocal_sqrt_sum``: it splits each
radicand once, scales every coefficient's numerator to one denominator
and divides out one gcd (``_reduced``).  A comparison that needs the
exact sign merges two values that are already canonical: it scales them
to a common denominator, subtracts integers and divides out one gcd, with
no squarefree factoring.

A value built from a packed histogram of radicands
(``reciprocal_sqrt_packed``, an index value from its edge-type profile)
becomes exact only when read: it keeps the histogram and a float
enclosure read off its counts (``_packed_enclosure``), and builds its
terms by ``reciprocal_sqrt_sum`` on their first read.  Comparisons of two
such values that the enclosures decide, ``<`` and ``==`` alike, read no
term, so a value that only loses comparisons never builds them.  Any
other comparison reads terms: equal fields, or the exact sign of the
difference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import fsum, gcd, isqrt, lcm, sqrt
from typing import Iterator, Mapping, Union

Rational = Union[int, Fraction]

# Interval refinement doubles the working precision each round; values in
# this package are nonzero sums of a handful of small radicals, so a few
# rounds always suffice.  The cap only guards against misuse.
_MAX_SIGN_BITS = 1 << 13

# Radicands seen in practice are degree sums and products of graphs on at
# most 16 vertices; the bound only keeps odd inputs from growing the memo.
_MEMO_SIZE = 1 << 12

# ``_decide`` trusts a difference of packed enclosures beyond this relative
# margin.
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
    """An exact number ``sum q_b * sqrt(b)`` with squarefree ``b``, built
    from a histogram of radicands.

    Immutable.  Compares exactly with other values, and only with them;
    it also gives its sign, ``float()``, text and JSON form.

    ``_coords`` and ``_den`` hold the terms, as the module docstring sets
    out, in the slots ``_c`` and ``_d``.  A value from
    ``reciprocal_sqrt_packed`` keeps its histogram in ``_profile``, its
    float enclosure in ``_enc`` and ``None`` in ``_c`` until its terms are
    first read; every other value has ``None`` in ``_enc``.

    The terms are read through properties rather than a ``__getattr__``
    fallback on unset slots: a class with ``__getattr__`` loses the
    interpreter's fast reads of every attribute, which made comparisons
    about twice as slow.
    """

    __slots__ = ("_c", "_d", "_enc", "_profile")

    # -- constructors -----------------------------------------------------

    @classmethod
    def reciprocal_sqrt_sum(cls, counts: Mapping[int, Rational]) -> "RadicalValue":
        """Exact ``sum c/sqrt(s)`` over a histogram ``{s: c}``, each s >= 1
        and each c an int or a ``Fraction`` of either sign.

        ``c/sqrt(a*a*b)`` is ``(c/(a*b))*sqrt(b)``, split once per s.  Over
        den, the lcm of the denominators d = c.denominator*a*b, coordinate b
        is the integer sum of c.numerator*(den/d) over the s that reduce to
        it; ``_reduced`` brings them to lowest terms.
        """
        split: list[tuple[int, int, int]] = []
        den = 1
        for s, c in counts.items():
            a, b = squarefree_decompose(s)
            d = c.denominator * a * b
            split.append((b, c.numerator, d))
            den = lcm(den, d)
        coords: dict[int, int] = {}
        for b, p, d in split:
            coords[b] = coords.get(b, 0) + p * (den // d)
        return _reduced(coords, den)

    @classmethod
    def reciprocal_sqrt_packed(cls, packed: int) -> "RadicalValue":
        """Exact ``sum k/sqrt(s)`` over a histogram packed one byte per
        radicand, ``packed_counts(packed)``, made exact when first read.

        The value holds ``packed`` and its ``_packed_enclosure``; its terms
        are built when first read.
        """
        value = object.__new__(RadicalValue)
        value._profile = packed
        value._c = value._d = None
        value._enc = _packed_enclosure(packed)
        return value

    @property
    def _coords(self) -> tuple[tuple[int, int], ...]:
        if self._c is None:
            self._make_exact()
        return self._c

    @property
    def _den(self) -> int:
        if self._c is None:
            self._make_exact()
        return self._d

    def _make_exact(self) -> None:
        """Build and keep the terms of a ``reciprocal_sqrt_packed`` value,
        by ``reciprocal_sqrt_sum`` from its histogram.  ``_d`` is set
        first, so a thread that sees ``_c`` set finds both; two threads
        may both build them, to equal terms."""
        exact = RadicalValue.reciprocal_sqrt_sum(packed_counts(self._profile))
        self._d = exact._d
        self._c = exact._c

    # -- views -------------------------------------------------------------

    def __float__(self) -> float:
        den = self._den
        return fsum(n / den * sqrt(b) for b, n in self._coords)

    # -- exact comparison ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign (-1, 0, +1), by interval refinement in scaled
        integers (``_exact_sign``)."""
        coords = self._coords
        return _exact_sign(coords) if coords else 0

    def _cmp(self, other: object) -> int | None:
        """Sign of ``self - other``, or None when ``other`` is not a value:
        by ``_decide`` when both sides are packed and their enclosures are
        far enough apart, else 0 for equal fields, and for the rest the
        ``sign`` of the difference, its coordinates merged over the lcm of
        the two denominators."""
        if type(other) is not RadicalValue:
            return None
        if self is other:
            return 0
        sa, sb = self._enc, other._enc
        decided = sa is not None and sb is not None and _decide(sa, sb)
        if decided:
            return decided
        if self._den == other._den and self._coords == other._coords:
            return 0
        den = lcm(self._den, other._den)
        scale = den // self._den
        merged = {b: n * scale for b, n in self._coords}
        scale = den // other._den
        for b, n in other._coords:
            merged[b] = merged.get(b, 0) - n * scale
        return _reduced(merged, den).sign()

    def __eq__(self, other: object) -> bool:
        """Equal terms, or early: the same object is equal, and, when both
        sides are packed and a side's terms are not built yet, two
        enclosures that ``_decide`` separates are not, with no term built.
        Values whose terms are both built compare them alone: that is
        cheaper than the float test."""
        if type(other) is not RadicalValue:
            return NotImplemented
        if self is other:
            return True
        if (
            (self._c is None or other._c is None)
            and self._enc is not None
            and other._enc is not None
            and _decide(self._enc, other._enc)
        ):
            return False
        return self._den == other._den and self._coords == other._coords

    def __lt__(self, other: "RadicalValue") -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c < 0

    def __le__(self, other: "RadicalValue") -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c <= 0

    def __gt__(self, other: "RadicalValue") -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c > 0

    def __ge__(self, other: "RadicalValue") -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c >= 0

    def __hash__(self) -> int:
        # The hash of the rational q_1 when that is the one term, else of
        # the tuple of the (b, Fraction q_b) pairs.
        pairs = tuple(self)
        if not pairs:
            return 0
        if len(pairs) == 1 and pairs[0][0] == 1:
            return hash(pairs[0][1])
        return hash(pairs)

    # -- formatting / serialization -------------------------------------------

    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        den = self._den
        return ((b, Fraction(n, den)) for b, n in self._coords)

    def __str__(self) -> str:
        if not self._coords:
            return "0"
        parts: list[str] = []
        for s, q in self:
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
        den = self._den
        terms = []
        for b, n in self._coords:
            g = gcd(n, den)  # q_b in lowest terms, as a Fraction has it
            terms.append([b, f"{n // g}/{den // g}"])
        return {"terms": terms, "float": float(self)}


def _from_canonical(coords: tuple[tuple[int, int], ...], den: int) -> RadicalValue:
    """A value from fields already in canonical form.

    ``coords`` must be sorted by radicand, each radicand squarefree and
    each coordinate a nonzero int, and ``den >= 1`` coprime to them all
    together; nothing is checked.
    """
    value = object.__new__(RadicalValue)
    value._c = coords
    value._d = den
    value._enc = None
    return value


def _reduced(coords: dict[int, int], den: int) -> RadicalValue:
    """The value ``sum n_b/den * sqrt(b)`` from ``coords``, ``{b: n_b}``
    over squarefree b, and ``den >= 1``: zero n_b are dropped, and one gcd
    brings den and the rest to lowest terms."""
    g = gcd(den, *coords.values())
    return _from_canonical(tuple(sorted([(b, n // g) for b, n in coords.items() if n])), den // g)


# The width of one count in a packed histogram: one byte per radicand, as
# ``packed_counts`` decodes it with ``int.to_bytes``.  Every packer shifts
# by it, and its largest count, 255, is the k <= 255 that
# ``_packed_enclosure`` assumes.
_PACKED_BITS = 8


def packed_counts(packed: int) -> dict[int, int]:
    """``{s: k}``: the nonzero counts of a histogram packed one byte per
    radicand, byte s of ``packed`` (little-endian) being k."""
    counts = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    return {s: k for s, k in enumerate(counts) if k}


def _packed_enclosure(packed: int) -> float:
    """Float enclosure of x = sum k/sqrt(s) over ``packed_counts(packed)``:
    S = the ``fsum`` of the doubles k / sqrt(s), and |S - x| <= 3.01u*S
    (u = 2**-53), the bound ``_decide`` assumes.

    Soundness.  A radicand s is a byte's index, far below 2**53, so it is
    an exact double and IEEE sqrt rounds sqrt(s) correctly; a count k is
    an exact double in [1, 255], and k / sqrt(s) is one more correctly
    rounded operation.  So f = x_s*(1+d2)/(1+d1) with |d1|, |d2| <= u,
    and |f - x_s| <= 2u(1+u)/(1-u)**2 * f.  Every f lies in [2**-27, 255],
    far from the subnormal and overflow ranges, and is positive.
    math.fsum rounds correctly: S is within u*sum(f) of sum(f), and
    sum(f) <= S/(1-u).  Hence |S - x| <= (2u(1+u)/(1-u)**2 + u)/(1-u) * S
    <= 3.01u*S.  The empty histogram gives 0, exact.
    """
    return fsum([k / sqrt(s) for s, k in packed_counts(packed).items()])


def _decide(sa: float, sb: float) -> int:
    """Sign of x_a - x_b from the ``_packed_enclosure``s ``sa`` of x_a and
    ``sb`` of x_b, or 0 when undecided.

    Soundness.  By ``_packed_enclosure``, |S - x| <= 3.01u*S with S >= 0
    on each side, so |(sa - sb) - (x_a - x_b)| <= 3.01u*(sa + sb).
    D = sa - sb and M = sa + sb each add one rounding: D = (sa - sb)*(1+e1)
    and M = (sa + sb)*(1+e2) with |e1|, |e2| <= u (a difference that lands
    below the normal range is exact), and 2**-48*M = 32u*M is exact.  If
    |D| > 32u*M, then |sa - sb| >= |D|/(1+u) > 32u*(1-u)/(1+u)*(sa + sb),
    and 32u*(1-u)/(1+u) > 31u, over ten times the 3.01u*(sa + sb) by
    which sa - sb can miss x_a - x_b; so x_a - x_b has the sign of sa - sb,
    which rounding gives D too.
    """
    d = sa - sb
    if abs(d) > _FILTER_MARGIN * (sa + sb):
        return 1 if d > 0 else -1
    return 0


def _exact_sign(coords: tuple[tuple[int, int], ...]) -> int:
    """Sign of a nonempty sum ``sum p*sqrt(s)`` over integer coordinates
    ``(s, p)``, a value's sign (its denominator is positive), by interval
    refinement in integers.

    r_s = isqrt(s << 2b) satisfies r_s <= sqrt(s)*2**b < r_s + 1, so
    2**b * sum(p*sqrt(s)) lies in [lo, lo + sum|p|], where lo takes r_s
    for positive p and r_s + 1 for negative ones.
    """
    width = sum(abs(p) for _, p in coords)
    bits = 32
    while bits <= _MAX_SIGN_BITS:
        lo = 0
        for s, p in coords:
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
