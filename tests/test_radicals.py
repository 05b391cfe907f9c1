import json
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumconn import radicals
from sumconn.radicals import (
    RadicalValue,
    _decide,
    _exact_sign,
    _from_canonical,
    squarefree_decompose,
)
from sumconn.verify import run_sweeps

from oracles import (
    _float_sign,
    fraction_terms,
    squarefree_by_trial_division,
    terms_hash,
    terms_json,
    terms_str,
)


def _fields(value: RadicalValue) -> tuple:
    """A value's stored form: its integer coordinates and denominator."""
    return value._coords, value._den


def _assert_canonical(value: RadicalValue) -> None:
    """Sorted squarefree radicands, nonzero int coordinates, and a
    positive denominator coprime to them all together."""
    coords, den = _fields(value)
    radicands = [s for s, _ in coords]
    assert radicands == sorted(set(radicands))
    for s, n in coords:
        assert squarefree_decompose(s) == (1, s)
        assert type(n) is int and n != 0
    assert type(den) is int and den >= 1
    assert math.gcd(den, *(n for _, n in coords)) == 1


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(4) == (2, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(360) == (6, 10)
    assert squarefree_decompose(97) == (1, 97)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_squarefree_decompose_matches_trial_division():
    decompose = squarefree_decompose.__wrapped__  # leave the memo alone
    for value in range(1, 10**5):
        assert decompose(value) == squarefree_by_trial_division(value), value


def test_squarefree_decompose_large_radicands():
    # Trial division up to the square root takes minutes on each of these.
    p31, p29 = 2**31 - 1, 2**29 - 3  # both prime
    cases = [(2**61 - 1, (1, 2**61 - 1)), (p31 * p31 * 3, (p31, 3)), (p31 * p29, (1, p31 * p29))]
    for value, expected in cases:
        start = time.perf_counter()
        assert squarefree_decompose.__wrapped__(value) == expected
        assert time.perf_counter() - start < 5.0
    start = time.perf_counter()
    value = RadicalValue({2**61 - 1: 1})
    assert RadicalValue.from_json_dict(value.to_json_dict()) == value
    assert time.perf_counter() - start < 5.0


def test_reciprocal_sqrt_normalization():
    assert RadicalValue.reciprocal_sqrt(4).terms == {1: Fraction(1, 2)}
    assert RadicalValue.reciprocal_sqrt(3).terms == {3: Fraction(1, 3)}
    assert RadicalValue.reciprocal_sqrt(12).terms == {3: Fraction(1, 6)}
    assert RadicalValue.reciprocal_sqrt(1).terms == {1: Fraction(1)}


def test_square_factor_extraction_on_construction():
    # 1*sqrt(8) == 2*sqrt(2)
    assert RadicalValue({8: 1}).terms == {2: Fraction(2)}
    # cancelling contributions vanish
    assert (RadicalValue({8: 1}) - RadicalValue({2: 2})).is_zero()


def test_arithmetic_and_equality():
    a = RadicalValue({5: Fraction(2, 5), 1: 1})  # 1 + 2/sqrt(5)
    b = RadicalValue.from_rational(1) + RadicalValue.reciprocal_sqrt(5) * 2
    assert a == b
    assert hash(a) == hash(b)
    assert a - b == RadicalValue.zero()
    assert (a * 3).terms == {1: Fraction(3), 5: Fraction(6, 5)}
    assert a + Fraction(1, 2) == RadicalValue({1: Fraction(3, 2), 5: Fraction(2, 5)})
    assert 1 + RadicalValue.reciprocal_sqrt(5) * 2 == a


def test_comparison_with_rationals():
    half = RadicalValue.from_rational(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert RadicalValue.reciprocal_sqrt(4) == Fraction(1, 2)
    assert RadicalValue.reciprocal_sqrt(3) > Fraction(1, 2)
    assert RadicalValue.reciprocal_sqrt(5) < Fraction(1, 2)


def test_exact_ordering_of_close_values():
    # sqrt(2) + sqrt(3) vs sqrt(9.86...): floats agree to ~1e-3, sign logic must not
    x = RadicalValue.sqrt(2) + RadicalValue.sqrt(3)          # 3.14626...
    y = RadicalValue.from_rational(Fraction(314626, 100000))
    assert x > y
    z = RadicalValue.from_rational(Fraction(314627, 100000))
    assert x < z
    assert (x - x).sign() == 0


def test_sign_survives_tight_rational_gaps():
    # rational bracket of sqrt(2)+sqrt(3) accurate to 35 digits: the
    # interval refinement has to escalate well past double precision
    with mpmath.workdps(60):
        target = mpmath.sqrt(2) + mpmath.sqrt(3)
        scaled = int(mpmath.floor(target * mpmath.mpf(10) ** 35))
    lower = Fraction(scaled, 10**35)
    upper = Fraction(scaled + 1, 10**35)
    x = RadicalValue.sqrt(2) + RadicalValue.sqrt(3)
    assert x > lower
    assert x < upper


def test_sign_fast_paths():
    assert RadicalValue.zero().sign() == 0
    assert RadicalValue({3: 1, 5: 2}).sign() == 1
    assert RadicalValue({3: -1, 5: -2}).sign() == -1
    assert RadicalValue({3: 1, 5: -1}).sign() == (1 if math.sqrt(3) > math.sqrt(5) else -1)


def test_str_rendering():
    assert str(RadicalValue.zero()) == "0"
    assert str(RadicalValue.from_rational(Fraction(3, 2))) == "3/2"
    assert str(RadicalValue({1: 1, 5: Fraction(2, 5)})) == "1 + 2/5*sqrt(5)"
    assert str(RadicalValue({3: Fraction(-1, 3)})) == "-1/3*sqrt(3)"


def test_json_round_trip():
    value = RadicalValue({1: Fraction(3, 2), 3: Fraction(2, 3), 7: Fraction(-5, 14)})
    data = value.to_json_dict()
    assert data["terms"] == [[1, "3/2"], [3, "2/3"], [7, "-5/14"]]
    assert RadicalValue.from_json_dict(data) == value
    assert data["float"] == pytest.approx(float(value), rel=1e-15)


_term_strategy = st.dictionaries(
    keys=st.integers(min_value=1, max_value=40),
    values=st.builds(
        Fraction,
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=30),
    ),
    min_size=0,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_term_strategy)
def test_sign_matches_high_precision_oracle(terms):
    value = RadicalValue(terms)
    with mpmath.workdps(60):
        reference = mpmath.fsum(
            mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(s)
            for s, q in value.terms.items()
        )
        expected = 0 if reference == 0 else (1 if reference > 0 else -1)
    assert value.sign() == expected
    assert (-value).sign() == -expected


@settings(max_examples=100, deadline=None)
@given(_term_strategy, _term_strategy)
def test_add_sub_consistency(t1, t2):
    a, b = RadicalValue(t1), RadicalValue(t2)
    assert (a + b) - b == a
    assert a - b == -(b - a)
    assert float(a + b) == pytest.approx(float(a) + float(b), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(_term_strategy)
def test_float_matches_termwise_summation(terms):
    value = RadicalValue(terms)
    oracle = math.fsum(float(q) * math.sqrt(s) for s, q in value.terms.items())
    assert float(value) == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def _oracle_sign(value: RadicalValue, dps: int = 60) -> int:
    with mpmath.workdps(dps):
        reference = mpmath.fsum(
            mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(s)
            for s, q in value.terms.items()
        )
        return 0 if reference == 0 else (1 if reference > 0 else -1)


def _assert_paths_agree(value: RadicalValue, expected: int) -> None:
    assert value.sign() == expected
    if expected:
        assert _exact_sign(value._coords) == expected
    else:
        assert value.is_zero()


def _near_dyadic(x: RadicalValue, extra_bits: int, offset: int) -> Fraction:
    """A dyadic rational within 2**-60*|x| of the nonzero value x."""
    with mpmath.workdps(120):
        exact = mpmath.fsum(
            mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(s) for s, q in x
        )
        _, exponent = mpmath.frexp(exact)
        bits = 62 - int(exponent) + extra_bits
        return Fraction(int(mpmath.floor(exact * mpmath.mpf(2) ** bits)) + offset, 2**bits)


_near_tie_strategy = (
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-2, max_value=2),
)


@settings(max_examples=200, deadline=None)
@given(_term_strategy, *_near_tie_strategy)
def test_near_ties_agree_with_exact_refinement_and_oracle(terms, extra_bits, offset):
    # x - r with r a dyadic rational within 2**-60*|x| of x: no double
    # holds the sign, and the integer refinement must decide it.
    x = RadicalValue(terms)
    if x.is_zero():
        return
    value = x - _near_dyadic(x, extra_bits, offset)
    _assert_paths_agree(value, _oracle_sign(value, dps=120))


@settings(max_examples=100, deadline=None)
@given(_term_strategy, _term_strategy)
def test_exact_equalities_and_filter_agree_with_oracle(t1, t2):
    # Values built by arithmetic pass no float filter: the exact sign and
    # the fields against mpmath.  ``test_packed_filter_agrees_with_exact_sign_and_oracle``
    # checks the one filter, on packed values.
    a, b = RadicalValue(t1), RadicalValue(t2)
    assert _fields((a + b) - b - a) == ((), 1)
    assert ((a + b) - b - a).sign() == 0
    for value in (a, b, a - b, a + b):
        _assert_paths_agree(value, _oracle_sign(value))


def _assert_comparisons_agree(a, b, dps: int = 60) -> None:
    diff = a - b
    expected = diff.sign()
    assert expected == _oracle_sign(diff, dps)
    assert (a < b, a <= b, a > b, a >= b, a == b) == (
        expected < 0, expected <= 0, expected > 0, expected >= 0, expected == 0
    )


@settings(max_examples=200, deadline=None)
@given(_term_strategy, _term_strategy, _term_strategy, *_near_tie_strategy)
def test_comparisons_agree_with_difference_sign_and_oracle(t1, t2, shared, extra_bits, offset):
    a, b, c = RadicalValue(t1), RadicalValue(t2), RadicalValue(shared)
    _assert_comparisons_agree(a, b)
    # Every radicand of c on both sides, with equal coefficients.
    _assert_comparisons_agree(
        RadicalValue({**a.terms, **c.terms}), RadicalValue({**b.terms, **c.terms})
    )
    if a.is_zero():
        return
    r = _near_dyadic(a, extra_bits, offset)
    _assert_comparisons_agree(a, r, dps=120)
    _assert_comparisons_agree(r, a, dps=120)
    _assert_comparisons_agree(a + c, c + r, dps=120)


# 2**61 - 1 is prime, so squarefree; built directly because factoring it
# by trial division would take minutes.
_BIG_PRIME = 2**61 - 1


@pytest.mark.parametrize(
    "terms",
    [
        ((2, Fraction(10**400)), (3, -Fraction(10**400))),  # float(q) overflows
        ((2, Fraction(1, 10**400)), (3, -Fraction(1, 10**400))),  # float(q) underflows
        ((5, Fraction(2**950)), (7, Fraction(-(2**950)))),  # terms beyond 2**900
        ((1, Fraction(-(2**30))), (_BIG_PRIME, Fraction(1))),  # radicand not an exact double
        ((1, -Fraction(_BIG_PRIME, 2**30 + 1)), (_BIG_PRIME, Fraction(1))),
    ],
)
def test_sign_outside_filter_range(terms):
    # Values no double can hold: each comparison is exact, the same cold
    # and warm, against small values too.
    den = math.lcm(*(q.denominator for _, q in terms))
    value = _from_canonical(tuple((s, q.numerator * (den // q.denominator)) for s, q in terms), den)
    expected = _oracle_sign(value, dps=1000)
    assert expected != 0
    assert value.sign() == expected
    assert (-value).sign() == -expected
    assert (RadicalValue.zero() < value) == (expected > 0)
    for other in (RadicalValue.zero(), -value, RadicalValue.sqrt(2), Fraction(-7, 3)):
        cold = _operator_sign(value, other)
        assert cold == _oracle_sign(value - other, dps=1000)
        assert _operator_sign(value, other) == cold
        assert _operator_sign(other, value) == -cold


def _operator_sign(a, b) -> int:
    """The sign of a - b as the comparison operators give it, checked to
    be consistent across all five of them."""
    lt, le, gt, ge, eq = a < b, a <= b, a > b, a >= b, a == b
    sign = -1 if lt else (1 if gt else 0)
    assert (le, ge, eq) == (sign <= 0, sign >= 0, sign == 0)
    return sign


@settings(max_examples=200, deadline=None)
@given(_term_strategy, _term_strategy, _term_strategy, *_near_tie_strategy)
def test_cached_comparisons_agree_cold_and_warm(t1, t2, t3, extra_bits, offset):
    a, b, c = RadicalValue(t1), RadicalValue(t2), RadicalValue(t3)
    pairs = [(a, b)]
    if not a.is_zero():
        pairs.append((a, RadicalValue.from_rational(_near_dyadic(a, extra_bits, offset))))
    for x, y in pairs:
        expected = (x - y).sign()
        assert expected == _oracle_sign(x - y, dps=120)
        assert _operator_sign(x, y) == expected  # cold, or warm for a in its second pair
        assert _operator_sign(x, y) == expected  # warm: the same objects again
        assert _operator_sign(y, x) == -expected
        for z in (c, x, y):  # each warm value against a third, and itself
            for w in (x, y):
                assert _operator_sign(w, z) == _oracle_sign(w - z, dps=120)
                assert _operator_sign(w, z) == -_operator_sign(z, w)


# Histograms inside the capacity of ``_packed_enclosure``: radicands up to
# 225, the largest a graph on 16 vertices has, and counts up to 255.
_packed_counts = st.dictionaries(st.integers(1, 225), st.integers(1, 255), max_size=8)


@st.composite
def _packed_pairs(draw):
    """Two histograms: drawn apart, or the second the first with c counts
    at radicand b moved to m*m*b as c*m counts, an equal value in another
    form (c/sqrt(b) = c*m/sqrt(m*m*b))."""
    x = draw(_packed_counts)
    if draw(st.booleans()):
        return x, draw(_packed_counts)
    y = dict(x)
    b = draw(st.integers(1, 225 // 4))
    m = draw(st.integers(2, math.isqrt(225 // b)))
    c = draw(st.integers(0, min(y.get(b, 0), (255 - y.get(m * m * b, 0)) // m)))
    y[b] = y.get(b, 0) - c
    y[m * m * b] = y.get(m * m * b, 0) + c * m
    return x, {s: k for s, k in y.items() if k}


@settings(max_examples=200, deadline=None)
@given(_packed_pairs())
def test_packed_filter_agrees_with_exact_sign_and_oracle(pair):
    a, b = (sum(k << (8 * s) for s, k in counts.items()) for counts in pair)
    exact_a, exact_b = (RadicalValue.reciprocal_sqrt_sum(counts) for counts in pair)
    expected = (exact_a - exact_b).sign()
    assert expected == _oracle_sign(exact_a - exact_b)
    decision = _float_sign(a, b)
    assert decision in (0, expected)
    if not expected:
        assert decision == 0  # equal values are never told apart
    x, y = RadicalValue.reciprocal_sqrt_packed(a), RadicalValue.reciprocal_sqrt_packed(b)
    assert _decide(x._enc, y._enc) == decision
    # Cold: a comparison the enclosures decide builds no term.
    assert _operator_sign(x, y) == expected
    assert (x._c is None and y._c is None) == (decision != 0)
    # Warm, reversed, and against the exact forms.
    assert _operator_sign(x, y) == expected
    assert _operator_sign(y, x) == -expected
    assert _operator_sign(x, exact_b) == _operator_sign(exact_a, y) == expected


def test_equality_runs_the_float_test_only_for_unbuilt_terms(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _decide(*args)

    monkeypatch.setattr(radicals, "_decide", counted)
    # Values built by arithmetic hold no enclosure: fields alone decide.
    a, b, c = RadicalValue.sqrt(2) + 1, RadicalValue.sqrt(3), RadicalValue({2: 1, 1: 1})
    assert b < a and c <= a
    assert a != b and not a == b and a == c and c == a
    assert calls == []
    # Packed values, byte s of the histogram counting 1/sqrt(s): 1/sqrt(2)
    # and 1/sqrt(3) are told apart by their enclosures, with no term built.
    x, y = RadicalValue.reciprocal_sqrt_packed(1 << 16), RadicalValue.reciprocal_sqrt_packed(1 << 24)
    assert not x == y
    assert len(calls) == 1 and x._c is None and y._c is None
    # Against a value with no enclosure, or once both are exact, the fields.
    assert x != b and y == b * Fraction(1, 3) and x < a
    assert x.terms and y.terms  # both exact now
    assert not x == y
    assert len(calls) == 1


def test_exact_path_runs_on_near_ties_only(monkeypatch):
    calls = []

    def counted(coords):
        calls.append(coords)
        return _exact_sign(coords)

    monkeypatch.setattr(radicals, "_exact_sign", counted)
    assert run_sweeps().passed
    assert calls == []
    # sqrt(2) + sqrt(3) against dyadic rationals within 2**-62 of it.
    x = RadicalValue.sqrt(2) + RadicalValue.sqrt(3)
    for offset in (0, 1):
        r = _near_dyadic(x, 0, offset)
        assert (x > r) == (offset == 0)
    assert len(calls) == 2


_rational_strategy = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**20), max_value=10**20),
        st.integers(min_value=1, max_value=10**12),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_rational_strategy, _term_strategy)
def test_rational_values_hash_like_their_rationals(q, terms):
    value = RadicalValue.from_rational(q)
    assert value == q and hash(value) == hash(q)
    assert q in {value} and value in {q}
    assert len({value, q}) == 1
    other = RadicalValue(terms)
    # Equal values hash alike, whichever way they were built.
    rebuilt = other + RadicalValue.sqrt(2) - RadicalValue.sqrt(2)
    assert rebuilt is not other and hash(rebuilt) == hash(other)
    assert (other in {q}) == (other == q)


_scalar_strategy = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(
        Fraction,
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=1, max_value=12),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_term_strategy, _term_strategy, _scalar_strategy)
def test_arithmetic_results_match_the_normalizing_constructor(t1, t2, scalar):
    a, b = RadicalValue(t1), RadicalValue(t2)
    assert _fields(a + b) == _fields(RadicalValue(list(t1.items()) + list(t2.items())))
    assert _fields(a - b) == _fields(
        RadicalValue(list(t1.items()) + [(s, -q) for s, q in t2.items()])
    )
    assert _fields(a * scalar) == _fields(RadicalValue([(s, q * scalar) for s, q in t1.items()]))
    assert _fields(-a) == _fields(RadicalValue([(s, -q) for s, q in t1.items()]))
    assert _fields(a + scalar) == _fields(RadicalValue(list(t1.items()) + [(1, scalar)]))
    for value in (a + b, a - b, a * scalar, -a, a + scalar):
        _assert_canonical(value)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        keys=st.integers(min_value=1, max_value=60),
        values=st.integers(min_value=-3, max_value=5),
        max_size=8,
    )
)
def test_reciprocal_sqrt_sum_matches_the_normalizing_constructor(counts):
    value = RadicalValue.reciprocal_sqrt_sum(counts)
    assert _fields(value) == _fields(RadicalValue([(s, Fraction(k, s)) for s, k in counts.items()]))
    _assert_canonical(value)


_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["add", "sub", "neg", "mul", "radd", "from_rational", "json"]),
        _term_strategy,
        _scalar_strategy,
    ),
    max_size=8,
)


def _assert_matches_fraction_terms(value: RadicalValue, model: dict) -> None:
    _assert_canonical(value)
    assert value.terms == model and list(value) == sorted(model.items())
    assert str(value) == terms_str(model)
    data, expected = value.to_json_dict(), terms_json(model)
    assert data["terms"] == expected["terms"]
    assert data["float"].hex() == expected["float"].hex()  # the same double
    assert hash(value) == terms_hash(model)


@settings(max_examples=300, deadline=None)
@given(_term_strategy, _OPERATIONS)
def test_representation_matches_the_fraction_term_formula(start, operations):
    # Integer coordinates over one denominator against the Fraction-term
    # dicts of the reference, through every way a value is built.
    value, model = RadicalValue(start), fraction_terms(start.items())
    _assert_matches_fraction_terms(value, model)
    for name, terms, scalar in operations:
        other, other_model = RadicalValue(terms), fraction_terms(terms.items())
        if name == "add":
            value = value + other
            model = fraction_terms([*model.items(), *other_model.items()])
        elif name == "sub":
            value = value - other
            model = fraction_terms([*model.items(), *((b, -q) for b, q in other_model.items())])
        elif name == "neg":
            value, model = -value, {b: -q for b, q in model.items()}
        elif name == "mul":
            value, model = value * scalar, fraction_terms((b, q * scalar) for b, q in model.items())
        elif name == "radd":
            value, model = scalar + value, fraction_terms([*model.items(), (1, scalar)])
        elif name == "from_rational":
            value, model = RadicalValue.from_rational(scalar), fraction_terms([(1, scalar)])
        else:
            value = RadicalValue.from_json_dict(json.loads(json.dumps(value.to_json_dict())))
        _assert_matches_fraction_terms(value, model)
        assert (value == other) == (model == other_model)


@pytest.mark.parametrize(
    "terms",
    [
        {1: Fraction(1, _BIG_PRIME)},
        {1: Fraction(-3, 2 * _BIG_PRIME)},
        {2: Fraction(1, 2), 3: Fraction(1, 2 * _BIG_PRIME)},
        {2: Fraction(5, 3), 3: Fraction(-7, 3 * _BIG_PRIME * _BIG_PRIME)},
    ],
)
def test_hash_with_a_denominator_divisible_by_the_hash_modulus(terms):
    # 2**61 - 1 is the modulus on 64-bit builds: such a denominator has no
    # inverse modulo it, and Python hashes the Fraction as infinity.
    value = RadicalValue(terms)
    assert hash(value) == terms_hash(fraction_terms(terms.items()))


def test_zero_hashes_like_the_rational_zero():
    assert hash(RadicalValue.zero()) == hash(0) == hash(Fraction(0))
