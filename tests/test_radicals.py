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
    count_terms,
    mp_terms,
    squarefree_by_trial_division,
    terms_hash,
    terms_json,
    terms_str,
)


_value = RadicalValue.reciprocal_sqrt_sum


def _combined(*histograms: dict) -> dict:
    """The histogram of the sum of ``histograms``' values: their counts
    added radicand by radicand."""
    total: dict = {}
    for counts in histograms:
        for s, c in counts.items():
            total[s] = total.get(s, 0) + c
    return total


def _negated(counts: dict) -> dict:
    return {s: -c for s, c in counts.items()}


def _rescaled(counts: dict, m: int) -> dict:
    """The same value in another form: c/sqrt(s) = c*m/sqrt(m*m*s)."""
    return {m * m * s: c * m for s, c in counts.items()}


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
    value = _value({2**61 - 1: 2**61 - 1})  # sqrt(2**61 - 1)
    assert value.to_json_dict()["terms"] == [[2**61 - 1, "1/1"]]
    assert time.perf_counter() - start < 5.0


def test_reciprocal_sqrt_normalization():
    assert dict(_value({4: 1})) == {1: Fraction(1, 2)}
    assert dict(_value({3: 1})) == {3: Fraction(1, 3)}
    assert dict(_value({12: 1})) == {3: Fraction(1, 6)}
    assert dict(_value({1: 1})) == {1: Fraction(1)}


def test_square_factor_extraction_on_construction():
    # 8/sqrt(8) = sqrt(8) == 2*sqrt(2)
    assert dict(_value({8: 8})) == {2: Fraction(2)}
    # cancelling contributions vanish: 1/sqrt(2) - 2/sqrt(8)
    assert _fields(_value({2: 1, 8: -2})) == ((), 1)


def test_comparison_with_rationals():
    half = _value({1: Fraction(1, 2)})
    assert _value({4: 1}) == half
    assert _value({3: 1}) > half
    assert _value({5: 1}) < half
    # A value is ordered against values only.
    with pytest.raises(TypeError):
        half < 1


def test_exact_ordering_of_close_values():
    # sqrt(2) + sqrt(3) vs sqrt(9.86...): floats agree to ~1e-3, sign logic must not
    x = _value({2: 2, 3: 3})          # 3.14626...
    y = _value({1: Fraction(314626, 100000)})
    assert x > y
    z = _value({1: Fraction(314627, 100000)})
    assert x < z
    # x - x, its second form 4/sqrt(8) + 9/sqrt(27) subtracted
    assert _value({2: 2, 3: 3, 8: -4, 27: -9}).sign() == 0
    assert x == _value({8: 4, 27: 9}) and not x < _value({8: 4, 27: 9})


def test_sign_survives_tight_rational_gaps():
    # rational bracket of sqrt(2)+sqrt(3) accurate to 35 digits: the
    # interval refinement has to escalate well past double precision
    with mpmath.workdps(60):
        target = mpmath.sqrt(2) + mpmath.sqrt(3)
        scaled = int(mpmath.floor(target * mpmath.mpf(10) ** 35))
    lower = _value({1: Fraction(scaled, 10**35)})
    upper = _value({1: Fraction(scaled + 1, 10**35)})
    x = _value({2: 2, 3: 3})
    assert x > lower
    assert x < upper


def test_sign_fast_paths():
    assert _value({}).sign() == 0
    assert _value({3: 3, 5: 10}).sign() == 1  # sqrt(3) + 2*sqrt(5)
    assert _value({3: -3, 5: -10}).sign() == -1
    assert _value({3: 3, 5: -5}).sign() == (1 if math.sqrt(3) > math.sqrt(5) else -1)


def test_str_rendering():
    assert str(_value({})) == "0"
    assert str(_value({1: Fraction(3, 2)})) == "3/2"
    assert str(_value({1: 1, 5: 2})) == "1 + 2/5*sqrt(5)"
    assert str(_value({3: -1})) == "-1/3*sqrt(3)"


def test_json_round_trip():
    # 3/2 + 2/3*sqrt(3) - 5/14*sqrt(7)
    value = _value({1: Fraction(3, 2), 3: 2, 7: Fraction(-5, 2)})
    data = value.to_json_dict()
    assert data["terms"] == [[1, "3/2"], [3, "2/3"], [7, "-5/14"]]
    assert json.loads(json.dumps(data)) == data
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
    value = _value(terms)
    with mpmath.workdps(60):
        reference = mp_terms(dict(value))
        expected = 0 if reference == 0 else (1 if reference > 0 else -1)
    assert value.sign() == expected
    assert _value(_negated(terms)).sign() == -expected


@settings(max_examples=100, deadline=None)
@given(_term_strategy)
def test_float_matches_termwise_summation(terms):
    value = _value(terms)
    oracle = math.fsum(float(q) * math.sqrt(s) for s, q in value)
    assert float(value) == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def _oracle_sign(value: RadicalValue, other: RadicalValue | None = None, dps: int = 60) -> int:
    """The sign of ``value``, or of ``value - other``, from their terms in
    mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        reference = mp_terms(dict(value)) - (mp_terms(dict(other)) if other is not None else 0)
        return 0 if reference == 0 else (1 if reference > 0 else -1)


def _assert_paths_agree(value: RadicalValue, expected: int) -> None:
    assert value.sign() == expected
    if expected:
        assert _exact_sign(value._coords) == expected
    else:
        assert _fields(value) == ((), 1)


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
    x = _value(terms)
    if not dict(x):
        return
    # x - r as one histogram: -r added at radicand 1.
    r = _near_dyadic(x, extra_bits, offset)
    value = _value(_combined(terms, {1: -r}))
    _assert_paths_agree(value, _oracle_sign(x, _value({1: r}), dps=120))


@settings(max_examples=100, deadline=None)
@given(_term_strategy, _term_strategy)
def test_exact_equalities_and_filter_agree_with_oracle(t1, t2):
    # Values built from term maps pass no float filter: the exact sign and
    # the fields against mpmath.  ``test_packed_filter_agrees_with_exact_sign_and_oracle``
    # checks the one filter, on packed values.
    a, b = _value(t1), _value(t2)
    # (a + b) - b - a, the subtracted terms in other forms
    zero = _value(_combined(t1, t2, _negated(_rescaled(t2, 2)), _negated(_rescaled(t1, 3))))
    assert _fields(zero) == ((), 1)
    assert zero.sign() == 0
    difference, total = _value(_combined(t1, _negated(t2))), _value(_combined(t1, t2))
    assert _oracle_sign(difference) == _oracle_sign(a, b)
    for value in (a, b, difference, total):
        _assert_paths_agree(value, _oracle_sign(value))


def _assert_comparisons_agree(a, b, dps: int = 60) -> None:
    expected = _oracle_sign(a, b, dps)
    assert (a < b, a <= b, a > b, a >= b, a == b) == (
        expected < 0, expected <= 0, expected > 0, expected >= 0, expected == 0
    )


@settings(max_examples=200, deadline=None)
@given(_term_strategy, _term_strategy, _term_strategy, *_near_tie_strategy)
def test_comparisons_agree_with_difference_sign_and_oracle(t1, t2, shared, extra_bits, offset):
    a, b = _value(t1), _value(t2)
    _assert_comparisons_agree(a, b)
    # Every radicand of the shared histogram on both sides, with equal counts.
    _assert_comparisons_agree(_value({**t1, **shared}), _value({**t2, **shared}))
    if not dict(a):
        return
    r = _near_dyadic(a, extra_bits, offset)
    _assert_comparisons_agree(a, _value({1: r}), dps=120)
    _assert_comparisons_agree(_value({1: r}), a, dps=120)
    _assert_comparisons_agree(
        _value(_combined(t1, shared)), _value(_combined(shared, {1: r})), dps=120
    )


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
    coords = tuple((s, q.numerator * (den // q.denominator)) for s, q in terms)
    value = _from_canonical(coords, den)
    negated = _from_canonical(tuple((s, -n) for s, n in coords), den)
    expected = _oracle_sign(value, dps=1000)
    assert expected != 0
    assert value.sign() == expected
    assert negated.sign() == -expected
    assert (_value({}) < value) == (expected > 0)
    for other in (_value({}), negated, _value({2: 2}), _value({1: Fraction(-7, 3)})):
        cold = _operator_sign(value, other)
        assert cold == _oracle_sign(value, other, dps=1000)
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
    a, b, c = _value(t1), _value(t2), _value(t3)
    pairs = [(a, b)]
    if dict(a):
        pairs.append((a, _value({1: _near_dyadic(a, extra_bits, offset)})))
    for x, y in pairs:
        expected = _oracle_sign(x, y, dps=120)
        assert _operator_sign(x, y) == expected  # cold, or warm for a in its second pair
        assert _operator_sign(x, y) == expected  # warm: the same objects again
        assert _operator_sign(y, x) == -expected
        for z in (c, x, y):  # each warm value against a third, and itself
            for w in (x, y):
                assert _operator_sign(w, z) == _oracle_sign(w, z, dps=120)
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
    exact_a, exact_b = (_value(counts) for counts in pair)
    expected = _value(_combined(pair[0], _negated(pair[1]))).sign()
    assert expected == _oracle_sign(exact_a, exact_b)
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
    # Values built from term maps hold no enclosure: fields alone decide.
    # a and c are sqrt(2) + 1, and b is sqrt(3).
    a, b, c = _value({2: 2, 1: 1}), _value({3: 3}), _value({8: 4, 1: 1})
    assert b < a and c <= a
    assert a != b and not a == b and a == c and c == a
    assert calls == []
    # Packed values, byte s of the histogram counting 1/sqrt(s): 1/sqrt(2)
    # and 1/sqrt(3) are told apart by their enclosures, with no term built.
    x, y = RadicalValue.reciprocal_sqrt_packed(1 << 16), RadicalValue.reciprocal_sqrt_packed(1 << 24)
    assert not x == y
    assert len(calls) == 1 and x._c is None and y._c is None
    # Against a value with no enclosure, or once both are exact, the fields.
    assert x != b and y == _value({12: 2}) and x < a  # 2/sqrt(12) = 1/sqrt(3)
    assert dict(x) and dict(y)  # both exact now
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
    x = _value({2: 2, 3: 3})
    for offset in (0, 1):
        r = _value({1: _near_dyadic(x, 0, offset)})
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
    value = _value({1: q})
    assert hash(value) == hash(q)
    other = _value(terms)
    # Equal values hash alike, whichever way they were built: here with
    # 1/sqrt(2) - 2/sqrt(8), which is 0, added.
    rebuilt = _value(_combined(terms, {2: 1, 8: -2}))
    assert rebuilt is not other and rebuilt == other and hash(rebuilt) == hash(other)
    assert (other in {value}) == (other == value)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        keys=st.integers(min_value=1, max_value=60),
        values=st.integers(min_value=-3, max_value=5),
        max_size=8,
    )
)
def test_reciprocal_sqrt_sum_matches_the_normalizing_constructor(counts):
    value = _value(counts)
    assert dict(value) == count_terms(counts.items())
    _assert_canonical(value)


def _assert_matches_fraction_terms(value: RadicalValue, model: dict) -> None:
    _assert_canonical(value)
    assert dict(value) == model and list(value) == sorted(model.items())
    assert str(value) == terms_str(model)
    data, expected = value.to_json_dict(), terms_json(model)
    assert data["terms"] == expected["terms"]
    assert data["float"].hex() == expected["float"].hex()  # the same double
    assert hash(value) == terms_hash(model)


@settings(max_examples=300, deadline=None)
@given(_term_strategy, _term_strategy)
def test_representation_matches_the_fraction_term_formula(counts, other_counts):
    # Integer coordinates over one denominator against the Fraction-term
    # dicts of the reference.
    value, model = _value(counts), count_terms(counts.items())
    other, other_model = _value(other_counts), count_terms(other_counts.items())
    _assert_matches_fraction_terms(value, model)
    _assert_matches_fraction_terms(other, other_model)
    assert (value == other) == (model == other_model)


@pytest.mark.parametrize(
    "terms",
    [
        {1: Fraction(1, _BIG_PRIME)},
        {1: Fraction(-3, 2 * _BIG_PRIME)},
        {2: Fraction(1), 3: Fraction(3, 2 * _BIG_PRIME)},
        {2: Fraction(10, 3), 3: Fraction(-7, _BIG_PRIME * _BIG_PRIME)},
    ],
)
def test_hash_with_a_denominator_divisible_by_the_hash_modulus(terms):
    # 2**61 - 1 is the modulus on 64-bit builds: such a denominator has no
    # inverse modulo it, and Python hashes the Fraction as infinity.
    # ``terms`` is a radicand histogram, as for reciprocal_sqrt_sum.
    value = _value(terms)
    assert hash(value) == terms_hash(count_terms(terms.items()))


def test_zero_hashes_like_the_rational_zero():
    assert hash(_value({})) == hash(0) == hash(Fraction(0))
