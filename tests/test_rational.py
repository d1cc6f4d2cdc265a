import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_trace_ticks import primes
from reseqkit import rational
from reseqkit.rational import (
    INF,
    MAX_EXPONENT,
    exact,
    finite,
    fmt_rat,
    fmt_ticks,
    on_common_base,
    over,
    parse_finite_time,
    parse_time,
    rebased,
    reduced,
    seconds_to_us_display,
)


class TestParse:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("64", F(64)),
            ("251.5", F("251.5")),
            ("125e6", F(125_000_000)),
            ("12e-6", F(3, 250000)),
            ("-0.5", F(-1, 2)),
            ("3/7", F(3, 7)),
            (64, F(64)),  # a JSON int is exact
            ("1e1000", F(10) ** 1000),  # exponents up to MAX_EXPONENT
            ("-2.5E-0999", F(-25, 10**1000)),
            ("0.5e-6", F(1, 2 * 10**6)),
            (F(3, 7), F(3, 7)),
        ],
    )
    def test_exact_forms(self, text, want):
        assert exact(text) == want and type(exact(text)) is F

    def test_inf(self):
        # every spelling of +inf is the one INF object
        for text in ("inf", "Infinity", "+inf", math.inf, float("inf")):
            assert exact(text) is INF

    def test_rejects_junk(self):
        # JSON floats, null, booleans, lists and objects are no exact number
        for bad in ("1.2.3", "0x10", "nan", "1e", "", "1_000", "-inf", 125e6,
                    0.1, -math.inf, math.nan, None, True, [64], {}):
            with pytest.raises(ValueError):
                exact(bad)

    @pytest.mark.parametrize("text", ["3/0", "-1/000", "0/0", " 7/0 "])
    def test_zero_denominator_refused(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            exact(text)
        assert exact("3/10") == F(3, 10)

    @pytest.mark.parametrize(
        "text", ["1e1001", "1e-1001", "0.5E+1001", "1e" + "9" * 5000, "1e+01001"]
    )
    def test_exponent_beyond_the_bound_refused(self, text):
        # refused from the literal alone: no 10**1001 integer is built
        assert MAX_EXPONENT == 1000
        with pytest.raises(ValueError, match="exponent beyond"):
            exact(text)
        with pytest.raises(ValueError, match="exponent beyond"):
            parse_time(text + "us")

    @pytest.mark.parametrize(
        "text", ["1" * 3000 + "." + "1" * 3000, "1" * 3000 + "/" + "7" * 3000],
        ids=["decimal", "fraction"],
    )
    def test_digit_limit_counts_the_whole_literal(self, text, monkeypatch):
        # each part fits in the limit, but the literal's digits together do
        # not: a plain decimal's digits are read as one integer
        monkeypatch.setattr(rational, "_int_digit_limit", lambda: 4300)
        with pytest.raises(ValueError, match=r"^literal beyond 4300 digits: '1{20}\.\.\.'$"):
            exact(text)
        assert exact(text[:4300]) == F(text[:4300])

    @pytest.mark.parametrize(
        "text,want",
        [
            ("29.49us", F("29.49e-6")),
            ("12ms", F("0.012")),
            ("512ns", F("512e-9")),
            ("2s", F(2)),
            ("0.5", F(1, 2)),
        ],
    )
    def test_time_suffixes(self, text, want):
        assert parse_time(text) == want

    @pytest.mark.parametrize("text", ["inf", "infms", "inf us", "infs"])
    def test_infinite_time_is_the_inf_object(self, text):
        assert parse_time(text) is INF

    def test_finite_parsers_refuse_inf(self):
        assert finite("251.5") == F("251.5") and finite(64) == 64
        assert parse_finite_time("29.49us") == F("29.49e-6")
        for parse, text in [(finite, "inf"), (finite, "+inf"),
                            (finite, "Infinity"), (parse_finite_time, "inf"),
                            (parse_finite_time, "infms")]:
            with pytest.raises(ValueError) as exc:
                parse(text)
            assert str(exc.value) == f"not a finite number: '{text}'"


class TestTicks:
    def test_common_base_is_the_lcm_of_the_denominators(self):
        den, cols = on_common_base([F(1, 2), INF, F(5)], [None, F(-2, 3)])
        assert den == 6
        assert cols == [[3, INF, 30], [None, -4]]
        assert cols[0][1] is INF

    def test_over_shares_equal_values(self):
        out = over({1: 3, 2: INF, 3: 3, 4: 0}, 6)
        assert out == {1: F(1, 2), 2: INF, 3: F(1, 2), 4: 0}
        assert out[1] is out[3] and out[2] is INF

    @given(st.integers(-10**12, 10**12), st.integers(0, 30), st.integers(0, 30),
           st.sampled_from([1, 3, 7]))
    def test_format_is_the_shortest_exact_literal(self, num, twos, fives, odd):
        x = F(num, 2**twos * 5**fives * odd)
        text = fmt_rat(x)
        assert exact(text) == x
        if x.denominator % 3 == 0 or x.denominator % 7 == 0:
            assert text == f"{x.numerator}/{x.denominator}"
        else:
            assert "/" not in text and not ("." in text and text.endswith("0"))


# 1, ns, 2^k, 5^k, 2^a*5^b, a non-decimal base, and the product of the first
# 1000 primes, the time base of test_trace_ticks' prime-denominator trace
TICK_BASES = (1, 10**9, 2**40, 5**17, 2**7 * 5**3, 3 * 7 * 1000,
              math.prod(primes(1000)))


# 10^k; a capture base extended by the q of a value p/q, as a timeout of
# 1/3 s extends a nanosecond trace; and products of the first k primes
BASES = st.one_of(
    st.integers(0, 15).map(lambda k: 10**k),
    st.builds(lambda q, k: q * 10**k, st.integers(1, 1000), st.integers(0, 9)),
    st.integers(1, 40).map(lambda k: math.prod(primes(k))),
)


@st.composite
def tick_column(draw, den):
    """Ticks on ``den``, INF among them, all sharing a factor with ``den``
    when one is drawn, so that the column may reduce."""
    factor = math.gcd(den, draw(st.sampled_from((1, 2, 3, 5, 10, 7 * 11, 10**6, 2**40))))
    value = st.integers(-10**30, 10**30).map(lambda n: n * factor)
    return draw(st.lists(st.one_of(value, st.just(0), st.just(INF)), max_size=12))


def values(den, column):
    """The finite values of a column on ``den``, and where its INFs are."""
    return ([F(t, den) for t in column if t is not INF],
            [i for i, t in enumerate(column) if t is INF])


class TestTickBases:
    @given(st.data())
    def test_reduced_is_the_least_base_of_the_same_values(self, data):
        den = data.draw(BASES)
        columns = data.draw(st.lists(tick_column(den), min_size=1, max_size=3))
        least, out = reduced(den, *columns)
        assert [values(least, col) for col in out] == [values(den, col) for col in columns]
        assert all(t is INF for col in out for t in col if t == INF)
        assert math.gcd(least, *(t for col in out for t in col if t is not INF)) == 1

    @given(st.data())
    def test_rebased_moves_every_value_to_the_lcm_of_the_bases(self, data):
        bases = data.draw(st.lists(BASES, min_size=1, max_size=3))
        columns = [data.draw(tick_column(d)) for d in bases]
        den, out = rebased(*zip(bases, columns))
        assert den == math.lcm(*bases)
        assert [values(den, col) for col in out] == list(map(values, bases, columns))
        assert all(t is INF for col in out for t in col if t == INF)


class TestFmtTicks:
    @given(st.data())
    def test_equals_fmt_rat_of_each_value(self, data):
        den = data.draw(st.sampled_from(TICK_BASES))
        # a multiple of den/gcd(den, s) is the value n/gcd(den, s) on any base
        short = st.builds(lambda n, s: n * (den // math.gcd(den, s)),
                          st.integers(-10**6, 10**6),
                          st.sampled_from((2, 3, 10, 10**12)))
        ticks = data.draw(st.lists(st.one_of(
            st.integers(-10**60, 10**60), st.just(0), short, st.just(INF)
        ), max_size=30))
        assert fmt_ticks(ticks, den) == [
            fmt_rat(t if t is INF else F(t, den)) for t in ticks
        ]

    def test_mixed_column(self):
        # on 21000 = 21 * 2^3 * 5^3: decimals where 21 divides the tick
        ticks = [0, 500, -3, 21000, 2100, -105, 10**22, INF]
        assert fmt_ticks(ticks, 21000) == [
            "0", "1/42", "-1/7000", "1", "0.1", "-0.005",
            "10000000000000000000/21", "inf",
        ]


class TestFormat:
    def test_round_trip(self):
        for x in (F(0), F(64), F("251.5"), F(3, 7), F(-9, 8), F(988, 10**9)):
            assert exact(fmt_rat(x)) == x

    def test_decimal_when_possible(self):
        assert fmt_rat(F("0.512e-6")) == "0.000000512"
        assert fmt_rat(F(1, 3)) == "1/3"
        assert fmt_rat(INF) == "inf"

    def test_us_display(self):
        assert seconds_to_us_display(F("29.488e-6")) == "29.49"
        assert seconds_to_us_display(F("95.224e-6")) == "95.22"
        assert seconds_to_us_display(INF) == "inf"
        # more digits than a float holds: 1234567890123456768.00 via float
        big = F("1234567890123456789.01e-6")
        assert seconds_to_us_display(big) == "1234567890123456789.01"
        assert seconds_to_us_display(F("-0.005e-6")) == "-0.01"
        assert seconds_to_us_display(F("-0.004e-6")) == "0.00"
        assert seconds_to_us_display(F("0.125e-6")) == "0.13"
        assert seconds_to_us_display(F("-0.125e-6")) == "-0.13"

    @given(
        t=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)
        | st.fractions(max_denominator=64) | st.integers(-10**20, 10**20).map(F)
        # ties at two decimals of a microsecond
        | st.integers(-10**6, 10**6).map(lambda k: F(2 * k + 1, 2 * 10**8)),
    )
    def test_us_display_matches_fraction_path(self, t):
        # round half away from zero on the Fraction, then write it as a Decimal
        scaled = t * 10**8
        r = math.floor(abs(scaled) + F(1, 2))
        r = -r if scaled < 0 else r
        assert seconds_to_us_display(t) == f"{Decimal(f'{r}E-2'):.2f}"
