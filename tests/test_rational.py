from fractions import Fraction as F

import pytest

from reseqkit.rational import (
    INF,
    fmt_rat,
    floor_int,
    is_inf,
    parse_rat,
    parse_time,
    round_half_up,
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
        ],
    )
    def test_exact_forms(self, text, want):
        assert parse_rat(text) == want

    def test_inf(self):
        assert is_inf(parse_rat("inf"))
        assert is_inf(parse_rat("Infinity"))

    def test_rejects_junk(self):
        # JSON floats, null, booleans, lists and objects are no exact number
        for bad in ("1.2.3", "0x10", "nan", "1e", "", 125e6, None, True, [64], {}):
            with pytest.raises(ValueError):
                parse_rat(bad)

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


class TestFormat:
    def test_round_trip(self):
        for x in (F(0), F(64), F("251.5"), F(3, 7), F(-9, 8), F(988, 10**9)):
            assert parse_rat(fmt_rat(x)) == x

    def test_decimal_when_possible(self):
        assert fmt_rat(F("0.512e-6")) == "0.000000512"
        assert fmt_rat(F(1, 3)) == "1/3"
        assert fmt_rat(INF) == "inf"

    def test_round_half_up(self):
        assert round_half_up(F("92.688"), 2) == F("92.69")
        assert round_half_up(F("95.224"), 2) == F("95.22")
        assert round_half_up(F("0.985"), 2) == F("0.99")
        assert round_half_up(F("-0.985"), 2) == F("-0.99")

    def test_us_display(self):
        assert seconds_to_us_display(F("29.488e-6")) == "29.49"
        assert seconds_to_us_display(F("95.224e-6")) == "95.22"
        assert seconds_to_us_display(INF) == "inf"

    def test_floor(self):
        assert floor_int(F("6336.5068032")) == 6336
        with pytest.raises(ValueError):
            floor_int(INF)
