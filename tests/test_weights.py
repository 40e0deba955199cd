from fractions import Fraction

import pytest

from safesets.graph import InputError
from safesets.weights import make_weights, parse_rational, scaled_integers


class TestParseRational:
    @pytest.mark.parametrize("raw, value", [
        (3, Fraction(3)),
        ("3", Fraction(3)),
        (" 5/2 ", Fraction(5, 2)),
        ("-1/3", Fraction(-1, 3)),
        (Fraction(7, 4), Fraction(7, 4)),
    ])
    def test_accepted(self, raw, value):
        assert parse_rational(raw) == value

    def test_fraction_passes_through(self):
        x = Fraction(7, 4)
        assert parse_rational(x) is x

    @pytest.mark.parametrize("raw", [
        0.1, 1.0, True, False, None, {}, [], "0.1", "1e3", "1_000", "",
        "1/0", "1/-2", "١",
    ])
    def test_rejected(self, raw):
        with pytest.raises(InputError):
            parse_rational(raw)


class TestMakeWeights:
    def test_mixed_forms(self):
        assert make_weights([1, "1/2", Fraction(2, 3)]) == (
            Fraction(1), Fraction(1, 2), Fraction(2, 3))

    @pytest.mark.parametrize("bad", [0.5, True, None, {}])
    def test_inexact_or_malformed_rejected(self, bad):
        with pytest.raises(InputError):
            make_weights([1, bad, 1])


class TestScaledIntegers:
    def test_common_denominator(self):
        w = make_weights(["1/2", "1/3", 2, 0])
        assert scaled_integers(w) == ([3, 2, 12, 0], 6)

    def test_empty(self):
        assert scaled_integers(()) == ([], 1)
