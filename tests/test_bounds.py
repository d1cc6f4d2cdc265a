import random
from fractions import Fraction as F

import pytest

from reseqkit.bounds import (
    LOSSLESS,
    LOSSY,
    ElementBoundInput,
    SequenceElement,
    curve_after_resequencer,
    rbo_bound_element,
    rbo_bound_sequence,
    resequencer_delay_effect,
    rto_bound_element,
    rto_bound_sequence,
)
from reseqkit.curves import (
    StaircaseCurve,
    leaky_bucket,
    min_curves,
    shift_jitter,
)

US = F(1, 10**6)
ALPHA1 = min_curves(leaky_bucket(6400, 6400), leaky_bucket(125_000_000, 64))


class TestRtoBoundElement:
    def test_fabric_with_shaped_entry(self):
        got = rto_bound_element(ElementBoundInput(F("1.5") * US, ALPHA1, l_min=F(64)))
        assert got == F("0.988") * US

    def test_sparse_packet_flow_never_reorders(self):
        # one packet per period, period at least the jitter
        c = StaircaseCurve(F(1), F("0.008"), "packets")
        assert rto_bound_element(ElementBoundInput(F("0.008"), c)) == 0
        assert rto_bound_element(ElementBoundInput(F("0.002"), c)) == 0

    def test_dense_burst_gives_full_jitter(self):
        c = leaky_bucket(100, 512)
        got = rto_bound_element(ElementBoundInput(F(3), c, l_min=F(64)))
        assert got == 3  # burst covers two packets: no spacing help

    def test_no_curve_falls_back_to_jitter(self):
        assert rto_bound_element(ElementBoundInput(F(7))) == 7

    def test_never_exceeds_jitter(self):
        rng = random.Random(1)
        for _ in range(100):
            v = F(rng.randint(0, 1000), 16)
            c = leaky_bucket(rng.randint(1, 10**6), rng.randint(64, 10**4))
            got = rto_bound_element(ElementBoundInput(v, c, l_min=F(64)))
            assert 0 <= got <= v


class TestRboBoundElement:
    def test_leaky_bucket_formula(self):
        r, b, v, l_min = F(6400), F(6400), F(3, 1000), F(64)
        got = rbo_bound_element(ElementBoundInput(v, leaky_bucket(r, b), l_min=l_min))
        assert got == r * v + b - l_min

    def test_packet_staircase_formula(self):
        k, tau, l_max = F(3), F("0.008"), F(200)
        c = StaircaseCurve(k, tau, "packets")
        v = F("0.02")
        got = rbo_bound_element(ElementBoundInput(v, c, l_max=l_max))
        # k * ceil(v / tau) packets fit in one window; all but one overtake
        assert got == k * l_max * 3 - l_max

    def test_single_packet_window_is_zero(self):
        c = StaircaseCurve(F(1), F("0.008"), "packets")
        assert rbo_bound_element(ElementBoundInput(F("0.008"), c, l_max=F(64))) == 0

    def test_below_two_min_packets_is_zero(self):
        c = leaky_bucket(F(1), F(100))
        assert rbo_bound_element(ElementBoundInput(F(5), c, l_min=F(64))) == 0

    def test_nonnegative(self):
        rng = random.Random(2)
        for _ in range(100):
            v = F(rng.randint(0, 1000), 16)
            b = rng.randint(64, 10**4)
            c = leaky_bucket(rng.randint(1, 10**6), b)
            got = rbo_bound_element(ElementBoundInput(v, c, l_min=F(64)))
            assert got >= 0

    def test_consistent_with_lossy_sizing(self):
        # element bound never exceeds the curve window bound, any timeout
        rng = random.Random(3)
        for _ in range(100):
            v = F(rng.randint(0, 100), 16)
            t = F(rng.randint(0, 100), 16)
            c = leaky_bucket(rng.randint(1, 10**5), rng.randint(64, 10**4))
            element = rbo_bound_element(ElementBoundInput(v, c, l_min=F(64)))
            assert element <= c.value(v + t)


class TestResequencerEffect:
    def test_lossless_is_free(self):
        assert resequencer_delay_effect(LOSSLESS, F("29.49e-6")) == (0, 0)

    def test_lossy_adds_timeout(self):
        t = F("29.49") * US
        assert resequencer_delay_effect(LOSSY, t) == (t, t)

    def test_zero_timeout(self):
        assert resequencer_delay_effect(LOSSY, F(0)) == (0, 0)

    def test_curve_lossless_matches_jitter_shift(self):
        v = F("12.5") * US
        assert curve_after_resequencer(ALPHA1, v, F(1), LOSSLESS) == shift_jitter(
            ALPHA1, v
        )

    def test_curve_lossy_adds_timeout_window(self):
        alpha2 = shift_jitter(ALPHA1, F("1.5") * US)
        out = curve_after_resequencer(alpha2, F(0), F("0.988") * US, LOSSY)
        fast = min(b for _, b in out.pieces)
        assert fast == F("375")  # 251.5 + 125e6 * 0.988us

    def test_no_shift_identity(self):
        assert curve_after_resequencer(ALPHA1, 0, 0, LOSSY) == ALPHA1


def fifo_stage(v, name=""):
    return SequenceElement(v, True, F(0), None, name)


def fabric_stage(v, rto=None, curve=None, name=""):
    return SequenceElement(v, False, rto, curve, name)


class TestRtoBoundSequence:
    V_FIFO = F("13.5") * US
    V_SF = F("1.5") * US
    LAM = F("0.988") * US

    def test_known_head_rto_plus_downstream_jitter(self):
        seq = [
            fabric_stage(self.V_SF, rto=self.LAM),
            fifo_stage(self.V_FIFO),
            fabric_stage(self.V_SF),
            fifo_stage(self.V_FIFO),
        ]
        got = rto_bound_sequence(seq, l_min=F(64))
        assert got.value == F("29.488") * US
        assert got.head_index == 0

    def test_all_order_preserving_is_zero(self):
        got = rto_bound_sequence([fifo_stage(F(5)), fifo_stage(F(2))])
        assert got.value == 0
        assert got.head_index is None

    def test_curve_head_without_exported_rto(self):
        seq = [
            fabric_stage(self.V_SF, curve=ALPHA1),
            fifo_stage(self.V_FIFO),
            fabric_stage(self.V_SF),
        ]
        got = rto_bound_sequence(seq, l_min=F(64))
        assert got.value == F("15.988") * US
        assert got.head_term == self.LAM

    def test_order_preserving_prefix_ignored(self):
        seq = [
            fifo_stage(F(100)),
            fabric_stage(self.V_SF, rto=self.LAM),
            fifo_stage(self.V_FIFO),
        ]
        got = rto_bound_sequence(seq, l_min=F(64))
        assert got.value == self.LAM + self.V_FIFO
        assert got.head_index == 1

    def test_never_worse_than_summed_jitter(self):
        rng = random.Random(4)
        for _ in range(100):
            seq = []
            for _ in range(rng.randint(1, 6)):
                v = F(rng.randint(0, 100), 8)
                if rng.random() < 0.5:
                    seq.append(fifo_stage(v))
                else:
                    lam = v * F(rng.randint(0, 8), 8)
                    seq.append(fabric_stage(v, rto=lam if rng.random() < 0.5 else None))
            got = rto_bound_sequence(seq, l_min=F(64))
            assert got.value <= sum((e.jitter for e in seq), F(0))

    def test_monotone_in_jitters(self):
        base = [
            fabric_stage(self.V_SF, rto=self.LAM),
            fifo_stage(self.V_FIFO),
        ]
        bigger = [
            fabric_stage(self.V_SF, rto=self.LAM),
            fifo_stage(self.V_FIFO * 2),
        ]
        assert (
            rto_bound_sequence(bigger, F(64)).value
            > rto_bound_sequence(base, F(64)).value
        )

    def test_missing_jitter_after_head_rejected(self):
        seq = [fabric_stage(self.V_SF, rto=self.LAM), SequenceElement(None, True)]
        with pytest.raises(ValueError):
            rto_bound_sequence(seq, F(64))

    def test_clamp_recorded_when_curve_blocks_reordering(self):
        tight = leaky_bucket(F(1), F(64))  # 64 B/packet flow, 1 B/s: huge spacing
        seq = [fabric_stage(F(1), curve=tight)]
        got = rto_bound_sequence(seq, l_min=F(64))
        assert got.value == 0
        assert got.clamped


class TestRboBoundSequence:
    def test_automotive_head_to_last_fabric(self):
        v_sum = F("79.188") * US
        seq = [
            fifo_stage(F("62.688") * US),
            fabric_stage(F("1.5") * US),
            fifo_stage(F("13.5") * US),
            fabric_stage(F("1.5") * US),
            fifo_stage(F("13.5") * US),  # suffix: ignored
        ]
        alpha0 = leaky_bucket(6400, 6400)
        got = rbo_bound_sequence(seq, alpha0, F(64))
        assert got == alpha0.value(v_sum) - 64
        assert got == F("6336.5068032")

    def test_order_preserving_sequence_is_zero(self):
        assert rbo_bound_sequence([fifo_stage(F(9))], ALPHA1, F(64)) == 0

    def test_single_stage_equals_element_bound(self):
        v = F(3, 1000)
        seq = [fabric_stage(v)]
        got = rbo_bound_sequence(seq, ALPHA1, F(64))
        assert got == rbo_bound_element(ElementBoundInput(v, ALPHA1, l_min=F(64)))

    def test_monotone_in_jitter(self):
        a = rbo_bound_sequence([fabric_stage(F(1, 100))], ALPHA1, F(64))
        b = rbo_bound_sequence([fabric_stage(F(2, 100))], ALPHA1, F(64))
        assert b > a
