import random
from fractions import Fraction as F

import pytest

from reseqkit.bounds import (
    LOSSLESS,
    LOSSY,
    SequenceElement,
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
    min_spacing,
)

US = F(1, 10**6)
ALPHA1 = min_curves(leaky_bucket(6400, 6400), leaky_bucket(125_000_000, 64))


class TestRtoBoundElement:
    def test_fabric_with_shaped_entry(self):
        got = rto_bound_element(F("1.5") * US, ALPHA1, F(64))
        assert got == SequenceElement(F("1.5") * US, F("0.988") * US, False)

    def test_sparse_packet_flow_never_reorders(self):
        # one packet per period, period at least the jitter
        c = StaircaseCurve(F(1), F("0.008"), "packets")
        assert rto_bound_element(F("0.008"), c, F(64)).rto == 0
        assert rto_bound_element(F("0.002"), c, F(64)).rto == 0

    def test_dense_burst_gives_full_jitter(self):
        c = leaky_bucket(100, 512)
        got = rto_bound_element(F(3), c, F(64))
        assert got.rto == 3  # burst covers two packets: no spacing help

    def test_never_exceeds_jitter(self):
        rng = random.Random(1)
        for _ in range(100):
            v = F(rng.randint(0, 1000), 16)
            c = leaky_bucket(rng.randint(1, 10**6), rng.randint(64, 10**4))
            got = rto_bound_element(v, c, F(64))
            assert got.jitter == v
            assert 0 <= got.rto <= v
            assert got.clamped == (v < min_spacing(c, 64))


class TestRboBoundElement:
    def test_leaky_bucket_formula(self):
        r, b, v, l_min = F(6400), F(6400), F(3, 1000), F(64)
        got = rbo_bound_element(v, leaky_bucket(r, b), l_min)
        assert got == r * v + b - l_min

    def test_packet_curve_refused(self):
        # a flow's source curve is in bytes (FlowSpec); a byte offset needs one
        c = StaircaseCurve(F(3), F("0.008"), "packets")
        with pytest.raises(ValueError, match="byte-level curve"):
            rbo_bound_element(F("0.02"), c, F(64))

    def test_below_two_min_packets_is_zero(self):
        c = leaky_bucket(F(1), F(100))
        assert rbo_bound_element(F(5), c, F(64)) == 0

    def test_nonnegative(self):
        rng = random.Random(2)
        for _ in range(100):
            v = F(rng.randint(0, 1000), 16)
            b = rng.randint(64, 10**4)
            c = leaky_bucket(rng.randint(1, 10**6), b)
            got = rbo_bound_element(v, c, F(64))
            assert got >= 0

    def test_consistent_with_lossy_sizing(self):
        # element bound never exceeds the curve window bound, any timeout
        rng = random.Random(3)
        for _ in range(100):
            v = F(rng.randint(0, 100), 16)
            t = F(rng.randint(0, 100), 16)
            c = leaky_bucket(rng.randint(1, 10**5), rng.randint(64, 10**4))
            element = rbo_bound_element(v, c, F(64))
            assert element <= c.value(v + t)


class TestResequencerEffect:
    def test_lossless_is_free(self):
        assert resequencer_delay_effect(LOSSLESS, F("29.49e-6")) == (0, 0)

    def test_lossy_adds_timeout(self):
        t = F("29.49") * US
        assert resequencer_delay_effect(LOSSY, t) == (t, t)

    def test_zero_timeout(self):
        assert resequencer_delay_effect(LOSSY, F(0)) == (0, 0)


def fifo_stage(v):
    return SequenceElement(v)


def fabric_stage(v, rto=None):
    """A stage that may reorder; its head term is its whole jitter unless
    ``rto`` is given."""
    return SequenceElement(v, v if rto is None else rto)


class TestSequenceElement:
    def test_order_preserving_by_default(self):
        assert fifo_stage(F(2)) == SequenceElement(F(2), None, False)

    @pytest.mark.parametrize("rto", [F(-1), F(3)])
    def test_rto_outside_zero_to_jitter_rejected(self, rto):
        with pytest.raises(ValueError, match="between 0 and its jitter"):
            SequenceElement(F(2), rto)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter must be >= 0"):
            SequenceElement(F(-1))


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
        got = rto_bound_sequence(seq)
        assert got.value == F("29.488") * US
        assert got.head_index == 0

    def test_all_order_preserving_is_zero(self):
        got = rto_bound_sequence([fifo_stage(F(5)), fifo_stage(F(2))])
        assert got.value == 0
        assert got.head_index is None

    def test_curve_head_without_exported_rto(self):
        seq = [
            rto_bound_element(self.V_SF, ALPHA1, F(64)),
            fifo_stage(self.V_FIFO),
            fabric_stage(self.V_SF),
        ]
        got = rto_bound_sequence(seq)
        assert got.value == F("15.988") * US
        assert got.head_term == self.LAM

    def test_order_preserving_prefix_ignored(self):
        seq = [
            fifo_stage(F(100)),
            fabric_stage(self.V_SF, rto=self.LAM),
            fifo_stage(self.V_FIFO),
        ]
        got = rto_bound_sequence(seq)
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
            got = rto_bound_sequence(seq)
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
            rto_bound_sequence(bigger).value
            > rto_bound_sequence(base).value
        )

    def test_empty_sequence_is_zero(self):
        assert rto_bound_sequence([]) == rto_bound_sequence([fifo_stage(F(5))])
        assert rto_bound_sequence([]).value == 0

    def test_clamp_recorded_when_curve_blocks_reordering(self):
        tight = leaky_bucket(F(1), F(64))  # 64 B/packet flow, 1 B/s: huge spacing
        head = rto_bound_element(F(1), tight, F(64))
        got = rto_bound_sequence([head])
        assert got.value == 0
        assert got.clamped
        # behind an order-preserving prefix the head keeps its index and clamp
        got = rto_bound_sequence([fifo_stage(F(5)), head, fifo_stage(F(2))])
        assert (got.value, got.head_index, got.head_term) == (2, 1, 0)
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
        assert got == rbo_bound_element(v, ALPHA1, F(64))

    def test_monotone_in_jitter(self):
        a = rbo_bound_sequence([fabric_stage(F(1, 100))], ALPHA1, F(64))
        b = rbo_bound_sequence([fabric_stage(F(2, 100))], ALPHA1, F(64))
        assert b > a


@pytest.mark.parametrize("mode", ["lossier", "LOSSY", ""])
def test_unknown_loss_mode_is_refused(mode):
    with pytest.raises(ValueError) as exc:
        resequencer_delay_effect(mode, 1)
    assert str(exc.value) == f"unknown loss mode {mode!r}"
