import numpy as np

from adaptbus.reference import SinusoidSum, Square, from_spec


class TestSquarePhaseOffset:
    def test_offset_pi_flips_half_duty_wave(self):
        sq = Square(amplitude=1.0, period=10, duty=0.5)
        assert np.array_equal(sq.sequence(30, np.pi), -sq.sequence(30))
        assert not np.array_equal(sq.sequence(6, 3.0), sq.sequence(6))

    def test_offset_shifts_like_a_sinusoid(self):
        # a quarter period of phase advances both waves by period / 4 samples
        sq = Square(amplitude=2.0, period=12, duty=0.25)
        sin = SinusoidSum(components=((1.0, 2 * np.pi / 12, 0.0),))
        assert np.array_equal(sq.sequence(40, np.pi / 2), sq.sequence(43)[3:])
        assert np.allclose(sin.sequence(40, np.pi / 2), sin.sequence(43)[3:])

    def test_zero_offset_unchanged(self):
        sq = from_spec({"type": "square", "amplitude": 1.5, "period": 7, "duty": 0.3})
        expected = [1.5 if k % 7 < 0.3 * 7 else -1.5 for k in range(20)]
        assert sq.sequence(20).tolist() == expected
        assert [sq.value(k) for k in range(20)] == expected
