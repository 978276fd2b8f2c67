import itertools

import numpy as np
import pytest

from adaptbus.harness import parse_config
from adaptbus.reference import Constant, SinusoidSum, Square, Tabulated


def _square_sample(sq: Square, k: int, phase_offset: float) -> float:
    """One sample of the square wave, as the per-sample formula wrote it."""
    pos = (k + phase_offset / (2 * np.pi) * sq.period) % sq.period
    return float(sq.amplitude if pos < sq.duty * sq.period else -sq.amplitude)


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
        ref = {"type": "square", "amplitude": 1.5, "period": 7, "duty": 0.3}
        sq = parse_config({"plants": [{"b": [1.0]}], "reference": ref}).reference
        expected = [1.5 if k % 7 < 0.3 * 7 else -1.5 for k in range(20)]
        assert sq.sequence(20).tolist() == expected


class TestSequencesMatchThePerSampleFormula:
    @pytest.mark.parametrize("period, duty", list(itertools.product((2, 3, 7, 12, 100, 101),
                                                                    (0.0, 0.1, 0.3, 0.5, 0.99, 1.0))))
    def test_square(self, period, duty):
        for amplitude, offset in itertools.product(
                (1.5, -2.0, 0.0, 3),
                (0.0, 1e-3, np.pi / 2, np.pi, 2 * np.pi, 7.0, 40.3, -1e-3, -np.pi, -7.5, -40.3)):
            sq = Square(amplitude=amplitude, period=period, duty=duty)
            want = np.array([_square_sample(sq, k, offset) for k in range(3 * period + 5)])
            got = sq.sequence(3 * period + 5, offset)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (amplitude, offset)

    @pytest.mark.parametrize("level", [0.0, -0.0, 1.0, -2.5, 3])
    @pytest.mark.parametrize("n", [0, 1, 17])
    def test_constant(self, level, n):
        want = np.array([float(level) for _k in range(n)])
        got = Constant(level=level).sequence(n, 0.7)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_tabulated_reads_its_table_and_no_further(self):
        gen = Tabulated(values=[0.5, -1.0, 2.0])
        assert gen.sequence(2).tolist() == [0.5, -1.0]
        assert gen.sequence(3).tolist() == [0.5, -1.0, 2.0]
        with pytest.raises(IndexError, match="exhausted at sample 3"):
            gen.sequence(4)
