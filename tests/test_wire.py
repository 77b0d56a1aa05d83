import math

from wirescat import propagating_count


class TestPropagatingCount:
    def test_counts(self):
        assert propagating_count(0.5 * math.pi**2) == 0
        assert propagating_count(1.1 * math.pi**2) == 1
        assert propagating_count(4 * math.pi**2) == 1   # strictly below
        assert propagating_count(4.01 * math.pi**2) == 2
        assert propagating_count(9.5 * math.pi**2) == 3
