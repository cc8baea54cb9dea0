"""Tests for the routing-mechanism interface helpers."""

import pytest

from repro.routing.base import ladder_vc


class TestLadderVC:
    def test_one_by_one(self):
        assert ladder_vc(0, 4) == [0]
        assert ladder_vc(3, 4) == [3]

    def test_exhaustion(self):
        assert ladder_vc(4, 4) == []
        assert ladder_vc(10, 4) == []

    def test_two_by_two(self):
        assert ladder_vc(0, 4, 2) == [0, 1]
        assert ladder_vc(1, 4, 2) == [2, 3]
        assert ladder_vc(2, 4, 2) == []

    def test_partial_step_at_budget_edge(self):
        # 5 VCs, two per step: third step only has VC 4 left.
        assert ladder_vc(2, 5, 2) == [4]

    def test_monotone_vc_indices(self):
        """Ladder VCs strictly increase with hop count — the deadlock-freedom
        argument of the ladder scheme."""
        prev_max = -1
        for h in range(3):
            vcs = ladder_vc(h, 6, 2)
            assert min(vcs) > prev_max
            prev_max = max(vcs)


class TestMechanismValidation:
    def test_rejects_zero_vcs(self, net2d):
        from repro.routing.catalog import make_mechanism

        with pytest.raises(ValueError):
            make_mechanism("Minimal", net2d, 0)
