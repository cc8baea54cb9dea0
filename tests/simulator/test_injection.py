"""Injection-process tests."""

import numpy as np
import pytest

from repro.simulator.injection import (
    INJECTIONS,
    BatchInjection,
    BernoulliInjection,
    OnOffInjection,
    make_injection,
)


class TestBernoulli:
    def test_offered_zero_never_attempts(self, rng):
        inj = BernoulliInjection(8, 0.0)
        assert inj.attempts(0, rng).size == 0

    def test_offered_one_always_attempts(self, rng):
        inj = BernoulliInjection(8, 1.0)
        assert list(inj.attempts(0, rng)) == list(range(8))

    def test_long_run_rate_matches_offered(self):
        rng = np.random.default_rng(0)
        inj = BernoulliInjection(64, 0.3)
        total = sum(inj.attempts(t, rng).size for t in range(2000))
        rate = total / (64 * 2000)
        assert rate == pytest.approx(0.3, abs=0.01)

    def test_rejects_out_of_range_load(self):
        with pytest.raises(ValueError):
            BernoulliInjection(8, 1.5)
        with pytest.raises(ValueError):
            BernoulliInjection(8, -0.1)

    def test_never_exhausted(self, rng):
        assert not BernoulliInjection(8, 0.5).exhausted


class TestBatch:
    def test_attempts_until_budget_spent(self, rng):
        inj = BatchInjection(4, 2)
        assert list(inj.attempts(0, rng)) == [0, 1, 2, 3]
        for _ in range(2):
            inj.on_success(0)
        assert list(inj.attempts(1, rng)) == [1, 2, 3]

    def test_blocked_attempt_keeps_budget(self, rng):
        inj = BatchInjection(2, 1)
        inj.on_blocked(0)
        assert list(inj.attempts(0, rng)) == [0, 1]

    def test_exhaustion(self, rng):
        inj = BatchInjection(2, 1)
        assert not inj.exhausted
        inj.on_success(0)
        inj.on_success(1)
        assert inj.exhausted
        assert inj.attempts(5, rng).size == 0

    def test_total_packets(self):
        assert BatchInjection(8, 10).total_packets == 80

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BatchInjection(0, 5)
        with pytest.raises(ValueError):
            BatchInjection(4, 0)

    def test_has_no_offered_load_knob(self):
        with pytest.raises(NotImplementedError):
            BatchInjection(4, 2).set_offered(0.5)


class TestOnOff:
    def test_long_run_rate_matches_offered(self):
        """The in-burst rate is normalised: mean load == offered."""
        rng = np.random.default_rng(0)
        inj = OnOffInjection(64, 0.3, burst_slots=8, idle_slots=8)
        total = sum(inj.attempts(t, rng).size for t in range(4000))
        assert total / (64 * 4000) == pytest.approx(0.3, abs=0.01)

    def test_burstier_geometry_same_rate(self):
        rng = np.random.default_rng(1)
        inj = OnOffInjection(64, 0.2, burst_slots=32, idle_slots=32)
        total = sum(inj.attempts(t, rng).size for t in range(8000))
        assert total / (64 * 8000) == pytest.approx(0.2, abs=0.02)

    def test_arrivals_are_bursty(self):
        """Slot-count series is temporally correlated, unlike Bernoulli.

        (Marginal per-slot variance matches Bernoulli by construction —
        independent 0/1 attempts at rate ``offered`` — so burstiness is
        the *autocorrelation* the Markov modulation introduces.)
        """
        def autocorr1(inj, slots=4000):
            rng = np.random.default_rng(7)
            x = np.array([inj.attempts(t, rng).size for t in range(slots)], float)
            x -= x.mean()
            return float((x[1:] * x[:-1]).mean() / x.var())

        bern = autocorr1(BernoulliInjection(64, 0.3))
        onoff = autocorr1(OnOffInjection(64, 0.3, burst_slots=16, idle_slots=16))
        assert abs(bern) < 0.1  # memoryless
        # Theory: r^2 * var(on) * persistence / var(x) with r = 0.6 peak,
        # var(on) = 0.25, persistence = 1 - 2/16, var(x) = 0.21 -> ~0.375.
        assert onoff > 0.25

    def test_single_server_attempts_cluster_in_bursts(self):
        """ON runs have the configured mean length, not one slot."""
        rng = np.random.default_rng(3)
        inj = OnOffInjection(1, 0.5, burst_slots=16, idle_slots=16)
        active = [bool(inj.attempts(t, rng).size) for t in range(6000)]
        runs, cur = [], 0
        for a in active:
            if a:
                cur += 1
            elif cur:
                runs.append(cur)
                cur = 0
        # peak = 0.5/0.5 = 1.0: ON slots always attempt, so attempt runs
        # ~ geometric(1/16) bursts (mean 16), nothing like Bernoulli's ~2.
        assert np.mean(runs) > 6

    def test_duty_cycle_bounds_offered(self):
        with pytest.raises(ValueError, match="duty cycle"):
            OnOffInjection(8, 0.5, burst_slots=4, idle_slots=12)
        # offered == duty is feasible (saturated bursts).
        OnOffInjection(8, 0.25, burst_slots=4, idle_slots=12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            OnOffInjection(8, 0.2, burst_slots=0)
        with pytest.raises(ValueError):
            OnOffInjection(8, 0.2, idle_slots=0)
        with pytest.raises(ValueError):
            OnOffInjection(8, 1.5)

    def test_set_offered_keeps_chain_state(self):
        rng = np.random.default_rng(0)
        inj = OnOffInjection(16, 0.4, burst_slots=8, idle_slots=8)
        inj.attempts(0, rng)
        state = inj._on.copy()
        inj.set_offered(0.1)
        assert inj.offered == 0.1
        assert np.array_equal(inj._on, state)
        with pytest.raises(ValueError, match="duty cycle"):
            inj.set_offered(0.9)  # > 0.5 duty

    def test_never_exhausted(self, rng):
        assert not OnOffInjection(8, 0.2).exhausted


class TestRegistry:
    def test_registry_names_build(self):
        for name in INJECTIONS:
            inj = make_injection(name, 8, 0.2, burst_slots=4, idle_slots=4)
            assert inj.n_servers == 8
            assert inj.offered == 0.2

    def test_burst_geometry_reaches_onoff_only(self):
        onoff = make_injection("onoff", 8, 0.2, burst_slots=5, idle_slots=7)
        assert (onoff.burst_slots, onoff.idle_slots) == (5.0, 7.0)
        bern = make_injection("bernoulli", 8, 0.2, burst_slots=5, idle_slots=7)
        assert isinstance(bern, BernoulliInjection)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown injection"):
            make_injection("poisson", 8, 0.2)


class TestBernoulliRngContract:
    def test_bernoulli_rng_draw_contract(self):
        """Pin the draw-count contract: extremes (0.0 / 1.0) consume no
        RNG, fractional loads consume exactly one ``random(n)`` block
        per slot.  The golden fingerprints depend on the saturated
        shared-stream alignment this contract fixes — changing it (e.g.
        always drawing) silently shifts every offered=1.0 record.
        """
        n = 8
        for offered in (0.0, 1.0):
            rng = np.random.default_rng(42)
            state = rng.bit_generator.state
            BernoulliInjection(n, offered).attempts(0, rng)
            assert rng.bit_generator.state == state, offered
        rng = np.random.default_rng(42)
        ref = np.random.default_rng(42)
        BernoulliInjection(n, 0.5).attempts(0, rng)
        ref.random(n)  # the contract: exactly one block of n uniforms
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_retarget_through_extreme_skips_draws(self):
        """A schedule retargeting through 1.0 consumes fewer blocks than
        one holding a fractional load — distinct streams by contract."""
        n = 4
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        inj_a = BernoulliInjection(n, 0.5)
        inj_b = BernoulliInjection(n, 0.5)
        inj_a.attempts(0, a)
        inj_b.attempts(0, b)
        inj_a.set_offered(1.0)   # slot 1 draws nothing for a...
        inj_a.attempts(1, a)
        inj_b.attempts(1, b)     # ...but one block for b
        inj_a.set_offered(0.5)
        assert a.bit_generator.state != b.bit_generator.state
        # a is exactly one block behind b.
        a.random(n)
        assert a.bit_generator.state == b.bit_generator.state
