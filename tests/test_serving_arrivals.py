"""Property battery for the seeded request-trace generator.

The serving goldens and the bench reproducibility gate both lean on one
fact: a :class:`TraceSpec` evaluates to the same bits everywhere.  This
battery drives the generator across all trace shapes with hypothesis and
checks the invariants the simulator depends on — reproducibility (in- and
cross-process), ordered non-negative arrivals, bounded lengths, and a
realized rate that matches the configured one.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import domain_of
from repro.serving import TraceSpec, expert_rank, generate_trace

TRACE_KINDS = domain_of(TraceSpec, "kind").values

# One spec per trace shape, reused by the non-hypothesis tests.
SHAPES = {
    "poisson": TraceSpec("poisson", rate=500.0, requests=4000, seed=3),
    "diurnal": TraceSpec(
        "diurnal", rate=500.0, requests=4000, seed=3,
        period=2.0, amplitude=0.9,
    ),
    "bursty": TraceSpec(
        "bursty", rate=500.0, requests=4000, seed=3, burst=5.0, duty=0.1,
    ),
}

trace_specs = st.builds(
    TraceSpec,
    kind=st.sampled_from(TRACE_KINDS),
    rate=st.floats(min_value=50.0, max_value=5000.0),
    requests=st.integers(min_value=1, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    prompt_mean=st.floats(min_value=1.0, max_value=512.0),
    output_mean=st.floats(min_value=1.0, max_value=128.0),
    skew=st.floats(min_value=0.0, max_value=3.0),
    period=st.floats(min_value=0.5, max_value=16.0),
    amplitude=st.floats(min_value=0.0, max_value=1.0),
    burst=st.floats(min_value=1.0, max_value=8.0),
    duty=st.floats(min_value=0.05, max_value=0.95),
)


class TestGeneratorProperties:
    @given(spec=trace_specs)
    @settings(max_examples=40, deadline=None)
    def test_seeded_traces_are_reproducible(self, spec):
        first = generate_trace(spec)
        second = generate_trace(spec)
        assert first.digest() == second.digest()
        np.testing.assert_array_equal(first.arrival_s, second.arrival_s)
        np.testing.assert_array_equal(
            first.prompt_tokens, second.prompt_tokens
        )
        np.testing.assert_array_equal(
            first.output_tokens, second.output_tokens
        )
        np.testing.assert_array_equal(first.affinity, second.affinity)

    @given(spec=trace_specs)
    @settings(max_examples=40, deadline=None)
    def test_arrivals_sorted_and_nonnegative(self, spec):
        trace = generate_trace(spec)
        assert len(trace) == spec.requests
        assert trace.arrival_s[0] >= 0.0
        assert (np.diff(trace.arrival_s) >= 0.0).all()

    @given(spec=trace_specs)
    @settings(max_examples=40, deadline=None)
    def test_lengths_bounded_and_affinity_uniform(self, spec):
        trace = generate_trace(spec)
        assert (trace.prompt_tokens >= 1).all()
        assert trace.prompt_tokens.max() <= max(1, int(16 * spec.prompt_mean))
        assert (trace.output_tokens >= 1).all()
        assert trace.output_tokens.max() <= max(1, int(16 * spec.output_mean))
        assert (trace.affinity >= 0.0).all() and (trace.affinity < 1.0).all()
        assert trace.total_prompt_tokens == trace.prompt_tokens.sum()

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_realized_rate_matches_configured(self, kind):
        """Long-run mean arrival rate tracks ``spec.rate`` for every shape.

        4000 requests put the relative sampling error near
        1/sqrt(4000) ~ 1.6%; a 10% band is comfortably above that while
        still catching a mis-scaled thinning envelope (a wrong calm-rate
        or peak would be off by tens of percent).
        """
        spec = SHAPES[kind]
        trace = generate_trace(spec)
        assert trace.offered_rate == pytest.approx(spec.rate, rel=0.10)

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_mean_lengths_match_configured(self, kind):
        trace = generate_trace(SHAPES[kind])
        assert trace.prompt_tokens.mean() == pytest.approx(128.0, rel=0.10)
        assert trace.output_tokens.mean() == pytest.approx(32.0, rel=0.10)


class TestCrossProcess:
    def test_digest_is_identical_in_a_fresh_process(self):
        """Bit-reproducibility across process boundaries, not just reruns."""
        spec = "poisson;rate=1000;requests=2000;seed=7;skew=1.2"
        local = generate_trace(TraceSpec.parse(spec)).digest()
        src = Path(__file__).resolve().parent.parent / "src"
        remote = subprocess.run(
            [
                sys.executable, "-c",
                "from repro.serving import TraceSpec, generate_trace; "
                f"print(generate_trace(TraceSpec.parse({spec!r})).digest())",
            ],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        ).stdout.strip()
        assert remote == local


class TestRateFunction:
    def test_poisson_rate_is_flat(self):
        spec = SHAPES["poisson"]
        times = np.linspace(0.0, 10.0, 101)
        np.testing.assert_array_equal(
            spec.rate_at(times), np.full(101, spec.rate)
        )
        assert spec.peak_rate == spec.rate

    def test_diurnal_rate_swings_around_mean(self):
        spec = SHAPES["diurnal"]
        times = np.linspace(0.0, 4 * spec.period, 4001)
        rates = spec.rate_at(times)
        assert rates.min() >= spec.rate * (1 - spec.amplitude) - 1e-9
        assert rates.max() <= spec.peak_rate + 1e-9
        assert rates.mean() == pytest.approx(spec.rate, rel=0.01)

    def test_bursty_duty_cycle_preserves_mean(self):
        spec = SHAPES["bursty"]
        times = np.linspace(0.0, spec.period, 10001)[:-1]
        rates = spec.rate_at(times)
        levels = np.unique(rates)
        assert levels == pytest.approx(
            [spec._calm_rate, spec.burst * spec._calm_rate]
        )
        assert rates.mean() == pytest.approx(spec.rate, rel=0.01)
        assert spec.peak_rate == pytest.approx(spec.burst * spec._calm_rate)


class TestSpecParsing:
    def test_parse_roundtrip(self):
        spec = TraceSpec.parse(
            "bursty;rate=1500;requests=100;seed=9;burst=3;duty=0.25;"
            "prompt_mean=64;output_mean=8;skew=1.1"
        )
        assert spec == TraceSpec(
            "bursty", rate=1500.0, requests=100, seed=9, burst=3.0,
            duty=0.25, prompt_mean=64.0, output_mean=8.0, skew=1.1,
        )

    def test_parse_bare_kind_and_empty_clauses(self):
        assert TraceSpec.parse("diurnal;;rate=10") == TraceSpec(
            "diurnal", rate=10.0
        )
        assert TraceSpec.parse("") == TraceSpec()

    @pytest.mark.parametrize("text", [
        "warp", "poisson;tempo=3", "poisson;rate=fast", "poisson;rate",
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            TraceSpec.parse(text)

    @pytest.mark.parametrize("overrides", [
        dict(kind="weekly"), dict(rate=0.0), dict(rate=float("nan")),
        dict(rate=float("inf")), dict(requests=0),
        dict(prompt_mean=0.5), dict(output_mean=0.0), dict(skew=-1.0),
        dict(period=0.0), dict(amplitude=1.5), dict(burst=0.5),
        dict(duty=0.0), dict(duty=1.0),
        # Non-finite or fractional values: a NaN burst envelope made the
        # thinning step accept nothing, so generate_trace never returned;
        # the others failed inside numpy.
        dict(kind="bursty", burst=float("nan")),
        dict(kind="bursty", burst=float("inf")),
        dict(prompt_mean=float("nan")), dict(prompt_mean=float("inf")),
        dict(output_mean=float("inf")), dict(skew=float("nan")),
        dict(kind="diurnal", period=float("inf")),
        dict(requests=2.5), dict(requests=100.0),
    ])
    def test_spec_validation(self, overrides):
        with pytest.raises(ValueError):
            TraceSpec(**overrides)


class TestExpertRank:
    @given(
        skew=st.floats(min_value=0.0, max_value=4.0),
        num_experts=st.integers(min_value=1, max_value=128),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_ranks_stay_in_range(self, skew, num_experts, seed):
        affinity = np.random.default_rng(seed).random(256)
        ranks = expert_rank(affinity, num_experts, skew)
        assert ranks.shape == affinity.shape
        assert ranks.min() >= 0
        assert ranks.max() < num_experts

    def test_zero_skew_is_uniform(self):
        affinity = (np.arange(64) + 0.5) / 64.0
        ranks = expert_rank(affinity, 8, 0.0)
        counts = np.bincount(ranks, minlength=8)
        np.testing.assert_array_equal(counts, np.full(8, 8))

    def test_skew_concentrates_on_low_ranks(self):
        affinity = np.random.default_rng(0).random(20_000)
        flat = (expert_rank(affinity, 16, 0.0) == 0).mean()
        skewed = (expert_rank(affinity, 16, 1.2) == 0).mean()
        sharper = (expert_rank(affinity, 16, 2.0) == 0).mean()
        assert flat < skewed < sharper

    def test_affinity_of_one_edge_maps_to_last_rank(self):
        ranks = expert_rank(np.array([0.0, 1.0 - 1e-12]), 4, 1.5)
        assert ranks[0] == 0
        assert ranks[1] == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            expert_rank(np.array([0.5]), 0, 1.0)
        with pytest.raises(ValueError):
            expert_rank(np.array([0.5]), 4, -0.5)
