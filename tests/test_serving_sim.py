"""Golden pins and invariants for the request-level serving simulator.

The golden class replays the exact latencies of a small fixed-seed run on
both topologies (the ``serving`` golden of :mod:`tests.goldens`) — any
change to the cost model, the admission loops or the KV streaming shows
up as a bit difference here before it shows up as a bench regression.
The invariant classes check the facts every topology must satisfy on any
trace: every admitted request completes, token counts are conserved end
to end, and reruns are bit-identical.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import comm_data_centric, comm_expert_centric
from repro.metrics import MetricsRegistry, build_run_report, serving_breakdown
from repro.serving import (
    ServingConfig,
    ServingSimulator,
    TraceSpec,
    build_serving_report,
    format_serving_summary,
    generate_trace,
    simulate_serving,
)
from repro.serving.simulator import _PhaseState
from repro.trace import TraceRecorder

from tests.conftest import small_cluster, small_config
from tests.goldens import GOLDENS, SERVING_SMALL, SERVING_SMALL_TRACE, bind

GOLDEN_SPEC = TraceSpec.parse(SERVING_SMALL_TRACE)
GOLDEN_SERVING = SERVING_SMALL


def golden(topology):
    """The frozen ``serving`` golden of the 64-request run (exact
    percentiles, makespan and latency digest)."""
    return GOLDENS["serving"].frozen()[f"small/{topology}"]


def run_small(topology, registry=None, recorder=None, requests=64, **knobs):
    spec = (
        GOLDEN_SPEC if requests == 64
        else TraceSpec.parse(
            f"poisson;rate=200;requests={requests};seed=5;prompt_mean=16;"
            "output_mean=8;skew=1.0"
        )
    )
    serving = ServingConfig(
        topology=topology, **{**GOLDEN_SERVING, **knobs}
    )
    return simulate_serving(
        small_config(), small_cluster(), generate_trace(spec), serving,
        metrics=registry, recorder=recorder,
    )


class TestGolden:
    # Exact replay of the 64-request run on both topologies; the values
    # live in the ``serving`` golden of tests/goldens.py.
    test_latencies_pinned = staticmethod(bind("serving", cases={
        "unified": "small/unified",
        "disaggregated": "small/disaggregated",
    })[1])

    def test_disaggregation_trades_tail_for_isolation_at_low_load(self):
        # At this tiny load the unified fleet wins (twice the prefill
        # capacity, no KV hop); the disaggregated win only appears under
        # pressure — that ordering is the bench suite's structural gate.
        assert (
            golden("unified")["tpot_p99_ms"]
            < golden("disaggregated")["tpot_p99_ms"]
        )
        assert golden("unified")["slo_attainment"] == 1.0
        assert golden("disaggregated")["slo_attainment"] == 1.0


class TestInvariants:
    @pytest.mark.parametrize("topology", ("unified", "disaggregated"))
    def test_every_admitted_request_completes(self, topology):
        registry = MetricsRegistry()
        result = run_small(topology, registry, requests=200)
        assert (result.first_token_s >= result.trace.arrival_s).all()
        assert (result.complete_s >= result.first_token_s).all()
        assert registry.counter("serve.requests", kind="offered") == 200
        assert registry.counter("serve.requests", kind="prefilled") == 200
        assert registry.counter("serve.requests", kind="completed") == 200

    @pytest.mark.parametrize("topology", ("unified", "disaggregated"))
    def test_token_counts_conserved(self, topology):
        registry = MetricsRegistry()
        result = run_small(topology, registry, requests=200)
        trace = result.trace
        decode_tokens = int((trace.output_tokens - 1).sum())
        assert registry.counter(
            "serve.tokens", phase="prefill"
        ) == trace.total_prompt_tokens
        assert registry.counter(
            "serve.tokens", phase="decode"
        ) == decode_tokens
        # Every decode token is either pinned (stays local) or missed
        # (crosses the wire); unified workers never pin.
        assert result.pinned_tokens + result.missed_tokens == decode_tokens
        if topology == "unified":
            assert result.pinned_tokens == 0
        else:
            assert result.pinned_tokens > 0

    @pytest.mark.parametrize("topology", ("unified", "disaggregated"))
    def test_reruns_are_bit_identical(self, topology):
        assert run_small(topology).digest() == run_small(topology).digest()

    def test_kv_traffic_only_when_disaggregated(self):
        unified = MetricsRegistry()
        disagg = MetricsRegistry()
        run_small("unified", unified)
        result = run_small("disaggregated", disagg)
        assert unified.counter("serve.bytes", kind="kv") == 0
        kv = disagg.counter("serve.bytes", kind="kv")
        # Streamed KV: every prefilled token's cache crosses to a decoder.
        sim = ServingSimulator(
            small_config(), small_cluster(), result.trace,
            ServingConfig(topology="disaggregated", **GOLDEN_SERVING),
        )
        decode_needed = result.trace.output_tokens > 1
        expected = (
            result.trace.prompt_tokens[decode_needed].sum()
            * sim.kv_bytes_per_token
        )
        assert kv == pytest.approx(expected)
        assert result.nic_egress_bytes.shape == (2,)
        assert result.nic_egress_bytes.sum() > 0

    def test_span_budget_caps_trace_growth(self):
        recorder = TraceRecorder()
        run_small("disaggregated", recorder=recorder, span_budget=16)
        spans = list(recorder.spans)
        kinds = {span.kind for span in spans}
        assert kinds <= {"serve.prefill", "serve.decode", "serve.kv"}
        for kind in kinds:
            assert sum(s.kind == kind for s in spans) <= 16

    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.sampled_from(("unified", "disaggregated")),
        machines=st.sampled_from((2, 4)),
        requests=st.integers(min_value=1, max_value=120),
        rate=st.sampled_from((200, 20000)),
        seed=st.integers(min_value=0, max_value=2**16),
        max_batch=st.integers(min_value=1, max_value=16),
        prefill_batch=st.integers(min_value=1, max_value=8),
        pin_fraction=st.sampled_from((0.0, 0.25, 1.0)),
        decode_paradigm=st.sampled_from(
            ("auto", "expert-centric", "data-centric")
        ),
    )
    def test_invariants_hold_over_the_knobs(
        self, topology, machines, requests, rate, seed, max_batch,
        prefill_batch, pin_fraction, decode_paradigm,
    ):
        trace = generate_trace(TraceSpec.parse(
            f"poisson;rate={rate};requests={requests};seed={seed};"
            "prompt_mean=16;output_mean=4;skew=1.0"
        ))
        registry = MetricsRegistry()
        result = simulate_serving(
            small_config(), small_cluster(machines), trace,
            ServingConfig(
                topology=topology, max_batch=max_batch,
                prefill_batch=prefill_batch, pin_fraction=pin_fraction,
                decode_paradigm=decode_paradigm,
            ),
            metrics=registry,
        )
        assert (result.first_token_s >= trace.arrival_s).all()
        assert registry.counter("serve.requests", kind="completed") == (
            requests
        )
        one_token = trace.output_tokens == 1
        assert (
            result.complete_s[one_token] == result.first_token_s[one_token]
        ).all()
        assert (
            result.complete_s[~one_token] > result.first_token_s[~one_token]
        ).all()
        decode_tokens = int((trace.output_tokens - 1).sum())
        assert registry.counter("serve.tokens", phase="decode") == (
            decode_tokens
        )
        assert result.pinned_tokens + result.missed_tokens == decode_tokens

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(topology="sharded")
        with pytest.raises(ValueError):
            ServingConfig(prefillers=0)
        with pytest.raises(ValueError):
            ServingConfig(max_batch=0)
        # A NaN batch admitted nothing: the unified worker spun on
        # zero-length timeouts and the disaggregated run stalled.
        for field in ("max_batch", "prefill_batch"):
            for value in (float("nan"), 0.5):
                with pytest.raises(ValueError, match="positive integer"):
                    ServingConfig(**{field: value})
        with pytest.raises(ValueError):
            ServingConfig(pin_fraction=1.5)
        with pytest.raises(ValueError):
            ServingConfig(decode_paradigm="quantum")
        with pytest.raises(ValueError):
            ServingConfig(ttft_slo_s=0.0)
        with pytest.raises(ValueError):
            ServingConfig(span_budget=-1)
        # A fractional or NaN prefiller count failed mid-run in range(),
        # True ran as one prefiller, and a NaN span budget never capped.
        for value in (1.5, float("nan"), True, 0, -1):
            with pytest.raises(ValueError, match="^prefillers must be"):
                ServingConfig(topology="disaggregated", prefillers=value)
        for value in (1.5, float("nan"), True, -1):
            with pytest.raises(ValueError, match="^span_budget must be"):
                ServingConfig(span_budget=value)
        ServingConfig(topology="disaggregated", prefillers=np.int64(1))
        ServingConfig(span_budget=0)
        with pytest.raises(ValueError):
            # All machines prefilling leaves no decoder.
            ServingSimulator(
                small_config(), small_cluster(),
                generate_trace(GOLDEN_SPEC),
                ServingConfig(topology="disaggregated", prefillers=2),
            )
        with pytest.raises(ValueError):
            # No MoE blocks: nothing to serve.
            ServingSimulator(
                small_config(experts_per_block={}), small_cluster(),
                generate_trace(GOLDEN_SPEC),
            )

    @pytest.mark.parametrize("field", ["ttft_slo_s", "tpot_slo_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_slo_bounds_rejected(self, field, value):
        # ``nan <= 0`` is false, so a sign check alone passes a NaN bound,
        # which then reports 0% attainment instead of refusing.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ServingConfig(**{field: value})


class TestNoDecode:
    """A trace whose every output is one token never decodes: its TPOT
    percentiles are ``None`` and every report still renders."""

    SPEC = TraceSpec.parse(
        "poisson;rate=100;requests=20;seed=3;output_mean=1;prompt_mean=16"
    )

    def results(self, registry=None):
        trace = generate_trace(self.SPEC)
        assert (trace.output_tokens == 1).all()
        return [
            simulate_serving(
                small_config(), small_cluster(), trace,
                ServingConfig(topology=topology), metrics=registry,
            )
            for topology in ("unified", "disaggregated")
        ]

    def test_summary_reports_no_tpot(self):
        for result in self.results():
            summary = result.summary()
            assert summary["tpot_p50_ms"] is None
            assert summary["tpot_p99_ms"] is None
            assert summary["decode_tokens"] == 0
            assert (result.complete_s == result.first_token_s).all()
            assert summary["slo_attainment"] == 1.0

    def test_table_prints_n_a(self):
        lines = format_serving_summary(self.results()).splitlines()
        rows = [line for line in lines
                if line.startswith(("unified ", "disaggregated "))]
        assert len(rows) == 2
        for row in rows:
            assert row.split()[3:5] == ["n/a", "n/a"]

    def test_report_writes_null(self):
        registry = MetricsRegistry()
        report = build_serving_report(self.results(registry), registry)
        text = json.dumps(report)
        for entry in json.loads(text)["topologies"].values():
            assert entry["tpot_p50_ms"] is None
            assert entry["tpot_p99_ms"] is None
        assert registry.counter("serve.requests", kind="completed") == 40


class TestClosedForms:
    """Serving's per-step wire bytes are the §5.1.3 closed forms.

    A serving machine is one worker (m = 1), the step's routed (token,
    expert) copies are T, the pool size is n, and every MoE block moves
    the volume once.  The one intended difference is the ``expert_cap``
    clamp: a decode step routing fewer copies than a block has experts
    touches at most that many experts, so its data-centric volume scales
    with ``min(E, cap)`` instead of E.  The cross-check therefore covers
    uncapped steps (cap >= E)."""

    @settings(max_examples=60, deadline=None)
    @given(
        pool_size=st.integers(min_value=2, max_value=64),
        copies=st.integers(min_value=1, max_value=100_000),
        spare_cap=st.integers(min_value=0, max_value=64),
        hidden=st.sampled_from([16, 64, 768]),
    )
    def test_uncapped_step_bytes_match_closed_forms(
        self, pool_size, copies, spare_cap, hidden
    ):
        config = small_config(hidden_dim=hidden)
        pool = tuple(range(pool_size))
        trace = generate_trace(GOLDEN_SPEC)
        moved = {}
        for mode in ("expert-centric", "data-centric", "auto"):
            sim = ServingSimulator(
                config, small_cluster(), trace,
                ServingConfig(prefill_paradigm=mode),
            )
            sim.state = _PhaseState(np.zeros(0), np.zeros(0))
            moved[mode] = sim._phase_traffic(
                "prefill", pool, copies, sim.num_experts + spare_cap,
            )
        blocks = config.num_moe_blocks
        expert_centric = blocks * comm_expert_centric(
            hidden, copies, 1, pool_size, config.dtype_bytes
        )
        data_centric = blocks * comm_data_centric(
            hidden, sim.num_experts / pool_size, 1, pool_size,
            config.dtype_bytes,
        )
        ec_bytes, ec_name = moved["expert-centric"]
        dc_bytes, dc_name = moved["data-centric"]
        assert (ec_name, dc_name) == ("expert-centric", "data-centric")
        assert ec_bytes == pytest.approx(expert_centric, rel=1e-12)
        assert dc_bytes == pytest.approx(data_centric, rel=1e-12)
        # ``auto`` is Eq. 1 on the step: the smaller volume, ties to EC.
        assert moved["auto"] == min(
            moved["expert-centric"], moved["data-centric"],
            key=lambda pair: (pair[0], pair[1] != "expert-centric"),
        )


class TestReports:
    def test_serving_breakdown_sections(self):
        registry = MetricsRegistry()
        result = run_small("disaggregated", registry, requests=100)
        breakdown = serving_breakdown(registry)
        assert set(breakdown) == {
            "requests", "steps", "tokens", "bytes", "histograms"
        }
        assert breakdown["requests"]["offered"] == 100
        assert breakdown["requests"]["completed"] == 100
        assert breakdown["tokens"]["prefill"] == (
            result.trace.total_prompt_tokens
        )
        # One prefiller and one decoder: intra-pool paradigm traffic has
        # no peers ((n-1)/n = 0), so only the KV handoff hits the wire.
        assert set(breakdown["bytes"]) == {"kv"}
        unified = MetricsRegistry()
        run_small("unified", unified, requests=100)
        assert set(serving_breakdown(unified)["bytes"]) == {
            "decode", "prefill"
        }
        ttft = breakdown["histograms"]["ttft_s"]["all"]
        assert ttft["count"] == 100
        assert 0 < ttft["min"] <= ttft["mean"] <= ttft["max"]
        batch = breakdown["histograms"]["batch"]["phase=decode"]
        assert batch["max"] <= GOLDEN_SERVING["max_batch"]

    def test_serving_breakdown_empty_without_serving(self):
        assert serving_breakdown(MetricsRegistry()) == {}

    def test_serving_report_embeds_serving_section(self):
        registry = MetricsRegistry()
        result = run_small("unified", registry)
        report = build_serving_report([result], registry, model="small")
        assert report["serving"] == serving_breakdown(registry)
        assert report["serving"]["requests"]["completed"] == 64
        # Only the serve report carries the serving section.
        assert "serving" not in build_run_report([], registry)

    def test_build_serving_report(self):
        registry = MetricsRegistry()
        results = [
            run_small("unified"),
            run_small("disaggregated", registry),
        ]
        report = build_serving_report(
            results, registry, model="small", machines=2
        )
        assert report["schema"] == "janus-repro/serve-report/v1"
        assert report["run"] == {"machines": 2, "model": "small"}
        assert set(report["topologies"]) == {"unified", "disaggregated"}
        for topology, entry in report["topologies"].items():
            assert entry["digest"] == golden(topology)["digest"]
        assert "serve.requests" in report["metrics"]["counters"]
        bare = build_serving_report(results)
        assert "metrics" not in bare

    def test_format_serving_summary(self):
        text = format_serving_summary(
            [run_small("unified"), run_small("disaggregated")],
            title="golden",
        )
        assert text.startswith("golden")
        assert "unified" in text and "disaggregated" in text
        assert "expert-centric" in text  # the paradigm-choice lines
