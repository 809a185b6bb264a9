"""Seeded open-loop request traces for the serving simulator.

A :class:`TraceSpec` describes one arrival process plus the per-request
length/affinity distributions; :func:`generate_trace` evaluates it into a
:class:`RequestTrace` of flat numpy arrays.  Generation is a pure function
of the spec — same spec, same bits, on any host and in any process — which
is what makes serving goldens and the bench reproducibility gate possible.

Arrival kinds (all share the same long-run mean ``rate``):

* ``poisson`` — homogeneous Poisson arrivals at ``rate`` requests/second.
* ``diurnal`` — sinusoidally modulated rate,
  ``rate * (1 + amplitude * sin(2*pi*t / period))``: the daily traffic
  swell compressed to simulation scale.
* ``bursty``  — a deterministic duty cycle: each ``period`` opens with a
  burst window (fraction ``duty`` of the period) at ``burst`` times the
  calm rate; calm rate is chosen so the long-run mean stays ``rate``.

All kinds are sampled by thinning against the peak rate in fixed-size
vectorized chunks, so million-request traces cost a handful of numpy
calls rather than a Python loop per request.

Request shape: prompt lengths are rounded lognormals around
``prompt_mean`` (heavy right tail, like real prompt mixes), output
lengths are geometric with mean ``output_mean`` (memoryless decode), and
``affinity`` is a uniform draw in [0, 1) that the serving layer maps
through a Zipf CDF (``expert_rank``) to a preferred expert — ``skew``
controls how concentrated that popularity is (0 = uniform).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..clauses import parse_clauses
from ..domains import (
    AT_LEAST_ONE,
    NON_NEGATIVE,
    NON_NEGATIVE_INT,
    POSITIVE,
    POSITIVE_INT,
    UNIT,
    Choice,
    Domain,
    check_fields,
    domain,
)
from ..workloads.tokens import zipf_law

__all__ = [
    "TraceSpec",
    "RequestTrace",
    "generate_trace",
    "expert_rank",
]

# Candidate arrivals drawn per thinning round.  Fixed — chunking is part
# of the deterministic sampling procedure, so it must not depend on the
# host or the request count.
_CHUNK = 16384

# Lognormal shape parameter for prompt lengths (sigma of log-length).
_PROMPT_SIGMA = 0.5

# Length clip, in multiples of the configured mean: keeps the tails heavy
# but the worst-case request bounded.
_LENGTH_CAP = 16


@dataclass(frozen=True)
class TraceSpec:
    """One seeded request-arrival process (see module docstring)."""

    kind: str = domain(Choice(("poisson", "diurnal", "bursty")), "poisson")
    rate: float = domain(POSITIVE, 1000.0)
    requests: int = domain(POSITIVE_INT, 10_000)
    seed: int = domain(NON_NEGATIVE_INT, 0)
    prompt_mean: float = domain(AT_LEAST_ONE, 128.0)
    output_mean: float = domain(AT_LEAST_ONE, 32.0)
    skew: float = domain(NON_NEGATIVE, 0.0)
    period: float = domain(POSITIVE, 4.0)
    amplitude: float = domain(UNIT, 0.8)
    burst: float = domain(AT_LEAST_ONE, 4.0)
    duty: float = domain(Domain(float, 0, 1, low_open=True), 0.2)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def parse(cls, text: str) -> "TraceSpec":
        """Parse the CLI grammar, e.g.
        ``poisson;rate=2000;requests=100000;seed=7;skew=1.2``.

        The first clause may be a bare kind name; remaining clauses are
        ``field=value`` with the fields of this dataclass.
        """
        return parse_clauses(cls(), text, "trace")

    # -- the rate function -----------------------------------------------------

    @property
    def peak_rate(self) -> float:
        """Upper bound of the instantaneous rate (thinning envelope)."""
        if self.kind == "diurnal":
            return self.rate * (1.0 + self.amplitude)
        if self.kind == "bursty":
            return self.burst * self._calm_rate
        return self.rate

    @property
    def _calm_rate(self) -> float:
        # Chosen so duty-weighted mean over one period equals ``rate``.
        return self.rate / ((1.0 - self.duty) + self.burst * self.duty)

    def rate_at(self, times: np.ndarray) -> np.ndarray:
        """Instantaneous arrival rate lambda(t), vectorized."""
        times = np.asarray(times, dtype=float)
        if self.kind == "diurnal":
            swing = np.sin(2.0 * np.pi * times / self.period)
            return self.rate * (1.0 + self.amplitude * swing)
        if self.kind == "bursty":
            phase = np.mod(times, self.period)
            return np.where(
                phase < self.duty * self.period,
                self.burst * self._calm_rate,
                self._calm_rate,
            )
        return np.full_like(times, self.rate)


@dataclass
class RequestTrace:
    """A materialized trace: parallel arrays, one entry per request."""

    spec: TraceSpec
    arrival_s: np.ndarray
    prompt_tokens: np.ndarray
    output_tokens: np.ndarray
    affinity: np.ndarray

    def __len__(self) -> int:
        return int(self.arrival_s.shape[0])

    @property
    def total_prompt_tokens(self) -> int:
        return int(self.prompt_tokens.sum())

    @property
    def offered_rate(self) -> float:
        """Realized request rate over the trace's span."""
        last = float(self.arrival_s[-1])
        return len(self) / last if last > 0 else float("inf")

    def digest(self) -> str:
        """SHA-256 over the spec and every array — the bit-identity of the
        trace, compared across processes and bench runs."""
        digest = hashlib.sha256(repr(self.spec).encode())
        for array in (self.arrival_s, self.prompt_tokens,
                      self.output_tokens, self.affinity):
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()


def generate_trace(spec: TraceSpec) -> RequestTrace:
    """Evaluate ``spec`` into arrays (deterministic in the spec alone)."""
    rng = np.random.default_rng(spec.seed)
    count = spec.requests
    peak = spec.peak_rate
    pieces = []
    accepted = 0
    clock = 0.0
    while accepted < count:
        gaps = rng.exponential(1.0 / peak, _CHUNK)
        times = clock + np.cumsum(gaps)
        # Thin against the envelope: keep a candidate at time t with
        # probability lambda(t) / peak.  For the homogeneous kind the
        # ratio is 1 and every candidate survives.
        keep = rng.random(_CHUNK) * peak < spec.rate_at(times)
        kept = times[keep]
        pieces.append(kept)
        accepted += kept.shape[0]
        clock = float(times[-1])
    arrival = np.concatenate(pieces)[:count]

    sigma = _PROMPT_SIGMA
    mu = np.log(spec.prompt_mean) - 0.5 * sigma * sigma
    prompt = np.rint(rng.lognormal(mu, sigma, count)).astype(np.int64)
    prompt = np.clip(prompt, 1, max(1, int(_LENGTH_CAP * spec.prompt_mean)))

    output = rng.geometric(1.0 / spec.output_mean, count).astype(np.int64)
    output = np.clip(output, 1, max(1, int(_LENGTH_CAP * spec.output_mean)))

    affinity = rng.random(count)
    return RequestTrace(spec, arrival, prompt, output, affinity)


def expert_rank(
    affinity: np.ndarray, num_experts: int, skew: float
) -> np.ndarray:
    """Map uniform affinities to expert popularity ranks (0 = hottest).

    Popularity follows a Zipf law over ranks (``weight_r ~ 1/(r+1)^skew``);
    ``skew=0`` degenerates to a uniform assignment.  Requests keep their
    affinity for life, so a request's expert never changes between prefill
    and decode — which is what makes decode-side hot-expert pinning
    meaningful.
    """
    POSITIVE_INT.check("num_experts", num_experts)
    NON_NEGATIVE.check("skew", skew)
    affinity = np.asarray(affinity, dtype=float)
    if skew == 0:
        return np.minimum(
            (affinity * num_experts).astype(np.int64), num_experts - 1
        )
    cdf = np.cumsum(zipf_law(num_experts, skew))
    cdf[-1] = 1.0  # guard the float tail so affinity < 1 always maps
    return np.searchsorted(cdf, affinity, side="right").astype(np.int64)
