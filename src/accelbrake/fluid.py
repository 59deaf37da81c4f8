"""Continuous (fluid) approximation of the control loop.

Averaged over flows and packet boundaries, the queuing delay ``x(t)`` at
an accel/brake bottleneck obeys a one-dimensional delay-differential
equation: enqueue rate reacts to the delay one feedback delay ``tau``
ago, giving

    dx/dt = A - (1/delta) * max(x(t - tau) - d_t, 0),   x >= 0

where ``A`` collects the static offsets: the capacity headroom
``eta - 1`` plus the additive-increase pressure of N flows,
``N / (mu_pkts * l)``.  Everything here is in float seconds -- this
module is pure numerics, detached from the integer event clock.

For A <= 0 the queue empties (delay 0, rate (1 + A) * mu); for A > 0 the
delay settles at ``A * delta + d_t`` and the link saturates.  The
equilibrium is globally asymptotically stable whenever
``delta > (2/3) * tau``; the integrator lets you watch both the settle
and the oscillation when the condition is violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import MTU_BITS


@dataclass
class FluidParams:
    """Inputs of the averaged model; rates in bits/s, times in seconds."""

    eta: float = 0.98
    delta_s: float = 0.133
    target_delay_s: float = 0.05
    n_flows: int = 1
    mu_bps: float = 12e6
    tau_s: float = 0.1
    ai_interval_s: float = 0.1  # window gains one packet per flow per this interval

    def validate(self) -> None:
        if self.delta_s <= 0 or self.tau_s <= 0 or self.ai_interval_s <= 0:
            raise ValueError("delta, tau and the additive-increase interval must be positive")
        if self.mu_bps <= 0:
            raise ValueError(f"capacity must be positive, got {self.mu_bps}")
        if self.n_flows < 0:
            raise ValueError(f"flow count must be non-negative, got {self.n_flows}")
        if self.target_delay_s < 0:
            raise ValueError(f"target delay must be non-negative, got {self.target_delay_s}")

    @property
    def mu_pkts(self) -> float:
        return self.mu_bps / MTU_BITS

    @property
    def drift(self) -> float:
        """The constant A: net inflow pressure when the queue sits at target."""
        return (self.eta - 1.0) + self.n_flows / (self.mu_pkts * self.ai_interval_s)

    @property
    def stable(self) -> bool:
        """Sufficient condition for global asymptotic stability."""
        return self.delta_s > (2.0 / 3.0) * self.tau_s


def fixed_point_delay(params: FluidParams) -> float:
    """Equilibrium queuing delay in seconds."""
    params.validate()
    a = params.drift
    return a * params.delta_s + params.target_delay_s if a > 0 else 0.0


def fixed_point_rate(params: FluidParams) -> float:
    """Equilibrium throughput in bits/s: the link rate, or just below it."""
    params.validate()
    a = params.drift
    return params.mu_bps if a >= 0 else (1.0 + a) * params.mu_bps


def integrate(params: FluidParams,
              history: Union[float, Callable[[float], float]] = 0.0,
              horizon_s: float = 20.0,
              step_s: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Forward-Euler integration of the delay equation.

    ``history`` seeds x on [-tau, 0]: a constant, or a callable of time.
    The step defaults to tau/100 and must be at most tau/50 so the delay
    term is resolved.  Returns (times, delays) as arrays in seconds.

    Step ``i`` reads x only at ``i - lag``, so after the first ``lag``
    steps (which read the history) the increments of the next ``lag``
    steps are all known before those steps run.  They are computed with
    elementwise numpy operations, which round exactly like the scalar
    ones, and folded onto x with ``np.add.accumulate``, a strict
    left-to-right sum like the scalar loop's.  The clamp at 0 is the
    identity while every partial sum stays positive; a block where one
    does not (or is NaN) is redone step by step, except where the queue
    starts the block empty and no increment is positive: each step then
    clamps ``0.0 + inc`` to 0.0, so the block is filled with 0.0.  The
    result is therefore bit-identical to stepping one at a time.
    """
    params.validate()
    if step_s is None:
        step_s = params.tau_s / 100.0
    if step_s <= 0 or step_s > params.tau_s / 50.0:
        raise ValueError(f"step must be in (0, tau/50], got {step_s}")
    if horizon_s <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_s}")

    lag = max(1, round(params.tau_s / step_s))
    n = int(math.ceil(horizon_s / step_s))
    hist = history if callable(history) else (lambda _t, v=float(history): v)

    t = np.arange(n + 1) * step_s
    x = np.empty(n + 1)
    x[0] = max(0.0, hist(0.0))
    a = params.drift
    inv_delta = 1.0 / params.delta_s
    d_t = params.target_delay_s

    def step(i: int, delayed: float) -> None:
        x[i + 1] = max(0.0, x[i] + step_s * (a - inv_delta * max(delayed - d_t, 0.0)))

    for i in range(min(lag, n)):
        step(i, max(0.0, hist((i - lag) * step_s)))
    for i in range(lag, n, lag):
        end = min(i + lag, n)
        block = x[i:end + 1]
        inc = step_s * (a - inv_delta * np.maximum(x[i - lag:end - lag] - d_t, 0.0))
        block[1:] = inc
        np.add.accumulate(block, out=block)
        if not (block[1:] > 0.0).all():
            if block[0] == 0.0 and (inc <= 0.0).all():
                block[1:] = 0.0
            else:
                for k in range(i, end):
                    step(k, x[k - lag])
    return t, x


def settling_time(t: np.ndarray, x: np.ndarray, x_star: float,
                  rel_band: float = 0.01, abs_floor: float = 1e-4) -> Optional[float]:
    """First time after which the trajectory stays within the band forever.

    The band is ``rel_band`` of the equilibrium, with an absolute floor so
    a zero equilibrium still has a meaningful target.  Returns None when
    the trajectory is still outside the band at the end of the horizon.
    """
    band = max(rel_band * abs(x_star), abs_floor)
    outside = np.abs(x - x_star) > band
    if not outside.any():
        return float(t[0])
    last_out = np.nonzero(outside)[0][-1]
    if last_out == len(x) - 1:
        return None
    return float(t[last_out + 1])


def settles(t: np.ndarray, x: np.ndarray, x_star: float,
            tail_s: float, rel_band: float = 0.01, abs_floor: float = 1e-4) -> bool:
    """True when the final ``tail_s`` of the trajectory stays in the band."""
    ts = settling_time(t, x, x_star, rel_band, abs_floor)
    return ts is not None and ts <= t[-1] - tail_s


def self_consistent_fixed_point(eta: float, delta_s: float, target_delay_s: float,
                                n_flows: int, mu_bps: float, tau_s: float) -> tuple[float, float]:
    """Equilibrium (delay, rate) when the RTT itself includes the queue.

    The additive-increase interval is one round trip, which stretches as
    the queue grows: l = tau + x.  Solving x = prediction(x) by bisection
    gives the operating point a packet-level run should approach.
    """
    def predicted(x: float) -> float:
        p = FluidParams(eta, delta_s, target_delay_s, n_flows, mu_bps, tau_s,
                        ai_interval_s=tau_s + x)
        return fixed_point_delay(p)

    lo, hi = 0.0, delta_s + target_delay_s + 1.0
    if predicted(lo) - lo <= 0:
        x_star = 0.0
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if predicted(mid) - mid > 0:
                lo = mid
            else:
                hi = mid
        x_star = 0.5 * (lo + hi)
    final = FluidParams(eta, delta_s, target_delay_s, n_flows, mu_bps, tau_s,
                        ai_interval_s=tau_s + x_star)
    return x_star, fixed_point_rate(final)
