"""Forward-diffusion schedules and their closed-form coefficients.

A schedule fixes the drift f(t) and diffusion g(t) of the forward SDE
dx = f(t) x dt + g(t) dB.  Everything downstream consumes only the three
derived coefficients

    s(t)     = exp(integral of f),         the signal scale,
    sigma(t) = sqrt(integral of g^2/s^2),  the relative noise level,
    gamma(t) = s(t) * sigma(t),            the absolute noise level.

Two presets are provided, both with exact closed forms:

    constant_drift:  f = 0,        g = g0       -> s = 1, gamma = g0 sqrt(t)
    vp:              f = -beta/2,  g = sqrt(beta)
                     -> s = exp(-beta t / 2), gamma = sqrt(1 - exp(-beta t))

The early-stopping time t_min must be strictly positive so gamma(t) never
vanishes on the working interval, and `make_schedule` refuses a rate whose
gamma(t)^2 underflows to 0 at t_min or overflows at t_max.  That is the one
check of the noise level: every score kernel takes gamma from `coefficients`,
which refuses a t outside [t_min, t_max].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvalidScheduleParams, TimeOutOfRange

DEFAULT_T_MIN = 0.01
DEFAULT_T_MAX = 1.0


class ScheduleKind(enum.Enum):
    CONSTANT_DRIFT = "constant_drift"
    VARIANCE_PRESERVING = "vp"


@dataclass(frozen=True)
class DiffusionSchedule:
    kind: ScheduleKind
    rate: float  # g0 for constant_drift, beta for vp
    t_min: float
    t_max: float

    def f(self, t: float) -> float:
        if self.kind is ScheduleKind.CONSTANT_DRIFT:
            return 0.0
        return -0.5 * self.rate

    def g(self, t: float) -> float:
        if self.kind is ScheduleKind.CONSTANT_DRIFT:
            return self.rate
        return math.sqrt(self.rate)

    def s(self, t: float) -> float:
        if self.kind is ScheduleKind.CONSTANT_DRIFT:
            return 1.0
        return math.exp(-0.5 * self.rate * t)

    def sigma(self, t: float) -> float:
        if self.kind is ScheduleKind.CONSTANT_DRIFT:
            return self.rate * math.sqrt(t)
        return math.sqrt(math.expm1(self.rate * t))

    def gamma(self, t: float) -> float:
        if self.kind is ScheduleKind.CONSTANT_DRIFT:
            return self.rate * math.sqrt(t)
        # s * sigma simplified; -expm1(-x) = 1 - exp(-x) without cancellation
        return math.sqrt(-math.expm1(-self.rate * t))


def make_schedule(
    kind: ScheduleKind | str,
    rate: float,
    t_min: float = DEFAULT_T_MIN,
    t_max: float = DEFAULT_T_MAX,
) -> DiffusionSchedule:
    """Build a schedule preset, validating parameters."""
    try:
        kind = ScheduleKind(kind)
    except (ValueError, TypeError):
        raise InvalidScheduleParams(f"unknown schedule kind {kind!r}") from None
    try:
        rate, t_min, t_max = float(rate), float(t_min), float(t_max)
    except (ValueError, TypeError):
        raise InvalidScheduleParams(
            f"rate, t_min and t_max must be numbers, got {rate!r}, {t_min!r}, {t_max!r}") from None
    if not all(map(math.isfinite, (rate, t_min, t_max))):
        raise InvalidScheduleParams(f"schedule parameters must be finite, got "
                                    f"{rate}, {t_min}, {t_max}")
    if not (rate > 0):
        raise InvalidScheduleParams(f"rate parameter must be positive, got {rate}")
    if not (t_min > 0):
        raise InvalidScheduleParams(f"t_min must be positive, got {t_min}")
    if not (t_min < t_max):
        raise InvalidScheduleParams(f"need t_min < t_max, got {t_min} >= {t_max}")
    sched = DiffusionSchedule(kind=kind, rate=rate, t_min=t_min, t_max=t_max)
    # every score divides by gamma(t)^2: both presets raise gamma with t and
    # keep gamma <= sigma, so these two bounds hold it in (0, inf) on the interval
    try:
        usable = sched.gamma(t_min) ** 2 > 0 and math.isfinite(sched.sigma(t_max) ** 2)
    except OverflowError:
        usable = False
    if not usable:
        raise InvalidScheduleParams(f"gamma(t)^2 leaves (0, inf) on [{t_min}, {t_max}] "
                                    f"at rate {rate}")
    return sched


def coefficients(sched: DiffusionSchedule, t: float) -> tuple[float, float, float]:
    """Return (s, sigma, gamma) at time t, enforcing the working interval."""
    if not (sched.t_min <= t <= sched.t_max):
        raise TimeOutOfRange(f"t={t} outside [{sched.t_min}, {sched.t_max}]")
    return sched.s(t), sched.sigma(t), sched.gamma(t)
