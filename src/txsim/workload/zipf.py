"""Zipfian rank sampling by rejection inversion.

Samples P(rank = i) proportional to 1/i^theta over ranks 1..n without
tabulating the distribution, so it is exact for any theta >= 0 and cheap even
at n = 10^6.  This is the rejection-inversion scheme of Hormann and
Derflinger for monotone discrete distributions; theta = 0 degenerates to
uniform and theta = 1 is handled through the log-limit helpers.

There is one draw path: ``ZipfianSampler.drawer`` binds the sampler's
constants and ``rng.random`` into a closure that runs the scheme's float
operations inline.
"""

from __future__ import annotations

import math
from typing import Callable


def _helper1(x: float) -> float:
    # log(1+x)/x, continuous at 0
    return math.log1p(x) / x if x != 0.0 else 1.0


def _helper2(x: float) -> float:
    # (exp(x)-1)/x, continuous at 0
    return math.expm1(x) / x if x != 0.0 else 1.0


class ZipfianSampler:
    def __init__(self, n: int, theta: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n = n
        self.theta = theta
        self._h_x1 = self._h_integral(1.5) - 1.0
        self._h_n = self._h_integral(n + 0.5)
        self._s = 2.0 - self._h_integral_inverse(self._h_integral(2.5) - self._h(2.0))

    def _h(self, x: float) -> float:
        return math.exp(-self.theta * math.log(x))

    def _h_integral(self, x: float) -> float:
        log_x = math.log(x)
        return _helper2((1.0 - self.theta) * log_x) * log_x

    def _h_integral_inverse(self, x: float) -> float:
        t = x * (1.0 - self.theta)
        if t < -1.0:
            t = -1.0
        return math.exp(_helper1(t) * x)

    def drawer(self, rng) -> Callable[[], int]:
        """A function of no arguments that returns one rank per call, drawn from ``rng``.

        It performs ``_h_integral_inverse``, ``_h_integral`` and ``_h`` inline,
        with the same float operations in the same order.
        """
        n = self.n
        if n == 1:
            return lambda: 1
        random, exp, log, log1p, expm1 = rng.random, math.exp, math.log, math.log1p, math.expm1
        h_n, span, s = self._h_n, self._h_x1 - self._h_n, self._s
        one_minus_theta, neg_theta = 1.0 - self.theta, -self.theta

        def draw() -> int:
            while True:
                u = h_n + random() * span
                t = u * one_minus_theta
                if t < -1.0:
                    t = -1.0
                x = exp((log1p(t) / t if t != 0.0 else 1.0) * u)
                k = int(x + 0.5)
                if k < 1:
                    k = 1
                elif k > n:
                    k = n
                if k - x <= s:
                    return k
                log_y = log(k + 0.5)
                z = one_minus_theta * log_y
                if u >= (expm1(z) / z if z != 0.0 else 1.0) * log_y - exp(neg_theta * log(k)):
                    return k

        return draw
