"""Machine-speed probes, so that times read at one reference speed.

The benchmark runs on a small VM of a shared host.  Its speed drifts by up
to 1.5x over seconds to minutes, alike on every CPU and for every kind of
CPU-bound code, because of load elsewhere on the host.  A 30-second run
cannot average that away, so runs of the same code differ by more than
any useful bound.

Between operations (never inside one), at most every ``EVERY_S`` seconds,
a run times a fixed piece of pure-Python work that uses nothing of the
program: deferred acceptance on a small fixed instance, with the dicts,
lists and tuples the program's own code is made of.  An operation's time
is then multiplied by ``REFERENCE_S`` over the mean of the probes just
before and just after it.  A program change leaves the probe alone, so a
faster program still reads faster; a slower host no longer reads as a
slower program.  The unscaled figures are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

EVERY_S = 0.1
# A probe lasts SHARE of the time since the previous one, up to MAX_PROBE_S,
# so the probes around a long operation see more of the machine.
SHARE = 0.03
MAX_PROBE_S = 0.1
# Median probe time on the machine the bounds were set on (a 2-vCPU Xeon
# VM), so scaled times read like its wall-clock times at its usual speed.
REFERENCE_S = 1.1e-3

_N = 24
_REPS = 32
_rng = random.Random(0)
_PREFS = [_rng.sample(range(_N), _N) for _ in range(_N)]
_RANKS = [{m: r for r, m in enumerate(_rng.sample(range(_N), _N))} for _ in range(_N)]


def _deferred_acceptance() -> list[tuple[int, int]]:
    nxt = [0] * _N
    engaged: dict[int, int] = {}
    free = list(range(_N))
    while free:
        m = free.pop()
        w = _PREFS[m][nxt[m]]
        nxt[m] += 1
        held = engaged.get(w)
        if held is None:
            engaged[w] = m
        elif _RANKS[w][m] < _RANKS[w][held]:
            engaged[w] = m
            free.append(held)
        else:
            free.append(m)
    return sorted((m, w) for w, m in engaged.items())


def probe_once(budget_s: float = 0.0) -> float:
    """Seconds the fixed work takes, timed over at least ``budget_s``."""
    reps = 0
    began = time.perf_counter()
    while True:
        for _ in range(_REPS):
            _deferred_acceptance()
        reps += _REPS
        took = time.perf_counter() - began
        if took >= budget_s:
            return took * _REPS / reps


class Speed:
    """Probes taken over one run, and the scale factor they give each operation."""

    def __init__(self):
        self.at: list[float] = []  # when each probe ended
        self.took: list[float] = []
        self.spent = 0.0  # seconds spent probing
        self.probe()

    def probe(self) -> None:
        """One probe, longer after a longer stretch without one: SHARE of it."""
        began = time.perf_counter()
        since = began - self.at[-1] if self.at else 0.0
        self.took.append(probe_once(min(SHARE * since, MAX_PROBE_S)))
        self.at.append(time.perf_counter())
        self.spent += self.at[-1] - began

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.at[-1] >= EVERY_S:
            self.probe()

    def factor(self, began: float) -> float:
        """REFERENCE_S over the probes on either side of an operation that began at ``began``.

        Operations run between probes, so the probe before an operation is
        the last one that ended by ``began`` and the probe after it the next.
        """
        i = bisect.bisect_right(self.at, began)
        near = self.took[max(i - 1, 0):i + 1]
        return REFERENCE_S / statistics.fmean(near)

    def summary(self) -> dict:
        return {
            "reference_s": REFERENCE_S,
            "probes": len(self.took),
            "probing_s": self.spent,
            "probe_median_s": statistics.median(self.took),
            "probe_q1_q3_s": statistics.quantiles(self.took, n=4)[::2] if len(self.took) > 1 else None,
        }
