"""Host-speed probe and the normalization of timings to a reference host.

On a small shared virtual machine the speed of the host moves between
invocations by more than any change worth measuring: the median of a fixed
pure-Python loop has been seen to move by a third from one process to the
next.  A fixed probe, run between operations and never while a query is in
flight, measures that speed.  Every operation's latency is multiplied by
``PROBE_REF_S / median(recent probes)``, which expresses it in seconds on a
host whose probe takes exactly ``PROBE_REF_S``.

The probe mixes the two kinds of work the engine does: interpreter-bound
Python (dict updates, attribute access, calls) and a small NumPy kernel
whose arrays fit in L2, so it tracks CPU speed without depending on the
working set of the graph.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

#: The pinned probe duration every timing is normalized to.  Close to the
#: probe's median on a 2-vCPU Xeon KVM guest, so normalized figures read
#: like raw ones there.  Never change it: doing so rescales every timing.
PROBE_REF_S = 0.0012

#: Probes whose median sets the factor for the next operations.  The host's
#: speed moves within seconds, so the window is short: with nine probes
#: 40 ms apart, same-seed runs agreed within 2-3 % where the raw figures
#: moved by a quarter; a window over the whole run left 20 %.
WINDOW = 9

#: Measured work between two probes, in seconds.
CADENCE_S = 0.04

_PY_ROUNDS = 1000
_NP_WORDS = 1 << 14  # 16 Ki words = 128 KiB per array, well inside L2


class HostProbe:
    """A fixed unit of work whose duration measures the host's speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20250101)
        self._keys = rng.integers(0, _NP_WORDS, _NP_WORDS)
        self._values = rng.random(_NP_WORDS)

    def run(self) -> float:
        """Do the work twice; returns the second run's duration in seconds.

        The first run brings the probe's code and arrays back into cache,
        so the result does not depend on what ran just before.
        """
        self._work()
        started = time.perf_counter()
        self._work()
        return time.perf_counter() - started

    def _work(self) -> None:
        table: dict[int, int] = {}
        items: list[tuple[int, str]] = []
        for i in range(_PY_ROUNDS):
            key = (i * 7919) & 255
            table[key] = table.get(key, 0) + i
            items.append((key, str(i)))
        items.sort()
        order = np.argsort(self._keys)
        gathered = self._values[order]
        total = float(np.cumsum(gathered)[-1]) + len(table) + len(items)
        if total < 0:  # keeps the work observable; never true
            raise AssertionError("probe arithmetic broke")


def normalization_factor(probes: list[float], ref_s: float = PROBE_REF_S) -> float:
    """``ref_s / median(probes)``: multiply a raw timing by this."""
    if not probes:
        raise ValueError("no probe has run yet")
    return ref_s / statistics.median(probes)


class HostNormalizer:
    """Runs the probe at a steady cadence of measured work.

    The caller reports each operation's measured seconds to :meth:`account`
    after the operation returns; once ``cadence_s`` of work has accumulated
    the probe runs.  :attr:`in_flight` is set by the caller while a query
    runs, and a probe attempted then raises, so the probe can never share
    the CPU with a query.
    """

    def __init__(
        self,
        probe: Callable[[], float] | None = None,
        ref_s: float = PROBE_REF_S,
        window: int = WINDOW,
        cadence_s: float = CADENCE_S,
    ) -> None:
        self._probe = probe if probe is not None else HostProbe().run
        self.ref_s = ref_s
        self.window = window
        self.cadence_s = cadence_s
        self.samples: list[float] = []
        self.in_flight = False
        self._since = 0.0
        self._factor = 1.0

    def probe(self) -> None:
        if self.in_flight:
            raise RuntimeError("host probe attempted while a query is in flight")
        self.samples.append(self._probe())
        self._factor = normalization_factor(self.samples[-self.window :], self.ref_s)

    def warm(self, probes: int | None = None) -> None:
        """Fill the window before anything is normalized."""
        for _ in range(probes if probes is not None else self.window):
            self.probe()

    @property
    def factor(self) -> float:
        """The factor that applies to the operations since the last probe."""
        return self._factor

    def account(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= self.cadence_s:
            self._since = 0.0
            self.probe()

    def probe_ms(self) -> float:
        """Median probe over the whole run, in milliseconds."""
        return statistics.median(self.samples) * 1e3
