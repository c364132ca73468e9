"""Machine-speed probe for a shared host, so that timings can be compared.

On a host shared with other tenants the same pure-Python work runs up to
a third faster or slower for stretches of seconds to minutes.  The probe
runs a fixed calibration kernel from a timer signal every INTERVAL seconds
while the benchmark works, keeps (time, kernel seconds) samples, and
converts a measured interval into reference seconds: its length times
REFERENCE_KERNEL_S / (kernel time in that interval).  The kernel's own
time is subtracted from every interval it interrupts.  Raw seconds are
printed next to the reference ones.  Set-up times are rescaled the same
way by a second kernel, setup_kernel, run next to each set-up.
"""

from __future__ import annotations

import bisect
import signal
import time

from . import intpoly as ip

INTERVAL = 0.5
PAD = 0.5
# the kernel's median time on the reference host (shared 2-vCPU virtual machine, CPython 3.11)
REFERENCE_KERNEL_S = 0.0050
_KERNEL_POLY = [1, -3, 0, 5, -2, 7, 1, 0, -4, 2, 1, 3, -1, 0, 2, 5, 1]


def kernel() -> None:
    """Fixed work shaped like the library's: distinct-degree factoring of a
    degree-16 polynomial mod 101 (list arithmetic, as in the sieve) and
    big-integer squaring with reduction (as in the lattice reduction).
    Its time tracks the library's under contention better than a loop
    over small lists does."""
    ip.factor_degrees_mod_p(_KERNEL_POLY, 101)
    v, m = 3**300, (1 << 1021) - 1
    for _ in range(150):
        v = v * v % m


# Set-up is mostly imports: unmarshalling and running module bodies, whose
# dataclass decorators compile generated code.  Compiling a fixed source
# tracks their speed on a shared host to a few per cent, where the kernel
# above does not: rescaled by it, set-up times still spread by a quarter.
_SETUP_TEMPLATE = '''
@dataclass(frozen=True)
class Entry{i}:
    """A record with a few fields and methods."""
    name: str
    values: tuple[int, ...] = ()
    weight: float = 1.0

    def total(self) -> int:
        return sum(v * {i} for v in self.values if v % 3 != 1)

    def scaled(self, k: int) -> "Entry{i}":
        return Entry{i}(self.name + str(k), tuple(k * v for v in self.values), self.weight / (k or 1))


def step{i}(xs: list[int], p: int) -> list[int]:
    out = [0] * (len(xs) + 1)
    for j, x in enumerate(xs):
        if x:
            out[j + 1] = (out[j + 1] + x * {i}) % p
            out[j] -= x if j % 2 else -x
    return [c % p for c in out]


def walk{i}(report, limit: int = 40) -> dict[str, list]:
    """Group the entries of a report by status, stopping at limit."""
    groups: dict[str, list] = {{}}
    try:
        for k, entry in enumerate(report.entries):
            if k >= limit:
                raise StopIteration(f"more than {{limit}} entries in {{report.name!r}}")
            groups.setdefault(entry.status, []).append((entry.delta, entry.witness_prime))
    except (StopIteration, AttributeError) as exc:
        groups["error"] = [str(exc)]
    finally:
        total = sum(len(v) for v in groups.values())
    return {{k: sorted(v, key=lambda t: (abs(t[0]), t[0])) for k, v in groups.items() if v}} if total else {{}}
'''
_SETUP_SOURCE = "from dataclasses import dataclass\n" + "".join(
    _SETUP_TEMPLATE.format(i=i) for i in range(10))
# its median time on the reference host, where the kernel above takes REFERENCE_KERNEL_S
REFERENCE_SETUP_KERNEL_S = 0.0048


def setup_kernel() -> None:
    compile(_SETUP_SOURCE, "<setup kernel>", "exec")


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []      # sample midpoints
        self.kernel_s: list[float] = []
        self.stolen = 0.0                 # total time spent in the handler

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.kernel_s.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def start(self) -> None:
        kernel()  # the first call pays for allocations the later ones reuse
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> tuple[float, float]:
        """(wall time, handler time so far): pass two of these to elapsed()."""
        return time.perf_counter(), self.stolen

    def busy_clock(self) -> float:
        """A clock that stands still while the handler runs (raw seconds)."""
        return time.perf_counter() - self.stolen

    def elapsed(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Raw seconds between two clock() readings, handler time removed."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def reference(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two clock() readings at the reference speed.

        Uses the samples taken within PAD seconds of the interval, or the
        nearest sample when there is none (start() takes the first one).
        """
        lo = bisect.bisect_left(self.times, start[0] - PAD)
        hi = bisect.bisect_right(self.times, end[0] + PAD)
        window = self.kernel_s[lo:hi]
        if not window:
            i = min(range(len(self.times)), key=lambda k: abs(self.times[k] - start[0]))
            window = [self.kernel_s[i]]
        rate = sum(REFERENCE_KERNEL_S / k for k in window) / len(window)
        return self.elapsed(start, end) * rate
