"""Machine-speed reference for the end-to-end host times.

The benchmark runs on shared machines whose speed drifts. On a 2-vCPU
VM the wall time of one and the same pass ranged over 1.4x within a few
minutes, and the host metrics of ten runs spread up to 0.34 (IQR over
median). :class:`Speed` runs a small fixed kernel every ``INTERVAL_S``
of the run, outside every timed call, and the runner scales each
end-to-end host time by ``NOMINAL_S`` over the median of the samples
taken around it (a pass's timed phase, or one set-up): the figures are
wall times on a machine where the kernel takes ``NOMINAL_S``. The
kernel imports nothing from the program, so a change to the program
cannot move it; only the machine does.

The kernel is zlib level-1 compression of a fixed 16 KiB buffer
through one long-lived compressor, flushed after each buffer. A sample
is the fastest of ``REPEATS`` runs back to back. Kernels were chosen by
timing candidates this way through passes of every workload while the
machine drifted (one seed per pass; the standard deviation of the log
of pass wall time was 0.10-0.14):

* one-shot ``zlib.compress`` of the same buffer tracked the program
  best (0.04 left after dividing by it), but it allocates its ~256 KiB
  of state on every call, and after program work even its fastest of
  eight runs was 19% slower than warm: that gap moves with what the
  program leaves in the caches and the heap, which a change to the
  program may move.
* this kernel's fastest of five was within 2-5% of warm, and it left
  0.045-0.064 (its time moved about 1.4x less than the program's).
* a ``heapq.merge`` of tuple runs (the shape of the index merges)
  left 0.07-0.13, because it slowed about twice as much as the program
  did; random lookups in a 200k-entry dict or list left 0.07-0.27;
  sha256 barely moved with the machine at all.

A thread or process of the program that kept running between calls
would slow the kernel and so flatter the program. With a second thread
hashing on the other vCPU the whole time, the kernel slowed 12%. Work
handed to a pool and waited for inside a call does not do this. The
per-layer ``host.other_cpu_s`` shows how much CPU time such work took.
"""

import random
import statistics
import zlib
from time import perf_counter

#: Median kernel time (s) on the machine the bounds were measured on
#: (2 vCPU Intel Xeon, CPython 3.11.7). Any constant would do: it only
#: makes the scaled figures read as wall time on that machine.
NOMINAL_S = 50e-6
#: Wall time between two kernel samples.
INTERVAL_S = 0.1
#: Kernel runs per sample, back to back; the sample is the fastest.
#: The first two after program work run at about twice the warm time.
REPEATS = 5


def _payload():
    rng = random.Random(2015)
    words = [rng.randbytes(8) for _ in range(64)]
    return b"".join(rng.choice(words) for _ in range(2048))


_PAYLOAD = _payload()
_COMPRESSOR = zlib.compressobj(1)


def kernel():
    """One fixed unit of work: compress ``_PAYLOAD`` and flush.

    The stream's window always holds the previous copy of the buffer,
    so every call after the first does the same work.
    """
    _COMPRESSOR.compress(_PAYLOAD)
    return _COMPRESSOR.flush(zlib.Z_SYNC_FLUSH)


class Speed:
    """Kernel samples taken through one run.

    ``tick()`` goes between calls into the program; it takes a sample
    when ``INTERVAL_S`` has passed since the last one. ``spent`` is the
    wall time the samples took, which the runner takes out of the timed
    phase.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._due = 0.0

    def sample(self):
        start = perf_counter()
        fastest = None
        for _ in range(REPEATS):
            begin = perf_counter()
            kernel()
            took = perf_counter() - begin
            if fastest is None or took < fastest:
                fastest = took
        self.samples.append(fastest)
        now = perf_counter()
        self.spent += now - start
        self._due = now + INTERVAL_S
        return fastest

    def tick(self):
        if perf_counter() >= self._due:
            self.sample()

    def median_s(self):
        return statistics.median(self.samples)

    @staticmethod
    def factor(samples):
        """Multiplier from wall time on this machine, while it took
        ``samples``, to nominal time."""
        return NOMINAL_S / statistics.median(samples)
