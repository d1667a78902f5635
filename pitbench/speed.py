"""Machine-speed probe.

The machine the reference figures come from changes speed by up to a half
within a minute or two: the process keeps its CPU time but runs slower,
because it shares the hardware.  Runs of the same corpus a minute apart
then differ by more than the benchmark's bounds.  pitkit's times and a
fixed piece of the benchmark's own polynomial arithmetic (dicts of exponent
tuples, Fractions and residues mod 2^61 - 1, the same kind of work pitkit
does) slow down together.  So run.py times this probe between instances and
reports every end-to-end time at the probe's reference speed:

    reference seconds = measured seconds * REFERENCE_S / median probe time

The speed changes within seconds too, so each time is scaled by the probes
taken next to it: the NEAR probes before it and the NEAR after it.

The probe is the benchmark's code, so a change to pitkit moves the measured
seconds and not the probe.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

from refalg import BIG_PRIME, Field, pmul

# what the probe takes on the reference machine at a good moment (README)
REFERENCE_S = 0.004
# least time between two probes; about 5% of a run goes to probing
EVERY_S = 0.1
# probes before and after an instance whose median scales its time
NEAR = 2


class Probe:
    def __init__(self):
        rng = random.Random("probe")
        self.polys = []
        for F in (Field(None), Field(BIG_PRIME)):
            a, b = ({tuple(rng.randint(0, 3) for _ in range(3)): F.norm(rng.randint(1, 9))
                     for _ in range(8)} for _ in range(2))
            self.polys.append((F, a, b))
        self.starts = []
        self.samples = []
        self.last = None

    def once(self):
        t0 = time.perf_counter()
        for F, a, b in self.polys:
            pmul(F, pmul(F, a, b), a)
        self.last = time.perf_counter()
        self.starts.append(t0)
        self.samples.append(self.last - t0)

    def maybe(self):
        """Probe if EVERY_S has passed since the last probe."""
        if self.last is None or time.perf_counter() - self.last >= EVERY_S:
            self.once()

    def scale(self, t):
        """The factor that turns seconds measured from time t on into
        reference seconds."""
        i = bisect.bisect(self.starts, t)
        return REFERENCE_S / statistics.median(self.samples[max(0, i - NEAR):i + NEAR])
