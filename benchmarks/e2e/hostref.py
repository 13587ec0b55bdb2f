"""The host reference kernel: how fast is this machine *right now*?

On a shared 2-vCPU VM the same query pass measured 142 -> 231 ms across
consecutive windows (README, "Noise protocol").  Every timed pass,
round and set-up stage is therefore bracketed by this kernel — run
*outside* the timed interval — and divided by how much slower than
nominal the kernel ran.

FROZEN: changing the kernel, its sizes or ``REF_NOMINAL_MS`` changes
the unit of every timing in every committed baseline.

The kernel is the blend that tracked the engine best among the
candidates tried (README has the table): an integer loop (interpreter
speed), a dependent pointer chase over ~8 MB of int objects (memory
latency — what a neighbour VM disturbs) and string compares plus hash
probes into a 60k-key dict (what an object-heavy engine spends its time
on).  ``bytes.find`` over 1 MB, ``np.searchsorted`` and a DOM-like tree
walk did not track the engine and were dropped.  The kernel creates no
GC-tracked object per call: an allocating variant triggers collections
inside the ops measured beside it.
"""

from __future__ import annotations

import random
import time

#: what one kernel call costs on a quiet host of this class (ms).  The
#: host factor is ``measured / REF_NOMINAL_MS``; the constant only
#: fixes the scale, so reported numbers read as "quiet-host ms".
REF_NOMINAL_MS = 8.0

_LOOP = 40_000
_HOPS = 10_000
_CHAIN = 200_000
_KEYS = 60_000
_PROBES = 6_000


class HostRef:
    """Owns the kernel's working set (two lists, one dict, ~16 MB)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        rng = random.Random(0x5EED)
        order = list(range(_CHAIN))
        rng.shuffle(order)
        # One cycle through every slot in shuffled order: each hop is a
        # random slot read plus a dereference of a random int object.
        self._next = [0] * _CHAIN
        for here, there in zip(order, order[1:] + order[:1]):
            self._next[here] = there
        self._at = 0
        keys = [f"w{rng.randrange(50_000)}" for _ in range(_KEYS)]
        self._table = {key: slot for slot, key in enumerate(keys)}
        self._probes = [keys[rng.randrange(_KEYS)]
                        for _ in range(_PROBES)]

    def kernel(self) -> int:
        """One fixed unit of work; the checksum keeps it un-elidable."""
        acc = 0
        for i in range(_LOOP):
            acc = (acc + i * i) & 0xFFFF
        chain = self._next
        at = self._at
        for _ in range(_HOPS):
            at = chain[at]
        self._at = at
        table = self._table
        for key in self._probes:
            if key < "w25":
                acc += 1
            acc += table[key] & 1
        return acc + at

    def ms(self) -> float:
        """Wall time of one kernel call, in milliseconds."""
        start = self.clock()
        self.kernel()
        return (self.clock() - start) * 1e3
