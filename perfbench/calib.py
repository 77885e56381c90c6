"""Fixed reference loops that measure how fast this host runs right now.

The benchmark's host is shared: other tenants' load slows pure-Python code
by up to 2x, in phases that last from a fraction of a second to minutes.
A sample times two short loops that never import warpcurv, so a change to
the program cannot change them:

- the tree loop does what warpcurv's hot path does in cache: walk a shared
  tree of slotted nodes with an id-keyed memo, add and multiply Fractions;
- the memory loop follows a chain of dependent reads through a 32 MiB
  buffer, larger than the caches, as the program does through its heap.

The two slow down by different shares under load.  In trials on a shared
2-vCPU Intel Xeon KVM guest the program's slowdown followed the geometric
mean of their factors more closely than either factor alone, on the
small-heap and the large-heap workloads alike.  `Sampler` takes a sample
every PERIOD_S seconds while the program runs; `speed()` turns the samples'
totals into the factor that scales measured seconds to calibrated seconds,
the seconds the same work takes when the host runs at its nominal speed.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from fractions import Fraction

# the two loops' seconds on a quiet host (2-vCPU Intel Xeon KVM guest,
# CPython 3.11); only the scale of the calibrated seconds depends on them.
NOMINAL_TREE_S = 0.005
NOMINAL_MEMORY_S = 0.0045
PERIOD_S = 0.25
MEMORY_STEPS = 20000


class _Leaf:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Add:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms


class _Mul:
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors


def _build(nodes=800, seed=20161209):
    """Nodes of a DAG, children before parents; later nodes reuse
    earlier ones."""
    rng = random.Random(seed)
    pool = [_Leaf(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(64)]
    for i in range(nodes):
        kids = tuple(pool[rng.randrange(max(0, len(pool) - 200), len(pool))]
                     for _ in range(rng.randint(2, 4)))
        pool.append(_Mul(kids) if i % 3 == 0 else _Add(kids))
    return pool


_NODES = _build()
# the memo, built once: a sample only rebinds its values, so it asks the
# allocator for no table that could land between the program's blocks
_MEMO = dict.fromkeys(map(id, _NODES))
_BLANK = dict(_MEMO)
# every page written, so the whole buffer is resident from the start
BUFFER = bytearray(b"\x01") * (1 << 25)
_MASK = len(BUFFER) - 1
_position = 0


def _walk(e, memo):
    hit = memo[id(e)]
    if hit is not None:
        return hit
    if isinstance(e, _Leaf):
        v = e.value
    elif isinstance(e, _Add):
        v = Fraction(0)
        for t in e.terms:
            v += _walk(t, memo)
    else:
        v = Fraction(1)
        for f in e.factors:
            v *= _walk(f, memo)
    if v.denominator > 1 << 64:       # keep the numbers word-sized
        v = Fraction(v.numerator % 1000003, 7)
    memo[id(e)] = v
    return v


def _tree_s():
    t0 = time.perf_counter()
    for node in _NODES:               # children first: shallow recursion
        _walk(node, _MEMO)
    seconds = time.perf_counter() - t0
    _MEMO.update(_BLANK)
    return seconds


def _memory_s():
    global _position
    t0 = time.perf_counter()
    buf, i = BUFFER, _position
    for _ in range(MEMORY_STEPS):
        # a full-period LCG step (increment 12344 + buf[i] = 12345, odd)
        # whose next index waits on the read
        i = (i * 1103515245 + 12344 + buf[i]) & _MASK
    _position = i
    return time.perf_counter() - t0


def sample_s():
    """One sample: seconds of the tree loop and of the memory loop.

    The loops free what they allocate, make no tuples (which free lists
    would keep) and no blocks above the small-object size, and the
    collector is off meanwhile.  So a sample leaves the program's heap
    layout and collection schedule, and with them its peak memory, about
    as it found it, however many samples a slow host takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _tree_s(), _memory_s()
    finally:
        if enabled:
            gc.enable()


def speed(tree_s, memory_s, count):
    """Factor from measured to calibrated seconds, given the totals of the
    samples taken while the measured work ran: above 1 while the host runs
    fast."""
    return (NOMINAL_TREE_S * count / tree_s
            * NOMINAL_MEMORY_S * count / memory_s) ** 0.5


class Sampler:
    """Running totals of samples: `take()` adds one now; inside a `with`
    block a SIGALRM handler adds one every PERIOD_S seconds, so that samples
    fall all through a long command.  Only totals are kept, so nothing a
    sample allocates outlives it.  `spent_s` adds up the handler's time,
    which the caller subtracts from the time it measures."""

    def __init__(self):
        self.tree_s = self.memory_s = self.spent_s = 0.0
        self.count = 0

    def totals(self):
        return self.tree_s, self.memory_s, self.count

    def _add(self):
        tree, memory = sample_s()
        self.tree_s += tree
        self.memory_s += memory
        self.count += 1

    def take(self):
        # the handler must not update the totals halfway through this
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._add()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._add()
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
