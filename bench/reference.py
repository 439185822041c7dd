"""The benchmark's measure of the host's speed at a given moment.

On a shared host the CPU runs fast or about half slower, in a mix that
changes from second to second (see ``NOTES.md``).  ``reference_loop`` is a
fixed piece of pure-Python work that slows with the program, so a wall time
divided by the time of this loop measured around it (reference units, or
``ref``) stays steady where the wall time does not.

The module imports only ``time``, so that the set-up timing in ``run.py``
can use it in a fresh process without importing anything sgauss needs.
"""

from time import perf_counter

# About 1 ms on the machine the benchmark was written on.
REFERENCE_SIZE = 2000
# Seconds per reference unit for ``setup_s``, which the benchmark's contract
# wants in seconds: the time of a CPU that runs one ``reference_loop`` in
# exactly 1 ms.
SECONDS_PER_REF = 0.001


def reference_loop() -> int:
    """Fixed pure-Python work of the kind sgauss does: small tuples, dict
    updates and a sort."""
    counts: dict[int, int] = {}
    pairs = []
    for i in range(REFERENCE_SIZE):
        key = (i * 7919) % 211
        counts[key] = counts.get(key, 0) + 1
        pairs.append((key, -key))
    pairs.sort()
    return sum(a for a, _ in pairs) + len(counts)


def reference_s(loops: int = 1) -> float:
    """Wall seconds per ``reference_loop`` over ``loops`` back-to-back runs.
    The first run in a process is about a quarter slower: call
    ``reference_loop`` once before timing."""
    t0 = perf_counter()
    for _ in range(loops):
        reference_loop()
    return (perf_counter() - t0) / loops


def in_reference_units(latencies: list[float], references: list[float]) -> list[float]:
    """Each latency over the mean of the reference times around it;
    ``references`` holds one more time than ``latencies``."""
    return [w / ((a + b) / 2) for w, a, b in zip(latencies, references, references[1:])]
