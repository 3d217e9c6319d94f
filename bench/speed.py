"""The host's current speed, from a fixed pure-Python task timed next to each op.

On a shared host the same code runs up to 1.7 times slower in some seconds
and minutes than in others, and CPU time grows with wall time, so the
program is not waiting: the CPU it gets runs slower. A median of wall times
then moves with the host. The benchmark therefore times ``reference()``, a
task that uses no aucppv code, before and after every op, and reports each
op's wall time scaled to the speed at which ``reference()`` takes
``REFERENCE_S``: ``wall * REFERENCE_S / reference``. A change to aucppv moves
the wall time and leaves the reference; a slower host moves both.

For the ops, run.py starts this file as a script, a process of its own that
runs the task once per line it reads and prints the time, and the worker
asks it between ops: the task's memory never counts in the worker's peak.
The module imports only ``gc`` and ``time``, so a set-up probe runs the task
in-process without loading a module that ``aucppv`` would otherwise import
itself.
"""

import gc
import time

#: The reference task builds and sorts a table of REFERENCE_ITEMS strings
#: REFERENCE_ROUNDS times. Its working set of about 1 MB follows the host's
#: slow spells on the table workloads far better than a cache-sized one.
REFERENCE_ITEMS = 10_000
REFERENCE_ROUNDS = 2
#: The reference task's wall time at the speed reports are scaled to: about
#: its median on the baseline host (a 2.1 GHz Xeon vCPU, Python 3.11.7).
REFERENCE_S = 0.007


def reference() -> float:
    """Wall seconds of the reference task: dict inserts, str formatting, a sort.

    Garbage collection is off inside it, so a library that changes the
    collector's thresholds does not change the reference.
    """

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REFERENCE_ROUNDS):
            table = {}
            for index in range(REFERENCE_ITEMS):
                table[index] = str(index * 7919 % REFERENCE_ITEMS)
            sorted(table.values())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` seconds at the reference speed, from the reference timed on both sides."""

    return wall * REFERENCE_S * 2 / (before + after)


if __name__ == "__main__":
    import sys

    # One reference time per line read, until stdin closes.
    for _ in sys.stdin:
        print(reference(), flush=True)
