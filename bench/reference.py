"""A fixed pure-Python program that measures how fast this machine is
running right now.

    python3 bench/reference.py

run.py times it, as a fresh process, between the CLI invocations it
measures.  On a shared machine the same invocation can take half as long
again in one minute as in the next, while the CPU time tracks the wall
time; this program slows with it.  Its work is of the package's kind:
an interpreter-bound scan of a bit sequence that keeps a run-length
histogram in a dict and snapshots it as tuples.  It imports nothing of
the package, so a change to the package cannot move it.
"""

import random

BITS = 150_000
KEPT = 256  # snapshots held at a time

rng = random.Random(1)
bits = [rng.random() < 0.5 for _ in range(BITS)]
counts: dict[int, int] = {}
snapshots = []
run = 0
for bit in bits:
    if bit:
        run += 1
        continue
    counts[run] = counts.get(run, 0) + 1
    snapshots.append(tuple(sorted(counts.items())))
    if len(snapshots) > KEPT:
        snapshots.clear()
    run = 0
