"""The simulator's clock: integer nanoseconds.

Every time the engine schedules, compares or shifts is a whole number of
nanoseconds, so a difference of two clock times is exact wherever it is
taken. Seconds appear only at the edges: durations read from a scenario, and
the times written to outputs.
"""

import sys

#: Clock ticks per second.
NS_PER_S = 1_000_000_000
#: One clock tick: a shorter wait or period would round to a zero-length step.
TICK_S = 1 / NS_PER_S
#: More ticks than any finite float counts, so past the end of every run: a
#: wait whose tick count overflows a float is clamped to it.
MAX_TICKS = int(sys.float_info.max)
