"""The simulator's clock: integer nanoseconds.

Every time the engine schedules, compares or shifts is a whole number of
nanoseconds, so a difference of two clock times is exact wherever it is
taken. Seconds appear only at the edges: durations read from a scenario, and
the times written to outputs.
"""

#: Clock ticks per second.
NS_PER_S = 1_000_000_000
#: One clock tick: a shorter wait or period would round to a zero-length step.
TICK_S = 1 / NS_PER_S
