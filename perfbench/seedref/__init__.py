"""A frozen copy of the dagmix package, the yardstick for the program's speed.

``seedref/dagmix`` is byte-identical to ``src/dagmix`` as it stood when this
benchmark was defined, and it must never be edited.  Each untraced run runs
every pass on the program and on this copy, the two taking turns operation
by operation, and reports the program's time as a ratio to the copy's.  The
machine the benchmark was defined on drifts by 20-35% in speed over
minutes; operations a second or two apart drift together, so the ratio
keeps what the code changed and drops most of what the machine did.
"""
