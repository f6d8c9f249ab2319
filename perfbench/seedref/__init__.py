"""Frozen copy of the pnlattr modules as of the commit that defined the benchmark.

The benchmark computes its reference outputs with this package, so a later
change to the program is checked against the numbers the original code
produced on the same inputs. The modules are verbatim copies; do not edit
them, or the reference drifts with the program it is meant to check.
The reference outputs call the public functions directly. `cli.py` is there
so that `python -m seedref.cli` runs the seed program as a fresh process on
the same inputs as the measured CLI: its wall time is the yardstick that
`wall_vs_seedref` divides by.
"""
