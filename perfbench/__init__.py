"""perfbench: the benchmark later performance and simplicity changes
are judged with.  See ``perfbench/README.md``.

Everything is measured from outside ``src/repro``: by timing calls
into public functions, and from the benchmark's own actors.
"""
