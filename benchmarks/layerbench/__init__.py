"""layerbench — the repo's benchmark.

Time-to-solution, memory and accuracy of the BLR supernodal solver on four
lap24/helm24 workloads, plus a separate traced run that attributes the
time to the ``src/repro`` sub-packages.  See ``README.md`` beside this file;
the metric names, units and regression bounds live in the root
``BENCHMARK.json``.

Importing this package imports neither numpy nor ``repro``: the entry point
(``__main__``) pins the BLAS environment first (:mod:`.env`).
"""
