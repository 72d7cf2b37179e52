"""Benchmark-suite configuration.

Run with ``pytest benchmarks/ --benchmark-only``.  Each ``bench_*.py``
module also has a ``main()`` printing the paper-style scaling series
(fitted log-log slopes); ``python benchmarks/run_all.py`` prints
every series.
"""

collect_ignore = ["run_all.py"]
