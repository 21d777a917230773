#!/bin/sh
# Build the benchmark from source, then run it with every argument passed
# through to run.exe (see README.md).  Run from the repository root.  The
# shared dune cache is off so that building writes under _build only.
DUNE_CACHE=disabled exec dune exec --root . --display quiet ./bench_e2e/run.exe -- "$@"
