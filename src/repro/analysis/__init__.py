"""Concurrency correctness: the static lock-discipline analyzer.

:mod:`repro.analysis.callgraph` builds an AST model of every lock, write,
call and blocking operation under ``src/repro``; :mod:`repro.analysis.
lockcheck` checks it and emits stable ``STG2xx`` diagnostics through the
compiler's :class:`~repro.compiler.diagnostics.LintReport` machinery,
gated by ``repro lint --concurrency`` against the committed
``BASELINE.json``.  Its first rule is that every lock is a leaf: no code
takes a lock while it holds one.  See ``docs/ANALYSIS.md``.
"""
