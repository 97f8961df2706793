"""``poiagg check`` — AST-based invariant linter for the attack/defense stack.

The reproduction's correctness rests on conventions that ordinary linters
cannot see: seed discipline (every stochastic component threads an explicit
:class:`numpy.random.Generator`), the DP accounting path (Theorem 4's
``(epsilon, delta)`` claim holds only when mechanism invocations stay behind
the accountant-guarded defense layer), the batch Freq engine's int32 /
``np.hypot`` bit-identity contract, picklable module-level shard workers,
and wall-clock-free checkpointed experiment paths.  :mod:`repro.lint`
encodes each of those invariants as a rule (PL001–PL014) over the syntax
tree, so an aggressive refactor that silently breaks one fails in CI with a
rule ID and a ``file:line`` instead of with a subtly wrong figure.

Rules PL001–PL005, PL007–PL010 and PL015 are per-file and syntactic.  PL011–PL014 are
project-wide dataflow analyses (``--analysis taint,locks,commit``) built
on a call graph over ``src/repro`` (:mod:`repro.lint.callgraph`,
:mod:`repro.lint.dataflow`, :mod:`repro.lint.taint`): privacy-taint
source→sink tracking, lock-order/blocking discipline, and
commit-protocol ordering.

Entry points:

* ``poiagg check [paths ...]`` — the CLI gate (see :mod:`repro.lint.cli`);
  add ``--analysis all`` for the dataflow families and ``--baseline`` to
  fail only on new violations.
* :func:`check_paths` / :func:`check_source` — the library API the test
  suite and the pytest self-check use.
* ``# poiagg: disable=PL005`` — suppression comments; on a comment-only
  line they apply to the whole file, trailing a statement they apply to
  that line (see :mod:`docs/static-analysis.md` for the catalog).
"""

from repro.lint.engine import (
    LintReport,
    Violation,
    apply_baseline,
    check_file,
    check_paths,
    check_source,
    format_report,
    iter_python_files,
    load_baseline,
    write_baseline,
)
from repro.lint.rules import ANALYSIS_FAMILIES, RULES, Rule

__all__ = [
    "ANALYSIS_FAMILIES",
    "LintReport",
    "Violation",
    "Rule",
    "RULES",
    "apply_baseline",
    "check_file",
    "check_paths",
    "check_source",
    "format_report",
    "iter_python_files",
    "load_baseline",
    "write_baseline",
]
