"""Golden pin over the loop analysis: lint output and vectorize plans.

One sha256 covers two streams:

* every ``lint_source`` diagnostic for each corpus source (baselines
  plus every solution variant, under its execution model) and for the
  seeded mutants of ``test_fuzz``;
* the numpy-tier plan shape of every ``for`` (pfor loops included) and
  every one-parameter lambda in the corpus: no plan, or each store's and
  each load's array name and index coefficient.

Race lint, the numpy tier and the closure compiler all read their loop
facts from ``repro.lang.loops``; a change there that moves any verdict
or plan moves this digest.  Update the pin only for an intended change,
and say in the change log what moved and why.
"""

import dataclasses
import hashlib

from repro.lang import ast as A
from repro.lang import compile_source
from repro.lint import lint_source
from repro.models.solutions import corpus
from repro.runtime import vectorize
from repro.runtime.compile import Compiler

from .test_fuzz import _mutants

GOLDEN = "d448f0815825fdf1f12893e196405aa7ab979248d2a16667896ccd62dad9022e"


def _plan_shape(plan):
    if plan is None:
        return None
    return ([(s.ident, s.coeff) for s in plan.stores],
            [(ld.ident, ld.coeff) for ld in plan.loads])


def _plans(source):
    """Plan shape of every for loop and one-parameter lambda, in walk
    order."""
    checked = compile_source(source)
    compiler = Compiler(checked)
    shapes = []
    for kernel in checked.program.kernels:
        for node in A.walk(kernel.body):
            if isinstance(node, A.For):
                plan = vectorize.build_stmt_plan(compiler, node.var,
                                                 node.body.stmts)
            elif isinstance(node, A.Lambda) and len(node.params) == 1:
                if node.body_expr is not None:
                    plan = vectorize.build_expr_plan(
                        compiler, node.params[0], node.body_expr)
                else:
                    plan = vectorize.build_stmt_plan(
                        compiler, node.params[0], node.body_block.stmts)
            else:
                continue
            shapes.append((node.line, node.col, _plan_shape(plan)))
    return shapes


def _stream():
    lines = []
    sources = list(corpus())
    for label, model, source in sources:
        for d in lint_source(source, model):
            lines.append(f"lint {label} {dataclasses.astuple(d)!r}")
    for k, (problem, model, source) in enumerate(_mutants()):
        for d in lint_source(source, model):
            lines.append(f"mutant {k} {problem.name}/{model} "
                         f"{dataclasses.astuple(d)!r}")
    for label, _, source in sources:
        for shape in _plans(source):
            lines.append(f"plan {label} {shape!r}")
    return lines


def test_corpus_has_the_expected_size():
    assert len(list(corpus())) == 744


def test_loop_analysis_golden_digest():
    digest = hashlib.sha256("\n".join(_stream()).encode()).hexdigest()
    assert digest == GOLDEN
