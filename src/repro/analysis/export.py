"""Exports and run-to-run comparisons for evaluation results.

Downstream users of a benchmark harness need flat files and diffs more
than plots: ``to_csv`` flattens an :class:`EvalRun` to one row per sample
(status, timings at every measured n; profiled runs add contention
counters, a bottleneck verdict, and per-category time shares), and
:func:`compare_runs` reports pass@1 deltas between two runs per execution
model and problem type — the tool for "did my prompt change / model
update help?" questions.  :func:`profile_rows` / :func:`profile_csv`
flatten the lost-cycles aggregation of a profiled run.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Tuple

from ..bench.spec import EXECUTION_MODELS, PROBLEM_TYPES
from ..harness.evaluate import EvalRun
from ..prof import CATEGORIES, classify_bottleneck, lost_cycles_rows, profile_of
from .aggregate import pass_at_k_for


def _diag_summary(diags: List[Dict]) -> str:
    """Compact ``analyzer/kind:certainty`` list, ';'-joined, for one cell."""
    return ";".join(
        f"{d.get('analyzer', '?')}/{d.get('kind', '?')}:"
        f"{d.get('certainty', '?')}"
        for d in diags
    )


def _profile_cells(sample) -> List[object]:
    """Contention counters, bottleneck verdict and per-category shares (at
    the largest measured n) for one profiled sample; blanks otherwise."""
    prof = profile_of(sample)
    if prof is None or not prof.categories:
        return ["", "", ""] + [""] * len(CATEGORIES)
    top = max(prof.categories)
    return (
        [prof.counters.get("atomic_ops", ""),
         prof.counters.get("atomic_targets", ""),
         classify_bottleneck(prof.at(top))]
        + [prof.share(top, c) for c in CATEGORIES]
    )


def to_csv(run: EvalRun) -> str:
    """One row per generated sample, flat enough for pandas/spreadsheets.

    Runs evaluated with profiling additionally get the Tracer contention
    counters (atomic ops, distinct atomic targets), the bottleneck
    verdict at the largest measured n, and per-category time-share
    columns (``p_<category>``); unprofiled runs keep the legacy schema.
    """
    all_ns: List[int] = sorted({
        n for rec in run.prompts.values() for s in rec.samples for n in s.times
    })
    profiled = any(s.profile for rec in run.prompts.values()
                   for s in rec.samples)
    header = ["llm", "prompt", "ptype", "exec_model", "sample", "status",
              "intended", "baseline_s", "n_diagnostics", "diagnostics"]
    if profiled:
        header += (["atomic_ops", "atomic_targets", "bottleneck"]
                   + [f"p_{c}" for c in CATEGORIES])
    header += [f"t_n{n}_s" for n in all_ns]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for uid in sorted(run.prompts):
        rec = run.prompts[uid]
        for i, s in enumerate(rec.samples):
            row = [run.llm, uid, rec.ptype, rec.exec_model, i, s.status,
                   s.intended,
                   rec.baseline if rec.baseline is not None else "",
                   len(s.diagnostics), _diag_summary(s.diagnostics)]
            if profiled:
                row += _profile_cells(s)
            writer.writerow(row + [s.times.get(n, "") for n in all_ns])
    return buf.getvalue()


def profile_rows(run: EvalRun) -> List[Dict[str, object]]:
    """Lost-cycles rows: mean category shares per (exec model, n) over the
    correct profiled samples (see :func:`repro.prof.lost_cycles_rows`)."""
    return lost_cycles_rows(run)


def profile_csv(run: EvalRun) -> str:
    """The lost-cycles aggregation as CSV — one row per (exec model, n)."""
    header = ["exec_model", "n"] + list(CATEGORIES) + ["lost"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in profile_rows(run):
        writer.writerow([row[k] for k in header])
    return buf.getvalue()


def service_metrics_csv(snapshot: Dict[str, object]) -> str:
    """Flatten a serving-layer ``/metrics`` snapshot to (section, key,
    value) rows — the ``/metrics.csv`` endpoint and the archival format
    for service-run dashboards.

    Nested dicts become dotted keys within their section (histogram
    buckets, worker-pool stats, profile cost totals); scalars land in the
    ``service`` section.  Purely mechanical so the CSV and JSON views
    can never disagree.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["section", "key", "value"])

    def emit(section: str, prefix: str, value: object) -> None:
        if isinstance(value, dict):
            for k in sorted(value, key=str):
                emit(section, f"{prefix}.{k}" if prefix else str(k), value[k])
        else:
            writer.writerow([section, prefix, value])

    for key in sorted(snapshot, key=str):
        value = snapshot[key]
        if isinstance(value, dict):
            emit(str(key), "", value)
        else:
            writer.writerow(["service", key, value])
    return buf.getvalue()


def summary_rows(run: EvalRun) -> List[Dict[str, object]]:
    """Per-(exec model, ptype) pass@1 cells — the full Figure 1 x Figure 3
    cross table for one model."""
    rows: List[Dict[str, object]] = []
    for m in EXECUTION_MODELS:
        for pt in PROBLEM_TYPES:
            records = [r for r in run.by_exec_model(m) if r.ptype == pt]
            if not records:
                continue
            rows.append({
                "exec_model": m,
                "ptype": pt,
                "prompts": len(records),
                "pass@1": pass_at_k_for(records, 1),
            })
    return rows


def compare_runs(a: EvalRun, b: EvalRun,
                 min_delta: float = 0.0) -> List[Tuple[str, float, float, float]]:
    """Per-execution-model pass@1 deltas between two runs.

    Returns (dimension, a_value, b_value, delta) rows for every execution
    model and problem type present in both runs, filtered to |delta| >=
    ``min_delta`` and sorted by |delta| descending.
    """
    out: List[Tuple[str, float, float, float]] = []

    def add(dim: str, ra, rb) -> None:
        if not ra or not rb:
            return
        va, vb = pass_at_k_for(ra, 1), pass_at_k_for(rb, 1)
        if abs(vb - va) >= min_delta:
            out.append((dim, va, vb, vb - va))

    for m in EXECUTION_MODELS:
        add(f"exec:{m}", a.by_exec_model(m), b.by_exec_model(m))
    for pt in PROBLEM_TYPES:
        add(f"ptype:{pt}", a.by_ptype(pt), b.by_ptype(pt))
    out.sort(key=lambda row: abs(row[3]), reverse=True)
    return out
