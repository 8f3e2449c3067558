"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show the benchmark inventory (Table 1) and the model zoo (Table 2).
``prompt <uid>``
    Print one prompt, e.g. ``prompt scan/partial_minimums/kokkos``.
``run <uid> [--model NAME] [--samples N] [--temperature T] [--timing]``
    Generate samples for one prompt with a simulated LLM and push them
    through the harness; print each verdict.
``eval [--models A,B] [--ptypes x,y] [--exec a,b] [--samples N] [--timing]``
    Evaluate models over a benchmark slice and print the Figure 1/2/3
    tables (plus 6/7 with ``--timing``, and the lost-cycles table with
    ``--timing --profile``).
``profile <uid> [--model NAME] [--all]``
    Time one prompt with the cost-decomposed profiler and print a
    per-n cost tree with bottleneck verdicts (``docs/profiling.md``).
    By default the handwritten reference solution is profiled — fully
    deterministic; ``--model`` profiles LLM samples instead.
``figures [--samples N]``
    Regenerate all paper figures from (or into) the on-disk cache —
    the scripted equivalent of ``pytest benchmarks/ --benchmark-only``.
``lint <file> [--exec MODEL]`` / ``lint --corpus``
    Run MiniParSan (``repro.lint``) over one MiniPar source file, or over
    the whole handwritten baseline + solution corpus.  Exit status: 0
    when no ``definite`` diagnostics, 1 when any, 2 on a build error.
``serve [--host H] [--port P] [--jobs N] [--queue N]``
    Run the evaluation service (``docs/serving.md``): JSON over HTTP,
    micro-batched requests deduplicated across clients by content hash,
    every batch run on one long-lived worker pool that re-runs only the
    unsettled tasks on fresh workers after a pool-loop death,
    bounded-queue admission control (429 + Retry-After on overload), and
    a ``/metrics`` endpoint.  ``--smoke`` starts the server, drives one
    request through a live socket, checks the digest, and exits —
    the CI liveness check.
``chaos [--seed N] [--jobs N] [--invariant NAME] [--plan FILE]``
    Run the fault-injection invariant suite (``docs/faults.md``,
    ``docs/resilience.md``): same seed replays the same faults, a
    fault-free injector is byte-for-byte transparent, the scheduler
    survives worker kills and corrupted results, a kill at every journal
    index resumes exactly, and the guard layer (quarantine and
    whole-process SIGKILL recovery) preserves exactness.
    ``--invariant NAME`` runs one invariant (e.g. ``--invariant
    guard-resilience``); ``--plan`` instead prints the fault schedule a
    seed expands to.  Exit status: 0 when every
    selected invariant holds, 1 otherwise.

``run``/``eval``/``figures`` accept ``--no-static-screen`` to disable
the MiniParSan pre-execution screen (no ``static_fail`` short-circuit;
every sample runs dynamically, as before the linter existed).

``eval`` and ``figures`` accept ``--jobs N`` to run the harness on the
:mod:`repro.sched` worker pool and ``--resume`` to continue an
interrupted pass from its JSONL journal (see ``docs/scheduler.md``).

``eval --dispatch {lpt,fifo}`` picks the scheduler's ready-queue
policy (``docs/scheduler.md``): ``lpt`` dispatches
longest-predicted-first from the durable duration ledger to cut
makespan on skewed workloads; both policies produce byte-identical
output.  ``serve`` always dispatches ``lpt``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .analysis import (
    fig1_pass_by_exec_model,
    fig2_overall,
    fig3_pass_by_ptype,
    fig4_pass_curve,
    fig5_efficiency_curves,
    fig6_speedups,
    fig7_efficiency,
    fig8_lost_cycles,
    status_breakdown,
    table1,
    table2,
)
from .bench import PCGBench
from .harness import ConfigurationError, EvalCache, Runner, evaluate_model
from .models import MODEL_ORDER, load_model, profile


def _split(value: Optional[str]) -> Optional[List[str]]:
    return [v.strip() for v in value.split(",")] if value else None


def _sched_kwargs(args: argparse.Namespace, llm_name: str) -> dict:
    """``run_scheduled`` kwargs for one model of ``repro eval``.

    Journals live under the cache root so ``--resume`` after a Ctrl-C
    picks up exactly where the run died; a progress line is printed to
    stderr as tasks finish.
    """
    import os

    from .sched import ProgressPrinter, journal_path_for

    root = os.environ.get("REPRO_CACHE", ".repro_cache")
    journal = journal_path_for(root, llm_name, args.samples,
                               args.temperature, args.timing, args.seed,
                               tag="cli")
    return {
        "journal_path": journal,
        "resume": args.resume and journal.exists(),
        "sample_cache_dir": Path(root) / "samples",
        "dispatch": args.dispatch,
        "emit": ProgressPrinter(lambda line: print(line, file=sys.stderr)),
    }


def cmd_list(args: argparse.Namespace) -> int:
    print(table1())
    print()
    print(table2())
    return 0


def cmd_prompt(args: argparse.Namespace) -> int:
    bench = PCGBench()
    try:
        prompt = bench.prompt(args.uid)
    except KeyError:
        print(f"unknown prompt {args.uid!r}; uids look like "
              "'scan/prefix_sum/openmp'", file=sys.stderr)
        return 2
    print(prompt.text)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    bench = PCGBench()
    prompt = bench.prompt(args.uid)
    llm = load_model(args.model)
    runner = Runner(static_screen=args.static_screen,
                    vectorize=args.vectorize)
    samples = llm.generate(prompt, args.samples, args.temperature, args.seed)
    correct = 0
    for i, sample in enumerate(samples):
        res = runner.evaluate_sample(sample.source, prompt,
                                     with_timing=args.timing)
        correct += res.status == "correct"
        line = f"[{i}] {res.status}"
        if res.detail:
            line += f"  ({res.detail[:80]})"
        print(line)
        if args.verbose:
            print(sample.source)
        if res.times:
            t_star = runner.baseline_time(prompt.problem)
            for n, t in sorted(res.times.items()):
                print(f"      n={n}: {t*1e3:.3f} ms "
                      f"(speedup {t_star/t:.2f}x)")
    print(f"pass@1 estimate: {correct}/{len(samples)}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .sched.scheduler import harness_pool, run_scheduled

    bench = PCGBench(problem_types=_split(args.ptypes),
                     models=_split(args.exec))
    model_names = _split(args.models) or list(MODEL_ORDER)
    runner = Runner(static_screen=args.static_screen,
                    vectorize=args.vectorize)
    scheduled = args.jobs > 1 or args.resume or args.dispatch != "lpt"
    config = dict(num_samples=args.samples, temperature=args.temperature,
                  with_timing=args.timing, seed=args.seed,
                  profile=args.profile)
    runs = {}
    # one pool serves every model; it forks at the first task it runs
    with harness_pool(runner, args.jobs) as pool:
        for name in model_names:
            print(f"evaluating {name} on {len(bench)} prompts ...",
                  file=sys.stderr)
            llm = load_model(name)
            if scheduled:
                runs[name], _ = run_scheduled(
                    llm, bench, pool, **config, **_sched_kwargs(args, name))
            else:
                runs[name] = evaluate_model(llm, bench, runner=runner,
                                            **config)
    for builder in (fig1_pass_by_exec_model, fig2_overall,
                    fig3_pass_by_ptype):
        _, text = builder(runs)
        print("\n" + text)
    if args.timing:
        for builder in (fig6_speedups, fig7_efficiency):
            _, text = builder(runs)
            print("\n" + text)
    if args.profile:
        _, text = fig8_lost_cycles(runs)
        print("\n" + text)
    if args.verbose:
        for name, run in runs.items():
            print(f"\n{name} status breakdown: {status_breakdown(run)}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .models.solutions import variants_for
    from .prof import render_cost_tree

    bench = PCGBench()
    try:
        prompt = bench.prompt(args.uid)
    except KeyError:
        print(f"unknown prompt {args.uid!r}; uids look like "
              "'scan/prefix_sum/openmp'", file=sys.stderr)
        return 2
    runner = Runner(static_screen=args.static_screen,
                    vectorize=args.vectorize)
    if args.model:
        llm = load_model(args.model)
        samples = llm.generate(prompt, args.samples, args.temperature,
                               args.seed)
        jobs = [(f"{args.model}[{i}]", s.source)
                for i, s in enumerate(samples)]
    else:
        variants = variants_for(prompt.problem, prompt.model)
        jobs = [(f"solution[{i}] ({v.quality})", v.source)
                for i, v in enumerate(variants)]
    if not args.all:
        jobs = jobs[:1]
    profiled = 0
    for label, source in jobs:
        res = runner.evaluate_sample(source, prompt, with_timing=True,
                                     profile=True)
        print(f"{prompt.uid} :: {label}: {res.status}")
        if res.status != "correct" or res.profile is None:
            if res.detail:
                print(f"  {res.detail[:100]}")
            continue
        profiled += 1
        print(render_cost_tree(res.profile, res.times))
        counters = res.profile.counters
        if counters:
            print("counters: " + ", ".join(
                f"{k}={v:g}" for k, v in sorted(counters.items())))
        print()
    return 0 if profiled else 1


def cmd_figures(args: argparse.Namespace) -> int:
    from .sched.scheduler import harness_pool

    bench = PCGBench()
    cache = EvalCache()
    runner = Runner(static_screen=args.static_screen,
                    vectorize=args.vectorize)
    scheduled = args.jobs > 1 or args.resume
    # one pool serves all 19 runs; it forks at the first task it runs
    pool = harness_pool(runner, args.jobs)

    def runs_for(samples, temperature, timing, seed, names):
        return {
            n: cache.get_or_run(load_model(n), bench, num_samples=samples,
                                temperature=temperature, with_timing=timing,
                                seed=seed, runner=runner,
                                pool=pool if scheduled else None,
                                resume=args.resume)
            for n in names
        }

    with pool:
        print(table1())
        print("\n" + table2())
        k1 = runs_for(args.samples, 0.2, False, 11, MODEL_ORDER)
        for builder in (fig1_pass_by_exec_model, fig2_overall,
                        fig3_pass_by_ptype):
            _, text = builder(k1)
            print("\n" + text)
        open_models = [m for m in MODEL_ORDER if not profile(m).chat_only]
        hot = runs_for(max(args.samples, 25), 0.8, False, 13, open_models)
        _, text = fig4_pass_curve(hot)
        print("\n" + text)
        timed = runs_for(min(args.samples, 5), 0.2, True, 17, MODEL_ORDER)
        for builder in (fig5_efficiency_curves, fig6_speedups,
                        fig7_efficiency):
            _, text = builder(timed)
            print("\n" + text)
        return 0


def _detect_model(checked) -> str:
    """Best-effort execution model of a standalone source file."""
    cats = checked.builtin_categories
    if "gpu" in cats:
        return "cuda"
    if "kokkos" in cats:
        return "kokkos"
    if "mpi" in cats:
        return "mpi+omp" if checked.uses_omp_pragmas else "mpi"
    if checked.uses_omp_pragmas:
        return "openmp"
    return "serial"


def cmd_lint(args: argparse.Namespace) -> int:
    from .lang import CompileError, compile_source
    from .lint import definite, lint_checked, lint_source

    if args.corpus:
        from .models.solutions import corpus

        programs, n_definite, n_possible = 0, 0, 0
        for label, model, source in corpus():
            programs += 1
            diags = lint_source(source, model)
            bad = definite(diags)
            n_definite += len(bad)
            n_possible += sum(d.certainty == "possible" for d in diags)
            for d in bad:
                print(f"{label}: {d.render()}")
        print(f"linted {programs} corpus programs: "
              f"{n_definite} definite, {n_possible} possible")
        return 1 if n_definite else 0

    if not args.file:
        print("error: provide a source file or --corpus", file=sys.stderr)
        return 2
    try:
        source = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        checked = compile_source(source)
    except CompileError as exc:
        print(f"{args.file}: build error: {exc}", file=sys.stderr)
        return 2
    model = args.exec or _detect_model(checked)
    diags = lint_checked(checked, model)
    for d in diags:
        print(f"{args.file}:{d.render()}")
    if not diags:
        print(f"{args.file}: clean under {model!r}")
    return 1 if definite(diags) else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import EvalService, HttpServer

    async def _smoke() -> int:
        import json

        from .serve.client import HttpClient

        service = _make_service()
        server = HttpServer(service, args.host, 0)    # ephemeral port
        await service.start()
        await server.start()
        host, port = server.address
        client = HttpClient(host, port)
        try:
            status, _, body = await client.submit({
                "model": "GPT-3.5", "ptypes": ["transform"],
                "exec": ["serial", "openmp"], "samples": 2, "seed": 7})
            if status != 202:
                print(f"smoke: submit failed: {status} {body}",
                      file=sys.stderr)
                return 1
            snap = await client.poll_until_done(body["id"])
            code, headers, payload = await client.result(body["id"])
            metrics = await client.metrics()
            ok = (snap["status"] == "done" and code == 200
                  and headers.get("x-run-digest") == snap.get("digest")
                  and json.loads(payload)["llm"] == "GPT-3.5"
                  and metrics["completed"] == 1)
            print(f"smoke: status={snap['status']} digest="
                  f"{headers.get('x-run-digest', '')[:16]}... "
                  f"executed={metrics['tasks_executed']} "
                  f"-> {'ok' if ok else 'FAILED'}")
            return 0 if ok else 1
        finally:
            await server.stop()
            await service.shutdown(drain=True)

    def _make_service() -> EvalService:
        return EvalService(
            workdir=Path(args.workdir), shards=1,
            jobs_per_shard=args.jobs, max_queue=args.queue,
            max_batch=args.max_batch,
            runner=Runner(vectorize=args.vectorize),
            retry_after_cap=args.retry_after_cap)

    if args.smoke:
        return asyncio.run(_smoke())

    async def _serve() -> int:
        from .serve.http import serve_forever

        service = _make_service()
        print(f"repro serve: listening on {args.host}:{args.port} "
              f"({args.jobs} jobs, queue {args.queue})", file=sys.stderr)
        await serve_forever(service, args.host, args.port)
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: shut down", file=sys.stderr)
        return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import FaultPlan
    from .faults.chaos import run_chaos

    if args.plan:
        plan = FaultPlan.from_seed(args.seed)
        Path(args.plan).write_text(plan.to_json())
        print(f"fault plan for seed {args.seed} "
              f"({len(plan.rules)} rules) -> {args.plan}")
        for rule in plan.rules:
            print(f"  {rule.point}: {rule.action} "
                  f"occurrences={rule.occurrences} param={rule.param}")
        return 0
    reports = run_chaos(seed=args.seed, jobs=args.jobs,
                        log=lambda line: print(line, file=sys.stderr),
                        only=args.invariant)
    if not reports:
        print(f"error: unknown invariant {args.invariant!r}",
              file=sys.stderr)
        return 2
    failed = [r for r in reports if not r.passed]
    for r in reports:
        print(r.line())
    print(f"chaos: {len(reports) - len(failed)}/{len(reports)} "
          "invariants hold")
    return 1 if failed else 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Can Large Language Models Write "
                     "Parallel Code?' (HPDC 2024)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show Table 1 and Table 2").set_defaults(
        fn=cmd_list)

    p = sub.add_parser("prompt", help="print one PCGBench prompt")
    p.add_argument("uid", help="e.g. scan/prefix_sum/openmp")
    p.set_defaults(fn=cmd_prompt)

    p = sub.add_parser("run", help="sample one prompt and run the harness")
    p.add_argument("uid")
    p.add_argument("--model", default="GPT-3.5", choices=list(MODEL_ORDER))
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--temperature", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--no-static-screen", dest="static_screen",
                   action="store_false",
                   help="disable the MiniParSan pre-execution screen")
    p.add_argument("--no-vectorize", dest="vectorize", action="store_false",
                   help="run every loop on the scalar closure tier "
                        "(results are bit-identical; only slower)")
    p.add_argument("--verbose", "-v", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("eval", help="evaluate models over a benchmark slice")
    p.add_argument("--models", help="comma-separated model names")
    p.add_argument("--ptypes", help="comma-separated problem types")
    p.add_argument("--exec", help="comma-separated execution models")
    p.add_argument("--samples", type=int, default=6)
    p.add_argument("--temperature", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--profile", action="store_true",
                   help="cost-decomposed profiles (requires --timing); "
                        "prints the lost-cycles table")
    p.add_argument("--jobs", "-j", type=_positive_int, default=1,
                   help="worker processes for the evaluation scheduler")
    p.add_argument("--dispatch", default="lpt", choices=["lpt", "fifo"],
                   help="ready-queue policy: lpt = longest-predicted-"
                        "first from the duration ledger (default), fifo "
                        "= plan order (byte-identical output under both)")
    p.add_argument("--resume", action="store_true",
                   help="resume an interrupted run from its journal")
    p.add_argument("--no-static-screen", dest="static_screen",
                   action="store_false",
                   help="disable the MiniParSan pre-execution screen")
    p.add_argument("--no-vectorize", dest="vectorize", action="store_false",
                   help="run every loop on the scalar closure tier "
                        "(results are bit-identical; only slower)")
    p.add_argument("--verbose", "-v", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser(
        "profile", help="print the cost-decomposed profile of one prompt")
    p.add_argument("uid", help="e.g. stencil/jacobi_2d/openmp")
    p.add_argument("--model", default=None, choices=list(MODEL_ORDER),
                   help="profile this LLM's samples instead of the "
                        "handwritten reference solution")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--temperature", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--all", action="store_true",
                   help="profile every variant/sample, not just the first")
    p.add_argument("--no-static-screen", dest="static_screen",
                   action="store_false",
                   help="disable the MiniParSan pre-execution screen")
    p.add_argument("--no-vectorize", dest="vectorize", action="store_false",
                   help="run every loop on the scalar closure tier "
                        "(results are bit-identical; only slower)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("figures", help="regenerate all paper figures")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--jobs", "-j", type=_positive_int, default=1,
                   help="worker processes for the evaluation scheduler")
    p.add_argument("--resume", action="store_true",
                   help="resume interrupted evaluation passes")
    p.add_argument("--no-static-screen", dest="static_screen",
                   action="store_false",
                   help="disable the MiniParSan pre-execution screen")
    p.add_argument("--no-vectorize", dest="vectorize", action="store_false",
                   help="run every loop on the scalar closure tier "
                        "(results are bit-identical; only slower)")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser(
        "lint", help="run MiniParSan static analysis on a source file")
    p.add_argument("file", nargs="?",
                   help="MiniPar source file to analyze")
    p.add_argument("--exec", default=None,
                   choices=["serial", "openmp", "kokkos", "mpi", "mpi+omp",
                            "cuda", "hip"],
                   help="execution model (default: auto-detect)")
    p.add_argument("--corpus", action="store_true",
                   help="lint every handwritten baseline and solution")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "serve", help="run the async batched evaluation service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8752)
    p.add_argument("--jobs", "-j", type=_positive_int, default=2,
                   help="worker processes in the pool every batch runs on")
    p.add_argument("--queue", type=_positive_int, default=64,
                   help="max in-flight requests before 429 rejections")
    p.add_argument("--max-batch", type=_positive_int, default=16,
                   help="max requests coalesced into one batch (1 runs "
                        "every request as its own batch)")
    p.add_argument("--retry-after-cap", type=float, default=60.0,
                   help="ceiling on the Retry-After hint sent with 429 "
                        "rejections, seconds")
    p.add_argument("--no-vectorize", dest="vectorize", action="store_false",
                   help="scalar closure tier only (bit-identical, slower)")
    p.add_argument("--workdir", default=".repro_serve",
                   help="sample cache + duration ledger directory")
    p.add_argument("--smoke", action="store_true",
                   help="start, run one request through a live socket, "
                        "verify, and exit (CI liveness check)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "chaos", help="run the fault-injection invariant suite")
    p.add_argument("--seed", type=int, default=11,
                   help="seed for the generated fault schedule")
    p.add_argument("--jobs", "-j", type=_positive_int, default=4,
                   help="worker processes for the scheduler checks")
    p.add_argument("--invariant", metavar="NAME", default=None,
                   help="run only this invariant (e.g. guard-resilience)")
    p.add_argument("--plan", metavar="FILE",
                   help="write the seed's fault plan as JSON and exit")
    p.set_defaults(fn=cmd_chaos)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
