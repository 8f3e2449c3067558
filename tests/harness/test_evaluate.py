"""Tests for the end-to-end evaluator and the results store."""

import pytest

from repro.bench import PCGBench
from repro.harness import EvalCache, EvalRun, Runner, evaluate_model
from repro.harness.evaluate import PromptRecord, SampleRecord
from repro.models import load_model


@pytest.fixture(scope="module")
def small_run():
    bench = PCGBench(problem_types=["transform"],
                     models=["serial", "openmp", "cuda"])
    llm = load_model("GPT-3.5")
    return evaluate_model(llm, bench, num_samples=4, temperature=0.2, seed=9)


class TestEvaluate:
    def test_covers_all_prompts(self, small_run):
        assert len(small_run.prompts) == 5 * 3

    def test_sample_counts(self, small_run):
        for record in small_run.prompts.values():
            assert len(record.samples) == 4

    def test_statuses_are_known(self, small_run):
        known = {"correct", "build_error", "not_parallel", "static_fail",
                 "runtime_error", "timeout", "wrong_answer"}
        for record in small_run.prompts.values():
            assert set(record.statuses()) <= known

    def test_views(self, small_run):
        assert len(small_run.by_exec_model("serial")) == 5
        assert len(small_run.by_ptype("transform")) == 15
        assert len(small_run.parallel_prompts()) == 10

    def test_json_roundtrip(self, small_run):
        back = EvalRun.from_json(small_run.to_json())
        assert back.llm == small_run.llm
        assert set(back.prompts) == set(small_run.prompts)
        uid = next(iter(back.prompts))
        assert back.prompts[uid].statuses() == small_run.prompts[uid].statuses()

    def test_json_roundtrip_preserves_times(self):
        bench = PCGBench(problem_types=["transform"], models=["openmp"])
        run = evaluate_model(load_model("GPT-4"), bench, num_samples=2,
                             temperature=0.2, with_timing=True, seed=3)
        back = EvalRun.from_json(run.to_json())
        for uid, record in run.prompts.items():
            assert back.prompts[uid].baseline == record.baseline
            for a, b in zip(back.prompts[uid].samples, record.samples):
                assert a.times == b.times
                assert all(isinstance(k, int) for k in a.times)


class TestCache:
    def test_cache_round_trip(self, tmp_path):
        cache = EvalCache(cache_dir=str(tmp_path))
        bench = PCGBench(problem_types=["reduce"], models=["serial"])
        llm = load_model("CodeLlama-7B")
        first = cache.get_or_run(llm, bench, num_samples=3, temperature=0.2,
                                 tag="unit")
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        second = cache.get_or_run(llm, bench, num_samples=3, temperature=0.2,
                                  tag="unit")
        assert second.to_json() == first.to_json()

    def test_env_sample_cap(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SAMPLES", "2")
        bench = PCGBench(problem_types=["reduce"], models=["serial"])
        run = evaluate_model(load_model("CodeLlama-7B"), bench,
                             num_samples=50)
        assert run.num_samples == 2


class TestSerialDedup:
    """``jobs=1`` judges each distinct (source, prompt) once and fans the
    verdict out to every slot that generated that source."""

    SAMPLES = 8
    SEED = 1

    @pytest.fixture(scope="class")
    def slice_(self):
        # GPT-4 at T=0.2 repeats its top candidate: known duplicates
        return (load_model("GPT-4"),
                PCGBench(problem_types=["histogram"],
                         models=["serial", "openmp"]))

    def test_each_distinct_sample_judged_once(self, slice_, monkeypatch):
        llm, bench = slice_
        judged = []
        real = Runner.evaluate_sample

        def counting(self, source, prompt, *args, **kwargs):
            judged.append((source, prompt.uid))
            return real(self, source, prompt, *args, **kwargs)

        monkeypatch.setattr(Runner, "evaluate_sample", counting)
        progress = []
        run = evaluate_model(llm, bench, num_samples=self.SAMPLES,
                             temperature=0.2, seed=self.SEED,
                             progress=progress.append)
        distinct = {(s.source, p.uid) for p in bench.prompts
                    for s in llm.generate(p, self.SAMPLES, 0.2, self.SEED)}
        slots = sum(len(pr.samples) for pr in run.prompts.values())
        assert len(distinct) < slots == self.SAMPLES * len(bench.prompts)
        assert sorted(judged) == sorted(distinct)
        assert progress == [p.uid for p in bench.prompts]

    def test_matches_judging_every_slot(self, slice_):
        """The digest equals a run that judges every slot on its own."""
        llm, bench = slice_
        runner = Runner()
        reference = EvalRun(llm=llm.name, temperature=0.2,
                            num_samples=self.SAMPLES, with_timing=False,
                            seed=self.SEED)
        for prompt in bench.prompts:
            record = PromptRecord(uid=prompt.uid,
                                  ptype=prompt.problem.ptype,
                                  exec_model=prompt.model)
            for sample in llm.generate(prompt, self.SAMPLES, 0.2,
                                       self.SEED):
                res = runner.evaluate_sample(sample.source, prompt)
                record.samples.append(SampleRecord(
                    status=res.status, intended=sample.intended,
                    detail=res.detail[:160],
                    diagnostics=[d.to_dict() for d in res.diagnostics]))
            reference.prompts[prompt.uid] = record
        run = evaluate_model(llm, bench, num_samples=self.SAMPLES,
                             temperature=0.2, seed=self.SEED, runner=runner)
        assert run.digest() == reference.digest()
