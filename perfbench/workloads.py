"""The two workloads: set-up, one unit of work, and what a unit must show.

``warm-crossfile`` drives the public API in this process; ``cli-cold``
runs ``repolens`` through ``launch.py`` in a fresh child process per
command. Each workload works on its own copy of a frozen
corpus under ``.bench_work`` in the checkout.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repolens import evaluation, gateway, pipeline, projdeps, retrieval
from repolens.config import PipelineConfig, generation_config, load_config

import chatstub
import cursors

BENCH = Path(__file__).resolve().parent
CORPORA = BENCH / "corpora"
CLI_CONFIG = BENCH / "cli_config.yaml"
_COMPLETION_HEAD = "\n--- completion ["


class UnitFailed(Exception):
    """The program failed one unit: it raised, exited non-zero or its
    backend errored. Counted against the run, not a correctness failure."""


@dataclass
class Unit:
    ms: float  # wall time of the unit
    prompt: str
    completion: str


def score(completion: str, truth: str) -> None:
    """Score one completion the way ``repolens evaluate`` does."""
    evaluation.exact_match(completion, truth)
    evaluation.edit_similarity(completion, truth)
    evaluation.identifier_em(completion, truth)
    evaluation.identifier_f1(completion, truth)


def fresh_copy(corpus: Path, dest: Path) -> Path:
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(corpus, dest)
    return dest


class WarmCrossfile:
    """One long-lived process: shared module map and index, then per task
    ``complete_task``, ``generate`` against the loopback stub, scoring."""

    corpus = CORPORA / "stdlib_email"
    first_pass = 38  # two cursors from each of the 19 eligible files
    rss_of = resource.RUSAGE_SELF  # the work runs in this process

    def __init__(self, work: Path, tracer) -> None:
        self.work = work
        self._stub = chatstub.ChatStub()
        self.cfg = PipelineConfig(backend="http_chat", endpoint=self._stub.url)
        self.gen_cfg = generation_config(self.cfg)
        self.repo = self.module_map = self.index = None

    def close(self) -> None:
        self._stub.close()

    def setup(self, rep: int) -> float:
        self.module_map = self.index = None
        self.repo = fresh_copy(self.corpus, self.work / f"repo{rep}")
        started = time.perf_counter()
        self.module_map = projdeps.build_module_map(self.repo)
        self.index = retrieval.build_index(self.repo, self.cfg.window, self.cfg.stride)
        return time.perf_counter() - started

    def unit(self, cursor: cursors.Cursor) -> Unit:
        started = time.perf_counter()
        task = pipeline.CompletionTask(
            cursor.task_id, self.repo, cursor.file, cursor.line,
            prefix_override=cursor.prefix, ground_truth=cursor.truth,
        )
        try:
            result = pipeline.complete_task(
                task, self.cfg, index=self.index, module_map=self.module_map
            )
            outcome = gateway.generate(result.prompt, self.gen_cfg, task_id=task.task_id)
        except Exception as exc:  # any error of the program fails the unit
            raise UnitFailed(f"{type(exc).__name__}: {exc}") from exc
        score(outcome.text, cursor.truth)
        return Unit((time.perf_counter() - started) * 1000, result.prompt.text, outcome.text)

    def expected_tail(self, cursor: cursors.Cursor) -> str:
        return cursor.prefix

    def expected_completion(self, cursor: cursors.Cursor) -> str:
        return chatstub.reply_for(cursor.prefix)


class CliCold:
    """``repolens index`` once, then one ``repolens complete`` per task,
    each in a fresh child process, under a tight token budget."""

    corpus = CORPORA / "repolens_7369f41"
    first_pass = 12  # one cursor from each of the 12 eligible files
    rss_of = resource.RUSAGE_CHILDREN  # the largest repolens child

    def __init__(self, work: Path, tracer) -> None:
        self.work = work
        self.tracer = tracer
        self.cfg = load_config(CLI_CONFIG, env={})
        self.repo = work / "repo"
        self._env = {k: v for k, v in os.environ.items() if not k.startswith("REPOLENS_")}
        self._calls = 0

    def close(self) -> None:
        pass

    def cli(self, *args: str) -> str:
        """Run one repolens command in a child process; its stdout."""
        command = [sys.executable, str(BENCH / "launch.py")]
        trace_file = None
        if self.tracer is not None:
            self._calls += 1
            trace_file = self.work / f"trace-{self._calls}.json"
            command += ["--trace-out", str(trace_file)]
        command += [*args, "--repo", str(self.repo), "--config", str(CLI_CONFIG)]
        try:
            done = subprocess.run(command, capture_output=True, text=True, env=self._env, timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise UnitFailed(f"repolens {args[0]} ran over {exc.timeout} s") from exc
        if trace_file is not None and trace_file.exists():
            self.tracer.adopt(json.loads(trace_file.read_text(encoding="utf-8")))
            trace_file.unlink()
        if done.returncode != 0:
            raise UnitFailed(f"repolens {args[0]} exited {done.returncode}: {done.stderr[-500:]}")
        return done.stdout

    def setup(self, rep: int) -> float:
        fresh_copy(self.corpus, self.repo)
        started = time.perf_counter()
        self.cli("index")
        return time.perf_counter() - started

    def complete(self, cursor: cursors.Cursor) -> tuple[str, str]:
        out = self.cli("complete", "--file", cursor.file, "--line", str(cursor.line + 1))
        prompt, sep, tail = out.partition(_COMPLETION_HEAD)
        if not sep:
            raise UnitFailed("repolens complete printed no completion")
        return prompt, tail.split("\n", 1)[1].removesuffix("\n")

    def unit(self, cursor: cursors.Cursor) -> Unit:
        started = time.perf_counter()
        prompt, completion = self.complete(cursor)
        elapsed = (time.perf_counter() - started) * 1000
        score(completion, cursor.truth)
        return Unit(elapsed, prompt, completion)

    def expected_tail(self, cursor: cursors.Cursor) -> str:
        # The CLI reads the cursor line from the file; it has no prefix option.
        return cursor.text

    def expected_completion(self, cursor: cursors.Cursor) -> str:
        return cursor.text  # mock_echo repeats the last line of the target


WORKLOADS = {"warm-crossfile": WarmCrossfile, "cli-cold": CliCold}
