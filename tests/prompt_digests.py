"""Print one digest per rendered output over both benchmark corpora.

Every cursor ``perfbench/cursors.file_cursors`` finds in the two frozen
corpora is completed twice (with the cursor's prefix, and with the whole
line read from the file) at two token budgets. Each output line is

    <corpus> <file>:<line> <prefix|line|cache> <budget> <sha256>

where the digest covers the prompt, the ``complete --explain --no-timing``
payload and the diagnostics; a budget too small for the target hashes the
error instead. The ``cache`` lines come last: each corpus is copied into a
temporary directory, its ``.repolens/snippets.json`` is written there, and
each cursor's prefix variant is completed at budget 4,000 through that
cache, as ``repolens complete`` reads it. A refactor that claims unchanged
behaviour diffs this output between two checkouts:

    python tests/prompt_digests.py > new.txt  # in each checkout
    diff old.txt new.txt

The script imports ``repolens`` from the ``src`` directory beside it, so
copy it into an older checkout to run it there. Pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cursors  # noqa: E402
from repolens import cli, projdeps, retrieval  # noqa: E402
from repolens.config import PipelineConfig  # noqa: E402
from repolens.errors import BudgetTooSmallError  # noqa: E402
from repolens.pipeline import CompletionTask, complete_task  # noqa: E402

CORPORA = ("stdlib_email", "repolens_7369f41")
BUDGETS = (4000, 1200)


def rendered(task, cfg, **shared) -> str:
    """The text one digest covers, for ``complete_task(task, cfg, **shared)``."""
    try:
        result = complete_task(task, cfg, **shared)
    except BudgetTooSmallError as exc:
        return f"error: {exc}"
    explain = cli._dump_json(cli._explain_payload(result, no_timing=True))
    diagnostics = "\n".join(repr(d) for d in result.bundle.diagnostics)
    return "\n".join((result.prompt.text, explain, diagnostics))


def outputs():
    """Yield ``(key, text)`` for every output, in a fixed order."""
    for corpus in CORPORA:
        root = ROOT / "perfbench" / "corpora" / corpus
        modules = cursors.corpus_modules(root)
        module_map = projdeps.build_module_map(root)
        index = retrieval.build_index(root, PipelineConfig.window, PipelineConfig.stride)
        for rel in sorted(modules.values()):
            for cursor in cursors.file_cursors(root, rel, modules):
                for variant, prefix in (("prefix", cursor.prefix), ("line", None)):
                    for budget in BUDGETS:
                        task = CompletionTask(cursor.task_id, root, cursor.file, cursor.line, prefix)
                        key = f"{corpus} {cursor.task_id} {variant} {budget}"
                        cfg = PipelineConfig(token_budget=budget)
                        yield key, rendered(task, cfg, index=index, module_map=module_map)
    for corpus in CORPORA:
        source = ROOT / "perfbench" / "corpora" / corpus
        modules = cursors.corpus_modules(source)
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / corpus
            shutil.copytree(source, root)
            cache = retrieval.index_path(root)
            cache.parent.mkdir(exist_ok=True)
            window, stride = PipelineConfig.window, PipelineConfig.stride
            retrieval.save_index(retrieval.build_index(root, window, stride), cache)
            for rel in sorted(modules.values()):
                for cursor in cursors.file_cursors(source, rel, modules):
                    task = CompletionTask(cursor.task_id, root, cursor.file, cursor.line, cursor.prefix)
                    key = f"{corpus} {cursor.task_id} cache 4000"
                    yield key, rendered(task, PipelineConfig(token_budget=4000))


def main() -> None:
    for key, text in outputs():
        print(key, hashlib.sha256(text.encode("utf-8")).hexdigest())


if __name__ == "__main__":
    main()
