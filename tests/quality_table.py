"""Print the prompt-quality table over both benchmark corpora.

Every cursor ``perfbench/cursors.file_cursors`` finds in the two frozen
corpora is completed with the cursor's prefix, through one module map and
one index held per corpus, at token budgets 1,200 and 4,000. For each
corpus and budget the script prints the mean proxy
(``perfbench/prompts.context_id_recall``, the share of the truth's
identifiers found outside the target section) and the mean novel recall
(``evaluation.novel_id_recall``, the share of the truth's identifiers the
target does not already hold), each as a percentage with the number of
tasks it averages:

    <corpus> @<budget>  proxy <mean> (<n>)  novel <mean> (<n>)

A task whose budget cannot hold its target counts in neither mean. Run it
from any directory:

    python tests/quality_table.py

The script imports ``repolens`` from the ``src`` directory beside it, so
copy it into an older checkout to compare the two. Pytest does not collect
it.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cursors  # noqa: E402
import prompts  # noqa: E402
from repolens import projdeps, retrieval  # noqa: E402
from repolens.config import PipelineConfig  # noqa: E402
from repolens.errors import BudgetTooSmallError  # noqa: E402
from repolens.evaluation import novel_id_recall  # noqa: E402
from repolens.pipeline import CompletionTask, complete_task  # noqa: E402

CORPORA = ("stdlib_email", "repolens_7369f41")
BUDGETS = (1200, 4000)


def _mean(values: list[float]) -> str:
    return f"{100 * statistics.mean(values):.1f} ({len(values)})" if values else "- (0)"


def main() -> None:
    for corpus in CORPORA:
        root = ROOT / "perfbench" / "corpora" / corpus
        modules = cursors.corpus_modules(root)
        module_map = projdeps.build_module_map(root)
        index = retrieval.build_index(root, PipelineConfig.window, PipelineConfig.stride)
        found = [cursor for rel in sorted(modules.values()) for cursor in cursors.file_cursors(root, rel, modules)]
        for budget in BUDGETS:
            cfg = PipelineConfig(token_budget=budget)
            proxy: list[float] = []
            novel: list[float] = []
            for cursor in found:
                task = CompletionTask(cursor.task_id, root, cursor.file, cursor.line, cursor.prefix)
                try:
                    prompt = complete_task(task, cfg, index=index, module_map=module_map).prompt
                except BudgetTooSmallError:
                    continue
                proxy.append(prompts.context_id_recall(cursor.truth, prompt.text))
                recall = novel_id_recall(cursor.truth, prompt)
                if recall is not None:
                    novel.append(recall)
            print(f"{corpus} @{budget}  proxy {_mean(proxy)}  novel {_mean(novel)}")


if __name__ == "__main__":
    main()
