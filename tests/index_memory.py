"""Print the memory ``retrieval.build_index`` keeps on both benchmark corpora.

For each corpus the index is built twice under ``tracemalloc``: ``fresh``
computes every window, ``store`` decodes them from a ``.repolens`` store
written beforehand in a temporary directory. Each output line is

    <corpus> <fresh|store> windows=<n> index_mb=<MB> peak_mb=<MB> strings=<n> objects=<n> distinct=<n>

``index_mb`` is what the built index still holds once the build returns
and the ``ast`` trees it dropped are freed, ``peak_mb`` the most the
build held at once, parse trees included. ``strings`` counts the windows' token and AST-path entries,
``objects`` the distinct string objects among them and ``distinct`` the
distinct strings; a lean index has one object per distinct string. An
untraced build runs first, so imports are not counted.

    python tests/index_memory.py

The script imports ``repolens`` from the ``src`` directory beside it, so
copy it into an older checkout to run it there. Pytest does not collect it.
"""

from __future__ import annotations

import gc
import sys
import tempfile
import tracemalloc
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from repolens import retrieval  # noqa: E402
from repolens.config import PipelineConfig  # noqa: E402

CORPORA = ("stdlib_email", "repolens_7369f41")
MB = 1024 * 1024


def traced_build(root: Path, reuse: retrieval.Store | None) -> tuple[retrieval.SnippetIndex, int, int]:
    """Build the index of ``root``; the index, the bytes it holds and the
    build's peak, both above what was allocated before it."""
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    index = retrieval.build_index(root, PipelineConfig.window, PipelineConfig.stride, reuse=reuse)
    # the build's ``ast`` trees have no parent links, so each is freed when
    # its file is done and this collection finds none of them; it stays so
    # that a checkout whose trees held cycles (parso's) is measured alike
    gc.collect()
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return index, current - base, peak - base


def report(corpus: str, mode: str, index: retrieval.SnippetIndex, held: int, peak: int) -> None:
    strings = [s for snippet in index.snippets for s in chain(snippet.tokens, snippet.ast_paths)]
    print(
        f"{corpus} {mode} windows={len(index.snippets)} index_mb={held / MB:.2f} peak_mb={peak / MB:.2f}"
        f" strings={len(strings)} objects={len({id(s) for s in strings})} distinct={len(set(strings))}"
    )


def main() -> None:
    for corpus in CORPORA:
        root = ROOT / "perfbench" / "corpora" / corpus
        retrieval.build_index(root, PipelineConfig.window, PipelineConfig.stride)
        index, held, peak = traced_build(root, None)
        report(corpus, "fresh", index, held, peak)
        del index
        with tempfile.TemporaryDirectory() as scratch:
            store = retrieval.Store(Path(scratch) / "snippets.json", {})
            retrieval.build_index(root, PipelineConfig.window, PipelineConfig.stride, reuse=store)
            store.write()
            index, held, peak = traced_build(root, retrieval.load_index(store.path))
            report(corpus, "store", index, held, peak)
            del index


if __name__ == "__main__":
    main()
