"""The README's ``Library use`` code runs as written."""

from __future__ import annotations

import re
import shutil

from repolens import gateway, retrieval
from repolens.pipeline import CompletionTask
from repolens.retrieval import index_path
from tests.conftest import TESTS_DIR, index_repo, read_store

README = TESTS_DIR.parent / "README.md"


def library_use_blocks() -> list[str]:
    """The ```python blocks of the ``Library use`` section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_library_use_code_runs(tmp_path, monkeypatch, capsys):
    def offline(url, payload, timeout):
        raise AssertionError(f"the README code posted to {url}")

    for module in (gateway, retrieval):
        monkeypatch.setattr(module, "post_json", offline)
    repo = shutil.copytree(TESTS_DIR / "corpus_cases", tmp_path / "repo")
    index_repo(repo)  # so the held map is built over a store
    blocks = library_use_blocks()
    assert len(blocks) == 2
    tasks = [CompletionTask(f"t{line}", repo, "ledger.py", line) for line in (20, 30)]
    namespace = {"tasks": tasks}
    for block in blocks:
        code = block.replace("path/to/repo", repo.as_posix()).replace("pkg/mod.py", "gridgame.py")
        exec(compile(code, str(README), "exec"), namespace)  # noqa: S102 - the README's own code

    out = capsys.readouterr().out
    assert namespace["result"].task is tasks[-1]
    assert "gridgame.py" in out  # the one-shot prompt names its target
    assert "facts" in read_store(index_path(repo))["ledger.py"]  # the held map's store was written back
