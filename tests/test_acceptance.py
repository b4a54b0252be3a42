"""Acceptance checklist: one test per headline guarantee of the pipeline.

Every test re-derives its expected values from an independent oracle (dense
linear algebra, brute-force scans, set arithmetic) or from fixtures whose
values were worked out by hand, then prints a single PASS/FAIL line so a
verbose run doubles as a release checklist.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from pathlib import Path

from click.testing import CliRunner

from repolens.cli import main
from repolens.config import PipelineConfig
from repolens.evaluation import (
    edit_similarity,
    exact_match,
    identifier_em,
    identifier_f1,
    run_benchmark,
)
from repolens.filedeps import explicit_deps, potential_deps
from repolens.pipeline import CompletionTask, complete_task, extract_context
from repolens.projdeps import build_module_map, cross_module_deps
from repolens.prompting import SECTION_HEADERS
from repolens.ranking import personalized_pagerank
from repolens.retrieval import Snippet, rerank, structure_score
from repolens.syntax import imports_of
from tests.conftest import TESTS_DIR, write_repo
from tests.test_benchmark import TRUTHS, write_bench
from tests.test_filedeps import (
    _ast_bindings,
    _ast_module_defs,
    _ast_owner,
    _ast_uses,
    _inputs,
)
from tests.test_metrics import _corpus, _f1_counted, _levenshtein_full, _scan_identifiers
from tests.test_pipeline import CURSOR, MAIN_PY, PROCESSOR_PY, UTILS_PY
from tests.test_ranking import dense_ppr, plain_graph, random_graphs

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:02d}: {title}")
        raise
    print(f"PASS criterion {number:02d}: {title}")


def test_criterion_01_pagerank_matches_dense_oracle():
    with criterion(1, "power iteration matches a dense solve on 25 random graphs"):
        started = time.perf_counter()
        for n, edges in random_graphs(25, seed=710):
            graph = plain_graph(n, edges)
            result = personalized_pagerank(graph, tol=1e-10, max_iter=400)
            expected = dense_ppr(n, edges, 0, 0.85)
            got = [result.scores[i] for i in range(n)]
            worst = max(abs(a - b) for a, b in zip(got, expected))
            assert worst <= 1e-6, (n, len(edges), worst)
            assert abs(sum(got) - 1.0) <= 1e-9
        assert time.perf_counter() - started < 1.0


def _jaccard_oracle(left: set[str], right: set[str]) -> float:
    union = left | right
    if not union:
        return 0.0
    return len(left & right) / len(union)


def test_criterion_02_structure_score_properties():
    with criterion(2, "structure score is a symmetric bounded Jaccard on path sets"):
        kinds = (
            "classdef", "funcdef", "suite", "simple_stmt", "expr_stmt",
            "atom_expr", "term", "arith_expr", "trailer", "return_stmt",
            "parameters", "name", "operator", "number", "string",
        )
        pool = [f"module/{a}/{b}/name" for a in kinds for b in kinds]
        rng = random.Random(920)
        for _ in range(200):
            left = set(rng.sample(pool, rng.randint(0, 12)))
            right = set(rng.sample(pool, rng.randint(0, 12)))
            score = structure_score(left, right)
            assert score == _jaccard_oracle(left, right)
            assert score == structure_score(right, left)
            assert 0.0 <= score <= 1.0
        nonempty = set(rng.sample(pool, 7))
        assert structure_score(nonempty, set(nonempty)) == 1.0
        disjoint = set(pool[:4])
        assert structure_score(disjoint, set(pool[4:9])) == 0.0
        assert structure_score(set(), set()) == 0.0


def test_criterion_03_dependency_partition_exact(dep_case_table):
    with criterion(3, "explicit/potential deps exactly partition pre-cursor definitions"):
        module_map = build_module_map(TESTS_DIR / "dep_cases")
        import_entries = 0
        for name, text, tree, cursor in dep_case_table:
            owner, defs, uses = _inputs(tree, cursor)
            explicit = {d.symbol.name for d in explicit_deps(defs, uses, owner)}
            potential = {d.symbol.name for d in potential_deps(defs, uses)}
            assert not explicit & potential, name

            ast_fn = _ast_owner(text, cursor)
            oracle_defs = _ast_module_defs(text, cursor)
            if ast_fn is None:
                self_refs: set[str] = set()
            else:
                oracle_uses = _ast_uses(ast_fn)
                oracle_bound = _ast_bindings(ast_fn)
                self_refs = {
                    n for n in oracle_defs
                    if n in oracle_uses and (n in oracle_bound or n == ast_fn.name)
                }
            assert explicit | potential == set(oracle_defs) - self_refs, name

            imports = imports_of(tree)
            deps = cross_module_deps(imports, uses, module_map)
            bound = [(rec.module_path, alias) for rec in imports for _, alias in rec.bound_names]
            classified = [(d.import_rec.module_path, d.alias) for d in deps]
            assert sorted(classified) == sorted(bound), name
            for dep in deps:
                wanted = "explicit" if dep.alias in uses else "potential"
                assert dep.dep_kind == wanted, (name, dep.alias)
            import_entries += len(bound)
        assert import_entries >= 2


FIGURE_MAIN = """\
import os
import pandas as pd
from data_processor import process_data, parse_code


def string_compare(a, b):
    return a.strip() == b.strip()


def transform(path):
    full = os.path.join("/data", path)
    frame = pd.read_csv(full)
    cleaned = process_data(frame)
    result = parse_
"""

FIGURE_PROCESSOR = """\
def process_data(frame):
    return frame.dropna()


def parse_code(text):
    return text.split()
"""


def test_criterion_04_unused_helper_scenario(tmp_path):
    with criterion(4, "unused helper and unseen import stay potential; used names explicit"):
        root = write_repo(
            tmp_path / "figure",
            {"main.py": FIGURE_MAIN, "data_processor.py": FIGURE_PROCESSOR},
        )
        cursor = FIGURE_MAIN.splitlines().index("    result = parse_")
        bundle = extract_context(root, "main.py", cursor)

        file_pairs = {(d.symbol.name, d.dep_kind) for d in bundle.file_deps}
        assert ("string_compare", "potential") in file_pairs

        by_alias = {d.alias: d for d in bundle.project_deps}
        assert by_alias["os"].dep_kind == "explicit"
        assert by_alias["os"].origin == "external"
        assert by_alias["pd"].dep_kind == "explicit"
        assert by_alias["pd"].origin == "external"
        assert by_alias["process_data"].dep_kind == "explicit"
        assert by_alias["process_data"].origin == "cross_file"
        assert by_alias["process_data"].resolved is not None
        assert "def process_data" in by_alias["process_data"].resolved.code
        assert by_alias["parse_code"].dep_kind == "potential"
        assert by_alias["parse_code"].origin == "cross_file"


def _em_normal_oracle(text: str) -> str:
    text = text.strip()
    out = []
    pos = 0
    while pos < len(text):
        if text[pos] in " \t":
            out.append(" ")
            while pos < len(text) and text[pos] in " \t":
                pos += 1
        else:
            out.append(text[pos])
            pos += 1
    return "".join(out)


def test_criterion_05_metric_oracles_and_perfect_backend(tmp_path):
    with criterion(5, "all four metrics match brute-force references; truth backend scores 100"):
        for left, right in _corpus(50, seed=4177):
            assert exact_match(left, right) == int(
                _em_normal_oracle(left) == _em_normal_oracle(right)
            )
            longest = max(len(left), len(right))
            expected_es = 1.0 if longest == 0 else 1.0 - _levenshtein_full(left, right) / longest
            assert abs(edit_similarity(left, right) - expected_es) <= 1e-12
            assert identifier_em(left, right) == int(
                _scan_identifiers(left) == _scan_identifiers(right)
            )
            expected_f1 = _f1_counted(_scan_identifiers(left), _scan_identifiers(right))
            assert abs(identifier_f1(left, right) - expected_f1) <= 1e-12

        tasks = write_bench(tmp_path)
        report = run_benchmark(
            tasks, PipelineConfig(backend="mock_fixture"), fixture_table=dict(TRUTHS)
        )
        assert report.em == 100.0
        assert report.es == 100.0
        assert report.id_em == 100.0
        assert report.f1 == 100.0


def _toy_snippet(number: int, paths: list[str]) -> Snippet:
    return Snippet(
        snippet_id=f"s{number:03d}",
        path=f"mod_{number}.py",
        start_line=0,
        end_line=3,
        text="",
        tokens=(),
        ast_paths=tuple(sorted(paths)),
    )


def test_criterion_06_reranker_reduces_to_semantic_order():
    with criterion(6, "zero structure weight reproduces semantic order exactly"):
        pool = [f"module/stmt_{i}/expr/name" for i in range(24)]
        rng = random.Random(1833)
        query_paths = frozenset(rng.sample(pool, 8))
        for _ in range(100):
            count = rng.randint(1, 12)
            candidates = [
                (
                    _toy_snippet(i, rng.sample(pool, rng.randint(0, 10))),
                    rng.randrange(0, 6) / 5,
                )
                for i in range(count)
            ]
            ranked = rerank(candidates, query_paths, weights=(1.0, 0.0), k_final=count)
            assert ranked.weights == (1.0, 0.0)
            semantic_order = sorted(candidates, key=lambda pair: -pair[1])
            assert [e.snippet.snippet_id for e in ranked.entries] == [
                s.snippet_id for s, _ in semantic_order
            ]
        for _ in range(50):
            count = rng.randint(2, 10)
            tied = [
                (_toy_snippet(i, rng.sample(pool, rng.randint(0, 10))), 0.5)
                for i in range(count)
            ]
            ranked = rerank(tied, query_paths, k_final=count)
            scores = [e.structure_score for e in ranked.entries]
            assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_criterion_07_evaluate_runs_byte_identical(tmp_path):
    with criterion(7, "two evaluate runs over the fixture suite emit identical reports"):
        tasks = write_bench(tmp_path)
        runner = CliRunner()
        outputs = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            result = runner.invoke(
                main, ["evaluate", "--tasks", str(tasks), "--out", str(out), "--no-timing"]
            )
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_criterion_08_overhead_accounting(tmp_path):
    with criterion(8, "pipeline overhead is tracked and extraction stays under 200 ms"):
        tasks = write_bench(tmp_path / "suite")
        started = time.perf_counter()
        report = run_benchmark(tasks, PipelineConfig())
        wall_ms = (time.perf_counter() - started) * 1000
        assert 0 < report.pipeline_overhead_ms <= wall_ms
        assert 0 <= report.generation_ms <= wall_ms
        assert all(row.latency_ms > 0 for row in report.per_task)

        files = {
            f"pkg_{i // 100}/mod_{i % 100:02d}.py": (
                f"def helper_{i}(value):\n"
                f"    total = value + {i}\n"
                f"    return total\n"
            )
            for i in range(1000)
        }
        files["main.py"] = (
            "import os\n"
            "from pkg_0.mod_03 import helper_3\n"
            "from pkg_4.mod_80 import helper_480\n"
            "\n"
            "\n"
            "def drive(path):\n"
            "    base = helper_3(10)\n"
            "    joined = os.path.join(path, str(base))\n"
            "    total = helper_\n"
        )
        root = write_repo(tmp_path / "bigrepo", files)
        cursor = 8
        module_map = build_module_map(root)
        for _ in range(3):
            started = time.perf_counter()
            bundle = extract_context(root, "main.py", cursor, module_map=module_map)
            elapsed = time.perf_counter() - started
            assert elapsed < 0.2, elapsed
        assert {d.alias for d in bundle.project_deps} == {"os", "helper_3", "helper_480"}


def test_criterion_09_ablation_prompt_shapes(tmp_path):
    with criterion(9, "no-cc strips every context section; proj-only keeps only project"):
        repo = write_repo(
            tmp_path / "repo",
            {"main.py": MAIN_PY, "data_processor.py": PROCESSOR_PY, "lib/text_utils.py": UTILS_PY},
        )
        runner = CliRunner()
        base = ["complete", "--repo", str(repo), "--file", "main.py", "--line", str(CURSOR + 1)]

        no_cc = runner.invoke(main, [*base, "--dry-run", "--ablate", "no-cc"])
        assert no_cc.exit_code == 0, no_cc.output
        assert no_cc.output == (GOLDEN / "prompt_no_cc.txt").read_text()
        for kind in ("function_ctx", "file_ctx", "project_ctx"):
            assert SECTION_HEADERS[kind] not in no_cc.output
        assert SECTION_HEADERS["exemplars"] in no_cc.output
        assert SECTION_HEADERS["target"] in no_cc.output

        proj_only = runner.invoke(main, [*base, "--dry-run", "--ablate", "proj-only"])
        assert proj_only.exit_code == 0, proj_only.output
        assert proj_only.output == (GOLDEN / "prompt_proj_only.txt").read_text()
        assert SECTION_HEADERS["project_ctx"] in proj_only.output
        for kind in ("function_ctx", "file_ctx"):
            assert SECTION_HEADERS[kind] not in proj_only.output


BUDGET_MAIN = """\
import json
import os
from metrics_lib import moving_average, rolling_max, zscore
from text_lib import clean_cell, header_row

REPORT_DIR = "/var/reports"
SEPARATOR = " | "
MAX_WIDTH = 96


def read_rows(path):
    rows = []
    with open(path) as handle:
        for line in handle:
            stripped = line.rstrip()
            if stripped:
                rows.append(stripped)
    return rows


def split_cells(row):
    cells = row.split(",")
    return [clean_cell(cell) for cell in cells]


def numeric_cells(cells):
    values = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            continue
    return values


def column_widths(table):
    widths = []
    for row in table:
        while len(widths) < len(row):
            widths.append(0)
        for pos, cell in enumerate(row):
            widths[pos] = max(widths[pos], len(cell))
    return widths


def align_row(cells, widths):
    padded = []
    for cell, width in zip(cells, widths):
        padded.append(cell.ljust(width))
    return SEPARATOR.join(padded)


def summarize(values):
    if not values:
        return {}
    return {
        "count": len(values),
        "smooth": moving_average(values, 3),
        "peak": rolling_max(values, 3),
    }


class RowFilter:
    def keep(self, cells):
        return bool(cells)


class NumericFilter(RowFilter):
    def keep(self, cells):
        return bool(numeric_cells(cells))


def render_table(path):
    rows = read_rows(os.path.join(REPORT_DIR, path))
    table = [split_cells(row) for row in rows]
    widths = column_widths(table)
    lines = [align_row(cells, widths) for cells in table]
    stats = summarize(numeric_cells(table[0]))
    payload = json.dumps(stats)
    footer = header_
"""

BUDGET_METRICS = """\
def moving_average(values, width):
    if width <= 0:
        return []
    out = []
    for pos in range(len(values)):
        low = max(0, pos - width + 1)
        chunk = values[low : pos + 1]
        out.append(sum(chunk) / len(chunk))
    return out


def rolling_max(values, width):
    out = []
    for pos in range(len(values)):
        low = max(0, pos - width + 1)
        out.append(max(values[low : pos + 1]))
    return out


def zscore(values):
    if not values:
        return []
    mean = sum(values) / len(values)
    spread = (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
    if spread == 0:
        return [0.0 for _ in values]
    return [(v - mean) / spread for v in values]


def percentile(values, rank):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    cut = int(rank * (len(ordered) - 1) / 100)
    return ordered[cut]


def clamp(value, low, high):
    return min(max(value, low), high)
"""

BUDGET_TEXT = """\
def clean_cell(cell):
    return cell.strip().strip('"')


def header_row(names, widths):
    cells = [name.center(width) for name, width in zip(names, widths)]
    return " | ".join(cells)


def wrap_text(text, width):
    words = text.split()
    lines = []
    current = []
    used = 0
    for word in words:
        if used + len(word) + len(current) > width and current:
            lines.append(" ".join(current))
            current = []
            used = 0
        current.append(word)
        used += len(word)
    if current:
        lines.append(" ".join(current))
    return lines


def pad_cell(cell, width):
    if len(cell) >= width:
        return cell[:width]
    return cell + " " * (width - len(cell))


def strip_comment(line):
    if "#" not in line:
        return line
    return line[: line.index("#")]
"""


def test_criterion_10_prompt_budget_compliance(tmp_path):
    with criterion(10, "rendered prompts respect every budget and keep the target verbatim"):
        root = write_repo(
            tmp_path / "wide",
            {
                "main.py": BUDGET_MAIN,
                "metrics_lib.py": BUDGET_METRICS,
                "text_lib.py": BUDGET_TEXT,
            },
        )
        cursor = BUDGET_MAIN.splitlines().index("    footer = header_")
        task = CompletionTask(task_id="budget", repo=root, file="main.py", line=cursor)

        results = {
            budget: complete_task(task, PipelineConfig(token_budget=budget))
            for budget in (500, 1000, 4000)
        }
        assert results[4000].prompt.token_count > 1000
        for budget, result in results.items():
            assert result.prompt.token_count <= budget, budget
            target_block = SECTION_HEADERS["target"] + "\n" + result.target_code
            assert target_block in result.prompt.text, budget
            assert result.prompt.text.endswith(result.target_code), budget
        assert results[500].prompt.truncations
