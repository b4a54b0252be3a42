"""Pre-cursor slice extraction and CFG construction.

Expected node/edge sets are hand-drawn from the fixture sources before
freezing here; graph invariants are checked across every fixture.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repolens.funcflow import build_cfg, local_slice, render_cfg
from repolens.syntax import SourceFile, file_facts, parse

LOOP_FUNC = """\
def f(xs):
    total = 0
    for x in xs:
        total += x
    return total
"""

BRANCH_SCRIPT = """\
if c:
    a = 1
else:
    a = 2
"""

EARLY_RETURN = """\
def f(x):
    if x > 0:
        return 1
    if x < 0:
        return 2
    y = 0
"""

MIXED_FUNC = """\
def g(p):
    with open(p) as fh:
        data = fh.read()
    try:
        n = int(data)
    except ValueError:
        n = 0
    while n > 0:
        n -= 1
    done = n
"""

ELIF_FUNC = """\
def h(x):
    if x == 1:
        a = 1
    elif x == 2:
        a = 2
    else:
        a = 3
    out = a
"""

DEEP_FUNC = """\
def f(x):
    if x > 0:
        if x > 10:
            if x > 100:
                y = 3
            z = 4
        w = 5
    done = 1
"""


def _facts(text):
    return file_facts(parse(SourceFile.from_text("m.py", text)))


def _cfg(text, line):
    return build_cfg(local_slice(_facts(text), line))


def _out_edges(cfg, node_id):
    return [e for e in cfg.edges if e.src == node_id]


ALL_CASES = [
    (LOOP_FUNC, 4),
    (BRANCH_SCRIPT, 4),
    (EARLY_RETURN, 5),
    (MIXED_FUNC, 9),
    (ELIF_FUNC, 7),
    (DEEP_FUNC, 7),
]


def test_local_slice_function_origin_covers_def_through_cursor():
    facts = _facts(LOOP_FUNC)
    sl = local_slice(facts, 3)
    assert sl.origin == "function"
    assert sl.code == "def f(xs):\n    total = 0\n    for x in xs:\n"
    assert (sl.span.start_line, sl.span.end_line) == (0, 3)


def test_local_slice_on_first_body_line_is_def_line_only():
    facts = _facts("def f():\n    pass\n")
    sl = local_slice(facts, 1)
    assert sl.code == "def f():\n"


def test_local_slice_script_origin_from_file_start():
    facts = _facts(BRANCH_SCRIPT)
    sl = local_slice(facts, 2)
    assert sl.origin == "script"
    assert sl.code == "if c:\n    a = 1\n"


def test_local_slice_at_line_zero_is_empty():
    facts = _facts(BRANCH_SCRIPT)
    assert local_slice(facts, 0).code == ""


def test_local_slice_rejects_out_of_bounds():
    facts = _facts("x = 1\n")
    with pytest.raises(ValueError):
        local_slice(facts, 99)


def test_empty_slice_yields_trivial_graph():
    facts = _facts(BRANCH_SCRIPT)
    cfg = build_cfg(local_slice(facts, 0))
    assert len(cfg.nodes) == 2
    assert [(e.src, e.dst, e.label) for e in cfg.edges] == [(cfg.entry, cfg.exit, "seq")]
    assert render_cfg(cfg) == "entry -> exit"


def test_if_else_graph_matches_hand_drawing():
    cfg = _cfg(BRANCH_SCRIPT, 4)
    kinds = sorted(n.kind for n in cfg.nodes)
    assert kinds == ["entry", "exit", "if", "statement", "statement"]
    labels = sorted(e.label for e in cfg.edges)
    assert labels == ["false", "seq", "seq", "seq", "true"]
    rendered = render_cfg(cfg)
    assert len(rendered.splitlines()) == 5
    assert "-[true]->" in rendered and "-[false]->" in rendered


def test_loop_graph_has_one_back_and_one_exit_edge():
    cfg = _cfg(LOOP_FUNC, 4)
    back = [e for e in cfg.edges if e.label == "loop_back"]
    out = [e for e in cfg.edges if e.label == "loop_exit"]
    assert len(back) == 1 and len(out) == 1
    rendered = render_cfg(cfg)
    assert rendered.count("loop_back") == 1


def test_return_nodes_connect_only_to_exit():
    cfg = _cfg(EARLY_RETURN, 5)
    returns = [n for n in cfg.nodes if n.kind == "return"]
    assert len(returns) == 2
    for node in returns:
        edges = _out_edges(cfg, node.node_id)
        assert len(edges) == 1
        assert edges[0].dst == cfg.exit


def test_elif_desugars_into_nested_ifs():
    cfg = _cfg(ELIF_FUNC, 7)
    ifs = [n for n in cfg.nodes if n.kind == "if"]
    assert len(ifs) == 2
    first, second = sorted(ifs, key=lambda n: n.node_id)
    false_edges = [e for e in _out_edges(cfg, first.node_id) if e.label == "false"]
    assert [e.dst for e in false_edges] == [second.node_id]


def test_long_elif_chain_builds_one_if_node_per_branch():
    branches = 1500
    text = "def h(x):\n    if x == 0:\n        a = 0\n"
    text += "".join(f"    elif x == {i}:\n        a = {i}\n" for i in range(1, branches))
    text += "    done = a\n"
    cfg = _cfg(text, 2 * branches + 1)  # the cursor on the line after the chain
    ifs = sorted(n.node_id for n in cfg.nodes if n.kind == "if")
    assert len(ifs) == branches
    false_edges = sorted((e.src, e.dst) for e in cfg.edges if e.label == "false")
    assert false_edges == list(zip(ifs, ifs[1:])) + [(ifs[-1], cfg.exit)]
    # the last test and every body fall through to the exit
    assert len([e for e in cfg.edges if e.dst == cfg.exit]) == branches + 1


def test_nesting_beyond_two_levels_collapses_to_region_node():
    cfg = _cfg(DEEP_FUNC, 7)
    region = [n for n in cfg.nodes if n.text.endswith("...") and "x > 100" in n.text]
    assert len(region) == 1
    assert region[0].kind == "statement"
    # the innermost body (y = 3) must not surface as its own node
    assert not any("y = 3" in n.text for n in cfg.nodes)


def test_try_and_with_bodies_inline_sequentially():
    cfg = _cfg(MIXED_FUNC, 9)
    texts = [n.text for n in cfg.nodes]
    assert any("data = fh.read()" in t for t in texts)
    assert any("n = int(data)" in t for t in texts)
    # except arm is exceptional flow and stays out of the graph
    assert not any("n = 0" in t for t in texts)


@pytest.mark.parametrize("text,line", ALL_CASES)
def test_graph_invariants(text, line):
    cfg = _cfg(text, line)
    kinds = {"entry", "statement", "if", "for", "while", "return", "exit"}
    labels = {"seq", "true", "false", "loop_back", "loop_exit"}
    assert all(n.kind in kinds for n in cfg.nodes)
    assert all(e.label in labels for e in cfg.edges)
    assert _out_edges(cfg, cfg.exit) == []
    ids = {n.node_id for n in cfg.nodes}
    for node in cfg.nodes:
        if node.node_id != cfg.exit:
            assert _out_edges(cfg, node.node_id), f"dead end at {node}"
    # reachability from entry
    seen = {cfg.entry}
    frontier = [cfg.entry]
    while frontier:
        nxt = []
        for nid in frontier:
            for edge in _out_edges(cfg, nid):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    nxt.append(edge.dst)
        frontier = nxt
    assert seen == ids


@pytest.mark.parametrize("text,line", ALL_CASES)
def test_build_and_render_are_deterministic(text, line):
    a, b = _cfg(text, line), _cfg(text, line)
    assert render_cfg(a) == render_cfg(b)
    assert [(e.src, e.dst, e.label) for e in a.edges] == [(e.src, e.dst, e.label) for e in b.edges]


def test_renders_distinguish_distinct_graphs():
    renders = {render_cfg(_cfg(text, line)) for text, line in ALL_CASES}
    assert len(renders) == len(ALL_CASES)


@given(st.integers(min_value=1, max_value=30))
def test_straight_line_slice_property(n):
    body = "".join(f"    v{i} = {i}\n" for i in range(n))
    text = f"def f():\n{body}    tail = 0\n"
    facts = _facts(text)
    cfg = build_cfg(local_slice(facts, n + 1))
    assert len(cfg.nodes) == n + 2
    assert len(cfg.edges) == n + 1
    assert all(e.label == "seq" for e in cfg.edges)
