"""Generation backends: mocks, HTTP chat protocol, retries."""

from __future__ import annotations

import json
import time
from dataclasses import replace

import pytest

from repolens import gateway
from repolens.config import PipelineConfig
from repolens.errors import (
    BackendError,
    BackendHttpError,
    BackendTimeoutError,
    ConfigError,
    MalformedResponseError,
)
from repolens.gateway import generate
from repolens.prompting import PromptDocument, estimate_tokens
from tests.conftest import http_stub


def make_doc(target_text: str) -> PromptDocument:
    text = f"### Complete the following code\n{target_text}"
    return PromptDocument(
        sections=[("target", target_text)],
        token_count=estimate_tokens(text),
        truncations=[],
        text=text,
    )


def chat_reply(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


def gen_cfg(**fields) -> PipelineConfig:
    return PipelineConfig(**fields)


def test_mock_echo_returns_last_target_line():
    doc = make_doc("def f():\n    return total + 1")
    result = generate(doc, gen_cfg(backend="mock_echo"))
    assert result.text == "    return total + 1"
    assert result.backend == "mock_echo"
    assert result.attempts == 1


def test_mock_echo_keeps_a_form_feed_inside_the_last_line():
    # lines end at "\n" only, as the prompt's sections cut them
    doc = make_doc("def f(a, b):\n    x = a\x0cb")
    assert generate(doc, gen_cfg(backend="mock_echo")).text == "    x = a\x0cb"


def test_mock_fixture_returns_table_entry():
    cfg = gen_cfg(backend="mock_fixture")
    table = {"t1": "x = 1", "t2": "y = 2"}
    doc = make_doc("x = ")
    assert generate(doc, cfg, task_id="t1", fixture_table=table).text == "x = 1"
    assert generate(doc, cfg, task_id="t2", fixture_table=table).text == "y = 2"


def test_mock_fixture_missing_task_raises():
    cfg = gen_cfg(backend="mock_fixture")
    with pytest.raises(BackendError):
        generate(make_doc("x"), cfg, task_id="unknown", fixture_table={"t1": "x = 1"})


@pytest.mark.filterwarnings("error")
def test_mock_fixture_reads_table_from_file(tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps({"t1": "x = 1"}), encoding="utf-8")
    cfg = gen_cfg(backend="mock_fixture", fixture_path=str(path))
    for _ in range(3):
        assert generate(make_doc("x = "), cfg, task_id="t1").text == "x = 1"


def test_http_chat_roundtrip_and_payload_shape():
    seen = {}
    content_types = []

    def handler(path, payload, headers):
        seen.update(payload)
        content_types.append(headers["Content-Type"])
        return 200, chat_reply("completed_line()\nextra tail")

    doc = make_doc("value = ")
    with http_stub(handler) as url:
        cfg = gen_cfg(
            backend="http_chat",
            endpoint=url + "/v1/chat/completions",
            model="test-model",
            stop=("###",),
        )
        result = generate(doc, cfg)

    assert result.text == "completed_line()"
    assert result.raw == "completed_line()\nextra tail"
    assert seen["model"] == "test-model"
    assert seen["messages"] == [{"role": "user", "content": doc.text}]
    assert seen["max_tokens"] == 64
    assert seen["temperature"] == 0.0
    assert seen["seed"] == 123
    assert seen["stop"] == ["###"]
    assert content_types == ["application/json"]


def test_http_chat_retries_on_server_error_then_succeeds():
    calls = {"n": 0}

    def handler(path, payload, headers):
        calls["n"] += 1
        if calls["n"] < 3:
            return 500, {"error": "boom"}
        return 200, chat_reply("ok_line")

    with http_stub(handler) as url:
        cfg = gen_cfg(backend="http_chat", endpoint=url, backoff=0.01)
        result = generate(make_doc("x"), cfg)
    assert result.text == "ok_line"
    assert result.attempts == 3
    assert calls["n"] == 3


def test_http_chat_gives_up_after_retry_budget():
    def handler(path, payload, headers):
        return 503, {"error": "always down"}

    with http_stub(handler) as url:
        cfg = gen_cfg(backend="http_chat", endpoint=url, backoff=0.01)
        with pytest.raises(BackendHttpError) as excinfo:
            generate(make_doc("x"), cfg)
    assert excinfo.value.status == 503


def test_http_chat_client_error_fails_immediately():
    calls = {"n": 0}

    def handler(path, payload, headers):
        calls["n"] += 1
        return 404, {"error": "no such route"}

    with http_stub(handler) as url:
        cfg = gen_cfg(backend="http_chat", endpoint=url, backoff=0.01)
        with pytest.raises(BackendHttpError) as excinfo:
            generate(make_doc("x"), cfg)
    assert excinfo.value.status == 404
    assert calls["n"] == 1


def test_http_chat_timeout_becomes_backend_timeout():
    def handler(path, payload, headers):
        time.sleep(0.5)
        return 200, chat_reply("late")

    with http_stub(handler) as url:
        cfg = gen_cfg(backend="http_chat", endpoint=url, timeout=0.05, backoff=0.01)
        with pytest.raises(BackendTimeoutError):
            generate(make_doc("x"), cfg)


def test_http_chat_unreachable_endpoint_fails_without_retry(monkeypatch):
    sleeps = []
    monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
    cfg = gen_cfg(backend="http_chat", endpoint="http://127.0.0.1:9/", timeout=0.5)
    with pytest.raises(BackendError) as excinfo:
        generate(make_doc("x"), cfg)
    assert not isinstance(excinfo.value, BackendTimeoutError)
    assert sleeps == []


@pytest.mark.parametrize("url", ["file:///dev/null", "ftp://127.0.0.1:9/", "not a url"])
def test_post_json_rejects_urls_that_are_not_http(url):
    with pytest.raises(BackendError) as excinfo:
        gateway.post_json(url, {}, timeout=0.5)
    assert type(excinfo.value) is BackendError


def test_http_chat_malformed_reply_raises():
    def handler(path, payload, headers):
        return 200, {"no_choices": True}

    with http_stub(handler) as url:
        cfg = gen_cfg(backend="http_chat", endpoint=url)
        with pytest.raises(MalformedResponseError):
            generate(make_doc("x"), cfg)


def test_stop_sequences_trim_client_side():
    doc = make_doc("x = ")
    cfg = gen_cfg(backend="mock_fixture", stop=(";",))
    assert generate(doc, cfg, task_id="t", fixture_table={"t": "head;tail"}).text == "head"


def test_leading_newlines_skipped_in_line_extraction():
    cfg = gen_cfg(backend="mock_fixture")
    result = generate(make_doc("x"), cfg, task_id="t", fixture_table={"t": "\n\nreal = line\nmore"})
    assert result.text == "real = line"
    assert result.raw == "\n\nreal = line\nmore"


def test_config_validation():
    valid = gen_cfg()
    with pytest.raises(ConfigError):
        replace(valid, max_new_tokens=0)
    with pytest.raises(ConfigError):
        replace(valid, timeout=0)
    with pytest.raises(ConfigError):
        replace(valid, backend="unknown_backend")
