"""Configuration loading and precedence.

Precedence is fixed: built-in defaults, then the YAML file, then
``REPOLENS_*`` environment variables. Unknown keys and out-of-range values
are rejected outright.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repolens import config
from repolens.config import PipelineConfig, generation_config, load_config
from repolens.errors import ConfigError


def test_defaults_match_documented_values():
    cfg = PipelineConfig()
    assert cfg.alpha == 0.85
    assert cfg.tol == 1e-8
    assert cfg.max_iter == 200
    assert cfg.top_k == 5
    assert cfg.window == 20
    assert cfg.stride == 10
    assert cfg.pool_size == 20
    assert cfg.k_final == 5
    assert (cfg.w_semantic, cfg.w_structure) == (0.7, 0.3)
    assert cfg.token_budget == 4000
    assert cfg.body_preview_lines == 8
    assert cfg.backend == "mock_echo"
    assert cfg.max_new_tokens == 64
    assert cfg.temperature == 0.0
    assert cfg.seed == 123
    assert cfg.max_concurrency == 4


def test_yaml_file_overrides_defaults(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text('alpha: 0.5\nwindow: 30\nstop: ["\\n"]\n', encoding="utf-8")
    cfg = load_config(path, env={})
    assert cfg.alpha == 0.5
    assert cfg.window == 30
    assert cfg.stop == ("\n",)
    assert cfg.stride == 10


def test_unknown_yaml_key_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    for key in ("alhpa", "path_depth"):
        path.write_text(f"{key}: 4\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            load_config(path, env={})


def test_non_mapping_yaml_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path, env={})


def test_empty_yaml_gives_defaults(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("", encoding="utf-8")
    assert load_config(path, env={}) == PipelineConfig()


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.yaml", env={})


def test_env_beats_file(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("alpha: 0.5\n", encoding="utf-8")
    cfg = load_config(path, env={"REPOLENS_ALPHA": "0.3"})
    assert cfg.alpha == 0.3


def test_env_string_coercion():
    cfg = load_config(
        None,
        env={
            "REPOLENS_WINDOW": "15",
            "REPOLENS_TEMPERATURE": "0.7",
            "REPOLENS_IDEM_UNORDERED": "true",
            "REPOLENS_STOP": "\\n,###",
        },
    )
    assert cfg.window == 15
    assert cfg.temperature == 0.7
    assert cfg.idem_unordered is True
    assert cfg.stop == ("\\n", "###")


def test_bad_env_value_rejected():
    with pytest.raises(ConfigError):
        load_config(None, env={"REPOLENS_WINDOW": "soon"})
    with pytest.raises(ConfigError):
        load_config(None, env={"REPOLENS_IDEM_UNORDERED": "maybe"})


def test_unknown_env_key_rejected():
    with pytest.raises(ConfigError, match="REPOLENS_ALHPA"):
        load_config(None, env={"REPOLENS_ALHPA": "0.5"})


def test_out_of_range_values_rejected(tmp_path):
    for doc in (
        "alpha: 1.5\n",
        "window: 0\n",
        "w_structure: 0.5\n",
        "backend: telepathy\n",
        "max_new_tokens: 0\n",
        "retries: -1\n",
    ):
        path = tmp_path / "cfg.yaml"
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path, env={})


def test_weights_may_be_retuned_together(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("w_semantic: 0.6\nw_structure: 0.4\n", encoding="utf-8")
    cfg = load_config(path, env={})
    assert (cfg.w_semantic, cfg.w_structure) == (0.6, 0.4)


def test_wrong_yaml_type_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("window: twenty\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path, env={})
    path.write_text("window: true\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path, env={})


def test_direct_construction_validates():
    with pytest.raises(ConfigError):
        PipelineConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        PipelineConfig(timeout=0.0)


@pytest.mark.parametrize(
    "name,value",
    [
        ("backend", "telepathy"),
        ("max_new_tokens", 0),
        ("temperature", -0.1),
        ("timeout", 0.0),
        ("retries", -1),
        ("backoff", -0.5),
    ],
)
def test_backend_fields_rejected_by_both_entry_points(name, value):
    with pytest.raises(ConfigError):
        PipelineConfig(**{name: value})
    with pytest.raises(ConfigError):
        replace(generation_config(PipelineConfig()), **{name: value})


def test_max_concurrency_checked_by_pipeline_config():
    # evaluation reads it off the pipeline config; the gateway never sees it
    with pytest.raises(ConfigError, match="max_concurrency"):
        PipelineConfig(max_concurrency=0)
    assert not hasattr(generation_config(PipelineConfig()), "max_concurrency")


def test_every_module_imports_first_in_a_fresh_interpreter():
    # config -> gateway must not lead back to config: each module is
    # imported with no other repolens module loaded before it. HTTP goes
    # through the standard library, so no third-party client is loaded, and
    # the YAML parser waits for a config file.
    package = Path(config.__file__).parent
    names = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    script = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    for key in [k for k in sys.modules if k.split('.')[0] == 'repolens']:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module('repolens.' + name)\n"
        "leaked = sorted({'requests', 'urllib3', 'yaml'} & set(sys.modules))\n"
        "sys.exit(f'imported {leaked}' if leaked else 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
