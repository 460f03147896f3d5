"""Report rendering and the content-addressed result cache."""

import json
import os

import pytest

from krull_arith.report import (
    cache_dir,
    cache_get,
    cache_key,
    cache_put,
    canonical_json,
    emit,
)


def test_canonical_json_is_deterministic():
    a = canonical_json({"b": 1, "a": frozenset((3, 1, 2))})
    b = canonical_json({"a": {1, 2, 3}, "b": 1})
    assert a == b
    assert '"a": [\n    1,\n    2,\n    3\n  ]' in a
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


def test_emit_formats():
    data = {"z": 1, "a": {"nested": [1, 2]}, "s": 'quote"pipe|'}
    out_json = emit(data, "json")
    assert out_json == canonical_json(data)
    out_csv = emit(data, "csv")
    assert out_csv.startswith("key,value\n")
    assert '""' in out_csv  # embedded quote doubled
    lines = out_csv.strip().split("\n")[1:]
    assert lines == sorted(lines)
    # A dict inside a list renders with sorted keys, as the cache stores it.
    listed = {"checks": [{"name": "x", "expected": 1}]}
    for fmt in ("csv", "markdown"):
        assert emit(listed, fmt) == emit(json.loads(canonical_json(listed)), fmt)
    out_md = emit(data, "markdown")
    assert out_md.startswith("| key | value |")
    assert "\\|" in out_md
    with pytest.raises(ValueError):
        emit(data, "yaml")


def test_cache_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv("KRULL_ARITH_CACHE", raising=False)
    default = cache_dir()
    assert default.endswith(os.path.join(".cache", "krull-arith"))
    monkeypatch.setenv("KRULL_ARITH_CACHE", str(tmp_path / "env"))
    assert cache_dir() == str(tmp_path / "env")
    assert cache_dir(str(tmp_path / "opt")) == str(tmp_path / "opt")


def test_cache_round_trip(tmp_path):
    key = cache_key({"alphabet": [1, 2], "bound": frozenset((4,))})
    assert key == cache_key({"bound": {4}, "alphabet": [1, 2]})
    assert cache_get(str(tmp_path), key) is None
    text = cache_put(str(tmp_path), key, {"result": 7})
    assert text == canonical_json({"result": 7})
    assert cache_get(str(tmp_path), key) == ({"result": 7}, text)


def test_cache_corrupted_file(tmp_path):
    key = cache_key({"x": 1})
    path = tmp_path / (key + ".json")
    path.write_text("{not json")
    assert cache_get(str(tmp_path), key) is None
