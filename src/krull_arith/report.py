"""Deterministic report serialization (json / csv / markdown) and the
content-addressed result cache."""

from __future__ import annotations

import hashlib
import json
import os

# The layout of the invariants report.  It is part of the cache key, with the
# package version, so a report cached by code with another layout is not
# served; raise it whenever the report's fields or their meaning change.
REPORT_SCHEMA = 2


def canonical_json(data):
    return json.dumps(data, sort_keys=True, indent=2, default=_default) + "\n"


def _default(value):
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, set):
        return sorted(value)
    raise TypeError("not JSON serializable: %r" % (value,))


def _flatten(data, prefix=""):
    rows = []
    if isinstance(data, dict):
        for key in sorted(data, key=str):
            rows.extend(_flatten(data[key], "%s%s." % (prefix, key)))
    else:
        rows.append((prefix.rstrip("."), json.dumps(data, sort_keys=True, default=_default)))
    return rows


def emit(data, fmt):
    """Render a report dict in the requested format, deterministically."""
    if fmt == "json":
        return canonical_json(data)
    rows = _flatten(data)
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in rows:
            lines.append('%s,"%s"' % (key, value.replace('"', '""')))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| key | value |", "| --- | --- |"]
        for key, value in rows:
            lines.append("| %s | %s |" % (key, value.replace("|", "\\|")))
        return "\n".join(lines) + "\n"
    raise ValueError("unknown format %r" % fmt)


def cache_dir(option=None):
    if option:
        return option
    env = os.environ.get("KRULL_ARITH_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "krull-arith")


def cache_key(payload):
    blob = json.dumps(payload, sort_keys=True, default=_default).encode()
    return hashlib.sha256(blob).hexdigest()


def cache_get(directory, key):
    """(report, its text) from the file of ``key``; None if unreadable or not JSON."""
    path = os.path.join(directory, key + ".json")
    try:
        with open(path) as fh:
            text = fh.read()
        return json.loads(text), text
    except (OSError, ValueError):
        return None


def cache_put(directory, key, data):
    """Write the canonical JSON of ``data`` under ``key``, and return that text."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    tmp = path + ".tmp"
    text = canonical_json(data)
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return text
