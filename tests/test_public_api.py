"""The curated public API surface, kept in sync with docs/API.md.

Three contracts:

* every name in the curated ``__all__`` lists imports and resolves;
* every *public* module-level attribute of the curated packages is
  either in ``__all__`` or a submodule — nothing leaks in silently;
* every exported name appears in docs/API.md, so additions and
  removals must touch the docs in the same change.
"""

from __future__ import annotations

import re
import types
from pathlib import Path

import pytest

import repro
import repro.federation
import repro.logstore
import repro.sensor
import repro.service
import repro.sketch
import repro.telemetry

DOCS = Path(__file__).resolve().parent.parent / "docs" / "API.md"

CURATED = {
    "repro": repro,
    "repro.federation": repro.federation,
    "repro.logstore": repro.logstore,
    "repro.sensor": repro.sensor,
    "repro.service": repro.service,
    "repro.sketch": repro.sketch,
    "repro.telemetry": repro.telemetry,
}


def documented_tokens() -> set[str]:
    """Every identifier-ish token inside a backtick span in docs/API.md.

    Fenced ``` blocks are lifted out first — naive backtick pairing
    would go out of phase after each fence and invert the inline spans.
    """
    text = DOCS.read_text()
    tokens: set[str] = set()
    fence = re.compile(r"```.*?```", flags=re.S)
    for block in fence.findall(text):
        tokens.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", block))
    for code in re.findall(r"`([^`\n]+)`", fence.sub("", text)):
        # Split compound spans like `a, b / c{x,y}` into identifiers,
        # expanding one level of {alt1,alt2} brace groups.
        for expanded in _expand_braces(code):
            tokens.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", expanded))
    return tokens


def _expand_braces(code: str) -> list[str]:
    match = re.search(r"\{([^{}]*)\}", code)
    if not match:
        return [code]
    head, tail = code[: match.start()], code[match.end() :]
    out: list[str] = []
    for alt in match.group(1).split(","):
        out.extend(_expand_braces(head + alt + tail))
    return out


@pytest.mark.parametrize("name", sorted(CURATED))
def test_all_names_resolve(name):
    module = CURATED[name]
    for exported in module.__all__:
        assert hasattr(module, exported), f"{name}.__all__ lists {exported!r}"


@pytest.mark.parametrize("name", sorted(CURATED))
def test_all_has_no_duplicates(name):
    exported = CURATED[name].__all__
    assert len(exported) == len(set(exported))


@pytest.mark.parametrize("name", sorted(CURATED))
def test_no_unlisted_public_attributes(name):
    """Additions to the public surface must be deliberate (in __all__)."""
    module = CURATED[name]
    public = {
        attr
        for attr in vars(module)
        if not attr.startswith("_")
        and not isinstance(getattr(module, attr), types.ModuleType)
    }
    leaked = public - set(module.__all__)
    assert not leaked, f"public attributes of {name} missing from __all__: {sorted(leaked)}"


@pytest.mark.parametrize("name", sorted(CURATED))
def test_exports_are_documented(name):
    """Every export appears in docs/API.md (backticked)."""
    tokens = documented_tokens()
    undocumented = [
        exported
        for exported in CURATED[name].__all__
        if not exported.startswith("_") and exported not in tokens
    ]
    assert not undocumented, (
        f"exports of {name} not mentioned in docs/API.md: {undocumented}"
    )


def test_top_level_reexports_are_consistent():
    """Top-level convenience names are the same objects as the originals."""
    assert repro.SensorEngine is repro.sensor.SensorEngine
    assert repro.SensorConfig is repro.sensor.SensorConfig
    assert repro.SensedWindow is repro.sensor.SensedWindow
    assert repro.StageStats is repro.sensor.StageStats
    assert repro.MetricsRegistry is repro.telemetry.MetricsRegistry
    assert repro.write_metrics is repro.telemetry.write_metrics
    assert repro.span is repro.telemetry.span
