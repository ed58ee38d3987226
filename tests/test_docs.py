"""Docs stay wired to the code: link check + registry coverage.

Three guarantees, all cheap enough for tier-1:

* every relative markdown link in README.md and docs/*.md resolves to a
  real file (broken cross-references fail the suite, and therefore CI);
* every component name registered in :data:`repro.registry.REGISTRY`
  appears in ``docs/api-reference.md``, so the API reference cannot
  silently fall behind ``python -m repro list``;
* the ``REPRO_*`` environment switches the docs name are exactly the ones
  the code reads (:data:`repro.evaluation.fan_out.ENV_OVERRIDE_VARS`),
  so a switch cannot outlive its code in the docs.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

#: Markdown inline links: [text](target).  Images share the syntax.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Environment switch names, e.g. ``REPRO_PIPELINE_ENGINE``.
_ENV_VAR_RE = re.compile(r"\bREPRO_[A-Z0-9_]+\b")


def _markdown_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files += sorted(DOCS_DIR.glob("*.md"))
    return files


def _strip_code_blocks(text: str) -> str:
    """Drop fenced code blocks so shell snippets cannot fake or hide links."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def test_docs_directory_exists_with_required_guides():
    assert (DOCS_DIR / "architecture.md").is_file()
    assert (DOCS_DIR / "serving-tutorial.md").is_file()
    assert (DOCS_DIR / "api-reference.md").is_file()


@pytest.mark.parametrize("path", _markdown_files(), ids=lambda p: p.name)
def test_relative_links_resolve(path: Path):
    text = _strip_code_blocks(path.read_text())
    broken = []
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]  # in-page anchors check the file only
        if not target:
            continue  # pure-anchor link within the same page
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.name} has broken relative links: {broken}"


@pytest.fixture(scope="module")
def registry_listing() -> dict[str, list[str]]:
    """``python -m repro list --format json`` from a fresh interpreter.

    A subprocess (not the in-process REGISTRY) pins the check to the
    *built-in* components: other tests register throwaway plug-ins into the
    process-wide registry, and those must not be demanded of the docs.
    """
    import json
    import subprocess
    import sys

    output = subprocess.run(
        [sys.executable, "-m", "repro", "list", "--format", "json"],
        check=True,
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**__import__("os").environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    ).stdout
    return json.loads(output)


def test_api_reference_covers_every_registered_component(registry_listing):
    reference = (DOCS_DIR / "api-reference.md").read_text()
    missing = [
        f"{kind}/{name}"
        for kind, names in registry_listing.items()
        for name in names
        if f"`{name}`" not in reference
    ]
    assert not missing, (
        "docs/api-reference.md is missing registered components "
        f"(update the tables): {missing}"
    )


def test_architecture_guide_matches_registry_kinds(registry_listing):
    """The registry table in the architecture guide names every kind."""
    guide = (DOCS_DIR / "architecture.md").read_text()
    for kind in registry_listing:
        assert f"`{kind}`" in guide, f"architecture.md registry table lacks kind {kind}"


def test_documented_env_switches_match_the_code():
    from repro.evaluation.fan_out import ENV_OVERRIDE_VARS

    documented = {
        name for path in _markdown_files() for name in _ENV_VAR_RE.findall(path.read_text())
    }
    assert documented == set(ENV_OVERRIDE_VARS)
