"""Tier-1 wrapper around the docs link/anchor checker (tools/check_docs.py).

CI has a dedicated docs job, but a stale anchor should fail the ordinary
test run too — documentation drift is a regression like any other.  The
negative cases keep the checker itself honest: a tool that never fails
would green-light anything.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
sys.modules["check_docs"] = check_docs
spec.loader.exec_module(check_docs)


class TestRepoDocs:
    def test_every_link_and_anchor_resolves(self, capsys):
        assert check_docs.main([]) == 0
        assert "docs OK" in capsys.readouterr().out

    def test_doc_set_includes_the_new_guides(self):
        files = {path.name for path in check_docs.gather_default_files()}
        assert {"README.md", "index.md", "architecture.md", "evolving.md",
                "serving.md"} <= files


class TestCheckerCatchesBreakage:
    def test_broken_file_link(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [missing](nope.md)\n")
        errors = check_docs.check_file(page)
        assert len(errors) == 1 and "broken link" in errors[0]

    def test_stale_anchor(self, tmp_path):
        target = tmp_path / "target.md"
        target.write_text("# Real Heading\n")
        page = tmp_path / "page.md"
        page.write_text("see [it](target.md#wrong-heading)\n")
        errors = check_docs.check_file(page)
        assert len(errors) == 1 and "stale anchor" in errors[0]

    def test_valid_anchor_and_same_file_fragment(self, tmp_path):
        target = tmp_path / "target.md"
        target.write_text("# One: Two `three`\n\n## One: Two `three`\n")
        page = tmp_path / "page.md"
        page.write_text(
            "[a](target.md#one-two-three) [b](target.md#one-two-three-1)\n"
            "# Local\n[c](#local)\n"
        )
        assert check_docs.check_file(page) == []

    def test_links_inside_code_fences_are_ignored(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```\n[not a link](nope.md)\n```\n")
        assert check_docs.check_file(page) == []

    def test_external_links_are_skipped(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("[site](https://example.invalid/never-fetched)\n")
        assert check_docs.check_file(page) == []


class TestSlugRules:
    def test_github_slugging(self):
        cases = {
            "Sessions: pool lifecycle split from batch streaming":
                "sessions-pool-lifecycle-split-from-batch-streaming",
            "The batch engine: jobs and reducers":
                "the-batch-engine-jobs-and-reducers",
            "Using `max_batch_cost`!": "using-max_batch_cost",
        }
        for heading, slug in cases.items():
            assert check_docs.github_slug(heading) == slug
