"""Tests for repro.analysis.doccheck — the executable docs contract.

Each test builds a miniature repo under tmp_path (README + Makefile +
CI workflow + docs/) and asserts the checker's findings, so the
contract is pinned independently of this repo's own markdown.  The
final test holds the real repo to that contract.
"""

import os
import subprocess
import sys
import textwrap

from repro.analysis.doccheck import (
    check_repo,
    ci_jobs,
    doc_paths,
    make_targets,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _mini_repo(root, readme=None, makefile=None, workflow=None, docs=None):
    """Lay out a minimal repo; every piece has a sane default."""
    if readme is None:
        readme = textwrap.dedent(
            """\
            # Mini

            See [the architecture](docs/ARCH.md). Run `make test`.

            | job | what |
            | --- | --- |
            | `tier1` | the tests |
            """
        )
    if makefile is None:
        makefile = "test:\n\ttrue\n"
    if workflow is None:
        workflow = "name: ci\njobs:\n  tier1:\n    runs-on: ubuntu-latest\n"
    (root / "README.md").write_text(readme)
    (root / "Makefile").write_text(makefile)
    wf_dir = root / ".github" / "workflows"
    wf_dir.mkdir(parents=True)
    (wf_dir / "ci.yml").write_text(workflow)
    docs_dir = root / "docs"
    docs_dir.mkdir()
    for name, text in (docs or {"ARCH.md": "# Arch\n"}).items():
        (docs_dir / name).write_text(text)


class TestDocPaths:
    def test_owned_set_is_root_docs_plus_docs_tree(self, tmp_path):
        _mini_repo(tmp_path, docs={"ARCH.md": "# A\n", "OPS.md": "# O\n"})
        (tmp_path / "ROADMAP.md").write_text("# Roadmap\n")
        (tmp_path / "SNIPPETS.md").write_text("# not owned\n")
        paths = doc_paths(str(tmp_path))
        assert paths == [
            "README.md",
            "ROADMAP.md",
            "docs/ARCH.md",
            "docs/OPS.md",
        ]


class TestFindings:
    def test_clean_mini_repo(self, tmp_path):
        _mini_repo(tmp_path)
        assert check_repo(str(tmp_path)) == []

    def test_broken_relative_link_is_flagged(self, tmp_path):
        _mini_repo(tmp_path)
        (tmp_path / "docs" / "ARCH.md").write_text(
            "# Arch\n\nSee [ops](OPERATIONS.md) and [up](../README.md).\n"
        )
        findings = check_repo(str(tmp_path))
        assert findings == ["docs/ARCH.md: broken link target `OPERATIONS.md`"]

    def test_external_and_anchor_links_are_skipped(self, tmp_path):
        _mini_repo(tmp_path)
        (tmp_path / "docs" / "ARCH.md").write_text(
            "[a](https://example.com/x.md) [b](#local-anchor) "
            "[c](ARCH.md#section)\n"
        )
        assert check_repo(str(tmp_path)) == []

    def test_unknown_make_target_mention_is_flagged(self, tmp_path):
        _mini_repo(tmp_path)
        (tmp_path / "docs" / "ARCH.md").write_text(
            "# Arch\n\nRun `make bench-gaet` to gate.\n"
        )
        findings = check_repo(str(tmp_path))
        assert findings == [
            "docs/ARCH.md: `make bench-gaet` is mentioned but the "
            "Makefile defines no such target"
        ]

    def test_make_mentions_in_prose_are_not_commands(self, tmp_path):
        # Outside inline code / fenced blocks, "make sure" is prose, not
        # a target mention.
        _mini_repo(tmp_path)
        (tmp_path / "docs" / "ARCH.md").write_text(
            "# Arch\n\nAlways make sure the clock is simulated.\n"
        )
        assert check_repo(str(tmp_path)) == []

    def test_fenced_block_commands_are_checked(self, tmp_path):
        _mini_repo(tmp_path)
        (tmp_path / "docs" / "ARCH.md").write_text(
            "# Arch\n\n```bash\nmake nosuch\n```\n"
        )
        findings = check_repo(str(tmp_path))
        assert len(findings) == 1 and "make nosuch" in findings[0]

    def test_undocumented_ci_job_is_flagged(self, tmp_path):
        _mini_repo(
            tmp_path,
            workflow=(
                "name: ci\njobs:\n"
                "  tier1:\n    runs-on: ubuntu-latest\n"
                "  stealth:\n    runs-on: ubuntu-latest\n"
            ),
        )
        findings = check_repo(str(tmp_path))
        assert findings == [
            "README.md: CI job `stealth` is defined in "
            ".github/workflows/ci.yml but never documented"
        ]

    def test_stale_ci_table_row_is_flagged(self, tmp_path):
        _mini_repo(
            tmp_path,
            readme=textwrap.dedent(
                """\
                # Mini

                | job | what |
                | --- | --- |
                | `tier1` | the tests |
                | `ghost` | removed long ago |
                """
            ),
        )
        findings = check_repo(str(tmp_path))
        assert findings == [
            "README.md: table row documents CI job `ghost` but "
            ".github/workflows/ci.yml defines no such job"
        ]


class TestParsers:
    def test_make_targets_skip_dot_and_assignments(self, tmp_path):
        (tmp_path / "Makefile").write_text(
            ".PHONY: a b\nVAR := x\na:\n\ttrue\nb-c.d:\n\ttrue\n"
        )
        assert make_targets(str(tmp_path)) == {"a", "b-c.d"}

    def test_ci_jobs_stop_at_next_top_level_key(self, tmp_path):
        wf_dir = tmp_path / ".github" / "workflows"
        wf_dir.mkdir(parents=True)
        (wf_dir / "ci.yml").write_text(
            "name: ci\njobs:\n  one:\n    steps: []\n  two:\n"
            "    steps: []\nenv:\n  notajob:\n"
        )
        assert ci_jobs(str(tmp_path)) == {"one", "two"}


class TestRealRepo:
    def test_this_repo_is_clean(self):
        assert check_repo(REPO_ROOT) == []

    def test_cli_exit_codes(self, tmp_path):
        _mini_repo(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        ok = subprocess.run(
            [sys.executable, "-m", "repro.analysis.doccheck"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert ok.returncode == 0
        assert "clean" in ok.stdout
        (tmp_path / "README.md").write_text("[x](missing.md)\n")
        bad = subprocess.run(
            [sys.executable, "-m", "repro.analysis.doccheck"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert bad.returncode == 1
        assert "broken link target" in bad.stdout
