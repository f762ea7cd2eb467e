"""Tests for the AST invariant checker (repro.analysis) rule families.

Each rule gets minimal should-fail and should-pass fixture snippets,
written to a tmp tree and analyzed through the public entry point.  The
knob-threading/wire-schema/error-surface families additionally run
against *mutated copies of the real sources* — the acceptance bar is
that deliberately introducing each historical bug class (an unthreaded
``EngineOptions`` field, an un-torn-down ``SharedMemory``, a
``time.time()`` in ``core/pr_nibble.py``, a ``RequestError`` naming a
nonexistent field) makes the corresponding rule fail.  Finally, the
shipped tree itself must analyze clean — the same gate CI enforces.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, analyze

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def write(root: Path, relative: str, code: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return path


def rules_of(report) -> list[str]:
    return [finding.rule for finding in report.findings]


def copy_real_sources(root: Path) -> dict[str, Path]:
    """A fixture tree mirroring the real five-layer knob surface."""
    mapping = {
        "core/options.py": REPO_SRC / "repro/core/options.py",
        "engine/executor.py": REPO_SRC / "repro/engine/executor.py",
        "serve/service.py": REPO_SRC / "repro/serve/service.py",
        "cli.py": REPO_SRC / "repro/cli.py",
    }
    copies = {}
    for relative, source in mapping.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, target)
        copies[relative] = target
    return copies


class TestResourceLifecycle:
    def test_discarded_creation_flagged(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            from multiprocessing.shared_memory import SharedMemory

            def export(nbytes):
                SharedMemory(create=True, size=nbytes)
            """,
        )
        report = analyze([tmp_path])
        assert rules_of(report) == ["resource-lifecycle"]

    def test_local_without_teardown_flagged(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            def serve(context, jobs):
                pool = context.Pool(4)
                for job in jobs:
                    job()
                pool.terminate()  # straight-line close: leaks if a job raises
            """,
        )
        report = analyze([tmp_path])
        assert rules_of(report) == ["resource-lifecycle"]

    def test_try_finally_teardown_passes(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            def serve(context, jobs):
                pool = context.Pool(4)
                try:
                    for job in jobs:
                        job()
                finally:
                    pool.terminate()
            """,
        )
        assert analyze([tmp_path]).clean

    def test_with_block_passes(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            from multiprocessing.shared_memory import SharedMemory

            def export(nbytes):
                with SharedMemory(create=True, size=nbytes) as segment:
                    return segment.name
            """,
        )
        assert analyze([tmp_path]).clean

    def test_ownership_transfer_passes(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            import atexit
            from multiprocessing.shared_memory import SharedMemory

            def export(nbytes):
                segment = SharedMemory(create=True, size=nbytes)
                atexit.register(segment.unlink)
                return segment

            def attach(name):
                return SharedMemory(name=name)

            class Holder:
                def __init__(self, graph):
                    self._session = graph.open_session()
            """,
        )
        assert analyze([tmp_path]).clean

    def test_unclosed_session_flagged(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            def run(engine, jobs):
                session = engine.open_session()
                return list(session.run(jobs))
            """,
        )
        report = analyze([tmp_path])
        assert rules_of(report) == ["resource-lifecycle"]

    def test_suppression_comment_honoured(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            def run(engine, jobs):
                session = engine.open_session()  # repro: ignore[resource-lifecycle]
                return list(session.run(jobs))
            """,
        )
        report = analyze([tmp_path])
        assert report.clean
        assert report.suppressed == 1


class TestDeterminism:
    def test_wall_clock_in_core_flagged(self, tmp_path):
        write(
            tmp_path,
            "core/mod.py",
            """
            import time

            def diffuse(graph):
                started = time.time()
                return started
            """,
        )
        report = analyze([tmp_path])
        assert rules_of(report) == ["wall-clock"]

    def test_wall_clock_in_real_pr_nibble_flagged(self, tmp_path):
        """The acceptance-criteria mutation: time.time() in core/pr_nibble.py."""
        target = tmp_path / "core/pr_nibble.py"
        target.parent.mkdir(parents=True)
        original = (REPO_SRC / "repro/core/pr_nibble.py").read_text()
        mutated = original.replace(
            "def pr_nibble", "import time\n\n\ndef pr_nibble", 1
        )
        assert mutated != original
        lines = mutated.splitlines()
        for number, line in enumerate(lines):
            if line.startswith("import time"):
                lines.insert(number + 1, "_NOW = time.time()")
                break
        target.write_text("\n".join(lines))
        report = analyze([tmp_path])
        assert "wall-clock" in rules_of(report)

    def test_from_import_perf_counter_flagged(self, tmp_path):
        write(
            tmp_path,
            "prims/mod.py",
            """
            from time import perf_counter

            def scan(xs):
                return perf_counter()
            """,
        )
        assert rules_of(analyze([tmp_path])) == ["wall-clock"]

    def test_wall_clock_outside_hot_dirs_ignored(self, tmp_path):
        write(
            tmp_path,
            "bench/mod.py",
            """
            import time

            def probe():
                return time.perf_counter()
            """,
        )
        assert analyze([tmp_path]).clean

    def test_global_numpy_random_flagged(self, tmp_path):
        write(
            tmp_path,
            "core/mod.py",
            """
            import numpy as np

            def sample(n):
                return np.random.rand(n)
            """,
        )
        assert rules_of(analyze([tmp_path])) == ["global-random"]

    def test_global_random_module_flagged(self, tmp_path):
        write(
            tmp_path,
            "core/mod.py",
            """
            import random

            def pick(xs):
                random.shuffle(xs)
                return xs
            """,
        )
        assert rules_of(analyze([tmp_path])) == ["global-random"]

    def test_explicit_generator_passes(self, tmp_path):
        write(
            tmp_path,
            "core/mod.py",
            """
            import numpy as np

            def sample(n, seed):
                rng = np.random.default_rng(seed)
                return rng.random(n)
            """,
        )
        assert analyze([tmp_path]).clean

    def test_set_iteration_flagged(self, tmp_path):
        write(
            tmp_path,
            "core/mod.py",
            """
            def visit(frontier):
                out = []
                for vertex in set(frontier):
                    out.append(vertex)
                return [v for v in {1, 2, 3}] + out
            """,
        )
        assert rules_of(analyze([tmp_path])) == ["unordered-iter"] * 2

    def test_sorted_set_iteration_passes(self, tmp_path):
        write(
            tmp_path,
            "core/mod.py",
            """
            def visit(frontier):
                return [vertex for vertex in sorted(set(frontier))]
            """,
        )
        assert analyze([tmp_path]).clean


class TestFastMath:
    def test_forbidden_flag_flagged(self, tmp_path):
        write(
            tmp_path,
            "kernels/build.py",
            """
            CFLAGS = ["-O3", "-shared", "-fPIC", "-ffp-contract=off",
                      "-fno-fast-math", "-ffast-math"]
            """,
        )
        assert rules_of(analyze([tmp_path])) == ["fast-math"]

    def test_missing_determinism_pin_flagged(self, tmp_path):
        write(
            tmp_path,
            "kernels/build.py",
            """
            CFLAGS = ["-O3", "-shared", "-fPIC"]
            """,
        )
        assert rules_of(analyze([tmp_path])) == ["fast-math"] * 2

    def test_fast_math_in_command_string_flagged(self, tmp_path):
        write(
            tmp_path,
            "build.py",
            """
            import subprocess

            def build(cc, out):
                subprocess.run([cc, "-O3 -ffast-math", "-o", out])
            """,
        )
        assert rules_of(analyze([tmp_path])) == ["fast-math"]

    def test_real_cflags_pass(self, tmp_path):
        target = tmp_path / "kernels/_ckernels.py"
        target.parent.mkdir(parents=True)
        shutil.copyfile(REPO_SRC / "repro/kernels/_ckernels.py", target)
        report = analyze([tmp_path])
        assert report.clean


class TestKnobThreading:
    def add_engine_knob(self, options_path: Path) -> None:
        text = options_path.read_text()
        mutated = text.replace(
            '    graph_version: int | None = None\n\n    @classmethod',
            '    graph_version: int | None = None\n'
            '    new_knob: int | None = None\n'
            '\n    @classmethod',
            1,
        )
        assert mutated != text, "EngineOptions anchor moved; update the test"
        options_path.write_text(mutated)

    def knob_messages(self, report) -> list[str]:
        return [
            finding.message
            for finding in report.findings
            if finding.rule == "knob-threading"
        ]

    def test_clean_copies_pass(self, tmp_path):
        copy_real_sources(tmp_path)
        report = analyze([tmp_path])
        assert report.clean, report.render()

    def test_unthreaded_field_flagged_at_the_cli(self, tmp_path):
        # Every Python entry point takes the field through
        # EngineOptions.coerce; only the argparse flag set can miss it.
        copies = copy_real_sources(tmp_path)
        self.add_engine_knob(copies["core/options.py"])
        report = analyze([tmp_path])
        flagged = {
            (finding.path.split("/", 1)[-1], finding.rule)
            for finding in report.findings
        }
        assert flagged == {("cli.py", "knob-threading")}
        assert any("--new-knob" in message for message in self.knob_messages(report))

    def test_graph_version_cli_flag_removal_flagged(self, tmp_path):
        copies = copy_real_sources(tmp_path)
        cli = copies["cli.py"]
        text = cli.read_text()
        mutated = text.replace('"--at-version",', '"--was-at-version",', 1)
        assert mutated != text, "--at-version anchor moved; update the test"
        cli.write_text(mutated)
        messages = self.knob_messages(analyze([tmp_path]))
        assert any(
            "--graph-version or --at-version" in message for message in messages
        ), messages


class TestWireSchema:
    def test_request_field_missing_from_known_set_flagged(self, tmp_path):
        copies = copy_real_sources(tmp_path)
        options = copies["core/options.py"]
        text = options.read_text()
        mutated = text.replace(
            "    id: Any = None\n",
            "    id: Any = None\n    trace: str | None = None\n",
            1,
        )
        assert mutated != text
        options.write_text(mutated)
        report = analyze([tmp_path])
        wire = [f for f in report.findings if f.rule == "wire-schema"]
        assert wire, report.render()
        assert any("'trace'" in finding.message for finding in wire)


class TestErrorSurface:
    def copy_options(self, tmp_path: Path) -> None:
        target = tmp_path / "core/options.py"
        target.parent.mkdir(parents=True)
        shutil.copyfile(REPO_SRC / "repro/core/options.py", target)

    def test_nonexistent_field_flagged(self, tmp_path):
        self.copy_options(tmp_path)
        write(
            tmp_path,
            "serve/handlers.py",
            """
            from ..core.options import RequestError

            def reject(value):
                raise RequestError("bogus_field", f"bad value {value!r}")
            """,
        )
        report = analyze([tmp_path])
        assert rules_of(report) == ["error-surface"]
        assert "bogus_field" in report.findings[0].message

    def test_canonical_fields_pass(self, tmp_path):
        self.copy_options(tmp_path)
        write(
            tmp_path,
            "serve/handlers.py",
            """
            from ..core.options import RequestError

            def reject(name, value):
                if value is None:
                    raise RequestError(None, "payload must be an object")
                if name == "seeds":
                    raise RequestError("seeds", "seeds must be integers")
                if name == "alpha":
                    raise RequestError("params.alpha", "alpha out of range")
                raise RequestError(f"params.{name}", "unknown parameter")
            """,
        )
        assert analyze([tmp_path]).clean

    def test_keyword_field_argument_checked(self, tmp_path):
        self.copy_options(tmp_path)
        write(
            tmp_path,
            "serve/handlers.py",
            """
            from ..core.options import RequestError

            def reject():
                raise RequestError(field="not_a_field", message="nope")
            """,
        )
        assert rules_of(analyze([tmp_path])) == ["error-surface"]


class TestFramework:
    def test_syntax_error_becomes_finding(self, tmp_path):
        write(tmp_path, "mod.py", "def broken(:\n")
        report = analyze([tmp_path])
        assert rules_of(report) == ["syntax-error"]

    def test_missing_path_raises_analysis_error(self, tmp_path):
        from repro.analysis import AnalysisError

        with pytest.raises(AnalysisError):
            analyze([tmp_path / "nope"])

    def test_select_subset_of_rules(self, tmp_path):
        write(
            tmp_path,
            "core/mod.py",
            """
            import time

            def f(engine):
                session = engine.open_session()
                return time.time(), session
            """,
        )
        wall_only = [rule for rule in ALL_RULES if rule.id == "wall-clock"]
        report = analyze([tmp_path], wall_only)
        assert rules_of(report) == ["wall-clock"]

    def test_ignore_all_suppresses_any_rule(self, tmp_path):
        write(
            tmp_path,
            "core/mod.py",
            """
            import time

            def f():
                return time.time()  # repro: ignore[all]
            """,
        )
        report = analyze([tmp_path])
        assert report.clean
        assert report.suppressed == 1


class TestShippedTree:
    def test_repro_package_analyzes_clean(self):
        """The CI gate: the shipped tree has zero findings."""
        report = analyze([REPO_SRC])
        assert report.clean, report.render()
