"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro import local_cluster
from repro.cli import main
from repro.graph import barbell_graph, paper_figure1_graph, save_npz, write_edge_list


class TestGraphsCommand:
    def test_lists_all_proxies(self, capsys):
        assert main(["graphs"]) == 0
        out = capsys.readouterr().out
        for name in ("soc-LJ", "Yahoo", "3D-grid"):
            assert name in out


class TestGenerateCommand:
    def test_generate_rand_local_npz(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        assert main(["generate", "rand-local", str(out), "--n", "500"]) == 0
        assert out.exists()
        assert "wrote CSRGraph" in capsys.readouterr().out

    def test_generate_proxy_edge_list(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(
            ["generate", "proxy", str(out), "--name", "3D-grid", "--scale", "0.05"]
        ) == 0
        assert out.read_text().startswith("#")

    def test_generate_grid_adjacency(self, tmp_path):
        out = tmp_path / "g.adj"
        assert main(["generate", "3d-grid", str(out), "--n", "64"]) == 0
        assert out.read_text().startswith("AdjacencyGraph")


class TestClusterCommand:
    def test_cluster_on_graph_file(self, tmp_path, capsys):
        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        code = main(
            [
                "cluster",
                str(path),
                "--method",
                "pr-nibble",
                "--seed",
                "0",
                "--param",
                "eps=1e-4",
                "--param",
                "alpha=0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phi=" in out and "members:" in out

    def test_cluster_with_profile(self, tmp_path, capsys):
        path = tmp_path / "fig1.txt"
        write_edge_list(paper_figure1_graph(), path)
        assert main(["cluster", str(path), "--seed", "0", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "simT40=" in out and "speedup=" in out

    def test_cluster_default_seed_is_max_degree(self, tmp_path, capsys):
        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        assert main(["cluster", str(path)]) == 0
        assert "seed: 3" in capsys.readouterr().out  # vertex D has degree 4

    def test_unknown_graph_rejected(self):
        with pytest.raises(SystemExit):
            main(["cluster", "definitely-not-a-graph"])

    def test_bad_param_rejected(self, tmp_path):
        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        with pytest.raises(SystemExit):
            main(["cluster", str(path), "--param", "epsilon"])

    def test_bool_param_parsed_as_bool(self, tmp_path, capsys):
        # "--param optimized=false" must run the original rule, not read
        # the string "false" as true.
        graph = barbell_graph(8)
        path = tmp_path / "barbell.npz"
        save_npz(graph, path)
        args = ["cluster", str(path), "--seed", "0", "--param", "eps=1e-4"]
        assert main([*args, "--param", "optimized=false"]) == 0
        original = local_cluster(graph, 0, "pr-nibble", optimized=False, eps=1e-4)
        assert f"pushes={original.diffusion.pushes}\n" in capsys.readouterr().out

    def test_cluster_on_proxy(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        assert main(["cluster", "3D-grid", "--param", "eps=1e-4"]) == 0
        assert "cluster:" in capsys.readouterr().out


class TestNcpCommand:
    def test_ncp_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        out = tmp_path / "ncp.csv"
        code = main(
            [
                "ncp",
                "randLocal",
                str(out),
                "--seeds",
                "3",
                "--alpha",
                "0.05",
                "--eps",
                "1e-4",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "size,conductance"
        assert len(lines) > 1


class TestBatchCommand:
    def test_batch_csv_and_summary(self, tmp_path, capsys):
        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        out = tmp_path / "batch.csv"
        code = main(
            [
                "batch",
                str(path),
                str(out),
                "--seed",
                "0",
                "--seed",
                "5",
                "--grid",
                "alpha=0.1,0.01",
                "--param",
                "eps=1e-4",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "batch: 4 jobs" in printed
        assert "jobs/s" in printed and "best cluster:" in printed
        lines = out.read_text().splitlines()
        assert lines[0].startswith("job,method,seed,params")
        assert len(lines) == 5  # header + 2 seeds x 2 alphas
        assert "alpha=0.1;eps=0.0001" in lines[1]

    def test_batch_workers_match_serial(self, tmp_path, capsys, forced_pool):
        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        common = ["--seed", "0", "--seed", "5", "--param", "eps=1e-4"]
        assert main(["batch", str(path), str(serial), *common]) == 0
        assert "on CSRGraph(n=8, m=8) in-process" in capsys.readouterr().out
        assert main(["batch", str(path), str(pooled), *common, "--workers", "2"]) == 0
        assert "via 2 worker(s)" in capsys.readouterr().out

        def stable(text: str) -> list[list[str]]:
            # Drop the per-job seconds column — the only non-deterministic field.
            return [line.split(",")[:-1] for line in text.splitlines()]

        assert stable(serial.read_text()) == stable(pooled.read_text())

    def test_batch_too_short_for_a_pool_runs_in_process(
        self, tmp_path, capsys, pools_opened
    ):
        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        out = tmp_path / "batch.csv"
        args = ["batch", str(path), str(out), "--seed", "0", "--seed", "5",
                "--param", "eps=1e-4", "--workers", "2", "--stats"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert pools_opened == []
        assert "batch: 2 jobs" in printed and "in-process" in printed
        assert "via 2 worker(s)" not in printed
        assert "no pool dispatch (the batch ran in-process: too short to repay a pool)" in printed
        # A warm cache leaves nothing to dispatch at all.
        cache_dir = str(tmp_path / "cache")
        assert main([*args, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main([*args, "--cache-dir", cache_dir]) == 0
        assert "in-process: every job was a cache hit" in capsys.readouterr().out

    def test_batch_bad_grid_rejected(self, tmp_path):
        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        with pytest.raises(SystemExit):
            main(["batch", str(path), str(tmp_path / "o.csv"), "--grid", "alpha"])

    def test_batch_random_seeds_on_proxy(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        out = tmp_path / "batch.csv"
        code = main(
            ["batch", "3D-grid", str(out), "--num-seeds", "3", "--param", "eps=1e-4"]
        )
        assert code == 0
        assert "batch: 3 jobs" in capsys.readouterr().out


class TestNcpWorkers:
    def test_ncp_workers_identical_csv(self, tmp_path, monkeypatch, forced_pool):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        common = ["randLocal", "--seeds", "3", "--alpha", "0.05", "--eps", "1e-4"]
        assert main(["ncp", common[0], str(serial), *common[1:]]) == 0
        assert main(["ncp", common[0], str(pooled), *common[1:], "--workers", "2"]) == 0
        assert serial.read_text() == pooled.read_text()


class TestServeCommand:
    def _request_lines(self, *requests):
        import io
        import json

        return io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")

    def test_serve_answers_in_request_order(self, tmp_path, capsys, monkeypatch):
        import json

        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        monkeypatch.setattr(
            "sys.stdin",
            self._request_lines(
                {"id": "q1", "seeds": 0, "params": {"eps": 1e-4}},
                {"id": "q2", "seeds": [4], "priority": "bulk"},
                {"id": "q3", "seeds": 1},
            ),
        )
        assert main(["serve", str(path)]) == 0
        captured = capsys.readouterr()
        replies = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["id"] for r in replies] == ["q1", "q2", "q3"]
        assert all(r["size"] > 0 for r in replies)
        assert replies[0]["method"] == "pr-nibble"
        assert "serve: submitted=3" in captured.err

    def test_serve_reports_bad_requests_and_continues(self, tmp_path, capsys, monkeypatch):
        import json

        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                "this is not json\n"
                + json.dumps({"seeds": 9999}) + "\n"
                + json.dumps({"seeds": 0}) + "\n"
            ),
        )
        assert main(["serve", str(path)]) == 0
        replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        # Errors are structured objects naming the offending field, not
        # stringified tracebacks (shared codec with the socket transport).
        assert "not valid JSON" in replies[0]["error"]["message"]
        assert replies[0]["error"]["code"] == 400
        assert "out of range" in replies[1]["error"]["message"]
        assert replies[1]["error"]["field"] == "seeds"
        assert replies[2]["size"] > 0

    def test_serve_refuses_bad_numbers_with_400(self, tmp_path, capsys, monkeypatch):
        """A float integer parameter and a seed beyond int64 are the
        client's errors: both answer 400 naming the field, not 500."""
        import json

        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        monkeypatch.setattr(
            "sys.stdin",
            self._request_lines(
                {"id": "deg", "seeds": 2, "method": "hk-pr",
                 "params": {"taylor_degree": 20.0}},
                {"id": "big", "seeds": 10**23},
                {"id": "ok", "seeds": 0},
            ),
        )
        assert main(["serve", str(path)]) == 0
        replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["id"] for r in replies] == ["deg", "big", "ok"]
        assert replies[0]["error"]["code"] == 400
        assert replies[0]["error"]["field"] == "params.taylor_degree"
        assert replies[1]["error"]["code"] == 400
        assert replies[1]["error"]["field"] == "seeds"
        assert replies[2]["size"] > 0

    def test_serve_start_method_without_workers_rejected(self, tmp_path):
        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", str(path), "--start-method", "spawn"])

    def test_serve_with_cache_marks_replays(self, tmp_path, capsys, monkeypatch):
        import json

        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        monkeypatch.setattr(
            "sys.stdin",
            self._request_lines({"seeds": 0}, {"seeds": 0}),
        )
        assert main(["serve", str(path), "--cache"]) == 0
        replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["cached"] for r in replies] == [False, True]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "graphs"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert "soc-LJ" in result.stdout


class TestUpdateCommand:
    def _graph_path(self, tmp_path):
        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        return path

    def test_update_with_loose_edges_writes_new_version(self, tmp_path, capsys):
        path = self._graph_path(tmp_path)
        out = tmp_path / "v1.npz"
        assert main(
            ["update", str(path), str(out), "--insert", "0", "3", "--delete", "0", "1"]
        ) == 0
        assert out.exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("version 0: fingerprint ")
        assert lines[1].startswith("version 1: fingerprint ")
        assert "+1/-1 requested" in lines[1]
        assert "(delta-splice)" in lines[1] or "(rebuild)" in lines[1]
        assert lines[-1].startswith("wrote ")
        # The written graph is the updated one, loadable by other commands.
        assert main(["cluster", str(out), "--seed", "0", "--param", "eps=1e-4"]) == 0

    def test_update_file_batches_become_versions(self, tmp_path, capsys):
        path = self._graph_path(tmp_path)
        updates = tmp_path / "updates.txt"
        updates.write_text(
            "# warm-up batch\n"
            "+ 0 3\n"
            "- 0 1\n"
            "--\n"
            "+ 0 1\n"
        )
        out = tmp_path / "v2.npz"
        assert main(["update", str(path), str(out), "--updates", str(updates)]) == 0
        output = capsys.readouterr().out
        assert "version 1: fingerprint" in output
        assert "version 2: fingerprint" in output

    def test_update_without_edits_rejected(self, tmp_path):
        path = self._graph_path(tmp_path)
        with pytest.raises(SystemExit, match="nothing to apply"):
            main(["update", str(path), str(tmp_path / "out.npz")])

    def test_malformed_update_file_names_line(self, tmp_path):
        path = self._graph_path(tmp_path)
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 0 3\n* 1 2\n")
        with pytest.raises(SystemExit, match=r"updates\.txt:2: expected"):
            main(["update", str(path), str(tmp_path / "out.npz"), "--updates", str(updates)])

    def test_non_integer_vertices_name_line(self, tmp_path):
        path = self._graph_path(tmp_path)
        updates = tmp_path / "updates.txt"
        updates.write_text("+ a b\n")
        with pytest.raises(SystemExit, match=r"updates\.txt:1: vertex ids"):
            main(["update", str(path), str(tmp_path / "out.npz"), "--updates", str(updates)])


class TestVersionFlags:
    def _graph_and_updates(self, tmp_path):
        path = tmp_path / "fig1.npz"
        save_npz(paper_figure1_graph(), path)
        updates = tmp_path / "updates.txt"
        updates.write_text("- 0 1\n--\n+ 0 1\n")
        return path, updates

    def test_cluster_at_version_prints_chain_position(self, tmp_path, capsys):
        path, updates = self._graph_and_updates(tmp_path)
        assert main(
            [
                "cluster", str(path), "--seed", "0", "--param", "eps=1e-4",
                "--updates", str(updates), "--at-version", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "version 1/2: fingerprint " in out
        assert "phi=" in out

    def test_cluster_updates_default_to_latest_version(self, tmp_path, capsys):
        path, updates = self._graph_and_updates(tmp_path)
        assert main(
            [
                "cluster", str(path), "--seed", "0", "--param", "eps=1e-4",
                "--updates", str(updates),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "version 2/2: fingerprint " in out
        # v2 re-inserts the deleted edge: identical answer to the base graph.
        assert main(["cluster", str(path), "--seed", "0", "--param", "eps=1e-4"]) == 0
        base_out = capsys.readouterr().out
        phi = next(line for line in out.splitlines() if "phi=" in line)
        assert phi in base_out

    def test_missing_version_rejected(self, tmp_path):
        path, updates = self._graph_and_updates(tmp_path)
        with pytest.raises(SystemExit, match=r"--at-version 9 does not exist"):
            main(
                [
                    "cluster", str(path), "--seed", "0",
                    "--updates", str(updates), "--at-version", "9",
                ]
            )

    def test_serve_honours_wire_graph_version(self, tmp_path, capsys, monkeypatch):
        import io
        import json

        path, updates = self._graph_and_updates(tmp_path)
        requests = [
            {"id": "pinned", "seeds": 0, "graph_version": 1, "params": {"eps": 1e-4}},
            {"id": "latest", "seeds": 0, "params": {"eps": 1e-4}},
            {"id": "missing", "seeds": 0, "graph_version": 9},
        ]
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n"),
        )
        assert main(["serve", str(path), "--updates", str(updates)]) == 0
        replies = {
            r["id"]: r
            for r in map(json.loads, capsys.readouterr().out.splitlines())
        }
        # v1 deletes an edge at vertex 0; v2 restores it, so the pinned
        # reply must differ from the latest-version reply.
        assert replies["pinned"]["size"] > 0 and replies["latest"]["size"] > 0
        assert (
            replies["pinned"]["pushes"] != replies["latest"]["pushes"]
            or replies["pinned"]["size"] != replies["latest"]["size"]
        )
        assert replies["missing"]["error"]["code"] == 404
        assert replies["missing"]["error"]["field"] == "graph_version"
