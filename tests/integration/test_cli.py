"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table1" in out

    def test_list_mentions_trace_subcommand(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "trace <experiment> -o trace.json" in out
        assert "fig13" in out

    def test_single_figure(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "coarsening" in out
        assert "12000x11999" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Padding" in out and "speedup" in out

    def test_cpu(self, capsys):
        assert main(["cpu"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "GTX 980" in out and "Hawaii" in out

    def test_unknown_experiment_exits_with_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig99"])
        assert exc.value.code == 2

    def test_trace_exports_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(["trace", "fig13", "-o", str(path),
                     "--elements", "4096", "--check"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)
        procs = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "process_name"}
        assert procs == {"simulated", "vectorized"}
        threads = {e["args"]["name"] for e in doc["traceEvents"]
                   if e["name"] == "thread_name"}
        assert "host" in threads and "wg 0" in threads

    def test_trace_single_backend_jsonl(self, capsys, tmp_path):
        import json

        path = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        assert main(["trace", "fig08", "-o", str(path),
                     "--backend", "vectorized", "--mode", "spans",
                     "--elements", "4096", "--jsonl", str(jsonl),
                     "--check"]) == 0
        records = [json.loads(line)
                   for line in jsonl.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        assert sum(r["cat"] == "launch" for r in spans) == 1
        assert not any(r["cat"] == "phase" for r in spans)

    def test_trace_unknown_experiment_exits_with_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "fig99"])
        assert exc.value.code == 2

    @pytest.mark.slow
    def test_all(self, capsys):
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        for fid in ("fig2", "fig6", "fig12", "fig13", "fig16", "fig19"):
            assert f"== {fid}" in out
        assert "Table I" in out
