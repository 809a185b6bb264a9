"""Tests for the command-line interface."""

import contextlib
import signal

import pytest

from repro.cli import build_parser, main

SMALL = ["--model", "moe-gpt", "--experts", "16", "--machines", "2",
         "--batch-size", "8"]


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise ``TimeoutError`` in the block after ``seconds``, so a command
    that never returns fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def parse_error_line(err: str, command: str) -> str:
    """The one ``error:`` line argparse prints after its usage lines."""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [err.splitlines()[-1]], err
    assert errors[0].startswith(f"repro {command}: error: argument ")
    return errors[0]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.model == "moe-gpt"
        assert args.experts == 32
        assert args.machines == 4

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--model", "moe-llama"])

    def test_simulate_paradigm_choices(self):
        args = build_parser().parse_args(
            ["simulate", "--paradigm", "expert-centric"]
        )
        assert args.paradigm == "expert-centric"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--paradigm", "magic"])

    def test_simulate_accepts_registered_strategies(self):
        """The --paradigm choices come from the strategy registry."""
        args = build_parser().parse_args(
            ["simulate", "--paradigm", "pipelined-ec"]
        )
        assert args.paradigm == "pipelined-ec"

    def test_simulate_chunks_flag(self):
        args = build_parser().parse_args(["simulate", "--chunks", "8"])
        assert args.chunks == 8
        assert build_parser().parse_args(["simulate"]).chunks is None

    def test_simulate_chunks_must_be_positive(self):
        for bad in ("0", "-4", "abc"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["simulate", "--chunks", bad])

    def test_simulate_chunks_auto(self):
        args = build_parser().parse_args(["simulate", "--chunks", "auto"])
        assert args.chunks == "auto"

    def test_simulate_stagger_choices(self):
        args = build_parser().parse_args(
            ["simulate", "--stagger-a2a", "chain"]
        )
        assert args.stagger_a2a == "chain"
        assert build_parser().parse_args(["simulate"]).stagger_a2a is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--stagger-a2a", "fifo"])


class TestCommands:
    def test_plan_prints_r_and_memory(self, capsys):
        assert main(["plan", "--model", "moe-gpt"]) == 0
        out = capsys.readouterr().out
        assert "5.33" in out
        assert "data-centric" in out
        assert "memory" in out

    def test_plan_with_overrides(self, capsys):
        assert main([
            "plan", "--model", "moe-bert", "--batch-size", "64",
            "--seq-len", "256", "--top-k", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "B=64 S=256 k=4" in out

    def test_plan_on_one_machine_is_one_line(self, capsys):
        """The per-block analysis prices cross-node traffic, which one
        machine does not have: a rejected shape, not a traceback."""
        assert main(["plan", "--machines", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid shape: ")
        assert len(captured.err.splitlines()) == 1, captured.err

    def test_plan_pr_moe_mixes_paradigms(self, capsys):
        assert main(["plan", "--model", "pr-moe", "--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert "data-centric" in out

    def test_table1_matches_paper_numbers(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "9.00" in out      # E.C. BERT/Txl at 32 experts
        assert "1.69" in out      # D.C. BERT at 32 experts
        assert "16.0x" in out     # the headline reduction

    def test_goodput_reports_gap(self, capsys):
        assert main(["goodput", "--machines", "2", "--payload", "1e6"]) == 0
        out = capsys.readouterr().out
        assert "intra-machine" in out
        assert "gap:" in out

    def test_simulate_small_cluster(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "expert-centric",
        ]) == 0
        out = capsys.readouterr().out
        assert "ms per training iteration" in out
        assert "All-to-All" in out

    def test_simulate_reports_strategy_per_block(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "unified",
        ]) == 0
        out = capsys.readouterr().out
        assert "strategy per block" in out

    def test_simulate_pipelined_ec_with_chunks(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "pipelined-ec",
            "--chunks", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "pipelined-ec" in out
        assert "ms per training iteration" in out

    def test_simulate_chunks_auto_tunes(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "pipelined-ec",
            "--chunks", "auto",
        ]) == 0
        assert "ms per training iteration" in capsys.readouterr().out

    def test_fixed_chunks_conflict_with_chunk_adaptive_control(self, capsys):
        # ``--chunks`` is the one chunk switch: --control has no chunk flag.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "simulate", "--model", "moe-gpt", "--machines", "2",
                "--batch-size", "32", "--paradigm", "pipelined-ec",
                "--chunks", "4", "--control", "adaptive;chunks=on",
            ])
        assert excinfo.value.code == 2
        assert "unknown control field" in capsys.readouterr().err

    def test_auto_chunks_compose_with_chunk_adaptive_control(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "pipelined-ec",
            "--chunks", "auto", "--control", "adaptive",
            "--iterations", "2",
        ]) == 0
        assert "control:" in capsys.readouterr().out

    def test_simulate_stagger_a2a_runs(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "microbatch-ec",
            "--stagger-a2a", "chain",
        ]) == 0
        assert "ms per training iteration" in capsys.readouterr().out

    def test_simulate_inference_flag(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--inference",
        ]) == 0
        assert "inference pass" in capsys.readouterr().out

    def test_simulate_oom_exits_nonzero(self, capsys):
        code = main([
            "simulate", "--model", "moe-bert", "--seq-len", "512",
            "--top-k", "4", "--paradigm", "expert-centric",
        ])
        assert code == 1
        assert "out of memory" in capsys.readouterr().err


class TestObservabilityCommands:
    SMALL = ["--model", "moe-gpt", "--experts", "16", "--machines", "2",
             "--batch-size", "8"]

    def test_simulate_writes_report_and_trace(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.json"
        assert main([
            "simulate", *self.SMALL,
            "--metrics-out", str(report_path),
            "--trace-out", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "run report written" in out
        assert "Chrome trace written" in out
        report = json.loads(report_path.read_text())
        assert report["schema"] == "janus-repro/run-report/v1"
        assert len(report["iterations"]) == 1
        assert report["run"]["model"] == "MoE-GPT"
        assert "metrics" in report
        trace = json.loads(trace_path.read_text())
        assert {"X", "M"} <= {e["ph"] for e in trace["traceEvents"]}

    def simulate_report(self, path, *flags):
        """Write a run report with ``simulate --metrics-out``."""
        assert main([
            "simulate", *self.SMALL, *flags, "--metrics-out", str(path),
        ]) == 0

    def test_report_chunks_auto_prints_the_tuning_table(self, tmp_path,
                                                        capsys):
        import json

        out_path = tmp_path / "report.json"
        self.simulate_report(out_path, "--paradigm", "pipelined-ec",
                             "--chunks", "auto", "--iterations", "2")
        capsys.readouterr()
        assert main(["report", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "chunk autotuner (2 retune(s)" in out
        assert "Pred ms/chunk" in out
        assert "Meas ms/chunk" in out
        report = json.loads(out_path.read_text())
        assert report["chunk_tuning"]["retunes"] == 2
        assert report["chunk_tuning"]["blocks"]

    def test_report_without_tuning_prints_no_table(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        self.simulate_report(out_path, "--paradigm", "pipelined-ec")
        assert main(["report", str(out_path)]) == 0
        assert "chunk autotuner" not in capsys.readouterr().out

    def test_simulate_without_export_flags_writes_nothing(self, tmp_path,
                                                          capsys):
        assert main(["simulate", *self.SMALL]) == 0
        assert "written" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_report_command_writes_multi_iteration_report(self, tmp_path,
                                                          capsys):
        import json

        out_path = tmp_path / "run.json"
        self.simulate_report(out_path, "--iterations", "2")
        capsys.readouterr()
        assert main(["report", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Iter" in out  # summary table header
        assert "(2 machines, 2 iterations)" in out
        assert "task-graph breakdown" in out
        assert "expert-compute" in out
        report = json.loads(out_path.read_text())
        assert len(report["iterations"]) == 2
        assert report["run"]["iterations"] == 2
        assert report["tasks"]["expert-compute"]["count"] > 0

    def test_report_command_stdout_mode(self, tmp_path, capsys):
        """``--metrics-out -`` prints the report JSON first; saved, it
        renders like a written file."""
        import json

        self.simulate_report("-", "--iterations", "1")
        out = capsys.readouterr().out
        assert '"schema"' in out
        document, _ = json.JSONDecoder().raw_decode(out)
        out_path = tmp_path / "report.json"
        out_path.write_text(json.dumps(document))
        assert main(["report", str(out_path)]) == 0
        assert "(2 machines, 1 iterations)" in capsys.readouterr().out

    def test_report_command_trace_out(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        self.simulate_report(tmp_path / "r.json", "--iterations", "1",
                             "--trace-out", str(trace_path))
        assert main(["report", str(tmp_path / "r.json")]) == 0
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    @pytest.mark.parametrize("name,text", [
        ("missing", None),
        ("not-json", "MoE-GPT / unified: 1.0 ms\n"),
        ("wrong-schema", '{"schema": "janus-repro/serve-report/v1"}'),
    ])
    def test_report_refuses_a_bad_file(self, tmp_path, capsys, name, text):
        path = tmp_path / f"{name}.json"
        if text is not None:
            path.write_text(text)
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1, captured.err
        assert str(path) in captured.err


class TestGraphCommand:
    SMALL = ["--model", "moe-gpt", "--experts", "16", "--machines", "2",
             "--batch-size", "8"]

    def test_graph_validates_and_summarizes(self, capsys):
        assert main(["graph", *self.SMALL, "--paradigm", "auto"]) == 0
        out = capsys.readouterr().out
        assert "task graph OK" in out
        assert "expert-compute" in out

    def test_graph_json_to_stdout_is_pipe_clean(self, capsys):
        import json

        assert main([
            "graph", *self.SMALL, "--paradigm", "microbatch-ec", "--json", "-",
        ]) == 0
        captured = capsys.readouterr()
        # The export owns stdout; the human summary moves to stderr.
        exported = json.loads(captured.out)
        assert exported["num_tasks"] > 0
        assert "task graph OK" in captured.err

    def test_graph_dot_to_file_keeps_summary_on_stdout(self, tmp_path,
                                                       capsys):
        dot_path = tmp_path / "iter.dot"
        assert main([
            "graph", *self.SMALL, "--dot", str(dot_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "task graph OK" in out
        assert f"written to {dot_path}" in out
        assert dot_path.read_text().startswith("digraph taskgraph")


class TestServeCommand:
    TINY = "poisson;rate=500;requests=80;seed=3;prompt_mean=16;output_mean=8"
    SMALL = ["--model", "moe-gpt", "--experts", "16", "--machines", "2",
             "--batch-size", "8"]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.topology == "both"
        assert args.max_batch == 64
        assert args.prefill_batch == 8
        assert args.pin_fraction == 0.25
        # The default trace string is parsed into a TraceSpec by argparse.
        assert args.trace.kind == "poisson"
        assert args.trace.rate == 2000.0
        assert args.trace.requests == 10000

    def test_serve_rejects_malformed_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--trace", "warp;rate=1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--trace", "poisson;rate=-5"])

    def test_serve_topology_and_paradigm_choices(self):
        args = build_parser().parse_args(
            ["serve", "--topology", "unified",
             "--decode-paradigm", "expert-centric"]
        )
        assert args.topology == "unified"
        assert args.decode_paradigm == "expert-centric"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--topology", "sharded"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--decode-paradigm", "magic"])

    def test_serve_runs_both_topologies(self, capsys):
        assert main(["serve", *self.SMALL, "--trace", self.TINY]) == 0
        out = capsys.readouterr().out
        assert "80 requests" in out
        assert "unified" in out and "disaggregated" in out

    def test_serve_report_to_stdout(self, capsys):
        import json

        assert main([
            "serve", *self.SMALL, "--trace", self.TINY,
            "--topology", "unified", "--out", "-",
        ]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["schema"] == "janus-repro/serve-report/v1"
        assert set(report["topologies"]) == {"unified"}
        assert report["run"]["trace"]["requests"] == 80

    def test_serve_writes_report_and_trace_files(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "serve.json"
        trace_path = tmp_path / "trace.json"
        assert main([
            "serve", *self.SMALL, "--trace", self.TINY,
            "--out", str(report_path), "--trace-out", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "serving report written" in out
        assert "Chrome trace written" in out
        report = json.loads(report_path.read_text())
        assert set(report["topologies"]) == {"unified", "disaggregated"}
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    def test_serve_report_carries_the_serving_breakdown(self, tmp_path):
        import json

        report_path = tmp_path / "serve.json"
        assert main([
            "serve", *self.SMALL, "--trace", self.TINY,
            "--out", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        # The breakdown of the last simulated topology's registry.
        assert report["serving"]["requests"]["completed"] == 80

    def test_serve_invalid_split_exits_2(self, capsys):
        # Two machines, two prefillers: no decoder left.
        assert main([
            "serve", *self.SMALL, "--trace", self.TINY,
            "--topology", "disaggregated", "--prefillers", "2",
        ]) == 2
        assert "invalid serving config" in capsys.readouterr().err

    def test_serve_without_decode_steps_exits_0(self, tmp_path, capsys):
        # Every output is one token: no request decodes, so there is no
        # TPOT to report.
        import json

        report_path = tmp_path / "serve.json"
        assert main([
            "serve", "--machines", "2", "--trace",
            "poisson;rate=100;requests=20;seed=3;output_mean=1;prompt_mean=16",
            "--out", str(report_path),
        ]) == 0
        assert "n/a" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        for entry in report["topologies"].values():
            assert entry["tpot_p50_ms"] is None
            assert entry["tpot_p99_ms"] is None


BAD_SHAPES = {
    "no-machines": ["--machines", "0"],
    "uneven-experts": ["--experts", "7", "--machines", "2"],
    "no-batch": ["--batch-size", "0"],
    "no-top-k": ["--top-k", "0"],
}


class TestInvalidInput:
    """A rejected value exits 2 with one line on stderr, never with a
    traceback, a hang or a nan in the output."""

    # Serving runs any expert count; the training engines need every
    # GPU to hold the same number of experts.
    @pytest.mark.parametrize("command,shape", [
        (command, shape)
        for command in ("plan", "simulate", "graph", "chaos", "serve")
        for shape in BAD_SHAPES
        if (command, shape) != ("serve", "uneven-experts")
    ])
    def test_rejected_shape_is_one_line(self, command, shape, capsys):
        assert main([command, *BAD_SHAPES[shape]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid shape: ")
        assert len(err.splitlines()) == 1, err

    def test_serve_runs_an_uneven_expert_count(self, capsys):
        assert main([
            "serve", "--experts", "7", "--machines", "2",
            "--topology", "unified", "--trace", TestServeCommand.TINY,
        ]) == 0

    # Spec flags: ``nan``/``inf`` parse as floats, and a ``<= 0`` check
    # lets NaN through.  Accepted, ``rate=nan`` or ``rate=inf`` never
    # returns (the thinning loop accepts no arrival), ``skew=nan`` fails in
    # numpy and ``deviation=nan`` never switches.
    NON_FINITE = {
        "--trace": ("serve", "poisson;rate={};requests=50;seed=7"),
        "--drift": ("simulate", "flip;skew={}"),
        "--control": ("simulate", "adaptive;deviation={}"),
    }

    @pytest.mark.parametrize("flag", sorted(NON_FINITE))
    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
    def test_non_finite_spec_value_exits_2(self, flag, literal, capsys):
        command, template = self.NON_FINITE[flag]
        with deadline(30), pytest.raises(SystemExit) as excinfo:
            main([command, *SMALL, flag, template.format(literal)])
        assert excinfo.value.code == 2
        line = parse_error_line(capsys.readouterr().err, command)
        assert flag in line and repr(literal) in line

    @pytest.mark.parametrize("command,flag,value", [
        ("chaos", "--paradigms", "expert-centric,bogus"),
        ("chaos", "--rates", "0,1.5"),
        ("chaos", "--rates", "0,nan"),
        ("chaos", "--rates", "0,lots"),
        ("goodput", "--payload", "0"),
        ("goodput", "--payload", "nan"),
        ("goodput", "--machines", "0"),
        ("simulate", "--faults", "link=nic.abc*0.5"),
        ("simulate", "--faults", "link=bogus*0.5"),
    ])
    def test_rejected_flag_exits_2_at_parse_time(self, command, flag, value,
                                                 capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, value])
        assert excinfo.value.code == 2
        assert flag in parse_error_line(capsys.readouterr().err, command)

    def test_unknown_control_strategy_exits_2_at_parse_time(self, capsys):
        """``--control`` names no strategy: the load arm's target is a
        constant, so ``load_strategy`` is an unknown field, rejected when
        the flag is parsed."""
        with pytest.raises(SystemExit) as excinfo:
            main([
                "simulate", "--machines", "2", "--experts", "32",
                "--batch-size", "64", "--paradigm", "auto",
                "--iterations", "4",
                "--drift", "flip;skew=1.5;period=2;seed=7",
                "--control", "adaptive;deviation=0.1;load_strategy=bogus",
            ])
        assert excinfo.value.code == 2
        line = parse_error_line(capsys.readouterr().err, "simulate")
        assert "--control" in line and "load_strategy" in line
        assert "unknown control field 'load_strategy'" in line

    def test_retired_control_field_exits_2_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", *SMALL, "--control", "adaptive;patience=2"])
        assert excinfo.value.code == 2
        line = parse_error_line(capsys.readouterr().err, "simulate")
        assert "unknown control field 'patience'" in line

    def test_serve_rejects_a_nan_slo(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve", *SMALL, "--trace", TestServeCommand.TINY,
                "--ttft-slo", "nan",
            ])
        assert excinfo.value.code == 2
        assert parse_error_line(capsys.readouterr().err, "serve") == (
            "repro serve: error: argument --ttft-slo: must be positive and "
            "finite, got 'nan'"
        )

    @pytest.mark.parametrize("faults", ["outage=99", "slow=99*0.5"])
    def test_a_fault_on_a_missing_machine_is_one_line(self, faults, capsys):
        assert main(["simulate", *SMALL, "--faults", faults]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "machine=99" in captured.err
        assert len(captured.err.splitlines()) == 1, captured.err

    def test_inference_with_iterations_is_one_line(self, capsys):
        assert main(["simulate", "--inference", "--iterations", "2"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
