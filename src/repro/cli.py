"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``plan``     — per-block R analysis, paradigm choice and memory estimate
  for a model on a cluster shape (the pre-flight check Janus runs before
  training, §5.1.3).
* ``simulate`` — run timed iterations of a model under a chosen paradigm
  and print time/traffic (``--faults SPEC`` injects a seeded fault plan;
  ``--drift SPEC`` shifts expert popularity between iterations;
  ``--control SPEC`` turns on the adaptive control plane;
  ``--metrics-out``/``--trace-out`` export the run report and Chrome
  trace).
* ``report``   — run several iterations with full metrics and write the
  machine-readable run report (and optionally a Perfetto-loadable trace).
* ``serve``    — request-level inference serving: replay a seeded
  open-loop arrival trace through continuous-batching workers (unified
  or disaggregated prefill/decode pools) and report TTFT/TPOT
  percentiles, goodput and SLO attainment.
* ``chaos``    — sweep pull-loss rates across paradigms and report
  iteration time, retries and stale fallbacks (graceful degradation).
* ``graph``    — build, validate and export the iteration's task graph
  (Graphviz DOT / structural JSON) without running it.
* ``table1``   — regenerate the paper's Table 1 traffic comparison.
* ``goodput``  — the §3.1 All-to-All goodput stress test.

Model names: moe-bert, moe-gpt, moe-transformer-xl, pr-moe (see
``repro.config``).

Every command rejects a bad value with one line on stderr and exit code 2:
argparse checks the flags it can check alone, and the model, cluster and
serving configs reject the shapes they cannot run.  A simulation that
fails (out of memory, a pull that exhausts its retries, a stalled event
loop) exits 1.  To profile a command, run it under cProfile:
``python -m cProfile -s cumulative -m repro simulate ...``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional

from .analysis import format_table, table1
from .cluster import Cluster
from .config import (
    TABLE1_MODELS,
    moe_bert,
    moe_gpt,
    moe_transformer_xl,
    pr_moe_transformer_xl,
)
from .control import ControlConfig, Controller, ControlPolicy
from .core import (
    GraphValidationError,
    JanusFeatures,
    engine_for,
    engine_modes,
    estimate_strategies,
    profile_model,
    strategy_names,
)
from .faults import FaultPlan, MessageLoss, PullFailedError, ResilienceConfig
from .metrics import (
    MetricsRegistry,
    build_run_report,
    write_chrome_trace,
    write_run_report,
)
from .netsim import OutOfMemoryError, measure_all_to_all_goodput
from .serving import (
    ServingConfig,
    TraceSpec,
    build_serving_report,
    format_serving_summary,
    generate_trace,
    simulate_serving,
)
from .trace import TraceRecorder
from .simkit import StalledSimulationError
from .units import GIB
from .workloads import DriftSpec

# Simulation failures the CLI reports as one clean line, not a traceback.
_SIMULATION_ERRORS = (OutOfMemoryError, PullFailedError, StalledSimulationError)

MODEL_CHOICES = {
    "moe-bert": moe_bert,
    "moe-gpt": moe_gpt,
    "moe-transformer-xl": moe_transformer_xl,
}


class _InvalidInput(Exception):
    """A command-line value the model, cluster or a spec rejected:
    :func:`main` prints it as one line and exits 2."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}"
        )
    return value


def _chunk_spec(text: str):
    """``--chunks`` value: a fixed positive count, or ``auto`` to let the
    cost-model tuner pick per-block counts every iteration."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return _positive_int(text)
    except (argparse.ArgumentTypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"must be a positive integer or 'auto', got {text!r}"
        )


def _spec(parse):
    """argparse ``type`` for a spec string (``--faults``, ``--drift``,
    ``--control``, ``--trace``): ``parse``'s ``ValueError`` message
    becomes the usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


def _engine_mode_list(text: str) -> List[str]:
    """``--paradigms`` value: comma-separated :func:`engine_modes` names."""
    modes = text.split(",")
    unknown = [mode for mode in modes if mode not in engine_modes()]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown mode(s) {', '.join(unknown)}; expected "
            f"{', '.join(sorted(engine_modes()))}"
        )
    return modes


def _loss_rates(text: str) -> List[float]:
    """``--rates`` value: comma-separated loss rates in [0, 1], sorted and
    deduplicated."""
    rates = sorted({float(rate) for rate in text.split(",")})
    if not all(0.0 <= rate <= 1.0 for rate in rates):
        raise argparse.ArgumentTypeError(
            f"loss rates must be in [0, 1], got {text!r}"
        )
    return rates


def _model_and_cluster(args):
    """The shape flags as a ``(ModelConfig, Cluster)`` pair; a shape the
    config or cluster rejects raises :class:`_InvalidInput`."""
    overrides = {
        name: getattr(args, name)
        for name in ("batch_size", "seq_len", "top_k")
        if getattr(args, name) is not None
    }
    try:
        cluster = Cluster(args.machines)
        if args.model == "pr-moe":
            config = pr_moe_transformer_xl(1 if args.machines <= 2 else 2)
        else:
            config = MODEL_CHOICES[args.model](args.experts)
        if overrides:
            config = config.scaled(**overrides)
    except ValueError as exc:
        raise _InvalidInput(f"invalid shape: {exc}") from None
    return config, cluster


def _engine_shape(args):
    """:func:`_model_and_cluster`, plus the condition that the per-block
    analysis and the timed engines share: every GPU holds the same number
    of experts (serving has no such condition)."""
    config, cluster = _model_and_cluster(args)
    try:
        for block in config.moe_block_indices:
            config.experts_per_worker(block, cluster.world_size)
    except ValueError as exc:
        raise _InvalidInput(f"invalid shape: {exc}") from None
    return config, cluster


def _engine_features(args) -> dict:
    """``engine_for`` keywords for ``--chunks`` (and ``--stagger-a2a``
    where the command has it); empty when both are at their defaults."""
    overrides = {}
    if args.chunks == "auto":
        overrides["chunk_autotune"] = True
    elif args.chunks is not None:
        overrides["ec_pipeline_chunks"] = args.chunks
    if getattr(args, "stagger_a2a", None) is not None:
        overrides["a2a_stagger"] = args.stagger_a2a
    return {"features": JanusFeatures(**overrides)} if overrides else {}


def _write_report(path: str, report: dict, noun: str) -> None:
    """Write a JSON report to ``path``, or print it when ``path`` is
    ``-``."""
    if path == "-":
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        write_run_report(path, report)
        print(f"{noun} written to {path}")


def _write_trace(path: str, recorder, registry, process_name: str) -> None:
    write_chrome_trace(path, recorder, registry, process_name=process_name)
    print(f"Chrome trace written to {path} "
          "(load in Perfetto / chrome://tracing)")


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        choices=sorted(MODEL_CHOICES) + ["pr-moe"],
        default="moe-gpt",
        help="model configuration (Table 1 / §7.5 defaults)",
    )
    parser.add_argument("--experts", type=int, default=32,
                        help="experts per MoE block")
    parser.add_argument("--machines", type=int, default=4,
                        help="number of 8-GPU machines")
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--seq-len", type=int, default=None)
    parser.add_argument("--top-k", type=int, default=None)


def cmd_plan(args) -> int:
    config, cluster = _engine_shape(args)
    world = cluster.world_size
    print(f"{config.name}: B={config.batch_size} S={config.seq_len} "
          f"k={config.top_k} H={config.hidden_dim} on {world} GPUs")
    rows = []
    for profile in profile_model(config, args.machines, cluster.gpus_per_machine):
        rows.append([
            profile.block_index,
            profile.num_experts,
            profile.experts_per_worker,
            f"{profile.ratio:.2f}",
            profile.paradigm,
            f"{profile.expert_centric_bytes / 1e9:.2f}",
            f"{profile.data_centric_bytes / 1e9:.2f}",
        ])
    print(format_table(
        ["Block", "#Experts", "E", "R", "Paradigm", "EC GB", "DC GB"], rows,
    ))
    for label in ("expert-centric", "data-centric"):
        estimate = estimate_strategies(
            config, world, {label: config.num_moe_blocks}
        )
        verdict = "OOM" if estimate.total > 80 * GIB else "fits"
        print(f"memory {label}: {estimate.total / GIB:.1f} GiB ({verdict})")
    return 0


def cmd_simulate(args) -> int:
    if args.inference and args.iterations > 1:
        raise _InvalidInput(
            "--inference is a single forward pass; drop --iterations"
        )
    config, cluster = _engine_shape(args)
    kwargs = _engine_features(args)
    if args.faults is not None:
        kwargs["fault_plan"] = args.faults
    controller = None
    if args.drift is not None or args.control is not None:
        policy = (
            ControlPolicy(config=args.control)
            if args.control is not None
            else None
        )
        controller = Controller(policy=policy, drift=args.drift)
        kwargs["controller"] = controller
    exporting = args.metrics_out is not None or args.trace_out is not None
    registry = trace = None
    if exporting:
        registry = MetricsRegistry()
        trace = TraceRecorder()
        kwargs["metrics"] = registry
        kwargs["trace"] = trace
    try:
        engine = engine_for(args.paradigm, config, cluster, **kwargs)
        if args.iterations > 1:
            results = engine.run(args.iterations)
            result = results[-1]
        else:
            result = engine.run_iteration(forward_only=args.inference)
            results = [result]
    except _SIMULATION_ERRORS as exc:
        print(f"{config.name} / {args.paradigm}: {exc}", file=sys.stderr)
        return 1
    if args.metrics_out is not None:
        report = build_run_report(
            results, registry,
            model=config.name, paradigm=args.paradigm,
            machines=args.machines, inference=args.inference,
        )
        _write_report(args.metrics_out, report, "run report")
    if args.trace_out is not None:
        _write_trace(args.trace_out, trace, registry,
                     f"{config.name}/{args.paradigm}")
    phase = "inference pass" if args.inference else "training iteration"
    if len(results) > 1:
        total = sum(item.seconds for item in results)
        print(f"{config.name} / {args.paradigm}: {total * 1e3:.1f} ms over "
              f"{len(results)} iterations "
              f"(mean {total / len(results) * 1e3:.1f} ms; last iteration "
              "below)")
    else:
        print(f"{config.name} / {args.paradigm}: "
              f"{result.seconds * 1e3:.1f} ms per {phase}")
    print(f"  All-to-All time:     {result.all_to_all_seconds * 1e3:.1f} ms "
          f"({result.all_to_all_share:.0%})")
    print(f"  cross-node traffic:  {result.cross_node_gb_per_machine:.2f} "
          f"GB/machine")
    print("  strategy per block:  "
          + ", ".join(f"{b}:{name}"
                      for b, name in sorted(result.strategies.items())))
    stats = result.fault_stats
    if stats is not None:
        print(f"  faults:              {stats.dropped_messages} dropped, "
              f"{stats.retries} retries, {stats.stale_fallbacks} stale "
              f"fallbacks, {stats.grad_failures} grad losses")
    if controller is not None:
        print(f"  {controller.summary()}")
    return 0


def cmd_report(args) -> int:
    """Multi-iteration run with full observability: prints a summary and
    writes the machine-readable run report (``--out``) plus, optionally,
    a Perfetto-loadable Chrome trace (``--trace-out``)."""
    config, cluster = _engine_shape(args)
    registry = MetricsRegistry()
    trace = TraceRecorder()
    try:
        engine = engine_for(
            args.paradigm, config, cluster, metrics=registry, trace=trace,
            **_engine_features(args),
        )
        results = engine.run(args.iterations)
    except _SIMULATION_ERRORS as exc:
        print(f"{config.name} / {args.paradigm}: {exc}", file=sys.stderr)
        return 1
    report = build_run_report(
        results, registry,
        model=config.name, paradigm=args.paradigm,
        machines=args.machines, iterations=args.iterations,
    )
    rows = []
    for index, summary in enumerate(report["iterations"]):
        rows.append([
            index,
            f"{summary['seconds'] * 1e3:.2f}",
            f"{summary['all_to_all_share']:.0%}",
            f"{summary['overlap_efficiency']:.2f}",
            f"{summary['cross_node_gb_per_machine']:.2f}",
        ])
    print(format_table(
        ["Iter", "ms", "A2A", "Overlap", "GB/machine"], rows,
        title=f"{config.name} / {args.paradigm} "
              f"({args.machines} machines, {args.iterations} iterations)",
    ))
    tasks = report.get("tasks")
    if tasks:
        task_rows = [
            [kind, f"{entry['count']:.0f}", f"{entry['seconds'] * 1e3:.2f}"]
            for kind, entry in tasks.items()
        ]
        print(format_table(
            ["Task kind", "Count", "Busy ms"], task_rows,
            title="task-graph breakdown (all iterations)",
        ))
    tuning = report.get("chunk_tuning")
    if tuning:
        def _ms(entry, key):
            value = entry.get(key)
            return f"{value * 1e3:.3f}" if value is not None else "-"

        tuning_rows = [
            [block, entry.get("chunks", "-"),
             _ms(entry, "predicted_chunk_s"),
             _ms(entry, "measured_chunk_s"),
             entry.get("switches", 0)]
            for block, entry in tuning.get("blocks", {}).items()
        ]
        title = (
            f"chunk autotuner ({tuning.get('retunes', 0)} retune(s)"
            + (f", micro_batches={tuning['micro_batches']}"
               if "micro_batches" in tuning else "")
            + ")"
        )
        print(format_table(
            ["Block", "Chunks", "Pred ms/chunk", "Meas ms/chunk",
             "Switches"],
            tuning_rows, title=title,
        ))
    _write_report(args.out, report, "run report")
    if args.trace_out is not None:
        _write_trace(args.trace_out, trace, registry,
                     f"{config.name}/{args.paradigm}")
    return 0


def cmd_serve(args) -> int:
    """Replay a seeded open-loop request trace through continuous-batching
    serving workers and print per-topology latency/goodput KPIs."""
    config, cluster = _model_and_cluster(args)
    spec = args.trace
    trace = generate_trace(spec)
    topologies = (
        ("unified", "disaggregated")
        if args.topology == "both"
        else (args.topology,)
    )
    exporting = args.out is not None or args.trace_out is not None
    results = []
    registry = recorder = None
    for topology in topologies:
        try:
            serving = ServingConfig(
                topology=topology,
                prefillers=args.prefillers,
                max_batch=args.max_batch,
                prefill_batch=args.prefill_batch,
                pin_fraction=args.pin_fraction,
                prefill_paradigm=args.prefill_paradigm,
                decode_paradigm=args.decode_paradigm,
                ttft_slo_s=args.ttft_slo,
                tpot_slo_s=args.tpot_slo,
            )
        except ValueError as exc:
            raise _InvalidInput(f"invalid serving config: {exc}") from None
        if exporting:
            # Fresh lanes per topology: the exported report/trace carry
            # the last simulated topology's metric dump.
            registry = MetricsRegistry()
            recorder = TraceRecorder()
        try:
            results.append(simulate_serving(
                config, cluster, trace, serving,
                metrics=registry, recorder=recorder,
            ))
        except ValueError as exc:
            # Split/model constraints are only checkable against the
            # cluster, so they surface from the simulator constructor.
            raise _InvalidInput(f"invalid serving config: {exc}") from None
        except _SIMULATION_ERRORS as exc:
            print(f"{config.name} / serve {topology}: {exc}",
                  file=sys.stderr)
            return 1
    print(format_serving_summary(
        results,
        title=f"{config.name}: {len(trace)} requests, {spec.kind} arrivals "
              f"at {spec.rate:.0f}/s (offered {trace.offered_rate:.0f}/s) "
              f"on {args.machines} machines",
    ))
    if args.out is not None:
        report = build_serving_report(
            results, registry,
            model=config.name, machines=args.machines,
            trace=dict(sorted(asdict(spec).items())),
        )
        _write_report(args.out, report, "serving report")
    if args.trace_out is not None:
        _write_trace(args.trace_out, recorder, registry,
                     f"{config.name}/serve-{results[-1].topology}")
    return 0


def cmd_chaos(args) -> int:
    """Loss-rate sweep: the §3.2 less-synchronization claim under fire."""
    config, cluster = _engine_shape(args)
    rows = []
    for mode in args.paradigms:
        for rate in args.rates:
            plan = FaultPlan(
                seed=args.seed,
                faults=(MessageLoss(kinds=("pull-request",), rate=rate),),
            )
            try:
                engine = engine_for(
                    mode, config, cluster,
                    fault_plan=plan, resilience=ResilienceConfig(),
                )
                result = engine.run_iteration()
            except _SIMULATION_ERRORS as exc:
                print(f"{config.name} / {mode}: {exc}", file=sys.stderr)
                return 1
            stats = result.fault_stats
            rows.append([
                mode,
                f"{rate:.0%}",
                f"{result.seconds * 1e3:.2f}",
                stats.dropped_messages,
                stats.retries,
                stats.stale_fallbacks,
            ])
    print(format_table(
        ["Paradigm", "Loss", "ms/iter", "Dropped", "Retries", "Fallbacks"],
        rows,
        title=f"{config.name}: pull-request loss sweep "
              f"(seed={args.seed}, {args.machines} machines)",
    ))
    return 0


def cmd_graph(args) -> int:
    """Build, validate and export the iteration's task graph without
    running it (Graphviz DOT and/or structural JSON)."""
    from collections import Counter

    config, cluster = _engine_shape(args)
    try:
        engine = engine_for(args.paradigm, config, cluster)
        graph = engine.build_graph(forward_only=args.inference)
        order = graph.validate()
    except (GraphValidationError,) + _SIMULATION_ERRORS as exc:
        print(f"{config.name} / {args.paradigm}: {exc}", file=sys.stderr)
        return 1
    kinds = Counter(task.kind.value for task in graph.tasks())
    # Keep stdout clean for piping when an export goes to "-".
    summary_out = sys.stderr if "-" in (args.dot, args.json) else sys.stdout
    print(f"{config.name} / {args.paradigm}: task graph OK — "
          f"{len(order)} tasks in {len(graph.lanes)} lanes", file=summary_out)
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:<16} {count}", file=summary_out)
    for path, render in ((args.dot, graph.to_dot),
                         (args.json, lambda: json.dumps(
                             graph.to_json(), indent=1, sort_keys=True))):
        if path is None:
            continue
        text = render()
        if path == "-":
            print(text)
        else:
            Path(path).write_text(text + "\n")
            print(f"written to {path}")
    return 0


def cmd_table1(args) -> int:
    rows = table1(TABLE1_MODELS)
    print(format_table(
        ["Model", "#Expert", "#GPU", "Size(B)", "E.C.(GiB)", "D.C.(GiB)",
         "Reduction"],
        [
            [row.model, row.num_experts, row.num_gpus,
             f"{row.model_size_b:.2f}", f"{row.expert_centric_gib:.2f}",
             f"{row.data_centric_gib:.2f}", f"{row.reduction:.1f}x"]
            for row in rows
        ],
        title="Table 1: per-machine cross-node traffic (forward phase)",
    ))
    return 0


def cmd_goodput(args) -> int:
    intra = measure_all_to_all_goodput(1, payload_bytes_per_pair=args.payload)
    inter = measure_all_to_all_goodput(
        args.machines, payload_bytes_per_pair=args.payload
    )
    print(f"intra-machine All-to-All: {intra.goodput_gbps:8.1f} Gbps/GPU")
    print(f"inter-machine All-to-All: {inter.goodput_gbps:8.1f} Gbps/GPU")
    print(f"gap: {intra.goodput_gbps / inter.goodput_gbps:.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Janus (SIGCOMM'23) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="per-block paradigm analysis")
    _add_model_arguments(plan)
    plan.set_defaults(func=cmd_plan)

    simulate = sub.add_parser("simulate", help="timed iteration simulation")
    _add_model_arguments(simulate)
    simulate.add_argument(
        "--paradigm",
        choices=sorted(engine_modes()),
        default="unified",
        help="block-execution strategy name or "
             "the R-driven per-block 'unified' selector",
    )
    simulate.add_argument(
        "--chunks", type=_chunk_spec, default=None, metavar="N|auto",
        help="pipelined-ec All-to-All chunk count "
             "(JanusFeatures.ec_pipeline_chunks); 'auto' lets the "
             "cost-model tuner pick per-block counts before every "
             "iteration",
    )
    simulate.add_argument(
        "--stagger-a2a", choices=("off", "wave", "chain"), default=None,
        help="intra-A2A chunk scheduling: arbitrate the shared NIC fabric "
             "per chunk ('wave' grants in arrival order, 'chain' staggers "
             "by micro-batch round); default keeps the fluid model",
    )
    simulate.add_argument("--inference", action="store_true",
                          help="forward-only pass (serving)")
    simulate.add_argument(
        "--faults", type=_spec(FaultPlan.parse), default=None, metavar="SPEC",
        help="seeded fault plan, e.g. "
             "'seed=7;loss=pull-request*0.1;link=nic*0.25@0.005:0.015;"
             "slow=0*0.5;outage=1@0.002:0.004' "
             "(clauses: seed, loss, link, slow, outage; windows are "
             "@start:end in simulated seconds)",
    )
    simulate.add_argument(
        "--iterations", type=_positive_int, default=1,
        help="training iterations to simulate (drift/control act between "
             "iterations, so they need more than one)",
    )
    simulate.add_argument(
        "--drift", type=_spec(DriftSpec.parse), default=None, metavar="SPEC",
        help="drifting expert-popularity workload, e.g. "
             "'flip;skew=1.5;period=2;seed=7' "
             "(kinds: static, flip, rotate, walk; keys: skew, period, "
             "low_skew, step, seed)",
    )
    simulate.add_argument(
        "--control", type=_spec(ControlConfig.parse), default=None, metavar="SPEC",
        help="adaptive control plane, e.g. 'adaptive' or "
             "'adaptive;deviation=0.2;recover_after_clean=1;replicas=off' "
             "(re-picks per-block paradigms and replicates hot experts "
             "between iterations)",
    )
    simulate.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the machine-readable run report (JSON) here",
    )
    simulate.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome-trace/Perfetto JSON of the iteration here",
    )
    simulate.set_defaults(func=cmd_simulate)

    report = sub.add_parser(
        "report", help="multi-iteration run report with full metrics"
    )
    _add_model_arguments(report)
    report.add_argument(
        "--paradigm",
        choices=sorted(engine_modes()),
        default="unified",
        help="block-execution strategy or the unified selector",
    )
    report.add_argument("--iterations", type=_positive_int, default=3,
                        help="iterations to simulate")
    report.add_argument(
        "--chunks", type=_chunk_spec, default=None, metavar="N|auto",
        help="fixed pipelined-ec chunk count, or 'auto' for the "
             "cost-model tuner (adds the per-block tuning table)",
    )
    report.add_argument(
        "--out", default="report.json", metavar="PATH",
        help="run-report destination ('-' prints JSON to stdout)",
    )
    report.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also write a Chrome-trace/Perfetto JSON of the run",
    )
    report.set_defaults(func=cmd_report)

    serve = sub.add_parser(
        "serve", help="request-level inference serving on a seeded trace"
    )
    _add_model_arguments(serve)
    serve.add_argument(
        "--trace", type=_spec(TraceSpec.parse), metavar="SPEC",
        default="poisson;rate=2000;requests=10000;seed=7;skew=1.2",
        help="seeded open-loop arrival trace, e.g. "
             "'poisson;rate=2000;requests=10000;seed=7;skew=1.2' "
             "(kinds: poisson, diurnal, bursty; keys: rate, requests, "
             "seed, prompt_mean, output_mean, skew, period, amplitude, "
             "burst, duty)",
    )
    serve.add_argument(
        "--topology", choices=("unified", "disaggregated", "both"),
        default="both",
        help="unified workers, disaggregated prefiller/decoder pools, or "
             "both back to back on the same trace",
    )
    serve.add_argument(
        "--prefillers", type=_positive_int, default=None,
        help="prefill machines in the disaggregated split "
             "(default: half the machines)",
    )
    serve.add_argument("--max-batch", type=_positive_int, default=64,
                       help="decode continuous-batching cap per worker")
    serve.add_argument("--prefill-batch", type=_positive_int, default=8,
                       help="prompts admitted per prefill step")
    serve.add_argument(
        "--pin-fraction", type=float, default=0.25,
        help="fraction of experts pinned on disaggregated decoders "
             "(pinned-expert tokens skip the decode wire)",
    )
    serve.add_argument(
        "--prefill-paradigm",
        choices=sorted(strategy_names() + ("auto",)),
        default="auto",
        help="comm paradigm for prefill wire traffic ('auto' = Eq. 1 "
             "byte-volume pick per step)",
    )
    serve.add_argument(
        "--decode-paradigm",
        choices=sorted(strategy_names() + ("auto",)),
        default="auto",
        help="comm paradigm for decode wire traffic",
    )
    serve.add_argument("--ttft-slo", type=float, default=0.5,
                       help="time-to-first-token SLO in seconds")
    serve.add_argument("--tpot-slo", type=float, default=0.005,
                       help="per-output-token SLO in seconds")
    serve.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the serving report JSON here ('-' prints to stdout)",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome-trace/Perfetto JSON of the (last) topology",
    )
    serve.set_defaults(func=cmd_serve)

    chaos = sub.add_parser(
        "chaos", help="pull-loss sweep across paradigms (resilience report)"
    )
    _add_model_arguments(chaos)
    chaos.add_argument(
        "--rates", type=_loss_rates, default="0,0.05,0.1,0.2",
        help="comma-separated pull-request loss rates in [0, 1]",
    )
    chaos.add_argument(
        "--paradigms", type=_engine_mode_list,
        # Every block strategy plus the unified selector.
        default=",".join(strategy_names() + ("unified",)),
        help="comma-separated engine modes to sweep",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan RNG seed")
    chaos.set_defaults(func=cmd_chaos)

    graph = sub.add_parser(
        "graph", help="validate and export the iteration task graph"
    )
    _add_model_arguments(graph)
    graph.add_argument(
        "--paradigm",
        choices=sorted(engine_modes()),
        default="unified",
        help="block-execution strategy, the unified selector or 'auto'",
    )
    graph.add_argument("--inference", action="store_true",
                       help="forward-only (serving) graph")
    graph.add_argument("--dot", default=None, metavar="PATH",
                       help="write Graphviz DOT here ('-' prints to stdout)")
    graph.add_argument("--json", default=None, metavar="PATH",
                       help="write structural JSON here ('-' prints)")
    graph.set_defaults(func=cmd_graph)

    table = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table.set_defaults(func=cmd_table1)

    goodput = sub.add_parser("goodput", help="All-to-All goodput stress test")
    goodput.add_argument("--machines", type=_positive_int, default=4)
    goodput.add_argument("--payload", type=_positive_float, default=32e6,
                         help="bytes per GPU pair")
    goodput.set_defaults(func=cmd_goodput)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InvalidInput as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
