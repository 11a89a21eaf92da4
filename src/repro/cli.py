"""Command-line interface.

Run as ``python -m repro <command>``:

* ``simulate``  — run a scenario's slot workload and print a summary
  (including the canonical trace digest), optionally under an injected
  fault timeline (``--faults FILE|PRESET``, see ``docs/faults.md``);
* ``verify``    — run one PoP verification and print the outcome;
* ``scenarios`` — ``list`` the named presets, ``show`` one as JSON, or
  ``validate`` a hand-written spec file without running it;
* ``campaign``  — ``run``/``status``/``clean`` a fleet of scenario
  cells through the parallel, cached, resumable campaign engine
  (see ``docs/campaigns.md``);
* ``fig7`` / ``fig8`` / ``fig9`` — regenerate a paper figure as a text
  table (and ASCII chart);
* ``headline``  — print the abstract's measured ratios;
* ``report``    — the full markdown reproduction report;
* ``telemetry`` — ``summarize``/``trace``/``validate``/``diff`` the
  structured event streams that ``--telemetry DIR`` (or
  ``$REPRO_TELEMETRY``) records (see ``docs/observability.md``).

Every workload-running subcommand accepts ``--scenario NAME`` (a
registry preset) or ``--scenario file.json`` (a spec exported with
``scenarios show``); see ``docs/scenarios.md``.  ``simulate``/``verify``
additionally take ``--backend 2ldag|pbft|iota`` to run the same
scenario on a comparison-baseline ledger.  The global ``--workers N``
flag (before the subcommand) fans multi-run commands out across worker
processes — the default stays serial, preserving current behaviour and
golden digests.  Examples::

    python -m repro simulate --nodes 25 --slots 40 --gamma 8
    python -m repro simulate --scenario quickstart
    python -m repro simulate --scenario ledger-comparison --backend pbft
    python -m repro simulate --scenario fault-demo --backend iota
    python -m repro simulate --scenario quickstart --faults mid-crash
    python -m repro scenarios show quickstart > s.json
    python -m repro scenarios validate s.json
    python -m repro simulate --scenario s.json
    python -m repro verify --nodes 16 --slots 20 --gamma 4 --target-slot 2
    python -m repro fig7 --body-mb 0.5 --quick
    python -m repro --workers 4 fig9 --panel d --quick
    python -m repro --workers 4 campaign run bench-grid
    python -m repro campaign run fault-grid --keep-going --cell-timeout 120
    python -m repro campaign status bench-grid
    python -m repro campaign status fault-grid --json
    python -m repro simulate --scenario fault-demo --telemetry .telemetry
    python -m repro telemetry summarize .telemetry
    python -m repro telemetry diff .telemetry .telemetry-rerun
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from repro.faults import (
    FaultError,
    FaultScheduleSpec,
    build_fault_preset,
    fault_preset_names,
)
from repro.metrics.charts import render_chart
from repro.scenario import (
    DEFAULT_BACKEND,
    ProtocolSpec,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    backend_names,
    get_scenario,
    registry,
    scenario_names,
)


def _looks_like_file(value: str) -> bool:
    """Whether a NAME|FILE argument should resolve as a file path."""
    return value.endswith(".json") or os.path.sep in value or os.path.exists(value)


def _load_from_file(label: str, value: str, from_file):
    """Load a spec file, mapping failures to CLI-friendly exits."""
    try:
        return from_file(value)
    except FileNotFoundError:
        raise SystemExit(f"{label} file not found: {value}")
    except ValueError as error:
        raise SystemExit(f"invalid {label} file {value}: {error}")


def _load_scenario(value: str) -> ScenarioSpec:
    """Resolve ``--scenario`` input: a JSON file path or a preset name."""
    if _looks_like_file(value):
        return _load_from_file("scenario", value, ScenarioSpec.from_file)
    try:
        return get_scenario(value)
    except KeyError:
        raise SystemExit(
            f"unknown scenario {value!r}; known: {', '.join(scenario_names())}"
        )


def _inline_spec(args, validate: bool, run_until_quiet: bool) -> ScenarioSpec:
    """The ad-hoc spec described by ``--nodes/--slots/--gamma/--body-mb``."""
    return ScenarioSpec(
        name="cli",
        protocol=ProtocolSpec.paper(gamma=args.gamma, body_mb=args.body_mb),
        topology=TopologySpec(node_count=args.nodes),
        workload=WorkloadSpec(
            slots=args.slots,
            generation_period=1,
            validate=validate,
            run_until_quiet=run_until_quiet,
        ),
        seed=args.seed,
    )


def _load_faults(value: str, spec: ScenarioSpec) -> FaultScheduleSpec:
    """Resolve ``--faults`` input: a schedule JSON file or a preset name.

    Presets are parameterized builders, scaled to the scenario's node
    count and slot count at resolution time.
    """
    if _looks_like_file(value):
        return _load_from_file("fault schedule", value, FaultScheduleSpec.from_file)
    try:
        return build_fault_preset(value, spec.node_count, spec.workload.slots)
    except FaultError as error:
        raise SystemExit(str(error))


def _scenario_spec(args, validate: bool = False, run_until_quiet: bool = False) -> ScenarioSpec:
    """The spec a workload subcommand should run (``--backend``/``--faults``
    applied)."""
    if args.scenario:
        spec = _load_scenario(args.scenario)
    else:
        spec = _inline_spec(args, validate=validate, run_until_quiet=run_until_quiet)
    backend = getattr(args, "backend", None)
    if backend and backend != spec.backend:
        try:
            spec = spec.with_backend(backend)
        except ScenarioError as error:
            raise SystemExit(f"cannot run on backend {backend!r}: {error}")
    faults = getattr(args, "faults", None)
    if faults:
        schedule = _load_faults(faults, spec)
        try:
            # --faults overrides whatever timeline the spec declared.
            spec = spec.with_workload(faults=schedule)
        except (ScenarioError, FaultError) as error:
            raise SystemExit(f"cannot apply fault schedule: {error}")
    return spec


def _executor_from_args(args):
    """The campaign executor the global flags describe, or ``None``.

    ``None`` (no ``--workers``, no ``--cache-dir``) keeps multi-run
    commands on their historical serial in-process path.  An explicit
    ``--cache-dir`` opts the command into the result cache.
    """
    workers = getattr(args, "workers", 0) or 0
    cache_dir = getattr(args, "cache_dir", None)
    use_cache = cache_dir is not None
    if workers <= 1 and not use_cache:
        return None
    from repro.campaign import CampaignExecutor

    return CampaignExecutor(workers=workers, cache_dir=cache_dir, use_cache=use_cache)


def _figure_base(args, spec: Optional[ScenarioSpec] = None) -> ScenarioSpec:
    """The spec sizing a figure command: ``--scenario`` > ``--quick`` > paper.

    Figure commands rebuild their canonical workloads (own γ sweeps,
    cost models, probes), so only the scenario's *scale* can be
    honoured — warn when the spec declares sections that cannot be.
    """
    if spec is None and args.scenario:
        spec = _load_scenario(args.scenario)
    if spec is None:
        return registry.QUICK_SCALE if args.quick else registry.PAPER_SCALE
    ignored = []
    if spec.topology.kind != "sequential-geometric":
        ignored.append(f"topology kind {spec.topology.kind!r}")
    if spec.adversaries:
        ignored.append("adversaries")
    if spec.workload.faults is not None:
        ignored.append("faults")
    if ignored:
        print(
            f"note: figure commands use the scenario's scale only; "
            f"ignoring its {', '.join(ignored)} "
            f"(use 'simulate --scenario' to run the spec as declared)",
            file=sys.stderr,
        )
    return spec


def _fig9_probes(args) -> int:
    """Fig. 9 probes per sampled slot: a bare ``--quick`` halves them."""
    from repro.experiments.fig9_consensus import PAPER_PROBES

    if args.quick and not args.scenario:
        return PAPER_PROBES // 2
    return PAPER_PROBES


def _telemetry_dir(args) -> Optional[str]:
    """The telemetry directory in effect: ``--telemetry`` or the env."""
    from repro.telemetry import telemetry_dir_from_env

    return getattr(args, "telemetry", None) or telemetry_dir_from_env()


def _trace_sample(args, telemetry_dir: Optional[str]) -> Tuple[Optional[float], str]:
    """``(rate, problem)``: the block-trace sample rate in effect
    (``--trace-sample`` or the env), or why it cannot be used — a bad
    rate, or a rate without a telemetry directory (an exit-2 message)."""
    from repro.telemetry import (
        TelemetryError,
        trace_sample_from_env,
        trace_sample_rate,
    )

    rate = getattr(args, "trace_sample", None)
    try:
        sample = (
            trace_sample_from_env() if rate is None
            else trace_sample_rate(rate, "--trace-sample")
        )
    except TelemetryError as error:
        return None, str(error)
    if sample is not None and not telemetry_dir:
        return None, ("--trace-sample needs a telemetry directory "
                      "(--telemetry or $REPRO_TELEMETRY)")
    return sample, ""


def cmd_simulate(args) -> int:
    """Run a scenario's slot workload; print its summary and trace digest."""
    from repro.telemetry import run_recorders

    spec = _scenario_spec(args, validate=args.validate, run_until_quiet=True)
    telemetry_dir = _telemetry_dir(args)
    sample, problem = _trace_sample(args, telemetry_dir)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    telemetry, spans = run_recorders(telemetry_dir, sample)
    runner = ScenarioRunner(spec, telemetry=telemetry, spans=spans)
    result = runner.run()
    print(result.summary())
    if telemetry is not None:
        print(f"telemetry stream: {telemetry.path} "
              f"({telemetry.records_written} record(s))")
    if spans is not None:
        print(f"trace stream: {spans.path} "
              f"({spans.blocks_traced} block(s) traced at sample {sample:g})")
    if runner.fault_engine is not None:
        applied = runner.fault_engine.applied
        print(f"faults applied: {len(applied)} event(s)")
        for event in applied:
            print(f"  {event.describe()}")
    return 0


def cmd_verify(args) -> int:
    """Run one PoP verification against a grown DAG."""
    spec = _scenario_spec(args)
    if spec.backend != DEFAULT_BACKEND:
        print(f"verify runs PoP, which only the {DEFAULT_BACKEND!r} backend "
              f"implements (got {spec.backend!r})", file=sys.stderr)
        return 2
    runner = ScenarioRunner(spec).build()
    runner.advance_to(spec.workload.slots)
    deployment, workload = runner.deployment, runner.workload
    targets = workload.blocks_by_slot.get(args.target_slot, [])
    if not targets:
        print(f"no blocks generated in slot {args.target_slot}", file=sys.stderr)
        return 1
    target = targets[0]
    validator_id = next(n for n in deployment.node_ids if n != target.origin)
    process = deployment.node(validator_id).verify_block(target.origin, target)
    deployment.sim.run()
    outcome = process.value
    print(f"block {target} verified by node {validator_id}: "
          f"{'SUCCESS' if outcome.success else f'FAILURE ({outcome.error})'}")
    print(f"consensus set ({len(outcome.consensus_set)} nodes): "
          f"{sorted(outcome.consensus_set)}")
    print(f"path length {len(outcome.path)}, messages {outcome.message_total}, "
          f"cache hits {outcome.tps_steps}, rollbacks {outcome.rollbacks}")
    return 0 if outcome.success else 2


def cmd_scenarios(args) -> int:
    """List the scenario presets, print one as JSON, or validate a file."""
    if args.action == "list":
        width = max(len(name) for name in scenario_names())
        bwidth = max(len(b) for b in backend_names())
        for name in scenario_names():
            spec = get_scenario(name)
            print(f"{name:<{width}}  {spec.backend:<{bwidth}}  {spec.description}")
        return 0
    if args.action == "validate":
        try:
            spec = ScenarioSpec.from_file(args.file)
        except FileNotFoundError:
            print(f"scenario file not found: {args.file}", file=sys.stderr)
            return 2
        except (ScenarioError, ValueError) as error:
            print(f"INVALID {args.file}: {error}", file=sys.stderr)
            return 2
        print(f"OK {args.file}: scenario {spec.name!r} "
              f"({spec.backend} backend, {spec.node_count} nodes, "
              f"{spec.workload.slots} slots, "
              f"gamma {spec.protocol.gamma}, seed {spec.seed})")
        schedule = spec.workload.faults
        if schedule is not None:
            print(f"fault schedule ({len(schedule.events)} event(s), "
                  "declared timeline):")
            for line in schedule.describe():
                print(f"  {line}")
        return 0
    # show
    try:
        spec = get_scenario(args.name)
    except KeyError:
        print(f"unknown scenario {args.name!r}; "
              f"known: {', '.join(scenario_names())}", file=sys.stderr)
        return 2
    sys.stdout.write(spec.to_json())
    return 0


def _load_campaign(value: str):
    """Resolve campaign input: a JSON document path or a preset name."""
    from repro.campaign import CampaignSpec, campaign_names, get_campaign

    if _looks_like_file(value):
        return _load_from_file("campaign", value, CampaignSpec.from_file)
    try:
        return get_campaign(value)
    except KeyError:
        raise SystemExit(
            f"unknown campaign {value!r}; known: {', '.join(campaign_names())}"
        )


def cmd_campaign(args) -> int:
    """Run, inspect, or clean a campaign of scenario cells."""
    from repro.campaign import (
        CampaignError,
        CampaignExecutor,
        ChaosError,
        campaign_names,
        get_campaign,
    )

    if args.action == "list":
        width = max(len(name) for name in campaign_names())
        for name in campaign_names():
            campaign = get_campaign(name)
            print(f"{name:<{width}}  {len(campaign.cells):>3} cells  "
                  f"{campaign.description}")
        return 0
    if args.action == "show":
        sys.stdout.write(_load_campaign(args.spec).to_json())
        return 0

    campaign = _load_campaign(args.spec)
    telemetry_dir = (
        _telemetry_dir(args)
        if args.action in ("run", "status")
        else None
    )
    if telemetry_dir and args.action == "run":
        from repro.telemetry import TELEMETRY_ENV_VAR

        # Worker processes pick telemetry up from the environment, so a
        # --telemetry flag must land there too for cells to stream.  The
        # directory exists even when every cell is cached, so --monitors
        # can always write its document.
        os.environ[TELEMETRY_ENV_VAR] = telemetry_dir
        os.makedirs(telemetry_dir, exist_ok=True)
    if args.action == "run":
        from repro.telemetry.spans import TRACE_SAMPLE_ENV_VAR

        trace_sample, problem = _trace_sample(args, telemetry_dir)
        if problem:
            print(problem, file=sys.stderr)
            return 2
        if trace_sample is not None:
            os.environ[TRACE_SAMPLE_ENV_VAR] = f"{trace_sample:g}"
    monitors_mode = getattr(args, "monitors", "off")
    if monitors_mode != "off" and not telemetry_dir:
        print(f"--monitors {monitors_mode} needs a telemetry directory "
              "(--telemetry or $REPRO_TELEMETRY)", file=sys.stderr)
        return 2
    try:
        # status/clean parsers lack the resilience flags; getattr keeps
        # one construction path (and $REPRO_CHAOS is resolved here so a
        # bad schedule fails loudly instead of running chaos-free).
        executor = CampaignExecutor(
            workers=getattr(args, "workers", 0) or 0,
            cache_dir=args.cache_dir,
            use_cache=not getattr(args, "no_cache", False),
            retries=getattr(args, "retries", 2),
            cell_timeout=getattr(args, "cell_timeout", None),
        )
    except ChaosError as error:
        raise SystemExit(f"bad chaos spec: {error}")

    if args.action == "status" and getattr(args, "json", False):
        import json

        document = executor.status_document(campaign)
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    if args.action == "status":
        rows = executor.status_report(campaign)
        done = sum(1 for row in rows if row.cached)
        for row in rows:
            line = f"  {row.state:<11}  {row.cell.label:<40} {row.digest[:12]}"
            if row.failed_attempts:
                line += f"  [{row.failed_attempts} failed attempt(s)"
                if row.flaky:
                    line += ", FLAKY"
                line += f": {row.last_error}]" if row.last_error else "]"
            print(line)
        quarantined = sum(1 for row in rows if row.quarantined)
        tail = f"({len(rows) - done} to compute)"
        if quarantined:
            tail = f"({len(rows) - done} to compute, {quarantined} quarantined)"
        print(f"campaign {campaign.name}: {done}/{len(rows)} cells cached {tail}")
        events = executor.cache.read_journal(campaign.digest()) if executor.cache else []
        if events:
            last = events[-1]
            print(f"last journal event: {last.get('event')} "
                  f"({executor.cache.journal_path(campaign.digest())})")
        if telemetry_dir:
            doc_path = os.path.join(
                telemetry_dir, f"monitors-{campaign.name}.json"
            )
            if os.path.exists(doc_path):
                from repro.telemetry import TelemetryError
                from repro.telemetry.monitors import load_monitor_document

                try:
                    document = load_monitor_document(doc_path)
                except TelemetryError as error:
                    print(f"monitors document invalid: {error}",
                          file=sys.stderr)
                    return 1
                counts = document["counts"]
                print(f"invariant monitors: {document['status']} "
                      f"({counts['pass']} pass, {counts['fail']} fail, "
                      f"{counts['skip']} skip) [{doc_path}]")
        return 0

    if args.action == "clean":
        removed = executor.clean(campaign)
        print(f"campaign {campaign.name}: removed {removed} cached cell(s)")
        return 0

    # run
    try:
        result = executor.run(
            campaign,
            force=getattr(args, "force", False),
            log=print,
            keep_going=getattr(args, "keep_going", False),
        )
    except CampaignError as error:
        print(f"campaign failed: {error}", file=sys.stderr)
        return 1
    print()
    for cell in result.cells:
        if cell.quarantined:
            last = cell.failures[-1].error if cell.failures else ""
            print(f"  {cell.cell.label:<40} QUARANTINED after {cell.attempts} "
                  f"attempt(s): {last}")
            continue
        source = "cached  " if cell.cached else f"{cell.elapsed_s:6.2f}s "
        trace = cell.trace_sha256[:16] or "-"
        print(f"  {cell.cell.label:<40} {source} trace {trace}")
    print(result.summary())
    exit_code = 0
    if monitors_mode != "off":
        import json

        from repro.experiments.persistence import atomic_write_text
        from repro.telemetry import TelemetryError
        from repro.telemetry.monitors import (
            evaluate_monitors,
            format_monitor_table,
        )

        try:
            document = evaluate_monitors([telemetry_dir])
        except TelemetryError as error:
            print(f"monitor evaluation failed: {error}", file=sys.stderr)
            return 1
        doc_path = os.path.join(
            telemetry_dir, f"monitors-{campaign.name}.json"
        )
        atomic_write_text(
            doc_path, json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print()
        print(format_monitor_table(document))
        print(f"monitors document: {doc_path}")
        if monitors_mode == "strict" and document["status"] != "pass":
            print("campaign gate: invariant monitors FAILED (strict mode)",
                  file=sys.stderr)
            exit_code = 1
    if result.quarantined_count:
        print(
            f"campaign degraded: {result.quarantined_count} cell(s) quarantined "
            f"(rerun retries only them)",
            file=sys.stderr,
        )
        return 1
    return exit_code


def cmd_fig7(args) -> int:
    """Regenerate a Fig. 7 storage panel."""
    from repro.experiments.fig7_storage import run_fig7

    spec = _load_scenario(args.scenario) if args.scenario else None
    body_mb = spec.protocol.body_mb if spec is not None else args.body_mb
    result = run_fig7(body_mb, _figure_base(args, spec),
                      executor=_executor_from_args(args))
    print(f"Fig. 7 storage overhead, C = {body_mb} MB (per-node MB)\n")
    print(result.to_table())
    print()
    print(render_chart(result.sample_slots, result.series_mb,
                       log_y=True, y_label="storage MB"))
    return 0


def cmd_fig8(args) -> int:
    """Regenerate the Fig. 8 communication panels."""
    from repro.experiments.fig8_comm import run_fig8

    result = run_fig8(_figure_base(args), executor=_executor_from_args(args))
    for panel, title in (("a", "overall"), ("b", "DAG construction"),
                         ("c", "consensus")):
        print(f"\nFig. 8({panel}) {title} (per-node Mbit)")
        print(result.to_table(panel))
    print()
    print(render_chart(result.sample_slots, result.overall_mbit,
                       log_y=True, y_label="communication Mbit"))
    return 0


def cmd_fig9(args) -> int:
    """Regenerate one Fig. 9 consensus-time panel."""
    from repro.experiments.fig9_consensus import paper_panel, run_fig9

    base = _figure_base(args)
    gamma, malicious = paper_panel(args.panel, base.node_count)
    result = run_fig9(gamma, malicious, base,
                      executor=_executor_from_args(args),
                      probes=_fig9_probes(args))
    print(f"Fig. 9({args.panel}) consensus failure probability, gamma={gamma}\n")
    print(result.to_table())
    for m in malicious:
        print(f"consensus slot with {m} malicious: {result.consensus_slot(m)}")
    return 0


def cmd_headline(args) -> int:
    """Print the measured headline ratios."""
    from repro.experiments.headline import run_headline

    result = run_headline(_figure_base(args),
                          executor=_executor_from_args(args))
    print(result.summary())
    return 0


def _telemetry_paths(args) -> List[str]:
    """The stream paths a telemetry subcommand should read."""
    if args.paths:
        return list(args.paths)
    fallback = _telemetry_dir(args)
    if fallback:
        return [fallback]
    raise SystemExit(
        "no telemetry paths given and $REPRO_TELEMETRY is unset; "
        "pass stream files or a telemetry directory"
    )


def cmd_telemetry(args) -> int:
    """Summarize, trace, validate or diff telemetry event streams."""
    from repro.telemetry import (
        TelemetryError,
        format_summary_table,
        read_streams,
        stream_version,
        summarize_streams,
        validate_streams,
    )

    paths = _telemetry_paths(args)
    if args.action == "validate":
        try:
            streams, records, errors = validate_streams(paths)
        except TelemetryError as error:
            print(str(error), file=sys.stderr)
            return 2
        traces = sum(stream_version(stream) == 2 for stream in streams)
        for message in errors:
            print(message, file=sys.stderr)
        if errors:
            print(f"INVALID: {len(errors)} schema violation(s) across "
                  f"{len(streams)} stream(s)", file=sys.stderr)
            return 1
        print(f"OK: {len(streams)} stream(s) ({traces} trace stream(s)), "
              f"{records} record(s), all fit the pinned schemas")
        return 0
    if args.action == "diff":
        from repro.telemetry.diff import diff_streams

        try:
            identical, report = diff_streams(*paths)
        except TelemetryError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(report)
        return 0 if identical else 1
    if args.action == "trace":
        from repro.telemetry import tracepath

        try:
            streams = read_streams(paths, 2)
            starts = {
                path: tracepath.trace_start(path, records)
                for path, records in streams
            }
        except TelemetryError as error:
            print(str(error), file=sys.stderr)
            return 2
        if not streams:
            print("no trace streams found (record them with "
                  "simulate --trace-sample)", file=sys.stderr)
            return 1
        if args.block:
            found = [
                (path, trace)
                for path, records in streams
                for trace in records
                if trace.get("event") == "block-trace"
                and trace["block"] == args.block
            ]
            if not found:
                print(f"block {args.block!r} not traced in any stream",
                      file=sys.stderr)
                return 1
            for path, trace in found:
                print(f"# {path}")
                print(tracepath.block_waterfall(
                    trace, starts[path]["backend"]
                ))
            return 0
        report = tracepath.trace_report(streams)
        if getattr(args, "json", False):
            import json

            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(tracepath.format_trace_report(report))
        return 0
    # summarize
    try:
        summaries = summarize_streams(paths)
    except TelemetryError as error:
        print(str(error), file=sys.stderr)
        return 2
    if not summaries:
        print("no telemetry streams found", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        import json

        print(json.dumps(summaries, indent=2, sort_keys=True))
    else:
        print(format_summary_table(summaries))
    return 0


def cmd_report(args) -> int:
    """Generate the full markdown reproduction report."""
    from repro.experiments.report import generate_report

    report = generate_report(
        _figure_base(args),
        fig7_bodies=[0.5] if args.quick else None,
        fig9_panels=["a", "d"] if args.quick else None,
        executor=_executor_from_args(args),
        probes=_fig9_probes(args),
    )
    markdown = report.to_markdown()
    if args.output:
        from repro.experiments.persistence import atomic_write_text

        atomic_write_text(args.output, markdown)
        print(f"report written to {args.output}")
    else:
        print(markdown)
    return 0


def cmd_lint(args) -> int:
    """Run the static determinism & architecture analyzer."""
    from repro.checks import run_lint

    return run_lint(args)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="2LDAG reproduction toolkit"
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="worker processes for multi-run commands "
                             "(default: serial in-process)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="enable the campaign result cache rooted at DIR "
                             "for multi-run commands (the campaign subcommand "
                             "always caches, defaulting to $REPRO_CACHE_DIR "
                             "or .repro_cache)")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_arg(p):
        p.add_argument("--scenario", default=None, metavar="NAME|FILE",
                       help="run a named preset or an exported spec JSON "
                            "(see 'scenarios list')")

    def backend_arg(p):
        p.add_argument("--backend", default=None, metavar="NAME",
                       help="ledger backend to run the scenario on "
                            f"({', '.join(backend_names())}; default: "
                            "the spec's own backend)")

    def telemetry_arg(p):
        p.add_argument("--telemetry", default=None, metavar="DIR",
                       help="record a structured per-slot telemetry event "
                            "stream under DIR (also via $REPRO_TELEMETRY; "
                            "see docs/observability.md) — a pure "
                            "observation: trace digests are byte-identical "
                            "with telemetry on or off")

    def trace_sample_arg(p):
        p.add_argument("--trace-sample", type=float, default=None,
                       metavar="RATE",
                       help="record block-lifecycle trace streams for a "
                            "deterministic RATE sample of blocks (0 is off, "
                            "else a rate in (0, 1]; also via "
                            "$REPRO_TRACE_SAMPLE; needs a telemetry "
                            "directory) — a pure observation like "
                            "--telemetry")

    def common(p):
        scenario_arg(p)
        backend_arg(p)
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--nodes", type=int, default=25, help="|V|")
        p.add_argument("--gamma", type=int, default=8, help="tolerable malicious")
        p.add_argument("--body-mb", type=float, default=0.5, help="C in MB")

    p = sub.add_parser("simulate", help="run a scenario's slot workload")
    common(p)
    p.add_argument("--slots", type=int, default=40)
    p.add_argument("--validate", action="store_true",
                   help="run generation-time PoP validations")
    p.add_argument("--faults", default=None, metavar="FILE|PRESET",
                   help="inject a fault timeline: a schedule JSON file or "
                        f"a preset ({', '.join(fault_preset_names())}), "
                        "scaled to the scenario; overrides the spec's own "
                        "faults (see docs/faults.md)")
    telemetry_arg(p)
    trace_sample_arg(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="verify one block via PoP")
    common(p)
    p.add_argument("--slots", type=int, default=30)
    p.add_argument("--target-slot", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scenarios", help="list, export or validate scenario specs")
    scenario_sub = p.add_subparsers(dest="action", required=True)
    p_list = scenario_sub.add_parser("list", help="name + description per preset")
    p_list.set_defaults(fn=cmd_scenarios, action="list")
    p_show = scenario_sub.add_parser(
        "show", help="print one preset as replayable JSON"
    )
    p_show.add_argument("name")
    p_show.set_defaults(fn=cmd_scenarios, action="show")
    p_validate = scenario_sub.add_parser(
        "validate", help="check a spec file loads and validates, without running it"
    )
    p_validate.add_argument("file")
    p_validate.set_defaults(fn=cmd_scenarios, action="validate")

    p = sub.add_parser(
        "campaign",
        help="run fleets of scenario cells: parallel, cached, resumable",
    )
    campaign_sub = p.add_subparsers(dest="action", required=True)
    p_clist = campaign_sub.add_parser("list", help="the named campaign presets")
    p_clist.set_defaults(fn=cmd_campaign, action="list")
    p_cshow = campaign_sub.add_parser(
        "show", help="print a campaign (preset or file) fully expanded as JSON"
    )
    p_cshow.add_argument("spec", metavar="NAME|FILE")
    p_cshow.set_defaults(fn=cmd_campaign, action="show")

    def campaign_common(cp):
        cp.add_argument("spec", metavar="NAME|FILE",
                        help="a campaign preset name (see 'campaign list') or "
                             "a campaign JSON document")
        cp.add_argument("--cache-dir", default=argparse.SUPPRESS, metavar="DIR",
                        help="result-cache root (overrides the global flag)")

    p_run = campaign_sub.add_parser(
        "run", help="execute the campaign (cached cells replay from disk)"
    )
    campaign_common(p_run)
    p_run.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                       metavar="N", help="worker processes (overrides the "
                                         "global flag; default serial)")
    p_run.add_argument("--force", action="store_true",
                       help="recompute every cell, overwriting cached entries")
    p_run.add_argument("--no-cache", action="store_true",
                       help="compute without reading or writing the cache")
    p_run.add_argument("--retries", type=int, default=2, metavar="N",
                       help="re-attempts per failing cell before the run "
                            "aborts or quarantines it (default: 2)")
    p_run.add_argument("--cell-timeout", type=float, default=None, metavar="S",
                       help="wall-clock budget per cell attempt in seconds; "
                            "an attempt over it is retried, and a hung pool "
                            "worker is killed (default: none)")
    p_run.add_argument("--keep-going", action="store_true",
                       help="quarantine cells that exhaust their retries and "
                            "complete the rest instead of aborting (exit 1 "
                            "when any cell was quarantined)")
    telemetry_arg(p_run)
    trace_sample_arg(p_run)
    p_run.add_argument("--monitors", choices=("off", "report", "strict"),
                       default="off",
                       help="evaluate the invariant monitors over the "
                            "run's telemetry streams after the campaign "
                            "(report: print + persist verdicts; strict: "
                            "also exit 1 on any failed monitor)")
    p_run.set_defaults(fn=cmd_campaign, action="run")
    p_status = campaign_sub.add_parser(
        "status", help="per-cell done/failing/quarantined/pending report; "
                       "nothing executes"
    )
    campaign_common(p_status)
    p_status.add_argument("--json", action="store_true",
                          help="emit the pinned-schema status document "
                               "instead of the text report (see "
                               "docs/observability.md)")
    telemetry_arg(p_status)
    p_status.set_defaults(fn=cmd_campaign, action="status")
    p_clean = campaign_sub.add_parser(
        "clean", help="drop the campaign's cached cells and journal"
    )
    campaign_common(p_clean)
    p_clean.set_defaults(fn=cmd_campaign, action="clean")

    p = sub.add_parser(
        "lint",
        help="statically check determinism & architecture invariants "
             "(see docs/static-analysis.md)",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="files or directories to check (default: src)")
    p.add_argument("--list", dest="list_rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "telemetry",
        help="summarize, trace, validate or diff recorded telemetry streams",
    )
    telemetry_sub = p.add_subparsers(dest="action", required=True)
    p_tsum = telemetry_sub.add_parser(
        "summarize", help="per-run summary table over one or more streams"
    )
    p_tsum.add_argument("paths", nargs="*", metavar="PATH",
                        help="stream files or directories "
                             "(default: $REPRO_TELEMETRY)")
    p_tsum.add_argument("--json", action="store_true",
                        help="emit the per-run summaries as JSON instead "
                             "of the text table")
    p_tsum.set_defaults(fn=cmd_telemetry, action="summarize")
    p_trace = telemetry_sub.add_parser(
        "trace",
        help="critical-path latency attribution and per-block waterfalls "
             "over block-lifecycle trace streams (simulate --trace-sample)",
    )
    p_trace.add_argument("paths", nargs="*", metavar="PATH",
                         help="trace stream files or directories "
                              "(default: $REPRO_TELEMETRY)")
    p_trace.add_argument("--block", default=None, metavar="KEY",
                         help="print the ASCII waterfall for one traced "
                              "block (e.g. '3#7', 'blk:2:5', 'iota:1:4')")
    p_trace.add_argument("--json", action="store_true",
                         help="emit the attribution report as JSON")
    p_trace.set_defaults(fn=cmd_telemetry, action="trace")
    p_tval = telemetry_sub.add_parser(
        "validate", help="check every record against the pinned schema"
    )
    p_tval.add_argument("paths", nargs="*", metavar="PATH",
                        help="stream files or directories "
                             "(default: $REPRO_TELEMETRY)")
    p_tval.set_defaults(fn=cmd_telemetry, action="validate")
    p_tdiff = telemetry_sub.add_parser(
        "diff",
        help="name the first record where two runs' streams differ "
             "(exit 0 identical, 1 divergent, 2 unreadable)",
    )
    p_tdiff.add_argument("paths", nargs=2, metavar="PATH",
                         help="two stream files, or two telemetry "
                              "directories paired by file name")
    p_tdiff.set_defaults(fn=cmd_telemetry, action="diff")

    for name, fn in (("fig7", cmd_fig7), ("fig8", cmd_fig8),
                     ("fig9", cmd_fig9), ("headline", cmd_headline),
                     ("report", cmd_report)):
        p = sub.add_parser(name, help=fn.__doc__)
        scenario_arg(p)
        p.add_argument("--quick", action="store_true",
                       help="reduced scale (default is full paper scale)")
        if name == "fig7":
            p.add_argument("--body-mb", type=float, default=0.5)
        if name == "fig9":
            p.add_argument("--panel", choices="abcd", default="a")
        if name == "report":
            p.add_argument("--output", default=None,
                           help="write the markdown to this file")
        p.set_defaults(fn=fn)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
