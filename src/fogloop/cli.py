"""Command-line front end: validate scenarios, run them to disk, and compare
placement or control-mode variants side by side.

Exit codes: 0 ok, 1 validation failure, 2 input error (including an
aggregation whose result overflows during the run), 3 output error, 4
internal error: an exception escaped the command, and its traceback is on
stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from fogloop.coordination import AggregationOverflowError
from fogloop.errors import ConfigError
from fogloop.metrics import (
    MetricsFold,
    RunMetrics,
    compute_metrics,
    metrics_csv,
    summary_text,
)
from fogloop.runtime import run_scenario
from fogloop.scenario import (
    Scenario,
    load_scenario,
    parse_scenario,
    validate_scenario,
    with_mode,
    with_offering,
)
from fogloop.simnet import EventTrace

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_OUTPUT = 3
EXIT_INTERNAL = 4

FORMATS = ("jsonl", "csv", "txt")
OFFERING_VARIANTS = ("mapeaas", "apaas_split")
MODE_VARIANTS = ("centralized", "decentralized")
DEFAULT_OUT = "fogloop-out"


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _default_out(explicit: str | None) -> str:
    if explicit is not None:
        return explicit
    return os.environ.get("FOGLOOP_OUT", DEFAULT_OUT)


def cmd_validate(path: str) -> int:
    try:
        scenario = load_scenario(path)
    except ConfigError as exc:
        return _fail(EXIT_INPUT, str(exc))
    violations = validate_scenario(scenario).lines()
    if violations:
        for line in violations:
            print(line)
        return EXIT_VALIDATION
    print(f"ok: {scenario.name} ({scenario.digest})")
    return EXIT_OK


def _prepare(path: str, mode: str | None) -> Scenario:
    """Load, optionally switch control mode, and reparse strictly."""
    scenario = load_scenario(path)
    if mode is not None:
        scenario = parse_scenario(with_mode(scenario.raw, mode))
    return scenario


def cmd_run(path: str, mode: str | None, seed: int, horizon: int,
            out_dir: str | None, formats: tuple[str, ...]) -> int:
    try:
        scenario = _prepare(path, mode)
    except ConfigError as exc:
        return _fail(EXIT_INPUT, str(exc))
    violations = validate_scenario(scenario).lines()
    if violations:
        for line in violations:
            print(line)
        return EXIT_VALIDATION

    # Without a trace file to write, the run folds its metrics and keeps no rows.
    sink = EventTrace if "jsonl" in formats else MetricsFold
    try:
        result = run_scenario(scenario, seed, horizon, check=False, sink=sink)
    except (ConfigError, AggregationOverflowError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    metrics = compute_metrics(result)
    summary = summary_text(result, metrics)
    out_dir = _default_out(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
        if "jsonl" in formats:
            result.trace.write(os.path.join(out_dir, "trace.jsonl"))
        if "csv" in formats:
            with open(os.path.join(out_dir, "metrics.csv"), "w",
                      encoding="utf-8") as fh:
                fh.write(metrics_csv(metrics))
        if "txt" in formats:
            with open(os.path.join(out_dir, "summary.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(summary)
    except OSError as exc:
        return _fail(EXIT_OUTPUT, f"cannot write outputs: {exc}")
    print(summary, end="")
    return EXIT_OK


def _variant_scenario(base: Scenario, token: str) -> Scenario:
    if token in OFFERING_VARIANTS:
        return parse_scenario(with_offering(base.raw, token))
    if token in MODE_VARIANTS:
        return parse_scenario(with_mode(base.raw, token))
    raise ConfigError(
        f"unknown variant '{token}': choose from "
        f"{', '.join(OFFERING_VARIANTS + MODE_VARIANTS)}"
    )


def cmd_compare(path: str, variants: list[str], seed: int, horizon: int) -> int:
    try:
        base = load_scenario(path)
        prepared = [(token, _variant_scenario(base, token)) for token in variants]
    except ConfigError as exc:
        return _fail(EXIT_INPUT, str(exc))
    for token, scenario in prepared:
        violations = validate_scenario(scenario).lines()
        if violations:
            for line in violations:
                print(f"{token}: {line}")
            return EXIT_VALIDATION

    rows: list[tuple[str, RunMetrics]] = []
    for token, scenario in prepared:
        try:
            result = run_scenario(scenario, seed, horizon, check=False, sink=MetricsFold)
        except (ConfigError, AggregationOverflowError) as exc:
            return _fail(EXIT_INPUT, f"{token}: {exc}")
        rows.append((token, compute_metrics(result)))
    header = f"{'variant':<16} {'mean_latency_ms':>16} {'fog_to_cloud':>13} {'total_kwh':>14}"
    print(header)
    for token, metrics in rows:
        mean = metrics.latency_mean
        mean_text = "n/a" if mean is None else f"{mean:.3f}"
        print(f"{token:<16} {mean_text:>16} "
              f"{metrics.fog_to_cloud:>13} {metrics.total_kwh:>14.9f}")
    return EXIT_OK


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _formats(text: str) -> tuple[str, ...]:
    chosen = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [part for part in chosen if part not in FORMATS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown formats {unknown}: choose from {', '.join(FORMATS)}"
        )
    return chosen


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogloop",
        description="Deterministic simulator for fog-hosted IoT control loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("path")

    p_run = sub.add_parser("run", help="simulate a scenario and write artifacts")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", required=True, type=_non_negative)
    p_run.add_argument("--until-ms", required=True, type=_positive)
    p_run.add_argument("--mode", choices=MODE_VARIANTS)
    p_run.add_argument("--out")
    p_run.add_argument("--format", type=_formats, default=FORMATS)

    p_compare = sub.add_parser("compare", help="run variants on equal seeds")
    p_compare.add_argument("--scenario", required=True)
    p_compare.add_argument("--variants", required=True)
    p_compare.add_argument("--seed", required=True, type=_non_negative)
    p_compare.add_argument("--until-ms", required=True, type=_positive)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.path)
        if args.command == "run":
            return cmd_run(args.scenario, args.mode, args.seed, args.until_ms,
                           args.out, args.format)
        variants = [part.strip() for part in args.variants.split(",") if part.strip()]
        if not variants:
            return _fail(EXIT_INPUT, "no variants given")
        return cmd_compare(args.scenario, variants, args.seed, args.until_ms)
    except Exception:  # a fault of the program, not of the scenario
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
