"""Command line front end: configure a run, execute it, write result files.

Outputs per run directory:
  metrics.csv   windowed and cumulative accuracy plus memory, one row per window
  drifts.csv    detected drift positions, flagged against known boundaries
  plotdata.csv  accuracy trajectories for external plotting
  summary.txt   scalar results, throughput, and the cost-model constants
  repository/   final repository snapshot (spectra plus index.csv)

Exit codes: 0 success, 1 runtime failure, 2 invalid arguments/config.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import driver, stream
from .adwin import BUCKET_BYTES
from .errors import (
    ConfigError,
    FctError,
    InvalidParamsError,
    InvalidScheduleError,
    UnsupportedDatasetError,
)
from .forest import ESTIMATOR_BYTES
from .hoeffding import NODE_BYTES
from .spectrum import COEFF_BYTES, SPECTRUM_HEADER_BYTES

log = logging.getLogger(__name__)

DATASETS = (*stream.DATASETS, "file")

# detections at most this far after a boundary count as true positives
DRIFT_MATCH_HORIZON = 2000


@dataclass(frozen=True)
class Option:
    """One run option: how it parses, its default, and its command line help."""

    type: type
    default: object
    help: str
    sweepable: bool = False
    choices: Optional[tuple] = None


# The single declaration of every option; it drives the command line flags
# (``--repo-cap`` for ``repo_cap``), config-file keys and sweeps.
OPTIONS = {
    "dataset": Option(str, "sea", "stream source", choices=DATASETS),
    "file": Option(str, None, "input csv when --dataset file"),
    "noise": Option(float, 0.10, "label flip probability", True),
    "energy": Option(float, 0.95, "spectrum energy threshold", True),
    "tau": Option(float, 0.01, "winner tie margin", True),
    "delay": Option(int, 200, "label arrival delay", True),
    "repo_cap": Option(int, 50, "repository capacity", True),
    "adwin_delta": Option(float, 0.01, "detector confidence", True),
    "seed": Option(int, 1, "stream seed", True),
    "segments": Option(str, "4x5000x25", "COUNTxLENGTHxRECURRENCES"),
    "mode": Option(str, "fct", "fct, or cbdt to disable the repository"),
    "out": Option(str, "results", "output directory"),
    "bits_per_attr": Option(int, 3, "bits per numeric attribute", True),
    "window": Option(int, 1000, "metrics window size"),
}

DEFAULTS = {key: opt.default for key, opt in OPTIONS.items()}

SWEEPABLE = tuple(key for key, opt in OPTIONS.items() if opt.sweepable)


def _coerce(key: str, text: str):
    """Parse a config-file or sweep value with its option's type."""
    opt = OPTIONS[key]
    try:
        value = opt.type(text)
    except ValueError:
        raise ConfigError(key, f"cannot parse {text!r}") from None
    if opt.choices and value not in opt.choices:
        raise ConfigError(key, f"must be one of {', '.join(opt.choices)}")
    return value


def parse_segments(text: str) -> tuple[int, int, int]:
    """'CxLxR' = C concepts, L instances per segment, R recurrences."""
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ConfigError("segments", "expected COUNTxLENGTHxRECURRENCES")
    try:
        c, length, r = (int(p) for p in parts)
    except ValueError:
        raise ConfigError("segments", "parts must be integers") from None
    if c < 1 or length < 1 or r < 1:
        raise ConfigError("segments", "all parts must be positive")
    return c, length, r


def build_stream(opts: dict) -> stream.InstanceStream:
    if opts["dataset"] == "file":
        if not opts["file"]:
            raise ConfigError("file", "required when dataset=file")
        return stream.file_stream(opts["file"],
                                  bits_per_attribute=opts["bits_per_attr"])
    c, length, r = parse_segments(opts["segments"])
    pool = stream.DATASETS[opts["dataset"]].concepts
    if c > len(pool):
        raise ConfigError(
            "segments",
            f"dataset {opts['dataset']} defines at most {len(pool)} distinct concepts")
    schedule = stream.recurring_schedule(
        pool[:c], length, r, noise_probability=opts["noise"], base_seed=opts["seed"])
    return stream.synthetic_stream(opts["dataset"], schedule,
                                   bits_per_attribute=opts["bits_per_attr"])


def build_config(opts: dict) -> driver.FctConfig:
    """The driver config of a full option set; checks every value once."""
    if not 0 <= opts["noise"] <= 1:  # NaN fails too
        raise ConfigError("noise", "must be in [0, 1]")
    if not 1 <= opts["bits_per_attr"] <= stream.MAX_BITS_PER_ATTRIBUTE:
        raise ConfigError("bits_per_attr",
                          f"must be in [1, {stream.MAX_BITS_PER_ATTRIBUTE}]")
    if opts["seed"] < 0:
        raise ConfigError("seed", "must be >= 0")
    return driver.FctConfig(
        energy_threshold=opts["energy"],
        winner_tie_margin=opts["tau"],
        repository_capacity=opts["repo_cap"],
        adwin_delta=opts["adwin_delta"],
        label_delay=opts["delay"],
        mode=opts["mode"],
    )


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            where = f"{path} line {lineno}"
            if not sep or key not in OPTIONS:
                raise ConfigError(key or "entry",
                                  "unknown or malformed config entry", where)
            try:
                out[key] = _coerce(key, value.strip())
            except ConfigError as e:
                raise ConfigError(key, e.message, where) from None
    return out


def _merge_options(ns: argparse.Namespace) -> dict:
    opts = dict(DEFAULTS)
    if getattr(ns, "config", None):
        opts.update(_load_config_file(ns.config))
    for key in OPTIONS:
        v = getattr(ns, key, None)
        if v is not None:
            opts[key] = v
    return opts


def write_outputs(report: driver.RunReport, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "metrics.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["window_end", "windowed_acc", "overall_acc",
                    "forest_bytes", "repo_bytes", "winner_source", "winner_id"])
        for row in report.windows:
            w.writerow([row.window_end, f"{row.windowed_acc:.6f}",
                        f"{row.overall_acc:.6f}", row.forest_bytes,
                        row.repo_bytes, row.winner_source, row.winner_id])

    boundaries = list(report.truth_boundaries)
    with open(os.path.join(outdir, "drifts.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["position", "true_boundary"])
        for p in report.drift_positions:
            hit = any(0 <= p - b <= DRIFT_MATCH_HORIZON for b in boundaries)
            w.writerow([p, 1 if hit else 0])

    with open(os.path.join(outdir, "plotdata.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["window_end", "windowed_acc", "overall_acc"])
        for row in report.windows:
            w.writerow([row.window_end, f"{row.windowed_acc:.6f}",
                        f"{row.overall_acc:.6f}"])

    state = report.state
    lines = [
        f"total_instances={report.total_instances}",
        f"scored_instances={report.scored_instances}",
        f"overall_accuracy={report.overall_accuracy:.6f}",
        f"detected_drifts={len(report.drift_positions)}",
        f"true_boundaries={len(boundaries)}",
        f"winner_switches={len(report.winner_switches)}",
        f"final_winner={state.winner.source}:{state.winner.model_id}",
        f"final_forest_bytes={state.forest.memory_bytes()}",
        f"final_repo_bytes={state.repository.memory_bytes()}",
        f"repository_entries={len(state.repository)}",
        f"forest_trees={len(state.forest)}",
        f"forest_nodes={state.forest.total_node_count()}",
        f"wall_seconds={report.wall_seconds:.3f}",
        f"throughput_inst_per_sec={report.throughput:.1f}",
        "# cost model constants (bytes)",
        f"node_bytes={NODE_BYTES}",
        f"estimator_bytes={ESTIMATOR_BYTES}",
        f"coeff_bytes={COEFF_BYTES}",
        f"spectrum_header_bytes={SPECTRUM_HEADER_BYTES}",
        f"adwin_bucket_bytes={BUCKET_BYTES}",
    ]
    with open(os.path.join(outdir, "summary.txt"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    state.repository.export(os.path.join(outdir, "repository"))


def run_once(opts: dict) -> driver.RunReport:
    cfg = build_config(opts)
    instances = build_stream(opts)
    report = driver.run(instances, cfg, window_size=opts["window"])
    write_outputs(report, opts["out"])
    return report


def run_sweep(opts: dict, parameter: str, values_text: str) -> None:
    """Re-run the same configuration varying one parameter; shared base seed."""
    if parameter not in SWEEPABLE:
        raise ConfigError("parameter", f"must be one of {', '.join(SWEEPABLE)}")
    values = [_coerce(parameter, v.strip()) for v in values_text.split(",") if v.strip()]
    if not values:
        raise ConfigError("values", "no values given")
    base_out = opts["out"]
    runs = [dict(opts, **{parameter: v, "out": os.path.join(base_out, f"{parameter}={v}")})
            for v in values]
    for sub in runs:
        build_config(sub)  # every value is checked before the first (long) run
    rows = [(sub[parameter], run_once(sub)) for sub in runs]
    os.makedirs(base_out, exist_ok=True)
    with open(os.path.join(base_out, "sweep.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([parameter, "overall_acc", "scored_instances",
                    "detected_drifts", "repository_entries",
                    "final_repo_bytes", "final_forest_bytes"])
        for v, rep in rows:
            st = rep.state
            w.writerow([v, f"{rep.overall_accuracy:.6f}", rep.scored_instances,
                        len(rep.drift_positions), len(st.repository),
                        st.repository.memory_bytes(),
                        st.forest.memory_bytes()])


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file; command line wins")
    for key, opt in OPTIONS.items():
        default = "" if opt.default is None else f" (default {opt.default})"
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=opt.type,
                       choices=opt.choices, help=opt.help + default)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fct",
        description="Recurrent-concept stream mining with compressed tree reuse")
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one stream run")
    _add_common_flags(runp)
    sweepp = sub.add_parser("sweep", help="vary one parameter over a value list")
    _add_common_flags(sweepp)
    sweepp.add_argument("--parameter", required=True)
    sweepp.add_argument("--values", required=True,
                        help="comma separated value list")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    ns = _parser().parse_args(argv)
    try:
        opts = _merge_options(ns)
        if ns.command == "run":
            report = run_once(opts)
            print(f"instances={report.total_instances} "
                  f"accuracy={report.overall_accuracy:.4f} "
                  f"drifts={len(report.drift_positions)} "
                  f"out={opts['out']}")
        else:
            run_sweep(opts, ns.parameter, ns.values)
            print(f"sweep complete: {os.path.join(opts['out'], 'sweep.csv')}")
    except (ConfigError, InvalidParamsError, InvalidScheduleError,
            UnsupportedDatasetError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FctError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
