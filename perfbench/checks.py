"""Output-correctness gate for one benchmark pass.

Every check reads what the run wrote to its output directory, and compares it
with the in-memory report where both exist, so a corrupted file trips the
gate. Each check returns ``None`` when it holds, or a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import os

from fct.spectrum import FourierSpectrum


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_summary(outdir) -> dict[str, str]:
    out = {}
    with open(os.path.join(outdir, "summary.txt")) as fh:
        for line in fh:
            key, sep, value = line.strip().partition("=")
            if sep and not key.startswith("#"):
                out[key] = value
    return out


def check_scored(outdir, report, delay: int, expected_total: int):
    """``scored_instances == total_instances - delay`` at the stated length."""
    s = read_summary(outdir)
    total, scored = int(s["total_instances"]), int(s["scored_instances"])
    if total != expected_total or report.total_instances != total:
        return f"total_instances {total} (report {report.total_instances}), expected {expected_total}"
    if scored != total - delay or report.scored_instances != scored:
        return f"scored_instances {scored} (report {report.scored_instances}), expected {total - delay}"
    return None


def check_accuracy(outdir, report):
    """Accuracies lie in [0, 1]; the last metrics row agrees with the summary."""
    s = read_summary(outdir)
    acc = float(s["overall_accuracy"])
    if not 0.0 <= acc <= 1.0:
        return f"overall_accuracy {acc} outside [0, 1]"
    if abs(acc - report.overall_accuracy) > 5e-7:
        return f"summary accuracy {acc} != report {report.overall_accuracy}"
    with open(os.path.join(outdir, "metrics.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return "metrics.csv has no rows"
    for row in rows:
        for key in ("windowed_acc", "overall_acc"):
            if not 0.0 <= float(row[key]) <= 1.0:
                return f"metrics.csv window {row['window_end']}: {key} {row[key]} outside [0, 1]"
    if rows[-1]["overall_acc"] != s["overall_accuracy"]:
        return f"last overall_acc {rows[-1]['overall_acc']} != summary {s['overall_accuracy']}"
    return None


def check_spectra(outdir, report):
    """Each stored spectrum round-trips through to_text/from_text exactly,
    and the exported file holds that same text."""
    repo_dir = os.path.join(outdir, "repository")
    with open(os.path.join(repo_dir, "index.csv"), newline="") as fh:
        listed = len(list(csv.DictReader(fh)))
    entries = report.state.repository.entries
    if listed != len(entries):
        return f"index.csv lists {listed} entries, repository holds {len(entries)}"
    for e in entries:
        text = e.spectrum.to_text()
        if FourierSpectrum.from_text(text) != e.spectrum:
            return f"entry {e.entry_id}: spectrum does not round-trip through text"
        with open(os.path.join(repo_dir, f"spectrum_{e.entry_id:04d}.txt")) as fh:
            if fh.read() != text:
                return f"entry {e.entry_id}: exported file differs from to_text()"
    return None


def check_identical(outdir, reference_dir, files=("metrics.csv", "drifts.csv")):
    """The named output files are byte-identical to a reference run's."""
    for name in files:
        a, b = os.path.join(outdir, name), os.path.join(reference_dir, name)
        if sha256(a) != sha256(b):
            return f"{name} differs from {b}"
    return None


def guarded(check, *args):
    """Run one check; a check that raises has failed."""
    try:
        return check(*args)
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def check_pass(outdir, report, delay: int, expected_total: int) -> dict:
    """The per-pass checks, by name."""
    return {
        "scored": guarded(check_scored, outdir, report, delay, expected_total),
        "accuracy": guarded(check_accuracy, outdir, report),
        "spectra": guarded(check_spectra, outdir, report),
    }
