"""Pipeline benchmark for voicehr: one workload per invocation.

    python3 perfbench/run.py --workload full_pipeline --seed 2024 --seconds 20 --trace 0

Run from a source checkout; nothing needs installing (the children get
`PYTHONPATH=src`). Each run:

1. times a fresh interpreter importing `voicehr.cli`, three times;
2. for report_sweep, runs synth -> extract -> fit in a child (set-up);
3. runs the timed part in a fresh child (`worker.py`), one CLI verb at a
   time, so the child's peak RSS is the run's;
4. checks every take against the planted `ledger.csv` and every report,
   and records sha256 digests of all outputs;
5. prints every metric with its unit, then one JSON line.

`--trace 0` reports the end-to-end metrics, with times scaled by the
host probe the children run (`worker.HostProbe`); `--trace 1` reruns the
same phases with every public `voicehr` function wrapped and reports
per-layer calls, total and self time. Full records go to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("full_pipeline", "many_speakers", "report_sweep")
PREPARED = ("report_sweep",)  # workloads whose inputs are made during set-up
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 170

# Per-layer functions: (metric prefix, span name, binding site or None).
# A span name "*.f" matches f in whichever module defines it, so a kernel
# that moves module keeps its metric.
LAYER_FUNCTIONS = [
    ("synth.generate_synthetic_corpus", "synth.generate_synthetic_corpus", None),
    ("synth.synth_utterance", "synth.synth_utterance", None),
    ("synth.FdTargeter.solve", "synth.FdTargeter.solve", None),
    ("synth.synth_ecg", "synth.synth_ecg", None),
    ("synth.mfcc", "speech_features.mfcc", "synth"),
    ("signal_io.write_audio", "signal_io.write_audio", None),
    ("signal_io.write_ecg", "signal_io.write_ecg", None),
    ("signal_io.load_audio", "signal_io.load_audio", None),
    ("signal_io.load_ecg", "signal_io.load_ecg", None),
    ("signal_io.load_manifest", "signal_io.load_manifest", None),
    ("speech_features.mfcc", "speech_features.mfcc", None),
    ("speech_features.feature_distance", "speech_features.feature_distance", None),
    ("speech_features.subject_reference", "speech_features.subject_reference", None),
    ("ecg_hr.extract_heart_rate", "ecg_hr.extract_heart_rate", None),
    ("ecg_hr.detect_r_peaks", "ecg_hr.detect_r_peaks", None),
    ("kernels.refractory_select", "*.refractory_select", "ecg_hr"),
    ("extract.extract_observations", "extract.extract_observations", None),
    ("extract.write_features_csv", "extract.write_features_csv", None),
    ("classify.train_cvr", "classify.train_cvr", None),
    ("classify.train_gnb", "classify.train_gnb", None),
    ("classify.train_knn", "classify.train_knn", None),
    ("classify.classification_accuracy", "classify.classification_accuracy", None),
    ("classify.split", "classify.split", None),
    ("kernels.best_split_scan", "*.best_split_scan", "classify"),
    ("regression.fit_ols", "regression.fit_ols", None),
    ("regression.save_model", "regression.save_model", None),
    ("pipeline.build_report", "pipeline.build_report", None),
    ("pipeline.filter_observations", "pipeline.filter_observations", None),
    ("pipeline.run_experiment_separate", "pipeline.run_experiment_separate", None),
    ("pipeline.run_experiment_combined", "pipeline.run_experiment_combined", None),
    ("pipeline.classifier_matrix", "pipeline.classifier_matrix", None),
    ("pipeline.render_report", "pipeline.render_report", None),
]
# Counts taken at layer boundaries: metric -> (counter key, unit).
LAYER_COUNTS = {
    "signal_io.bytes_written": ("bytes_written", "bytes"),
    "signal_io.bytes_read": ("bytes_read", "bytes"),
    "speech_features.frames": ("frames", "count"),
    "ecg_hr.samples": ("samples", "count"),
    "pipeline.rows_rejected": ("rows_rejected", "count"),
    "pipeline.cells_skipped": ("cells_skipped", "count"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for metric, _, _ in LAYER_FUNCTIONS:
        units.update({f"{metric}.calls": "count", f"{metric}.total_s": "s",
                      f"{metric}.self_s": "s"})
    units["synth.measures_per_take"] = "count"
    units["extract.fd_err_p95"] = "fd"
    units.update({m: unit for m, (_, unit) in LAYER_COUNTS.items()})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


# Probe time the end-to-end times are scaled to (see worker.HostProbe): about
# its median on a 2-vCPU Xeon KVM guest
PROBE_NOMINAL_S = 0.003

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "synth_takes_per_s": "1/s",
    "extract_takes_per_s": "1/s", "report_s_p50": "s", "report_s_p75": "s",
    "peak_rss_mb": "MB", "hr_err_p95_bpm": "bpm", "fd_err_p95": "fd",
    "general_model_pct": "%",
}


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import the CLI and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import voicehr.cli"], env=child_env(),
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def run_worker(args, phase: str, workdir: Path, results: Path) -> dict:
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{phase}"
    out = results / f"{stem}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--phase", phase, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--out", str(out)]
    if args.trace:
        cmd += ["--spans", str(results / f"{stem}-spans.csv.gz")]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh)


def host_factor(verbs, probe: bool) -> float:
    """PROBE_NOMINAL_S over the median probe time taken during `verbs`; 1 unscaled."""
    if not probe:
        return 1.0
    return PROBE_NOMINAL_S / statistics.median(p for v in verbs for p in v["probe_s"])


def scaled(verbs, probe: bool) -> list[float]:
    """Verb times, scaled to PROBE_NOMINAL_S by the median probe over `verbs`."""
    k = host_factor(verbs, probe)
    return [v["s"] * k for v in verbs]


def end_to_end(records, measured, setup_s: float, takes: dict, report_dirs,
               probe: bool = True) -> dict:
    """The end-to-end metrics; with `probe`, times are at the probe's nominal speed.

    synth and extract are scaled verb by verb, a pass and the report
    samples each by their pooled probe times (a report is too short to
    hold more than a sample or two), and set-up, which runs no probe, by
    the run's.
    """
    verbs = [v for r in records for v in r["verbs"]]
    synth = [scaled([v], probe)[0] for v in verbs if v["verb"] == "synth"]
    extract = [scaled([v], probe)[0] for v in verbs if v["verb"] == "extract"]
    passes = sorted({v["pass"] for v in measured["verbs"] if v["pass"] is not None})
    wall = [sum(scaled([v for v in measured["verbs"] if v["pass"] == i], probe))
            for i in passes]
    report_s = scaled([v for v in measured["verbs"] if v["verb"] == "report"], probe)
    return {
        "setup_s": setup_s * host_factor(verbs, probe),
        "wall_s": statistics.median(wall),
        "synth_takes_per_s": takes["takes"] / statistics.median(synth),
        "extract_takes_per_s": takes["takes"] / statistics.median(extract),
        "report_s_p50": quantile(report_s, 0.50),
        "report_s_p75": quantile(report_s, 0.75),
        "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
        "hr_err_p95_bpm": quantile(takes["hr_err"], 0.95),
        "fd_err_p95": quantile(takes["fd_err"], 0.95),
        "general_model_pct": statistics.median(
            checks.general_model_pct(d) for d in report_dirs),
    }


def per_layer(records, measured, takes: dict) -> dict:
    rows = [row for r in records for row in r["trace"]["layers"]]
    counts: dict[str, int] = {}
    for r in records:
        for key, n in r["trace"]["counts"].items():
            counts[key] = counts.get(key, 0) + n
    metrics = {}
    for metric, name, site in LAYER_FUNCTIONS:
        hits = [row for row in rows
                if (row["name"] == name or (name.startswith("*.")
                                            and row["name"].endswith(name[1:])))
                and (site is None or row["site"] == site)]
        metrics[f"{metric}.calls"] = sum(row["calls"] for row in hits)
        metrics[f"{metric}.total_s"] = sum(row["total_s"] for row in hits)
        metrics[f"{metric}.self_s"] = sum(row["self_s"] for row in hits)
    solves = metrics["synth.FdTargeter.solve.calls"]
    metrics["synth.measures_per_take"] = counts.get("measures", 0) / solves if solves else 0.0
    metrics["extract.fd_err_p95"] = quantile(takes["fd_err"], 0.95)
    for metric, (key, _) in LAYER_COUNTS.items():
        metrics[metric] = counts.get(key, 0)
    trace = measured["trace"]
    metrics["trace.wall_s"] = statistics.median(measured["passes_s"])
    metrics["trace.overhead_s"] = trace["spans"] * trace["overhead_per_span_s"]
    metrics["trace.spans"] = sum(r["trace"]["spans"] for r in records)
    return metrics


def environment(args, measured) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {**measured["env"], "nproc": len(os.sched_getaffinity(0)),
            "git_commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def benchmark(args, workdir: Path, results: Path) -> dict:
    probes = [] if args.trace else [import_seconds() for _ in range(IMPORT_PROBES)]
    setup_s = statistics.median(probes) if probes else 0.0
    records = []
    if args.workload in PREPARED:
        records.append(run_worker(args, "prepare", workdir, results))
        setup_s += sum(records[-1]["passes_s"])
    measured = run_worker(args, "measure", workdir, results)
    records.append(measured)

    verbs = [v for r in records for v in r["verbs"]]
    problems = [f"{v['verb']} exited {v['rc']}" for v in verbs if v["rc"] != 0]
    takes = checks.check_takes(workdir) if not problems else None
    reports = workdir / "reports"
    report_dirs = sorted(reports.iterdir()) if reports.is_dir() else []
    bad_reports = 0
    for d in report_dirs:
        found = checks.check_report(d, takes["subjects"] if takes else 0)
        bad_reports += bool(found)
        problems += found
    violations = sum(r.get("trace", {}).get("self_time_violations", 0) for r in records)
    if violations:
        problems.append(f"{violations} spans whose children outlast them")
    attempted = len(verbs) + (takes["takes"] if takes else 0) + len(report_dirs)
    failed = (sum(v["rc"] != 0 for v in verbs) + (takes["failed"] if takes else 0)
              + bad_reports + (violations > 0))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "env": environment(args, measured),
        "problems": problems,
        "setup_probes_s": probes,
        "report_samples": sum(v["verb"] == "report" for v in measured["verbs"]),
        "takes": takes["takes"] if takes else 0,
    }
    if not takes or not takes["hr_err"] or not report_dirs:
        result["metrics"] = {}
        return result
    result["digests"] = checks.digests(workdir, report_dirs[0])
    if args.trace:
        values, units = per_layer(records, measured, takes), per_layer_units()
    else:
        values = end_to_end(records, measured, setup_s, takes, report_dirs)
        units = END_TO_END_UNITS
        result["unscaled"] = end_to_end(records, measured, setup_s, takes, report_dirs,
                                        probe=False)
        result["probe_median_s"] = statistics.median(
            p for r in records for v in r["verbs"] for p in v["probe_s"])
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="minimum length of the timed part")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running child, and through the finally below, which removes the work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "voicehr" / "__init__.py").is_file():
        print(f"error: no voicehr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench"
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = benchmark(args, workdir, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)

    for key, value in result["env"].items():
        print(f"env.{key:<28} {value}")
    for key, value in result.get("digests", {}).items():
        print(f"sha256.{key:<25} {value}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"{'takes':<32} {result['takes']}")
    print(f"{'report_samples':<32} {result['report_samples']}")
    print(f"{'error_rate':<32} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    if "probe_median_s" in result:
        print(f"{'probe_median_s':<32} {result['probe_median_s']:.6g} s")
        for key, value in result["unscaled"].items():
            print(f"{'unscaled.' + key:<32} {value:.6g} {END_TO_END_UNITS[key]}")
    for key, m in result["metrics"].items():
        print(f"{key:<32} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
