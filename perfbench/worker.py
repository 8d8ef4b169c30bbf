"""One phase of one workload, run in a fresh interpreter by `run.py`.

Drives the `voicehr` CLI verbs in-process through `voicehr.cli.main`,
one verb at a time (a closed loop with one client), times each verb and
writes a JSON record. With `--trace 1` every public `voicehr` function
is wrapped by `tracer.Tracer` for the whole phase; without it a
`HostProbe` samples the host's speed while each verb runs.

Phases: `prepare` writes the inputs a timed phase reads (report_sweep
only); `measure` is the timed part.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import signal
import sys
import time
from pathlib import Path

import numpy
import scipy

import voicehr
from voicehr import cli

from tracer import Tracer, calibrate_overhead, layer_stats, nested_measures

# Every workload synthesizes the ROADMAP reference corpus. The corpus seed
# is fixed because the default SynthSpec cannot be built for about one seed
# in nine: a joy or anger take draws a feature-distance target near 25 that
# a low-pitched voice cannot reach, and synth exits 4. --seed picks the
# report's holdout/split seeds instead.
CORPUS_SEED = 2024
# SynthSpec fields per workload
SPECS = {
    "full_pipeline": {},
    "many_speakers": {"n_subjects": 100, "takes_per_emotion": 10},
    # the first 5 subjects of the reference corpus, file for file: a full
    # corpus here made set-up 45 s of an 80 s run
    "report_sweep": {"n_subjects": 5},
}
# a report_sweep pass is this many reports, so p75 has ten samples beyond it
MIN_REPORTS = 40
# the other workloads add 9 reports after the timed passes, so
# report_s_* is a median of 10 rather than one sample
EXTRA_REPORTS = 9


# The host probe runs every PROBE_PERIOD_S, about 3 ms of work each time
PROBE_PERIOD_S = 0.25


class HostProbe:
    """Times a fixed slice of work on a timer while the verbs run.

    A shared host changes speed by up to a third over minutes, for this
    process and the program alike. The probe is the benchmark's own work:
    numpy on a synth-sized signal, a pure-Python loop, and text formatted
    and parsed as in the ECG CSVs, on buffers made once, so its time
    depends on the host and not on the program. Each verb records the
    probe times taken while it ran, and `run.py` scales the verb's time
    by them.
    """

    def __init__(self):
        self.t = numpy.arange(6400) / 16000.0
        self.k = numpy.arange(1.0, 33.0)[:, None]
        self.phase = numpy.empty((32, 6400))
        self.signal = numpy.empty(6400)
        self.frames = numpy.arange(400)[None, :] + 160 * numpy.arange(38)[:, None]
        self.window = numpy.hamming(400)
        self.mel = numpy.random.default_rng(0).random((257, 26))
        self.samples: list[float] = []

    def work(self) -> float:
        numpy.multiply(self.k, self.t, out=self.phase)
        numpy.sin(self.phase, out=self.phase)
        numpy.divide(self.phase, self.k, out=self.phase)
        numpy.sum(self.phase, axis=0, out=self.signal)
        spectrum = numpy.abs(numpy.fft.rfft(self.signal[self.frames] * self.window, 512))
        numpy.log(spectrum @ self.mel + 1e-10)
        best, prev = 0.0, 0.0
        for x in self.signal[:1500].tolist():
            best, prev = max(best, x - prev), x
        text = "".join(f"{x:.6f}\n" for x in self.signal[:500].tolist())
        return best + sum(float(line) for line in text.splitlines())

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.work()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Run:
    def __init__(self, workdir: Path, probe: HostProbe | None):
        self.workdir = workdir
        self.probe = probe
        self.pass_index: int | None = None
        self.verbs: list[dict] = []

    def verb(self, *argv: str) -> bool:
        """Run one CLI verb in-process; its stdout is discarded.

        The verb's time excludes the probe time taken inside it.
        """
        samples = self.probe.samples if self.probe else []
        n0 = len(samples)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(argv))
        seconds = time.perf_counter() - t0
        probe = samples[n0:]
        self.verbs.append({"verb": argv[0], "rc": rc, "s": seconds - sum(probe),
                           "probe_s": probe, "pass": self.pass_index})
        return rc == 0

    def path(self, *parts: str) -> str:
        return str(self.workdir.joinpath(*parts))


def synth_extract_fit(run: Run, workload: str) -> bool:
    spec = run.path("spec.json")
    Path(spec).write_text(json.dumps({**SPECS[workload], "seed": CORPUS_SEED}))
    return (run.verb("synth", "--spec", spec, "--out", run.path("corpus"))
            and run.verb("extract", "--manifest", run.path("corpus", "manifest.csv"),
                         "--out", run.path("features.csv"))
            and run.verb("fit", "--features", run.path("features.csv"),
                         "--out", run.path("models")))


def report(run: Run, holdout_seed: int) -> bool:
    config = run.path("configs", f"seed_{holdout_seed}.json")
    Path(config).parent.mkdir(parents=True, exist_ok=True)
    Path(config).write_text(json.dumps({"seed": holdout_seed}))
    return run.verb("report", "--features", run.path("features.csv"),
                    "--models", run.path("models"), "--config", config,
                    "--out", run.path("reports", f"seed_{holdout_seed}"))


def measure(run: Run, workload: str, seed: int, seconds: float) -> list[float]:
    """The timed part, repeated until `seconds` have passed; wall time per pass.

    A pass is synth -> extract -> fit -> report, or for report_sweep
    MIN_REPORTS reports, with holdout/split seeds counting up from `seed`.
    Each verb records its pass; the EXTRA_REPORTS after the passes have
    none and are timed only as report samples.
    """
    t0 = time.perf_counter()
    passes = []
    while True:
        start = time.perf_counter()
        run.pass_index = len(passes)
        if workload == "report_sweep":
            base = seed + len(passes) * MIN_REPORTS
            ok = all(report(run, base + i) for i in range(MIN_REPORTS))
        else:
            ok = synth_extract_fit(run, workload) and report(run, seed)
        passes.append(time.perf_counter() - start)
        if not ok:
            return passes
        if time.perf_counter() - t0 >= seconds:
            break
    run.pass_index = None
    if workload != "report_sweep":
        for i in range(1, 1 + EXTRA_REPORTS):
            if not report(run, seed + i):
                break
    return passes


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(SPECS))
    p.add_argument("--phase", required=True, choices=["prepare", "measure"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="gzip CSV of every span (with --trace 1)")
    p.add_argument("--out", required=True, help="JSON record of this phase")
    args = p.parse_args()

    probe = None if args.trace else HostProbe()
    run = Run(Path(args.workdir), probe)
    run.workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else probe
    with tracer:
        if args.phase == "prepare":
            t0 = time.perf_counter()
            synth_extract_fit(run, args.workload)
            passes = [time.perf_counter() - t0]
        else:
            passes = measure(run, args.workload, args.seed, args.seconds)

    record = {
        "phase": args.phase,
        "passes_s": passes,
        "verbs": run.verbs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "voicehr": voicehr.__version__,
            "corpus_seed": CORPUS_SEED,
            "using_numba": bool(getattr(sys.modules.get("voicehr._kernels"),
                                        "USING_NUMBA", False)),
        },
    }
    if args.trace:
        rows, violations = layer_stats(tracer.spans)
        record["trace"] = {
            "layers": rows,
            "self_time_violations": violations,
            "counts": {**tracer.counts, **tracer.byte_counts(),
                       "measures": nested_measures(tracer.spans)},
            "spans": len(tracer.spans),
            "overhead_per_span_s": calibrate_overhead(),
        }
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
