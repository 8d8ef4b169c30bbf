"""Run every CLI verb on a one-subject corpus and hash what they write.

`run_verbs(root)` writes, under `root`: the corpus of
`SynthSpec(seed=2024, n_subjects=1)` (270 takes), `features.csv`, its
embeddings CSV and the per-take cepstra from `extract --cepstra-dir`,
the model stores of `fit` in both modes, `report --models` and the
`classify` matrix of each algorithm. `digests(root)` is the sha256 of
every file under `root`, keyed by its relative path.

Run as a script to regenerate `tests/data/outputs_sha256.json`, which
`tests/test_outputs_sha256.py` compares against:

    PYTHONPATH=src python3 tests/make_outputs_sha256.py

Only a change that means to alter output bytes regenerates it, and lists
the old and new digests it changes.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from voicehr import pipeline
from voicehr.cli import EXIT_OK, main
from voicehr.signal_io import write_json
from voicehr.synth import SynthSpec

GOLDEN = Path(__file__).parent / "data" / "outputs_sha256.json"
SPEC = SynthSpec(seed=2024, n_subjects=1)


def run_verbs(root: Path) -> Path:
    """Every verb's outputs under `root / "out"`; returns that directory."""
    spec_path = root / "spec.json"
    write_json(spec_path, SPEC)
    out = root / "out"
    features = str(out / "features.csv")
    runs = [
        ["synth", "--spec", str(spec_path), "--out", str(out / "corpus")],
        ["extract", "--manifest", str(out / "corpus" / "manifest.csv"), "--out", features,
         "--cepstra-dir", str(out / "cepstra")],
        ["fit", "--features", features, "--mode", "separate", "--out", str(out / "separate")],
        ["fit", "--features", features, "--mode", "combined", "--out", str(out / "combined")],
        ["report", "--features", features, "--models", str(out / "separate"),
         "--out", str(out / "report")],
    ] + [["classify", "--features", features, "--algo", algo,
          "--out", str(out / f"classify_{algo}.csv")] for algo in pipeline.ALGORITHMS]
    for argv in runs:
        if main(argv) != EXIT_OK:
            raise RuntimeError(f"voicehr {' '.join(argv)} failed")
    return out


def digests(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def regenerate() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(run_verbs(Path(tmp)))
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
