"""Batch command-line interface.

Verbs: synth, extract, fit, classify, report, predict. Exit codes:
0 success, 2 validation error, 3 data error, 4 convergence failure.
The class of an error is its type's `exit_code`; an `OSError` is a data
error, and any other exception is a bug, shown as a traceback (exit 1).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline, synth
from .classify import read_embeddings_csv, write_embeddings_csv
from .config import HoldoutSpec, PipelineConfig
from .errors import MissingFileError, SpecInvalidError, VoicehrError, named
from .extract import extract_observations, write_features_csv
from .regression import load_model, predict, read_features_csv, save_model
from .signal_io import load_manifest, read_json, write_table

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4

# An error is one line, though a path from a manifest may hold a line break
_ONE_LINE = str.maketrans({"\n": "\\n", "\r": "\\r"})


def _load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return PipelineConfig.from_dict(read_json(path, dict), path)


def embeddings_csv_path(features_path) -> Path:
    """Sibling file carrying the embedding vectors next to features CSV."""
    p = Path(features_path)
    return p.with_name(p.stem + "_embeddings.csv")


def _read_embeddings(features_path) -> dict:
    """The embeddings CSV that `extract` writes next to the features CSV."""
    emb_path = embeddings_csv_path(features_path)
    if not emb_path.is_file():
        raise MissingFileError(f"embeddings file {emb_path} not found (run extract first)")
    return read_embeddings_csv(emb_path)


def cmd_synth(args) -> int:
    spec = read_json(args.spec, synth.SynthSpec) if args.spec else synth.SynthSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    manifest_path, ledger = synth.generate_synthetic_corpus(spec, args.out)
    print(f"wrote {len(ledger)} takes; manifest at {manifest_path}")
    return EXIT_OK


def cmd_extract(args) -> int:
    config = _load_config(args.config)
    manifest = load_manifest(args.manifest)
    observations, vectors_by_subject = extract_observations(
        manifest, config.feature, config.peak, cepstra_dir=args.cepstra_dir)
    write_features_csv(observations, args.out)
    write_embeddings_csv(vectors_by_subject, embeddings_csv_path(args.out),
                         config.feature.n_cepstra)
    print(f"wrote {len(observations)} observations to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    """The in-sample regression experiment; its models go into the store."""
    config = _load_config(args.config)
    observations = read_features_csv(args.features)
    experiment = (pipeline.run_experiment_separate if args.mode == "separate"
                  else pipeline.run_experiment_combined)
    with named(args.features):
        kept, rejected = pipeline.kept_observations(observations, config.filter_window)
        _, models, skipped = experiment(kept, replace(config, holdout=HoldoutSpec(in_sample=True)))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for model in models:
        save_model(model, outdir / f"{model.subject_id}_{model.emotion}.json")
    print(f"fitted {len(models)} models ({len(rejected)} rows filtered out, "
          f"{len(skipped)} cells skipped)")
    return EXIT_OK


def cmd_classify(args) -> int:
    config = _load_config(args.config)
    vectors_by_subject = _read_embeddings(args.features)
    with named(embeddings_csv_path(args.features)):
        matrix, subjects, skipped = pipeline.classifier_matrix(vectors_by_subject, config,
                                                               algorithms=(args.algo,))
    for _, reason in skipped:
        print(f"skipped {reason}", file=sys.stderr)
    write_table(sys.stdout if args.out is None else args.out, ["classifier"] + subjects,
                [[args.algo] + [pipeline.round2(matrix[args.algo][s]) for s in subjects]])
    return EXIT_OK


def cmd_report(args) -> int:
    config = _load_config(args.config)
    observations = read_features_csv(args.features)
    report = pipeline.build_report(observations, _read_embeddings(args.features), config,
                                   (args.features, embeddings_csv_path(args.features)))
    models = None
    if args.models:
        models = [load_model(p) for p in sorted(Path(args.models).glob("*.json"))]
    written = pipeline.render_report(report, args.out, models)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_predict(args) -> int:
    # a feature distance is a Euclidean norm
    if not (math.isfinite(args.fd) and args.fd >= 0):
        raise SpecInvalidError(f"--fd must be a finite number >= 0, got {args.fd}")
    model = load_model(args.model)
    print(f"{predict(model, args.fd):g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voicehr",
        description="Estimate heart rate from speech feature distances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--spec", help="SynthSpec JSON file (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="manifest -> feature/heart-rate observations")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output features CSV")
    p.add_argument("--cepstra-dir", help="also write each take's cepstra CSV into this directory")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fit", help="fit per-cell linear models into a model store")
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=["separate", "combined"], default="separate")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True, help="model store directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("classify", help="per-subject classifier accuracy matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--algo", choices=list(pipeline.ALGORITHMS), default="cvr")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="render the four evaluation tables + summary")
    p.add_argument("--features", required=True)
    p.add_argument("--models", help="model store directory to echo into the summary")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("predict", help="predict bpm from one feature distance")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--fd", type=float, required=True)
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VoicehrError as exc:
        print(f"error: {exc}".translate(_ONE_LINE), file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}".translate(_ONE_LINE), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
