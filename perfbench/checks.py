"""Output checks against the planted ledger, and digests of every output.

Reads only CSV/JSON files with the standard library, so the checks do
not depend on the code they check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Per-take limits against the ledger. At this commit the worst take is
# 0.57 bpm and 9.7% off; the fd gap is systematic, because extract
# enrolls on the mean neutral take and synth on the g = 0 clip.
HR_TOL_BPM = 2.0
FD_TOL_REL = 0.25
REPORT_FILES = ("table1_separate.csv", "table2_combined.csv",
                "table3_classifiers.csv", "table4_averages.csv", "summary.json")
EMOTIONS_PER_SUBJECT = 3


def _rows(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _key(row: dict) -> tuple:
    return row["subject_id"], row["emotion"], int(row["take_index"])


def check_takes(workdir: Path) -> dict:
    """Compare every ledger take with its features.csv row.

    A take fails when it is missing from features.csv, its values are not
    finite, or it is outside HR_TOL_BPM / FD_TOL_REL of the ledger. Rows of
    features.csv that match no ledger take also count as failures.
    """
    ledger = {_key(r): r for r in _rows(workdir / "corpus" / "ledger.csv")}
    manifest = _rows(workdir / "corpus" / "manifest.csv")
    features = {}
    extra = 0
    for row in _rows(workdir / "features.csv"):
        key = _key(row)
        extra += key in features or key not in ledger
        features[key] = row
    hr_err, fd_err, failed = [], [], extra + abs(len(manifest) - len(ledger))
    for key, planted in ledger.items():
        row = features.get(key)
        if row is None:
            failed += 1
            continue
        hr = abs(float(row["heart_rate_bpm"]) - float(planted["heart_rate_bpm"]))
        fd_planted = float(planted["feature_distance"])
        fd = abs(float(row["feature_distance"]) - fd_planted)
        hr_err.append(hr)
        fd_err.append(fd)
        failed += not (hr <= HR_TOL_BPM and fd <= FD_TOL_REL * fd_planted)
    subjects = {k[0] for k in ledger}
    return {"takes": len(ledger), "subjects": len(subjects), "failed": failed,
            "hr_err": hr_err, "fd_err": fd_err}


def check_report(report_dir: Path, n_subjects: int) -> list[str]:
    """Problems found in one rendered report; empty when it is sound."""
    missing = [f for f in REPORT_FILES if not (report_dir / f).is_file()]
    if missing:
        return [f"{report_dir.name}: missing {', '.join(missing)}"]
    problems = []
    with open(report_dir / "summary.json", "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    pct = summary.get("general_model_pct")
    if not (isinstance(pct, float) and math.isfinite(pct) and 0.0 < pct <= 100.0):
        problems.append(f"{report_dir.name}: general_model_pct {pct!r}")
    if len(summary.get("models", [])) != EMOTIONS_PER_SUBJECT * n_subjects:
        problems.append(f"{report_dir.name}: {len(summary.get('models', []))} models")
    if len(_rows(report_dir / "table1_separate.csv")) != n_subjects:
        problems.append(f"{report_dir.name}: table1 rows != {n_subjects} subjects")
    return problems


def general_model_pct(report_dir: Path) -> float:
    with open(report_dir / "summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh)["general_model_pct"]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_tree(root: Path) -> str:
    """One digest over every file under root: sorted relative path + content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(sha256_file(path).encode() + b"\n")
    return h.hexdigest()


def digests(workdir: Path, report_dir: Path) -> dict:
    """sha256 of the corpus, ledger, manifest, features and one report."""
    corpus = workdir / "corpus"
    out = {
        "corpus_audio": sha256_tree(corpus / "audio"),
        "corpus_ecg": sha256_tree(corpus / "ecg"),
        "ledger.csv": sha256_file(corpus / "ledger.csv"),
        "manifest.csv": sha256_file(corpus / "manifest.csv"),
        "features.csv": sha256_file(workdir / "features.csv"),
        "features_embeddings.csv": sha256_file(workdir / "features_embeddings.csv"),
    }
    for name in REPORT_FILES:
        out[f"report/{name}"] = sha256_file(report_dir / name)
    out["reports_all"] = sha256_tree(workdir / "reports")
    return out
