"""Independent brute-force oracles shared by the test modules."""

import csv
import io
import math
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def dft_filter_energies(frames, fb, fft_size):
    """Mel filter energies via an explicit O(N^2) DFT summation (no FFT)."""
    windowed = frames * np.hamming(frames.shape[1])
    k = np.arange(fft_size // 2 + 1)[:, None]
    n = np.arange(frames.shape[1])[None, :]
    angles = -2.0 * np.pi * k * n / fft_size
    real = windowed @ np.cos(angles).T
    imag = windowed @ np.sin(angles).T
    return (real ** 2 + imag ** 2) @ fb.T


def frame_signal_fancy(samples, frame, hop):
    """(frames, frame) copy of `samples` cut by one fancy index of start + offset."""
    t = 0 if samples.size < frame else 1 + (samples.size - frame) // hop
    idx = np.arange(frame)[None, :] + hop * np.arange(t)[:, None]
    return samples[idx]


def frame_signal_sliding_window(samples, width, hop):
    """numpy's `sliding_window_view(samples, width)[::hop]`; no rows when `samples` is shorter."""
    if samples.size < width:
        return np.empty((0, width), dtype=samples.dtype)
    return sliding_window_view(samples, width)[::hop]


def mfcc_fancy_framing(clip, config):
    """Cepstra of `mfcc`'s steps with fancy-index frames, a fresh np.hamming and scipy's rfft.

    The DCT is `mfcc`'s own matrix, so the bits compare framings only.
    """
    from scipy.fft import rfft

    from voicehr.speech_features import dct_matrix, mel_filterbank, pre_emphasize

    rate = clip.sample_rate_hz
    fft_size = config.resolve_fft_size(rate)
    frames = frame_signal_fancy(pre_emphasize(clip.samples, config.pre_emphasis),
                                config.frame_samples(rate), config.hop_samples(rate))
    windowed = frames * np.hamming(frames.shape[1])
    energies = (np.abs(rfft(windowed, n=fft_size, axis=1)) ** 2) @ mel_filterbank(
        config.n_mel_filters, fft_size, rate).T
    log_energies = np.log(np.maximum(energies, config.log_floor))
    return log_energies @ dct_matrix(config.n_mel_filters, config.n_cepstra)


def ols_closed_form(x, y):
    """Closed-form least-squares coefficients with compensated summation."""
    n = len(x)
    x_bar = math.fsum(x) / n
    y_bar = math.fsum(y) / n
    s_xx = math.fsum((xi - x_bar) ** 2 for xi in x)
    s_xy = math.fsum((xi - x_bar) * (yi - y_bar) for xi, yi in zip(x, y))
    beta1 = s_xy / s_xx
    beta0 = y_bar - beta1 * x_bar
    return beta0, beta1


def split_scan_loop(values, targets, min_leaf):
    """Best variance-reduction split of one ascending feature, one scalar step at a time.

    Returns (threshold, gain) with the first maximum winning ties, or
    (0.0, -1.0) when no split leaves `min_leaf` samples on both sides.
    """
    n = values.shape[0]
    best_gain = -1.0
    best_thr = 0.0
    if n < 2 * min_leaf:
        return best_thr, best_gain
    total = 0.0
    total_sq = 0.0
    for i in range(n):
        total += targets[i]
        total_sq += targets[i] * targets[i]
    parent_sse = total_sq - total * total / n
    left_sum = 0.0
    for i in range(n - 1):
        left_sum += targets[i]
        n_left = i + 1
        if n_left < min_leaf:
            continue
        if n - n_left < min_leaf:
            break
        if values[i + 1] <= values[i]:
            continue
        right_sum = total - left_sum
        children_sse = (total_sq
                        - left_sum * left_sum / n_left
                        - right_sum * right_sum / (n - n_left))
        gain = parent_sse - children_sse
        if gain > best_gain:
            best_gain = gain
            best_thr = 0.5 * (values[i] + values[i + 1])
    return best_thr, best_gain


def write_ecg_loop(record, path):
    """`# rate_hz=` ECG text, written one formatted sample at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# rate_hz={record.sample_rate_hz:g}\n")
        for v in record.samples:
            fh.write(f"{v:.6f}\n")


def load_ecg_rate_loop(path):
    """(rate, samples) of a `# rate_hz=` ECG file, parsed line by line.

    Blank lines are skipped; a line that is not one float, or whose
    finite value is 1e9 mV or more in magnitude, raises ValueError naming
    `path:lineno`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rate = float(fh.readline().strip().split("=", 1)[1])
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {line!r}") from None
            if 1e9 <= abs(value) < math.inf:
                raise ValueError(f"{path}:{lineno}: {line!r}: |value| must be below 1e+09 mV")
            values.append(value)
    return rate, np.asarray(values)


def synth_ecg_loop(bpm, rate_hz, duration_s, phase_s=0.0):
    """(samples, beat times) of a noiseless QRS-template train, one beat at a time."""
    from voicehr.synth import qrs_template_value

    n = int(round(rate_hz * duration_s))
    t = np.arange(n) / rate_hz
    signal = np.zeros(n)
    beats = []
    tb = phase_s
    bpm_fn = bpm if callable(bpm) else (lambda _t: bpm)
    while tb < duration_s:
        beats.append(tb)
        lo = max(0, int((tb - 0.35) * rate_hz))
        hi = min(n, int((tb + 0.45) * rate_hz) + 1)
        signal[lo:hi] += qrs_template_value(t[lo:hi] - tb)
        tb += 60.0 / bpm_fn(tb)
    return signal, np.asarray(beats)


def band_pass_filtfilt_fresh(samples, rate, band_low_hz=5.0, band_high_hz=15.0):
    """scipy's own filtfilt of a freshly designed detector band-pass."""
    from scipy import signal

    nyq = rate / 2.0
    high = min(band_high_hz, 0.99 * nyq)
    low = min(band_low_hz, 0.5 * high)
    b, a = signal.butter(2, [low / nyq, high / nyq], btype="band")
    return signal.filtfilt(b, a, samples)


def detect_r_peaks_scipy(record, config):
    """`detect_r_peaks` with scipy's filtfilt as its band-pass and scipy's uniform filter as its integrator."""
    from unittest import mock

    from scipy import ndimage

    from voicehr import ecg_hr

    def band_pass(samples, rate, config):
        return band_pass_filtfilt_fresh(samples, rate, config.band_low_hz, config.band_high_hz)

    def integrate(x, width):
        return ndimage.uniform_filter1d(x, size=width, mode="nearest")

    with mock.patch.object(ecg_hr, "band_pass_filtfilt", band_pass), \
            mock.patch.object(ecg_hr, "moving_mean", integrate):
        return ecg_hr.detect_r_peaks(record, config)


def refine_peaks_loop(power, peaks, half):
    """First maximum of `power` within `half` samples of each peak, one slice at a time."""
    refined = np.empty(peaks.size, dtype=np.int64)
    for i, p in enumerate(peaks):
        lo = max(0, p - half)
        hi = min(power.size, p + half + 1)
        refined[i] = lo + int(np.argmax(power[lo:hi]))
    return refined


def mean_rate_per_interval(rr):
    """Mean of `heart_rate_1500` called on each RR interval as a float."""
    from voicehr.ecg_hr import heart_rate_1500

    return float(np.mean([heart_rate_1500(float(r)) for r in rr]))


def threshold_candidates_median_filter(env, fraction, width, floor):
    """Interior maxima of `env` above max(fraction * scipy's running median, floor)."""
    from scipy import ndimage

    running_median = ndimage.median_filter(env, size=width, mode="nearest")
    threshold = np.maximum(fraction * running_median, floor)
    interior = (env[1:-1] > env[:-2]) & (env[1:-1] >= env[2:]) & (env[1:-1] > threshold[1:-1])
    return np.flatnonzero(interior) + 1


def refractory_select_numpy(candidates, strength, min_gap):
    """The refractory loop over numpy scalars, into a preallocated index array."""
    n = candidates.shape[0]
    kept = np.empty(n, dtype=np.int64)
    m = 0
    for i in range(n):
        if m == 0 or candidates[i] - candidates[kept[m - 1]] >= min_gap:
            kept[m] = i
            m += 1
        elif strength[i] > strength[kept[m - 1]]:
            kept[m - 1] = i
    return kept[:m]


def synth_utterance_formula(voice, g, rate_hz, duration_s, n_harmonics=10, peak=0.5):
    """Harmonic utterance samples, every sine evaluated afresh."""
    n = int(round(rate_hz * duration_s))
    t = np.arange(n) / rate_hz
    k = np.arange(1, n_harmonics + 1)
    amps = np.exp(g * voice.tilt) / k
    signal = np.sum(
        amps[:, None] * np.sin(2.0 * np.pi * voice.f0_hz * k[:, None] * t[None, :]
                               + voice.phases[:, None]),
        axis=0)
    signal *= peak / np.max(np.abs(signal))
    return signal


def generate_corpus_single_loop(spec, outdir):
    """Write a corpus and return its ledger the way the generator once did:
    one loop that solves, draws and writes each take in turn."""
    from voicehr.errors import ConvergenceFailureError
    from voicehr.signal_io import EMOTION_ORDER, EmotionLabel, ManifestEntry, write_audio, \
        write_ecg, write_manifest
    from voicehr.speech_features import mfcc, utterance_embedding
    from voicehr.synth import EMOTION_PROFILES, FdTargeter, PlantedTake, _draw_planted_lines, \
        make_voice, synth_ecg, synth_utterance, write_ledger

    outdir = Path(outdir)
    (outdir / "audio").mkdir(parents=True, exist_ok=True)
    (outdir / "ecg").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    entries, ledger = [], []
    for s in range(spec.n_subjects):
        subject_id = f"s{s + 1:02d}"
        voice = make_voice(rng)
        reference_clip = synth_utterance(voice, 0.0, spec.audio_rate_hz, spec.utterance_s)
        reference = utterance_embedding(mfcc(reference_clip, spec.feature))
        targeter = FdTargeter(voice, reference, spec)
        lines = _draw_planted_lines(rng, spec)
        for emotion in EMOTION_ORDER:
            beta0, beta1 = lines[emotion]
            lo, hi = EMOTION_PROFILES[emotion]["fd"]
            prev_target = None
            for take in range(spec.takes_per_emotion):
                if emotion == EmotionLabel.NEUTRAL:
                    if take % 2 == 0:
                        target_fd = float(rng.uniform(lo, hi))
                        prev_target = target_fd
                        sign = 1.0
                    else:
                        target_fd = prev_target
                        sign = -1.0
                else:
                    target_fd = float(rng.uniform(lo, hi))
                    sign = 1.0 if emotion == EmotionLabel.JOY else -1.0
                stem = f"{subject_id}_{emotion.value}_{take:03d}"
                try:
                    fd, clip = targeter.solve(target_fd, sign)
                except ConvergenceFailureError as exc:
                    raise ConvergenceFailureError(f"take {stem}: {exc}") from exc
                noise = float(rng.normal(0.0, spec.noise_std_bpm)) if spec.noise_std_bpm else 0.0
                hr = beta0 + beta1 * fd + noise
                hr = float(np.clip(hr, 35.0, 215.0))
                phase = float(rng.uniform(0.0, 60.0 / hr))
                ecg, _ = synth_ecg(hr, spec.ecg_rate_hz, spec.ecg_duration_s, phase_s=phase)
                audio_rel = f"audio/{stem}.wav"
                ecg_rel = f"ecg/{stem}.csv"
                write_audio(clip, outdir / audio_rel)
                write_ecg(ecg, outdir / ecg_rel)
                entries.append(ManifestEntry(subject_id, emotion, take, audio_rel, ecg_rel))
                ledger.append(PlantedTake(subject_id, emotion, take, beta0, beta1, fd, hr))
    write_manifest(entries, outdir / "manifest.csv")
    write_ledger(ledger, outdir / "ledger.csv")
    return ledger


# The table writers and readers as they were before the shared CSV codec:
# one csv.writer / DictReader loop per table.

FEATURES_COLUMNS = ["subject_id", "emotion", "take_index", "feature_distance", "heart_rate_bpm"]
LEDGER_COLUMNS = ["subject_id", "emotion", "take_index", "beta0", "beta1",
                  "feature_distance", "heart_rate_bpm"]
MANIFEST_COLUMNS = ["subject_id", "emotion", "take_index", "audio_path", "ecg_path"]


def write_manifest_loop(entries, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for e in entries:
            writer.writerow([e.subject_id, e.emotion.value, e.take_index, e.audio_path, e.ecg_path])


def load_manifest_loop(path):
    """DatasetManifest of a manifest CSV, one DictReader row at a time."""
    from voicehr.errors import (
        CorruptHeaderError,
        CorruptRowError,
        DuplicateEntryError,
        MissingFileError,
    )
    from voicehr.signal_io import DatasetManifest, EmotionLabel, ManifestEntry

    path = Path(path)
    base = path.parent
    entries = []
    seen = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MANIFEST_COLUMNS:
            raise CorruptHeaderError(f"{path}: expected header {','.join(MANIFEST_COLUMNS)}")
        for row in reader:
            try:
                take = int(row["take_index"])
            except (TypeError, ValueError):
                raise CorruptRowError(f"{path}: bad take_index {row['take_index']!r}") from None
            if take < 0:
                raise CorruptRowError(f"{path}: negative take_index {take}")
            emotion = EmotionLabel.parse(row["emotion"])
            key = (row["subject_id"], emotion, take)
            if key in seen:
                raise DuplicateEntryError(f"{path}: duplicate entry {key}")
            seen.add(key)
            audio = (base / row["audio_path"]).resolve()
            ecg = (base / row["ecg_path"]).resolve()
            for p in (audio, ecg):
                if not p.is_file():
                    raise MissingFileError(f"{path}: referenced file missing: {p}")
            entries.append(ManifestEntry(row["subject_id"], emotion, take, str(audio), str(ecg)))
    return DatasetManifest(entries=tuple(entries))


def write_ledger_loop(ledger, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(LEDGER_COLUMNS)
        for row in ledger:
            w.writerow([row.subject_id, row.emotion.value, row.take_index,
                        repr(row.beta0), repr(row.beta1),
                        repr(row.feature_distance), repr(row.heart_rate_bpm)])


def load_ledger_loop(path):
    from voicehr.signal_io import EmotionLabel
    from voicehr.synth import PlantedTake

    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(PlantedTake(
                subject_id=row["subject_id"],
                emotion=EmotionLabel.parse(row["emotion"]),
                take_index=int(row["take_index"]),
                beta0=float(row["beta0"]),
                beta1=float(row["beta1"]),
                feature_distance=float(row["feature_distance"]),
                heart_rate_bpm=float(row["heart_rate_bpm"]),
            ))
    return out


def write_features_loop(observations, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(FEATURES_COLUMNS)
        for o in observations:
            w.writerow([o.subject_id, o.emotion.value, o.take_index,
                        repr(o.feature_distance), repr(o.heart_rate_bpm)])


def read_features_loop(path):
    from voicehr.regression import Observation
    from voicehr.signal_io import EmotionLabel

    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(Observation(
                subject_id=row["subject_id"],
                emotion=EmotionLabel.parse(row["emotion"]),
                take_index=int(row["take_index"]),
                feature_distance=float(row["feature_distance"]),
                heart_rate_bpm=float(row["heart_rate_bpm"])))
    return out


def write_embeddings_loop(vectors_by_subject, path, n_cepstra):
    header = ["subject_id", "emotion"] + [f"c{i}" for i in range(n_cepstra)] + ["fd"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for subject_id in sorted(vectors_by_subject):
            vectors = vectors_by_subject[subject_id]
            for features, label in zip(vectors.features, vectors.labels):
                w.writerow([subject_id, label.value] + [repr(float(v)) for v in features])


def read_embeddings_loop(path):
    """One `VectorSet` per subject of the rows that a csv.reader loop parses."""
    from voicehr.classify import VectorSet
    from voicehr.signal_io import EmotionLabel

    rows = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            features = np.asarray([float(v) for v in row[2:]])
            rows.setdefault(row[0], []).append((features, EmotionLabel.parse(row[1])))
    return {subject_id: VectorSet(np.array([f for f, _ in vectors]),
                                  tuple(label for _, label in vectors))
            for subject_id, vectors in rows.items()}


def read_table_stringio(path, record, header):
    """`read_table`'s records and errors, read as the codec first read a table.

    One `csv.reader` over an `io.StringIO` copy of the whole decoded
    text, one row at a time: no batches and no chunked decoding. The
    file must be UTF-8. Errors name `path:line` as `read_table` does.
    """
    from voicehr.errors import CorruptHeaderError, CorruptRowError, VoicehrError
    from voicehr.signal_io import EmotionLabel

    parsers = {str: str, int: int, float: float, EmotionLabel: EmotionLabel.parse}
    reader = csv.reader(io.StringIO(Path(path).read_bytes().decode("utf-8"), newline=""))
    try:
        found = next(reader, [])
    except csv.Error as exc:
        raise CorruptRowError(f"{path}:{reader.line_num}: {exc}") from None
    expected = list(header(len(found)) if callable(header) else header)
    if found != expected:
        raise CorruptHeaderError(f"{path}: expected header {','.join(expected)}")
    types = typing.get_type_hints(record)
    records = []
    while True:
        try:
            row = next(reader, None)
        except csv.Error as exc:
            raise CorruptRowError(f"{path}:{reader.line_num}: {exc}") from None
        if row is None:
            return records
        if not row:
            continue
        try:
            if len(row) != len(expected):
                raise ValueError(f"expected {len(expected)} fields, got {len(row)}")
            records.append(record(*[
                np.array(row[i:], dtype=np.float64) if types[f.name] is np.ndarray
                else parsers[types[f.name]](row[expected.index(f.name)])
                for i, f in enumerate(fields(record))]))
        except ValueError as exc:
            raise CorruptRowError(f"{path}:{reader.line_num}: {exc}") from None
        except VoicehrError as exc:
            raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None


# The classifiers as they were before the shared presort and batched
# predict: a tree node sorts and scans one feature at a time, and every
# model labels one vector per call.

def build_tree_loop(X, y, depth, config):
    """Nested-dict regression tree; each node argsorts every feature afresh."""
    n = y.size
    leaf = {"leaf": float(y.mean())}
    if depth >= config.max_depth or n < 2 * config.min_leaf:
        return leaf
    best = (-1.0, -1, 0.0)  # (gain, feature, threshold)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        thr, gain = split_scan_loop(X[order, j], y[order], config.min_leaf)
        if gain > best[0] + 1e-12:
            best = (gain, j, thr)
    gain, feature, threshold = best
    if gain <= 1e-12:
        return leaf
    mask = X[:, feature] <= threshold
    return {
        "feature": int(feature),
        "threshold": float(threshold),
        "left": build_tree_loop(X[mask], y[mask], depth + 1, config),
        "right": build_tree_loop(X[~mask], y[~mask], depth + 1, config),
    }


def cvr_trees_loop(data, config):
    """(classes, trees) of one-vs-rest trees built by `build_tree_loop`."""
    from voicehr.signal_io import EMOTION_ORDER

    X = data.features.astype(np.float64)
    labels = list(data.labels)
    classes = tuple(c for c in EMOTION_ORDER if c in labels)
    trees = tuple(build_tree_loop(X, np.asarray([1.0 if lab == c else 0.0 for lab in labels]),
                                  0, config) for c in classes)
    return classes, trees


def tree_predict_one(tree, x):
    node = tree
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


def cvr_predict_one(model, x):
    scores = [tree_predict_one(t, x) for t in model.trees]
    return model.classes[int(np.argmax(scores))]


def gnb_log_likelihood_one(model, x):
    return -0.5 * np.sum(
        np.log(2.0 * np.pi * model.variances)
        + (x - model.means) ** 2 / model.variances, axis=1)


def gnb_predict_one(model, x):
    return model.classes[int(np.argmax(gnb_log_likelihood_one(model, x) + model.log_priors))]


def knn_predict_one(model, x):
    """The label of the first nearest training row, in stable order."""
    dist = np.linalg.norm(model.train_x - x, axis=1)
    return model.train_labels[np.argsort(dist, kind="stable")[0]]


def split_loop(labels, spec):
    """(train rows, test rows) of the split as it was over a list of vectors:
    each stratum a list of positions, cut through a set of chosen ones."""
    from voicehr.signal_io import EMOTION_ORDER

    rng = np.random.default_rng(spec.seed)
    train_idx, test_idx = [], []
    for c in EMOTION_ORDER:
        stratum = [i for i, label in enumerate(labels) if label == c]
        if not stratum:
            continue
        perm = rng.permutation(len(stratum))
        n_train = int(np.floor(spec.train_fraction * len(stratum) + 0.5))
        n_train = min(max(n_train, 1 if len(stratum) > 1 else 0), len(stratum))
        chosen = {stratum[p] for p in perm[:n_train]}
        train_idx.extend(sorted(chosen))
        test_idx.extend(sorted(set(stratum) - chosen))
    return sorted(train_idx), sorted(test_idx)


def classifier_matrix_loop(vectors_by_subject, config):
    """algo -> subject -> accuracy of the per-vector models, as `classifier_matrix` lays it out."""
    from voicehr.classify import CvrModel, split, train_gnb, train_knn

    predictors = {
        "cvr": (lambda train: CvrModel(*cvr_trees_loop(train, config.tree)), cvr_predict_one),
        "gnb": (train_gnb, gnb_predict_one),
        "knn": (train_knn, knn_predict_one),
    }
    matrix = {algo: {} for algo in predictors}
    for sid in sorted(vectors_by_subject):
        train, test = split(vectors_by_subject[sid], config.split)
        for algo, (train_fn, predict_one) in predictors.items():
            model = train_fn(train)
            correct = sum(1 for x, label in zip(test.features, test.labels)
                          if predict_one(model, x) == label)
            matrix[algo][sid] = 100.0 * correct / len(test)
    return matrix
