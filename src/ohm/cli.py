"""Command-line entry point tying the pipeline together.

Subcommands: train-nasality, score, evaluate, augment, train-regressor,
gradcheck, convert-textgrid. Every output CSV starts with a provenance
header (tool version, seed, feature-config hash, preprocess factors).
"""

import argparse
import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, alignment, augment, features, manifest, nn, pipeline, regressor
from . import scoring, stats
from .errors import ConfigError, ManifestError, OhmError
from .preprocess import PreprocessConfig


def _provenance(seed, mfcc_cfg, pre_cfg=None):
    parts = [f"ohm-speech {__version__}", f"seed={seed}", f"mfcc_hash={mfcc_cfg.hash32():#010x}"]
    if pre_cfg is not None:
        parts.append(
            f"preprocess={'on' if pre_cfg.enabled else 'off'}"
            f" pitch_factor={pre_cfg.pitch_factor} tempo_factor={pre_cfg.tempo_factor}"
        )
    return " ".join(parts)


# Outputs created by the running command; removed if the command fails so a
# nonzero exit never leaves partial artifacts behind.
_created_outputs = []


def _write_csv(path, header_comment, columns, rows):
    _created_outputs.append(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _read_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ManifestError(f"{path}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _setting(args, config, name, cast, default):
    """Flag wins over config file; config file wins over the default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in config:
        return cast(config[name])
    return default


def _n_workers():
    value = os.environ.get("OHM_THREADS", "")
    try:
        return max(1, int(value))
    except ValueError:
        return max(1, os.cpu_count() or 1)


def cmd_train_nasality(args, config):
    seed = _setting(args, config, "seed", int, 42)
    cfg = nn.TrainConfig(
        epochs=_setting(args, config, "epochs", int, 25),
        learning_rate=_setting(args, config, "learning_rate", float, 0.001),
        batch_size=_setting(args, config, "batch_size", int, 256),
        seed=seed,
    )
    mfcc_cfg = features.MfccConfig()
    nv_fraction = _setting(args, config, "nv_fraction", float, 0.3)
    print(f"seed={seed} epochs={cfg.epochs} lr={cfg.learning_rate} nv_fraction={nv_fraction}")
    rows = manifest.read_manifest(args.manifest)
    model, losses = pipeline.train_nasality_model(
        rows,
        train_cfg=cfg,
        mfcc_cfg=mfcc_cfg,
        nv_fraction=nv_fraction,
        log_fn=lambda e, loss: print(f"epoch {e + 1}/{cfg.epochs}: loss {loss:.6f}"),
    )
    _created_outputs.append(args.model_out)
    nn.save_model(model, args.model_out)
    _write_csv(
        args.loss_log or args.model_out + ".losses.csv",
        _provenance(seed, mfcc_cfg),
        ["epoch", "mean_loss"],
        [(i + 1, f"{loss:.10f}") for i, loss in enumerate(losses)],
    )
    return 0


def cmd_score(args, config):
    seed = _setting(args, config, "seed", int, 42)
    mfcc_cfg = features.MfccConfig()
    pre_cfg = PreprocessConfig(
        enabled=not args.no_preprocess,
        pitch_factor=_setting(args, config, "pitch_factor", float, 0.8),
        tempo_factor=_setting(args, config, "tempo_factor", float, 0.9),
    )
    print(f"seed={seed} {_provenance(seed, mfcc_cfg, pre_cfg)}")
    model = nn.load_model(args.model)
    rows = manifest.read_manifest(args.manifest)
    rows = sorted(rows, key=lambda r: (r["speaker_id"], r["utterance_id"]))

    from . import audio_io

    def score_row(row):
        buf = audio_io.load_wav(row["audio_path"])
        return scoring.score_utterance(
            buf, model, pre_cfg, mfcc_cfg,
            utterance_id=row["utterance_id"], speaker_id=row["speaker_id"],
        )

    with ThreadPoolExecutor(max_workers=_n_workers()) as pool:
        reports = list(pool.map(score_row, rows))

    _write_csv(
        args.scores_out,
        _provenance(seed, mfcc_cfg, pre_cfg),
        ["speaker_id", "utterance_id", "n_frames", "sentence_ohm"],
        [
            (r.speaker_id, r.utterance_id, len(r.frame_scores), f"{r.sentence_score:.10f}")
            for r in reports
        ],
    )
    if args.frames_out:
        _write_csv(
            args.frames_out,
            _provenance(seed, mfcc_cfg, pre_cfg),
            ["speaker_id", "utterance_id", "frame_index", "frame_ohm"],
            [
                (r.speaker_id, r.utterance_id, i, f"{score:.10f}")
                for r in reports
                for i, score in enumerate(r.frame_scores)
            ],
        )
    return 0


def _read_scores_csv(path):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in reader:
            rows.append(
                {
                    "speaker_id": row["speaker_id"],
                    "utterance_id": row["utterance_id"],
                    "sentence_ohm": float(row["sentence_ohm"]),
                }
            )
    return rows


def cmd_evaluate(args, config):
    seed = _setting(args, config, "seed", int, 42)
    mfcc_cfg = features.MfccConfig()
    provenance = _provenance(seed, mfcc_cfg)
    score_rows = _read_scores_csv(args.scores)
    records = stats.load_ratings_csv(args.ratings)
    by_speaker_truth = {r.speaker_id: r.ground_truth for r in records}
    by_record = {r.speaker_id: r for r in records}

    speakers = sorted({r["speaker_id"] for r in score_rows})
    missing = [s for s in speakers if s not in by_speaker_truth]
    if missing:
        raise ManifestError(f"scored speakers missing from ratings: {missing}")

    per_speaker = {
        s: [r for r in score_rows if r["speaker_id"] == s] for s in speakers
    }
    speaker_ohm = {s: float(np.mean([r["sentence_ohm"] for r in rows]))
                   for s, rows in per_speaker.items()}
    truth = [by_speaker_truth[s] for s in speakers]
    ohm_vec = [speaker_ohm[s] for s in speakers]
    overall_r, overall_p = stats.pearson_r(ohm_vec, truth)

    out = []
    # per-sentence correlations across speakers
    utterances = sorted({r["utterance_id"] for r in score_rows})
    sentence_rows = []
    for utt in utterances:
        rows = [r for r in score_rows if r["utterance_id"] == utt]
        if len(rows) < 3:
            continue
        r_val, p_val = stats.pearson_r(
            [r["sentence_ohm"] for r in rows],
            [by_speaker_truth[r["speaker_id"]] for r in rows],
        )
        sentence_rows.append((utt, len(rows), f"{r_val:.6f}", f"{p_val:.6g}"))
    path = os.path.join(args.out_dir, "per_sentence.csv")
    _write_csv(path, provenance, ["utterance_id", "n_speakers", "r", "p"], sentence_rows)
    out.append(path)

    # speaker summary
    path = os.path.join(args.out_dir, "speaker_summary.csv")
    _write_csv(
        path,
        f"{provenance} overall_r={overall_r:.6f} overall_p={overall_p:.6g}",
        ["speaker_id", "speaker_ohm", "ground_truth"],
        [(s, f"{speaker_ohm[s]:.10f}", f"{by_speaker_truth[s]:.6f}") for s in speakers],
    )
    out.append(path)

    # rater agreement
    aligned_records = [by_record[s] for s in speakers]
    (inter_m, inter_s), (vs_m, vs_s) = stats.rater_stats(aligned_records, ohm_vec)
    path = os.path.join(args.out_dir, "rater_agreement.csv")
    _write_csv(
        path,
        provenance,
        ["statistic", "mean", "std"],
        [
            ("inter_rater_correlation", f"{inter_m:.6f}", f"{inter_s:.6f}"),
            ("ohm_rater_correlation", f"{vs_m:.6f}", f"{vs_s:.6f}"),
        ],
    )
    out.append(path)

    # split-half reliability: first half of each speaker's sentences vs the rest
    set1, set2 = {}, {}
    for s in speakers:
        utts = sorted(per_speaker[s], key=lambda r: r["utterance_id"])
        half = len(utts) // 2
        if half == 0 or len(utts) - half == 0:
            continue
        set1[s] = float(np.mean([r["sentence_ohm"] for r in utts[:half]]))
        set2[s] = float(np.mean([r["sentence_ohm"] for r in utts[half:]]))
    split_rows = []
    if len(set1) >= 3:
        split_rows.append(("split_half_r", f"{stats.split_half(set1, set2):.6f}"))
    path = os.path.join(args.out_dir, "split_half.csv")
    _write_csv(path, provenance, ["statistic", "value"], split_rows)
    out.append(path)

    # control vs CP group comparison
    control = [speaker_ohm[s] for s in speakers if by_record[s].cohort == "control"]
    cp = [speaker_ohm[s] for s in speakers if by_record[s].cohort == "cp"]
    ttest_rows = []
    if len(control) >= 2 and len(cp) >= 2:
        t_stat, p_val, dof = stats.welch_t(control, cp)
        ttest_rows.append(
            ("control_vs_cp", f"{t_stat:.6f}", f"{p_val:.6g}", f"{dof:.3f}",
             len(control), len(cp))
        )
    path = os.path.join(args.out_dir, "ttest.csv")
    _write_csv(path, provenance, ["comparison", "t", "p", "dof", "n_a", "n_b"], ttest_rows)
    out.append(path)

    # robustness to articulation errors
    err_rows = []
    for attr in ("pct_active_errors", "pct_passive_errors"):
        pairs = [
            (speaker_ohm[s], getattr(by_record[s], attr))
            for s in speakers
            if getattr(by_record[s], attr) is not None
        ]
        if len(pairs) >= 3:
            r_val, p_val = stats.pearson_r([p[0] for p in pairs], [p[1] for p in pairs])
            err_rows.append((f"ohm_vs_{attr}", f"{r_val:.6f}", f"{p_val:.6g}", len(pairs)))
    path = os.path.join(args.out_dir, "error_robustness.csv")
    _write_csv(path, provenance, ["comparison", "r", "p", "n"], err_rows)
    out.append(path)

    print(f"overall r={overall_r:.4f} p={overall_p:.4g}")
    for p in out:
        print(f"wrote {p}")
    return 0


def cmd_augment(args, config):
    seed = _setting(args, config, "seed", int, 42)
    noise_types = {"white": None}
    for item in args.noise or []:
        name, _, path = item.partition("=")
        if name != "white" and not path:
            raise ConfigError(f"--noise {item!r}: only white is built in; give {name}=PATH.wav")
        noise_types[name] = path or None
    spec = augment.AugmentSpec(
        noise_types=noise_types,
        snr_db_values=tuple(args.snr) if args.snr else augment.DEFAULT_SNR_DB,
        rate_factors=tuple(args.rate) if args.rate else augment.DEFAULT_RATE_FACTORS,
        vtlp_alphas=tuple(args.vtlp) if args.vtlp else augment.DEFAULT_VTLP_ALPHAS,
        seed=seed,
    )
    rows = manifest.read_manifest(args.manifest)
    expanded = augment.expand_manifest(rows, spec, include_originals=not args.no_originals)
    out_rows = [
        {**row, "aug_type": aug_type, "aug_param": param, "aug_seed": aug_seed}
        for row, aug_type, param, aug_seed in expanded
    ]
    _created_outputs.append(args.manifest_out)
    manifest.write_manifest(
        args.manifest_out,
        out_rows,
        header_comment=f"ohm-speech {__version__} seed={seed} "
        f"variants_per_row={spec.variants_per_row()}\n"
        + manifest.noise_header({k: v for k, v in noise_types.items() if v is not None}),
    )
    print(f"{len(rows)} rows -> {len(out_rows)} rows "
          f"({spec.variants_per_row()} variants per original)")
    return 0


def cmd_train_regressor(args, config):
    seed = _setting(args, config, "seed", int, 42)
    cfg = nn.TrainConfig(
        epochs=_setting(args, config, "epochs", int, 25),
        learning_rate=_setting(args, config, "learning_rate", float, 0.001),
        batch_size=_setting(args, config, "batch_size", int, 256),
        loss="mse",
        seed=seed,
    )
    mfcc_cfg = features.MfccConfig()
    print(f"seed={seed} epochs={cfg.epochs}")
    rows = manifest.read_manifest(args.manifest)
    records = stats.load_ratings_csv(args.ratings)
    ratings = {r.speaker_id: r.ground_truth for r in records}

    noise_sources = augment.load_noise_sources(manifest.read_noise_paths(args.manifest))
    unavailable = sorted(name for name, src in noise_sources.items() if src is None)
    if unavailable:
        raise ConfigError(f"{args.manifest}: noise source(s) {unavailable} could not be loaded")

    def loader(row):
        return pipeline.extract_row_features(row, mfcc_cfg, noise_sources).vectors

    results = regressor.run_loso(rows, ratings, loader, cfg=cfg)
    _write_csv(
        args.results_out,
        _provenance(seed, mfcc_cfg),
        ["speaker_id", "true_rating", "predicted_score", "fold_status"],
        [
            (r.speaker_id, f"{r.true_rating:.6f}", f"{r.predicted_score:.10f}", r.status)
            for r in results
        ],
    )
    completed = [r for r in results if r.status == "ok"]
    if len(completed) >= 3:
        r_val, p_val = stats.pearson_r(
            [r.predicted_score for r in completed], [r.true_rating for r in completed]
        )
        print(f"LOSO r={r_val:.4f} p={p_val:.4g} over {len(completed)} folds")
    return 0


def cmd_gradcheck(args, config):
    seed = _setting(args, config, "seed", int, 42)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for layers, loss in (([5, 7, 4], "categorical_cross_entropy"), ([5, 7, 1], "mse")):
        model = nn.init_model(layers, "softmax" if loss != "mse" else "linear", seed=seed)
        x = rng.standard_normal((8, layers[0]))
        if loss == "mse":
            y = rng.standard_normal(8)
        else:
            y = rng.integers(0, layers[-1], size=8)
        err = nn.grad_check(model, x, y, loss, seed=seed)
        print(f"{loss} {layers}: max relative error {err:.3e}")
        worst = max(worst, err)
    print(f"max relative error {worst:.3e}")
    return 0 if worst < 1e-4 else 1


def cmd_convert_textgrid(args, config):
    segments = alignment.textgrid_to_segments(args.textgrid, tier_name=args.tier)
    alignment.write_alignment_tsv(args.tsv_out, segments)
    print(f"wrote {len(segments)} segments to {args.tsv_out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ohm", description="Objective hypernasality measure toolkit"
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-nasality", help="train the 4-class nasality model")
    p.add_argument("manifest")
    p.add_argument("model_out")
    p.add_argument("--loss-log")
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--nv-fraction", type=float, dest="nv_fraction")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train_nasality)

    p = sub.add_parser("score", help="score utterances with a trained model")
    p.add_argument("manifest")
    p.add_argument("model")
    p.add_argument("scores_out")
    p.add_argument("--frames-out")
    p.add_argument("--pitch-factor", type=float, dest="pitch_factor")
    p.add_argument("--tempo-factor", type=float, dest="tempo_factor")
    p.add_argument("--no-preprocess", action="store_true")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="correlate scores with perceptual ratings")
    p.add_argument("scores")
    p.add_argument("ratings")
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("augment", help="expand a manifest with augmentation variants")
    p.add_argument("manifest")
    p.add_argument("manifest_out")
    p.add_argument("--noise", action="append",
                   help="name or name=path WAV; repeatable (white is built in)")
    p.add_argument("--snr", type=float, action="append")
    p.add_argument("--rate", type=float, action="append")
    p.add_argument("--vtlp", type=float, action="append")
    p.add_argument("--no-originals", action="store_true")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train-regressor", help="LOSO evaluation of the supervised baseline")
    p.add_argument("manifest")
    p.add_argument("ratings")
    p.add_argument("results_out")
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train_regressor)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("convert-textgrid", help="Praat TextGrid phones tier -> alignment TSV")
    p.add_argument("textgrid")
    p.add_argument("tsv_out")
    p.add_argument("--tier", default="phones")
    p.set_defaults(func=cmd_convert_textgrid)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _read_config_file(args.config) if args.config else {}
    _created_outputs.clear()
    try:
        return args.func(args, config)
    except OhmError as exc:
        for path in _created_outputs:
            try:
                os.unlink(path)
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
