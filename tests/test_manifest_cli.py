import os

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ohm import augment, cli, manifest, nn
from ohm.audio_io import AudioBuffer, load_wav, write_wav
from ohm.errors import ManifestError

import synthcorpus


def test_manifest_roundtrip(tmp_path):
    rows = [
        {
            "audio_path": "a.wav",
            "alignment_path": "a.tsv",
            "speaker_id": "s1",
            "utterance_id": "u1",
            "is_oral": True,
            "aug_type": "none",
            "aug_param": "",
            "aug_seed": 0,
        },
        {
            "audio_path": "a.wav",
            "alignment_path": "",
            "speaker_id": "s1",
            "utterance_id": "u1",
            "is_oral": False,
            "aug_type": "noise",
            "aug_param": "white@10",
            "aug_seed": 77,
        },
    ]
    path = tmp_path / "m.tsv"
    manifest.write_manifest(path, rows, header_comment="test run")
    back = manifest.read_manifest(path)
    assert back == rows
    assert manifest.is_original(back[0])
    assert not manifest.is_original(back[1])


def test_manifest_defaults(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("audio_path\tspeaker_id\tutterance_id\na.wav\ts\tu\n")
    rows = manifest.read_manifest(path)
    assert rows[0]["is_oral"] is True
    assert rows[0]["aug_type"] == "none"
    assert rows[0]["aug_seed"] == 0


def test_manifest_missing_columns(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("audio_path\tspeaker_id\na.wav\ts\n")
    with pytest.raises(ManifestError):
        manifest.read_manifest(path)


def test_manifest_duplicate_rows(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(
        "audio_path\tspeaker_id\tutterance_id\n"
        "a.wav\ts\tu\n"
        "b.wav\ts\tu\n"
    )
    with pytest.raises(ManifestError):
        manifest.read_manifest(path)


def test_manifest_bad_boolean(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("audio_path\tspeaker_id\tutterance_id\tis_oral\na.wav\ts\tu\tmaybe\n")
    with pytest.raises(ManifestError):
        manifest.read_manifest(path)


def test_manifest_bad_seed_names_file_line(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(
        "# provenance\n# noise_source babble=b.wav\n"
        "audio_path\tspeaker_id\tutterance_id\taug_seed\n"
        "a.wav\ts\tu1\t3\n"
        "a.wav\ts\tu2\tx1\n"
    )
    with pytest.raises(ManifestError, match=r"m\.tsv:5: aug_seed"):
        manifest.read_manifest(path)


def test_noise_header_roundtrip(tmp_path):
    path = tmp_path / "m.tsv"
    noise = {"babble": "noise/babble.wav", "factory": "/data/f=1.wav"}
    manifest.write_manifest(path, [], header_comment="run\n" + manifest.noise_header(noise))
    assert manifest.read_noise_paths(path) == noise
    assert manifest.read_manifest(path) == []
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("# noise_source late=after_the_columns.wav\n")
    assert manifest.read_noise_paths(path) == noise  # only the leading header counts


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    rows = synthcorpus.generate_corpus(root, n_speakers=3, utts_per_speaker=2,
                                       seed=7, nasal_every=2, n_words=3)
    path = root / "manifest.tsv"
    synthcorpus.write_manifest_tsv(path, rows)
    return path, rows


@pytest.fixture(scope="module")
def tiny_model(tiny_corpus, tmp_path_factory):
    manifest_path, _ = tiny_corpus
    model_path = tmp_path_factory.mktemp("model") / "nasality.bin"
    rc = cli.main(["train-nasality", str(manifest_path), str(model_path),
                   "--epochs", "1", "--seed", "3"])
    assert rc == 0
    return model_path


def test_train_nasality_outputs(tiny_model):
    model = nn.load_model(tiny_model)
    assert model.layer_sizes == nn.NASALITY_LAYERS
    losses = (str(tiny_model) + ".losses.csv")
    with open(losses) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# ohm-speech")
    assert lines[1] == "epoch,mean_loss"
    assert len(lines) == 3  # one epoch


def test_score_deterministic_bytes(tiny_corpus, tiny_model, tmp_path):
    manifest_path, rows = tiny_corpus
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli.main(["score", str(manifest_path), str(tiny_model), str(out1),
                     "--seed", "9"]) == 0
    assert cli.main(["score", str(manifest_path), str(tiny_model), str(out2),
                     "--seed", "9"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2 + len(rows)


def test_score_frames_output(tiny_corpus, tiny_model, tmp_path):
    manifest_path, _ = tiny_corpus
    scores = tmp_path / "scores.csv"
    frames = tmp_path / "frames.csv"
    assert cli.main(["score", str(manifest_path), str(tiny_model), str(scores),
                     "--frames-out", str(frames), "--no-preprocess"]) == 0
    with open(frames) as fh:
        frame_lines = [l for l in fh.read().splitlines()[2:] if l]
    with open(scores) as fh:
        score_lines = fh.read().splitlines()[2:]
    # per-utterance frame counts in the sentence CSV sum to the frame CSV length
    n_frames = sum(int(l.split(",")[2]) for l in score_lines)
    assert len(frame_lines) == n_frames
    # sentence score equals the mean of its frame scores
    utt = score_lines[0].split(",")[1]
    sent = float(score_lines[0].split(",")[3])
    per_frame = [float(l.split(",")[3]) for l in frame_lines if l.split(",")[1] == utt]
    assert sent == pytest.approx(np.mean(per_frame), abs=1e-9)


def test_gradcheck_exit_code(capsys):
    assert cli.main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_augment_command(tiny_corpus, tmp_path):
    manifest_path, rows = tiny_corpus
    out = tmp_path / "aug.tsv"
    assert cli.main(["augment", str(manifest_path), str(out),
                     "--snr", "10", "--rate", "0.9", "--vtlp", "1.1"]) == 0
    expanded = manifest.read_manifest(out)
    # 1 original + 1 noise(white@10) + 1 rate + 1 vtlp per row
    assert len(expanded) == 4 * len(rows)
    assert sum(manifest.is_original(r) for r in expanded) == len(rows)


def test_evaluate_missing_speaker_cleans_up(tiny_corpus, tiny_model, tmp_path):
    manifest_path, _ = tiny_corpus
    scores = tmp_path / "scores.csv"
    assert cli.main(["score", str(manifest_path), str(tiny_model), str(scores)]) == 0
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("speaker_id,rater_1,rater_2\nspk000,1,1\nspk001,2,2\n")  # spk002 absent
    out_dir = tmp_path / "eval"
    out_dir.mkdir()
    assert cli.main(["evaluate", str(scores), str(ratings), str(out_dir)]) == 1
    assert list(out_dir.iterdir()) == []  # failed run leaves no partial CSVs


def test_evaluate_outputs(tiny_corpus, tiny_model, tmp_path):
    manifest_path, _ = tiny_corpus
    scores = tmp_path / "scores.csv"
    assert cli.main(["score", str(manifest_path), str(tiny_model), str(scores)]) == 0
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(
        "speaker_id,cohort,rater_1,rater_2\n"
        "spk000,control,0,0.5\nspk001,control,1,1.5\nspk002,cp,3,3.5\n"
    )
    out_dir = tmp_path / "eval"
    out_dir.mkdir()
    assert cli.main(["evaluate", str(scores), str(ratings), str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["error_robustness.csv", "per_sentence.csv", "rater_agreement.csv",
                     "speaker_summary.csv", "split_half.csv", "ttest.csv"]
    with open(out_dir / "speaker_summary.csv") as fh:
        header = fh.readline()
    assert "overall_r=" in header


def test_config_file_flag_precedence(tiny_corpus, tmp_path, capsys):
    manifest_path, _ = tiny_corpus
    cfg = tmp_path / "ohm.cfg"
    cfg.write_text("seed=5\nepochs=2\n")
    model = tmp_path / "m.bin"
    # --epochs flag overrides the config file; seed comes from the file
    assert cli.main(["--config", str(cfg), "train-nasality",
                     str(manifest_path), str(model), "--epochs", "1"]) == 0
    out = capsys.readouterr().out
    assert "seed=5" in out
    assert "epochs=1" in out


def test_convert_textgrid(tmp_path):
    tg = tmp_path / "a.TextGrid"
    tg.write_text(
        'File type = "ooTextFile"\n'
        'Object class = "TextGrid"\n'
        "xmin = 0\nxmax = 1\n"
        "tiers? <exists>\nsize = 1\nitem []:\n"
        "    item [1]:\n"
        '        class = "IntervalTier"\n'
        '        name = "phones"\n'
        "        xmin = 0\nxmax = 1\n"
        "        intervals: size = 2\n"
        "        intervals [1]:\n"
        "            xmin = 0.0\n            xmax = 0.5\n"
        '            text = "M"\n'
        "        intervals [2]:\n"
        "            xmin = 0.5\n            xmax = 1.0\n"
        '            text = "AA1"\n'
    )
    out = tmp_path / "a.tsv"
    assert cli.main(["convert-textgrid", str(tg), str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split("\t") == ["0.000000", "0.500000", "M"]
    assert lines[1].split("\t") == ["0.500000", "1.000000", "AA1"]


def test_cli_error_exit(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    model = tmp_path / "m.bin"
    with pytest.raises((ManifestError, FileNotFoundError, SystemExit, OSError)):
        # missing manifest surfaces as a normal Python error or exit code,
        # never a silent success
        rc = cli.main(["train-nasality", str(missing), str(model), "--epochs", "1"])
        assert rc != 0
        raise SystemExit(rc)
    assert not model.exists()


def _noise_wav(tmp_path, seconds=2.0):
    path = tmp_path / "babble.wav"
    rng = np.random.default_rng(11)
    write_wav(path, AudioBuffer(0.3 * rng.uniform(-1.0, 1.0, int(16000 * seconds)), 16000))
    return path


def _ratings(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("speaker_id,rater_1,rater_2\nspk000,0,1\nspk001,2,2\nspk002,3,4\n")
    return path


def test_augment_named_noise_realizes_excerpt_of_file(tiny_corpus, tmp_path):
    manifest_path, _ = tiny_corpus
    noise_path = _noise_wav(tmp_path)
    out = tmp_path / "aug.tsv"
    assert cli.main(["augment", str(manifest_path), str(out), "--noise", f"babble={noise_path}",
                     "--snr", "10", "--rate", "0.9", "--vtlp", "1.1"]) == 0
    assert manifest.read_noise_paths(out) == {"babble": str(noise_path)}
    sources = augment.load_noise_sources(manifest.read_noise_paths(out))
    row = next(r for r in manifest.read_manifest(out) if r["aug_param"] == "babble@10")
    clean = load_wav(row["audio_path"])
    mixed = augment.apply_augmentation(clean, row["aug_type"], row["aug_param"],
                                       row["aug_seed"], sources)
    realized = mixed.samples - clean.samples
    excerpts = sliding_window_view(sources["babble"].samples, len(realized))
    fit = (excerpts @ realized) / (np.linalg.norm(excerpts, axis=1) * np.linalg.norm(realized))
    assert np.max(fit) > 1.0 - 1e-9  # a scaled excerpt of the file, not generated noise


def test_train_regressor_uses_recorded_noise_file(tiny_corpus, tmp_path, capsys):
    manifest_path, _ = tiny_corpus
    noise_path = _noise_wav(tmp_path)
    aug = tmp_path / "aug.tsv"
    assert cli.main(["augment", str(manifest_path), str(aug), "--noise", f"babble={noise_path}",
                     "--snr", "10", "--rate", "0.9", "--vtlp", "1.1"]) == 0
    results = tmp_path / "loso.csv"
    args = ["train-regressor", str(aug), str(_ratings(tmp_path)), str(results),
            "--epochs", "1", "--seed", "2"]
    assert cli.main(args) == 0
    assert len(results.read_text().splitlines()) == 2 + 3
    results.unlink()
    noise_path.unlink()
    with pytest.warns(UserWarning, match="babble"):
        assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "babble" in err and "Traceback" not in err
    assert not results.exists()


def test_augment_rejects_named_noise_without_path(tiny_corpus, tmp_path):
    manifest_path, _ = tiny_corpus
    out = tmp_path / "aug.tsv"
    assert cli.main(["augment", str(manifest_path), str(out), "--noise", "babble"]) == 1
    assert not out.exists()


def test_score_missing_wav_fails_cleanly(tiny_corpus, tiny_model, tmp_path, capsys):
    _, rows = tiny_corpus
    bad = tmp_path / "m.tsv"
    manifest.write_manifest(bad, [rows[0], {**rows[1], "audio_path": str(tmp_path / "gone.wav")}])
    scores = tmp_path / "scores.csv"
    assert cli.main(["score", str(bad), str(tiny_model), str(scores)]) == 1
    err = capsys.readouterr().err
    assert "gone.wav" in err and "Traceback" not in err
    assert not scores.exists()


def test_score_non_integer_aug_seed_fails_cleanly(tiny_corpus, tiny_model, tmp_path, capsys):
    _, rows = tiny_corpus
    bad = tmp_path / "m.tsv"
    manifest.write_manifest(bad, [rows[0], {**rows[1], "aug_seed": "x1"}])
    scores = tmp_path / "scores.csv"
    assert cli.main(["score", str(bad), str(tiny_model), str(scores)]) == 1
    err = capsys.readouterr().err
    assert "m.tsv:3" in err and "x1" in err and "Traceback" not in err
    assert not scores.exists()
