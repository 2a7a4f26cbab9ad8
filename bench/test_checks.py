"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest bench/test_checks.py

Each check must accept a correct output and reject a corrupted one.
"""

import json
from pathlib import Path

import pytest

import checks
import run
import tracing

TEMPO = 0.9


def _utterances():
    """Two speakers, one nasal-bearing and one oral sentence each, at 16 kHz
    and 44.1 kHz."""
    out = {}
    for s, rate in (("a", 16000), ("b", 44100)):
        out[(s, f"{s}_nasal")] = {"is_oral": False, "rate": rate, "n_samples": rate * 2}
        out[(s, f"{s}_oral")] = {"is_oral": True, "rate": rate, "n_samples": rate * 3 // 2}
    return out


def _scores(utterances):
    return [
        {"speaker_id": s, "utterance_id": u,
         "n_frames": str(checks.score_frames(i["n_samples"], i["rate"], TEMPO)),
         "sentence_ohm": "2.5" if not i["is_oral"] else "-3.0"}
        for (s, u), i in utterances.items()
    ]


def test_scores_accepts_correct_output():
    utterances = _utterances()
    checks.check_scores(_scores(utterances), utterances, TEMPO)


def test_scores_reject_a_dropped_row():
    utterances = _utterances()
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_scores(_scores(utterances)[1:], utterances, TEMPO)


def test_scores_reject_a_repeated_row():
    utterances = _utterances()
    rows = _scores(utterances)
    with pytest.raises(checks.CheckFailed, match="repeats"):
        checks.check_scores(rows + rows[:1], utterances, TEMPO)


def test_scores_reject_swapped_nasal_and_oral():
    utterances = _utterances()
    rows = _scores(utterances)
    for row in rows:
        if row["speaker_id"] == "b":
            row["sentence_ohm"] = "-3.0" if row["utterance_id"].endswith("nasal") else "2.5"
    with pytest.raises(checks.CheckFailed, match="speaker b"):
        checks.check_scores(rows, utterances, TEMPO)


def test_scores_reject_a_non_finite_score():
    utterances = _utterances()
    rows = _scores(utterances)
    rows[0]["sentence_ohm"] = "nan"
    with pytest.raises(checks.CheckFailed, match="not finite"):
        checks.check_scores(rows, utterances, TEMPO)


@pytest.mark.parametrize("delta", [-1, 1])
def test_scores_allow_one_frame_of_rounding(delta):
    utterances = _utterances()
    rows = _scores(utterances)
    rows[2]["n_frames"] = str(int(rows[2]["n_frames"]) + delta)
    checks.check_scores(rows, utterances, TEMPO)


@pytest.mark.parametrize("delta", [-2, 2])
def test_scores_reject_a_frame_count_off_by_more_than_one(delta):
    utterances = _utterances()
    rows = _scores(utterances)
    rows[2]["n_frames"] = str(int(rows[2]["n_frames"]) + delta)
    with pytest.raises(checks.CheckFailed, match="frames, expected"):
        checks.check_scores(rows, utterances, TEMPO)


def test_score_frames_follow_the_tempo_factor():
    # 2 s at 44.1 kHz -> 32000 samples at 16 kHz -> 35555 after tempo 0.9
    assert checks.score_frames(88200, 44100, 0.9) == (35555 - 320) // 160 + 1


def test_frames_csv_must_match_the_scores():
    scores = [{"speaker_id": "a", "utterance_id": "u", "n_frames": "3",
               "sentence_ohm": "2.0000000000"}]
    frames = [{"speaker_id": "a", "utterance_id": "u", "frame_index": str(i),
               "frame_ohm": v} for i, v in enumerate(("1.0", "2.0", "3.0"))]
    checks.check_frames(frames, scores)
    with pytest.raises(checks.CheckFailed, match="frame rows"):
        checks.check_frames(frames[:2], scores)
    frames[1]["frame_ohm"] = "2.5"
    with pytest.raises(checks.CheckFailed, match="mean frame OHM"):
        checks.check_frames(frames, scores)


def test_agreement_bound():
    ref = [{"speaker_id": "a", "utterance_id": "u", "sentence_ohm": "1.0"}]
    checks.check_agreement([{**ref[0], "sentence_ohm": "1.4"}], ref, 0.5)
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_agreement([{**ref[0], "sentence_ohm": "1.6"}], ref, 0.5)


def _manifest(n_rows, variants):
    rows = []
    for i in range(n_rows):
        rows.append({"speaker_id": f"s{i % 2}", "utterance_id": f"u{i}", "aug_type": "none"})
        rows.extend({"speaker_id": f"s{i % 2}", "utterance_id": f"u{i}", "aug_type": f"v{k}"}
                    for k in range(variants))
    return rows


def test_augmented_manifest_accepts_exact_expansion():
    checks.check_augmented(_manifest(4, 3), _manifest(4, 0), 3)


def test_augmented_manifest_rejects_a_missing_row():
    with pytest.raises(checks.CheckFailed, match="expected 4 x"):
        checks.check_augmented(_manifest(4, 3)[:-1], _manifest(4, 0), 3)


def test_augmented_manifest_rejects_a_moved_row():
    rows = _manifest(4, 3)
    rows[-1] = {**rows[-1], "utterance_id": "u0"}
    with pytest.raises(checks.CheckFailed, match="u0"):
        checks.check_augmented(rows, _manifest(4, 0), 3)


def test_loso_results_reject_a_failed_or_missing_fold():
    rows = [{"speaker_id": s, "fold_status": "ok", "predicted_score": "1.5"} for s in "ab"]
    checks.check_loso(rows, ["a", "b"])
    with pytest.raises(checks.CheckFailed, match="one per speaker"):
        checks.check_loso(rows[:1], ["a", "b"])
    rows[1]["fold_status"] = "failed: diverged"
    with pytest.raises(checks.CheckFailed, match="fold b"):
        checks.check_loso(rows, ["a", "b"])


def test_losses_must_fall():
    checks.check_losses([{"mean_loss": "2.0"}, {"mean_loss": "0.5"}])
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_losses([{"mean_loss": "0.5"}, {"mean_loss": "0.5"}])


def test_consonant_frames_use_frame_centers(tmp_path):
    tsv = tmp_path / "a.tsv"
    # frame centers fall at 0.01, 0.02, ... s
    tsv.write_text("0.000000\t0.025000\tM\n0.025000\t0.040000\tAA1\n0.040000\t0.060000\ts\n")
    counts = checks.consonant_frames(tsv, 16000 // 10)  # 0.1 s -> 9 frames
    assert counts == {"NC": 2, "OC": 2}


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 3.5, 6.0, 0],  # overlaps "a": covered time is counted once
        ["c", 9.0, 12.0, 0],  # runs past the parent's end: only 9..10 counts
        ["other_root", 20.0, 21.0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 2.5, 3.0, 1.0])
    assert tracing.top_level_seconds(spans) == pytest.approx(11.0)
    layer = tracing.layer_metrics(
        [["nn.train", 0.0, 10.0, None], ["nn.forward", 1.0, 3.0, 0],
         ["nn.backprop", 3.0, 6.0, 0], ["nn.forward", 7.0, 8.0, 0]], {})
    assert layer["nn.train.self_s"] == pytest.approx(4.0)
    assert layer["nn.forward.s"] == pytest.approx(3.0)


def test_worker_thread_spans_nest_under_the_main_thread():
    import threading

    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: [t.start() or t.join() for t in
                                 [threading.Thread(target=inner) for _ in range(2)]], "outer")
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
