"""Benchmark of the `ohm` command line on seeded synthetic corpora.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from
its `src/` directory and the corpora are synthesized with
`tests/synthcorpus.py`. Every command runs in a fresh `python3` process, one
at a time, with the program's own thread defaults. A run repeats whole
rounds of its workload's commands until --seconds have passed and reports
totals over the rounds. With --trace 1 it alternates untraced and traced
rounds and reports the per-layer metrics instead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The exit
code is nonzero when a correctness check fails. See bench/README.md.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

COMMAND_TIMEOUT_S = 150
# |traced / untraced - 1| of the run's summed command wall time must stay
# within this; the host's own noise between two 10 s samples is about 10%.
TRACE_OVERHEAD_BOUND = 0.25
# A 44.1 kHz utterance's OHM must be within this of its 16 kHz score.
AGREEMENT_BOUND = 1.0
# Held-out macro-F1 that the trained nasality model must reach.
F1_BOUND = 0.5

THREAD_VARIABLES = ("OHM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END = [("setup_s", "s"), ("rtf", "s/s"), ("frames_per_s", "frames/s"),
              ("peak_rss_mb", "MB")]


class Totals(NamedTuple):
    """What one round did: `rtf` is work_s / audio_s and `frames_per_s` is
    frames / frames_work_s, each summed over the rounds of a run."""

    work_s: float
    audio_s: float
    frames: int
    frames_work_s: float


class SetupFailed(Exception):
    """A command the benchmark needs for its inputs failed."""


class Command:
    """One finished `ohm` process and what its shim recorded."""

    def __init__(self, returncode, result):
        self.ok = returncode == 0 and result is not None and result["exit_code"] == 0
        if not self.ok:
            return
        self.spans = result["spans"]
        self.counters = result["counters"]
        setup_calls = sum(end - start for name, start, end, _ in self.spans
                          if name in ("nn.load_model", "manifest.read_manifest"))
        self.total_s = result["t_end"] - result["t_spawn"]
        self.setup_s = result["t_import"] - result["t_spawn"] + setup_calls
        self.work_s = self.total_s - self.setup_s
        self.rss_mb = result["maxrss_kb"] / 1024.0


class Runner:
    """Starts `ohm` commands through bench/shim.py, one at a time."""

    def __init__(self, work):
        self.work = work
        self.count = 0
        # The program runs with its own thread defaults: `ohm score` starts
        # one worker per CPU and OpenBLAS one thread per CPU.
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def ohm(self, args, trace=False):
        self.count += 1
        result_path = self.work / f"cmd{self.count:04d}.json"
        log_path = self.work / f"cmd{self.count:04d}.log"
        with open(log_path, "w", encoding="utf-8") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "shim.py"), str(result_path),
                 "1" if trace else "0", repr(t_spawn), *map(str, args)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            returncode = None
            try:
                returncode = proc.wait(timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result = None
        if result_path.exists():
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        cmd = Command(returncode, result)
        if not cmd.ok:
            print(f"command failed ({returncode}): ohm {' '.join(map(str, args))}; "
                  f"log in {log_path}", file=sys.stderr)
        return cmd

    def setup_command(self, args):
        cmd = self.ohm(args)
        if not cmd.ok:
            raise SetupFailed(f"ohm {' '.join(map(str, args))}")


def load_program():
    """Make the checkout's program and corpus synthesizer importable."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "ohm" / "cli.py").is_file() or not (tests / "synthcorpus.py").is_file():
        sys.exit(f"error: {ROOT} holds no src/ohm/cli.py and tests/synthcorpus.py; "
                 "run the benchmark from a source checkout")
    sys.path[:0] = [str(src), str(tests)]
    compileall.compile_dir(str(src / "ohm"), quiet=1)


class ScoreWorkload:
    """`ohm score` with the default preprocessing and --frames-out."""

    SPEAKERS, UTTS, WORDS = 3, 8, (2, 4)
    MODEL_SPEAKERS, MODEL_UTTS, MODEL_WORDS, MODEL_EPOCHS = 4, 4, (4, 7), 3
    TEMPO = 0.9

    def __init__(self, runner, work, seed, rate):
        import corpus

        self.runner, self.work, self.seed, self.rate = runner, work, seed, rate
        rows = corpus.write_corpus(work / "corpus16", seed, self.SPEAKERS, self.UTTS,
                                   self.WORDS, nasal_every=2, prefix="s")
        corpus.write_corpus(work / "model_corpus", seed + 100_000, self.MODEL_SPEAKERS,
                            self.MODEL_UTTS, self.MODEL_WORDS, nasal_every=2, prefix="m")
        self.model = work / "model.bin"
        runner.setup_command(["train-nasality", work / "model_corpus" / "manifest.tsv",
                              self.model, "--epochs", self.MODEL_EPOCHS, "--seed", seed])
        self.reference = None
        self.manifest = work / "corpus16" / "manifest.tsv"
        if rate != 16000:
            rows = corpus.write_44k_copy(rows, work / "corpus44")
            reference = work / "reference16.csv"
            runner.setup_command(["score", self.manifest, self.model, reference,
                                  "--seed", seed])
            self.reference = checks.read_csv(reference)
            self.manifest = work / "corpus44" / "manifest.tsv"
        self.utterances = corpus.utterance_lengths(rows)
        self.audio_s = sum(u["n_samples"] / u["rate"] for u in self.utterances.values())

    def round(self, trace):
        scores, frames = self.work / "scores.csv", self.work / "frames.csv"
        cmd = self.runner.ohm(["score", self.manifest, self.model, scores,
                               "--frames-out", frames, "--seed", self.seed], trace)
        if cmd.ok:
            rows = checks.read_csv(scores)
            checks.check_scores(rows, self.utterances, self.TEMPO)
            checks.check_frames(checks.read_csv(frames), rows)
            if self.reference is not None:
                checks.check_agreement(rows, self.reference, AGREEMENT_BOUND)
            cmd.frames = sum(int(r["n_frames"]) for r in rows)
        return [cmd]

    def totals(self, cmds):
        (cmd,) = cmds
        return Totals(cmd.work_s, self.audio_s, cmd.frames, cmd.work_s)

    def check_trace(self, cmds, layer):
        (cmd,) = cmds
        c = cmd.counters
        checks.require(c["audio_io.resample.samples_out"] == c["audio_io.resample.samples_predicted"],
                       f"resample wrote {c['audio_io.resample.samples_out']} samples, "
                       f"predicted {c['audio_io.resample.samples_predicted']}")
        checks.require(layer["features.frames"] == cmd.frames,
                       f"features.frames {layer['features.frames']} != {cmd.frames} "
                       "frames in the scores CSV")
        checks.require(layer["scoring.utterances"] == len(self.utterances),
                       f"scored {layer['scoring.utterances']} utterances, manifest has "
                       f"{len(self.utterances)}")


class TrainWorkload:
    """`ohm train-nasality` on an aligned 16 kHz corpus."""

    SPEAKERS, UTTS, WORDS, EPOCHS = 4, 6, (4, 7), 2
    HELD_SPEAKERS, HELD_UTTS = 2, 4
    NV_FRACTION = 0.3

    def __init__(self, runner, work, seed):
        import corpus
        from ohm import features, pipeline

        self.runner, self.work, self.seed = runner, work, seed
        rows = corpus.write_corpus(work / "train", seed, self.SPEAKERS, self.UTTS, self.WORDS,
                                   nasal_every=2, prefix="t")
        held = corpus.write_corpus(work / "held", seed + 100_000, self.HELD_SPEAKERS,
                                   self.HELD_UTTS, self.WORDS, nasal_every=2, prefix="h")
        self.manifest = work / "train" / "manifest.tsv"
        self.utterances = corpus.utterance_lengths(rows)
        self.audio_s = sum(u["n_samples"] / u["rate"] for u in self.utterances.values())
        self.consonants = {"NC": 0, "OC": 0}
        for row in rows:
            counts = checks.consonant_frames(
                row["alignment_path"],
                self.utterances[(row["speaker_id"], row["utterance_id"])]["n_samples"])
            for cls in self.consonants:
                self.consonants[cls] += counts[cls]
        mfcc = features.MfccConfig()
        self.mfcc_hash = mfcc.hash32()
        _, y = pipeline.build_nasality_dataset(rows, mfcc, self.NV_FRACTION, seed)
        self.train_frames = len(y)
        self.x_held, self.y_held = pipeline.build_nasality_dataset(held, mfcc, self.NV_FRACTION,
                                                                   seed)
        self.f1 = None

    def round(self, trace):
        model, losses = self.work / "model.bin", self.work / "losses.csv"
        cmd = self.runner.ohm(["train-nasality", self.manifest, model, "--loss-log", losses,
                               "--epochs", self.EPOCHS, "--seed", self.seed], trace)
        if cmd.ok:
            sizes, cfg_hash, layers = checks.read_model(model)
            checks.require(sizes == [39, 1024, 1024, 1024, 4], f"model layer sizes {sizes}")
            checks.require(cfg_hash == self.mfcc_hash,
                           f"model config hash {cfg_hash:#010x} != {self.mfcc_hash:#010x}")
            loss_rows = checks.read_csv(losses)
            checks.require(len(loss_rows) == self.EPOCHS, f"{len(loss_rows)} epochs logged")
            checks.check_losses(loss_rows)
            if self.f1 is None:
                self.f1 = checks.macro_f1(self.y_held,
                                          checks.predict_classes(layers, self.x_held))
                print(f"held-out macro-F1 {self.f1:.3f}", file=sys.stderr)
                checks.require(self.f1 >= F1_BOUND,
                               f"held-out macro-F1 {self.f1:.3f} < {F1_BOUND}")
        return [cmd]

    def totals(self, cmds):
        (cmd,) = cmds
        return Totals(cmd.work_s, self.audio_s, self.train_frames * self.EPOCHS, cmd.work_s)

    def check_trace(self, cmds, layer):
        for cls, expect in self.consonants.items():
            got = layer[f"pipeline.frames.{cls}"]
            checks.require(got == expect, f"{got} {cls} training frames, the alignments "
                           f"and WAV lengths give {expect}")
        labeled = sum(layer[f"pipeline.frames.{c}"] for c in ("NC", "OC", "NV", "OV"))
        checks.require(labeled == self.train_frames,
                       f"{labeled} labeled frames, expected {self.train_frames}")
        checks.require(layer["nn.train.frames"] == self.train_frames * self.EPOCHS,
                       f"nn.train.frames {layer['nn.train.frames']} != "
                       f"{self.train_frames} x {self.EPOCHS}")


class LosoWorkload:
    """`ohm augment` (white noise, a rate change, a VTLP warp), then
    `ohm train-regressor` over a handful of speakers."""

    SPEAKERS, UTTS, WORDS, EPOCHS = 3, 2, (3, 5), 2
    SNR, RATE, VTLP = 10, 1.1, 0.9
    VARIANTS = 3  # one white-noise SNR, one rate factor, one VTLP alpha

    def __init__(self, runner, work, seed):
        import corpus

        self.runner, self.work, self.seed = runner, work, seed
        self.rows = corpus.write_corpus(work / "loso", seed, self.SPEAKERS, self.UTTS,
                                        self.WORDS, nasal_every=0, prefix="l")
        self.manifest = work / "loso" / "manifest.tsv"
        self.ratings = work / "ratings.csv"
        self.speakers = sorted({r["speaker_id"] for r in self.rows})
        corpus.write_ratings(self.ratings, self.speakers, seed)
        info = corpus.utterance_lengths(self.rows)
        self.audio_s = sum(u["n_samples"] / u["rate"] for u in info.values())
        frames_by_speaker = {s: 0 for s in self.speakers}
        for (speaker, _), u in info.items():
            lengths = [u["n_samples"]] + checks.variant_lengths(u["n_samples"], [self.RATE], 2)
            frames_by_speaker[speaker] += sum(checks.n_frames(n) for n in lengths)
        total = sum(frames_by_speaker.values())
        # each fold trains on every speaker but its own
        self.train_frames = sum(total - f for f in frames_by_speaker.values()) * self.EPOCHS

    def round(self, trace):
        augmented, results = self.work / "augmented.tsv", self.work / "loso.csv"
        aug = self.runner.ohm(["augment", self.manifest, augmented, "--snr", self.SNR,
                               "--rate", self.RATE, "--vtlp", self.VTLP, "--seed", self.seed],
                              trace)
        reg = self.runner.ohm(["train-regressor", augmented, self.ratings, results,
                               "--epochs", self.EPOCHS, "--seed", self.seed], trace)
        if aug.ok:
            self.augmented = checks.read_csv(augmented, delimiter="\t")
            checks.check_augmented(self.augmented, self.rows, self.VARIANTS)
        if reg.ok:
            checks.check_loso(checks.read_csv(results), self.speakers)
        return [aug, reg]

    def totals(self, cmds):
        aug, reg = cmds
        return Totals(aug.work_s + reg.work_s, self.audio_s, self.train_frames, reg.work_s)

    def check_trace(self, cmds, layer):
        distinct = len({(r["speaker_id"], r["utterance_id"], r["aug_type"], r["aug_param"])
                        for r in self.augmented})
        got = layer["pipeline.extract_row_features.calls"]
        checks.require(got == distinct,
                       f"{got} feature extractions for {distinct} distinct manifest rows")
        checks.require(layer["nn.train.frames"] == self.train_frames,
                       f"nn.train.frames {layer['nn.train.frames']} != {self.train_frames} "
                       "predicted from the WAV lengths and the flags")
        checks.require(layer["regressor.folds"] == len(self.speakers),
                       f"{layer['regressor.folds']} folds for {len(self.speakers)} speakers")


WORKLOADS = {
    "score-16k": lambda runner, work, seed: ScoreWorkload(runner, work, seed, 16000),
    "score-44k": lambda runner, work, seed: ScoreWorkload(runner, work, seed, 44100),
    "train-nasality": TrainWorkload,
    "loso-regressor": LosoWorkload,
}


def run_workload(name, seed, seconds, trace):
    """Set up one workload, run it for `seconds`, and return its result object."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    workload = WORKLOADS[name](runner, work, seed)
    attempted = failed = 0
    if trace:
        # One untimed round first: the first commands after set-up run slow
        # now and then, which would swamp the traced/untraced comparison.
        cmds = workload.round(False)
        attempted += len(cmds)
        failed += sum(not c.ok for c in cmds)
    rounds, setups, rss, layers, traced_s, untraced_s = [], [], [], [], 0.0, 0.0
    t_start = time.monotonic()
    while True:
        # traced and untraced rounds alternate in both orders, so that neither
        # always runs first
        plan = [len(rounds) % 2 == 1, len(rounds) % 2 == 0] if trace else [False]
        pair = {}
        for traced in plan:
            cmds = workload.round(traced)
            attempted += len(cmds)
            failed += sum(not c.ok for c in cmds)
            pair[traced] = cmds if all(c.ok for c in cmds) else None
        if all(p is not None for p in pair.values()):
            cmds = pair[False]
            rounds.append(workload.totals(cmds))
            setups.extend(c.setup_s for c in cmds)
            rss.append(max(c.rss_mb for c in cmds))
            print(f"round {len(rounds)}: setup_s {[round(c.setup_s, 3) for c in cmds]} "
                  f"work_s {rounds[-1].work_s:.3f} rss_mb {rss[-1]:.1f}", file=sys.stderr)
            if trace:
                untraced, traced_cmds = pair[False], pair[True]
                layers.append(round_layers(traced_cmds))
                workload.check_trace(traced_cmds, layers[-1])
                traced_s += sum(tracing.top_level_seconds(c.spans) for c in traced_cmds)
                untraced_s += sum(c.total_s for c in untraced)
        if time.monotonic() - t_start >= seconds:
            break
    if not rounds:
        raise SetupFailed(f"{name}: every round had a failed command")
    if trace:
        metrics = {k: statistics.fmean(layer[k] for layer in layers) for k in layers[0]}
        metrics["trace.overhead"] = traced_s / untraced_s - 1.0
        checks.require(abs(metrics["trace.overhead"]) <= TRACE_OVERHEAD_BOUND,
                       f"traced top-level spans differ from the untraced wall time by "
                       f"{metrics['trace.overhead']:+.1%}, more than {TRACE_OVERHEAD_BOUND:.0%}")
        units = dict(tracing.PER_LAYER)
    else:
        # Sums over the run, not medians of rounds: the host's speed swings by
        # a quarter within seconds, and a sum averages over those swings.
        metrics = {
            "setup_s": statistics.fmean(setups),
            "rtf": sum(r.work_s for r in rounds) / sum(r.audio_s for r in rounds),
            "frames_per_s": sum(r.frames for r in rounds) / sum(r.frames_work_s for r in rounds),
            "peak_rss_mb": statistics.median(rss),
        }
        units = dict(END_TO_END)
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "rounds": len(rounds)}


def round_layers(cmds):
    """Per-layer metrics of one round: the sum over its commands."""
    total = {}
    for cmd in cmds:
        for k, v in tracing.layer_metrics(cmd.spans, cmd.counters).items():
            total[k] = total.get(k, 0) + v
    lookups = sum(c.counters.get("regressor.loader_lookups", 0) for c in cmds)
    if lookups:
        total["regressor.feature_cache_hit_ratio"] = (
            1.0 - total["pipeline.extract_row_features.calls"] / lookups)
    return total


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
            f"blas={blas['name']} {blas['version']}; OHM_THREADS and BLAS thread variables unset")


def print_result(name, result):
    print(f"== {name}: {result['rounds']} rounds, {result['attempted']} commands attempted, "
          f"{result['failed']} failed")
    for metric, m in result["metrics"].items():
        print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    print(environment())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_result(name, results[name])
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": sum(r["attempted"] for r in results.values()) or 1,
                          "failed": sum(r["failed"] for r in results.values()),
                          "metrics": {}}))
        return 1
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        result = results[names[0]]
        metrics = result["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
