"""Spans and counters recorded around the program's public functions.

The program itself is not changed: `install` replaces each listed function,
in every loaded `ohm` module that refers to it, with a wrapper that records a
span (name, start, end, parent) and updates counters. Spans stay in memory
until the command ends. A span opened on a worker thread with no open span
of its own takes the main thread's innermost open span as its parent.
"""

import os
import sys
import threading
import time
from collections import Counter, defaultdict

# Per-layer metrics in the order they are reported, with their units.
PER_LAYER = [
    ("setup.import_s", "s"),
    ("nn.load_model.s", "s"),
    ("manifest.read_manifest.s", "s"),
    ("audio_io.load_wav.s", "s"),
    ("audio_io.load_wav.bytes", "bytes"),
    ("audio_io.resample.s", "s"),
    ("audio_io.resample.calls", "count"),
    ("audio_io.resample.samples_out", "samples"),
    ("preprocess.time_stretch.s", "s"),
    ("preprocess.time_stretch.samples_out", "samples"),
    ("audio_io.frame_signal.s", "s"),
    ("features.extract_features.s", "s"),
    ("features.frames", "frames"),
    ("nn.forward.s", "s"),
    ("nn.forward.frames", "frames"),
    ("nn.backprop.s", "s"),
    ("nn.train.self_s", "s"),
    ("nn.train.steps", "count"),
    ("nn.train.frames", "frames"),
    ("scoring.score_utterance.s", "s"),
    ("scoring.frame_ohm.s", "s"),
    ("scoring.utterances", "count"),
    ("pipeline.build_nasality_dataset.s", "s"),
    ("pipeline.extract_row_features.s", "s"),
    ("pipeline.extract_row_features.calls", "count"),
    ("alignment.parse_alignment.s", "s"),
    ("alignment.label_frames.s", "s"),
    ("pipeline.frames.NC", "frames"),
    ("pipeline.frames.OC", "frames"),
    ("pipeline.frames.NV", "frames"),
    ("pipeline.frames.OV", "frames"),
    ("pipeline.frames.excluded", "frames"),
    ("pipeline.nv_candidates", "count"),
    ("pipeline.nv_selected", "count"),
    ("augment.apply_augmentation.s", "s"),
    ("augment.vtlp_filterbank.s", "s"),
    ("regressor.train_and_predict_fold.s", "s"),
    ("regressor.folds", "count"),
    ("regressor.feature_cache_hit_ratio", "ratio"),
    ("trace.overhead", "ratio"),
]


class Tracer:
    """Thread-safe in-memory span and counter store."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, count=None, before=None):
        """fn with a span named `name` around every call.

        count(counters, args, kwargs, result) runs after a successful call;
        before(tracer, args, kwargs) returns the (args, kwargs) to call with.
        """
        def traced(*args, **kwargs):
            stack = self._stack()
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, time.monotonic(), None, parent])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index][2] = time.monotonic()
            if count is not None:
                with self._lock:
                    count(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Each span's duration minus the part of its interval that its children
    cover; overlapping children (from worker threads) are counted once."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, run_start, run_end = 0.0, None, None
        for s, e in sorted(children[i]):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters):
    """Per-layer metrics of one command from its spans and counters; the cache
    hit ratio and the tracing overhead are left at 0 for the caller, which
    sees the whole round."""
    busy = Counter()
    own = Counter()
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        busy[name] += end - start
        own[name] += self_s
    out = {}
    for metric, unit in PER_LAYER:
        if metric.endswith(".self_s"):
            out[metric] = own[metric[: -len(".self_s")]]
        elif metric.endswith(".s"):
            out[metric] = busy[metric[: -len(".s")]]
        else:
            out[metric] = counters.get(metric, 0)
    out["setup.import_s"] = busy["setup.import"]
    return out


def top_level_seconds(spans):
    return sum(end - start for _, start, end, parent in spans if parent is None)


# ---- what gets wrapped -------------------------------------------------------

def _count_bytes(c, args, kwargs, out):
    c["audio_io.load_wav.bytes"] += os.path.getsize(args[0])


def _count_resample(c, args, kwargs, out):
    buf = args[0]
    target = args[1] if len(args) > 1 else kwargs["target_hz"]
    if target != buf.sample_rate_hz:  # same-rate calls return their input
        c["audio_io.resample.calls"] += 1
        c["audio_io.resample.samples_out"] += len(out.samples)
        c["audio_io.resample.samples_predicted"] += int(
            round(len(buf.samples) * (target / buf.sample_rate_hz)))


def _count_stretch(c, args, kwargs, out):
    stretch = args[1] if len(args) > 1 else kwargs["stretch"]
    if stretch != 1.0:
        c["preprocess.time_stretch.samples_out"] += len(out.samples)


def _count_features(c, args, kwargs, out):
    c["features.frames"] += len(out.vectors)


def _count_forward(c, args, kwargs, out):
    x = args[1] if len(args) > 1 else kwargs["x"]
    c["nn.forward.frames"] += 1 if getattr(x, "ndim", 2) == 1 else len(x)


def _count_backprop(c, args, kwargs, out):
    c["nn.train.steps"] += 1


def _count_train(c, args, kwargs, out):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    c["nn.train.frames"] += len(args[0]) * cfg.epochs


def _count_dataset(c, args, kwargs, out):
    from ohm import nn

    labels = out[1]
    for index, cls in enumerate(nn.CLASS_ORDER):
        c[f"pipeline.frames.{cls.name}"] += int((labels == index).sum())


def _count_excluded(c, args, kwargs, out):
    c["pipeline.frames.excluded"] += sum(1 for label in out if label.name == "EXCLUDED")


def _count_nv(c, args, kwargs, out):
    from ohm import alignment

    for utterance in out:
        for seg, cls in utterance:
            if cls.name == "NV":
                c["pipeline.nv_selected"] += 1
                c["pipeline.nv_candidates"] += 1
            elif cls.name == "EXCLUDED" and alignment._base_class(seg.phone).name == "OV":
                c["pipeline.nv_candidates"] += 1


def _count_call(metric):
    def count(c, args, kwargs, out):
        c[metric] += 1
    return count


def _count_fold_lookups(tracer, args, kwargs):
    """Count lookups at the LOSO feature cache: every call of the loader that
    run_loso hands to train_and_predict_fold."""
    def counting(load):
        def lookup(row):
            with tracer._lock:
                tracer.counters["regressor.loader_lookups"] += 1
            return load(row)
        return lookup

    if len(args) > 2:
        args = (*args[:2], counting(args[2]), *args[3:])
    else:
        kwargs = {**kwargs, "feature_loader": counting(kwargs["feature_loader"])}
    return args, kwargs


SETUP_LAYERS = [
    ("nn", "load_model", "nn.load_model", None, None),
    ("manifest", "read_manifest", "manifest.read_manifest", None, None),
]

LAYERS = [
    ("cli", "main", "cli.main", None, None),
    ("audio_io", "load_wav", "audio_io.load_wav", _count_bytes, None),
    ("audio_io", "resample", "audio_io.resample", _count_resample, None),
    ("audio_io", "frame_signal", "audio_io.frame_signal", None, None),
    ("preprocess", "time_stretch", "preprocess.time_stretch", _count_stretch, None),
    ("features", "extract_features", "features.extract_features", _count_features, None),
    ("nn", "forward", "nn.forward", _count_forward, None),
    ("nn", "_backprop", "nn.backprop", _count_backprop, None),
    ("nn", "train", "nn.train", _count_train, None),
    ("scoring", "score_utterance", "scoring.score_utterance",
     _count_call("scoring.utterances"), None),
    ("scoring", "frame_ohm", "scoring.frame_ohm", None, None),
    ("pipeline", "build_nasality_dataset", "pipeline.build_nasality_dataset",
     _count_dataset, None),
    ("pipeline", "extract_row_features", "pipeline.extract_row_features",
     _count_call("pipeline.extract_row_features.calls"), None),
    ("pipeline", "_classify_pooled", "pipeline.classify_pooled", _count_nv, None),
    ("alignment", "parse_alignment", "alignment.parse_alignment", None, None),
    ("alignment", "label_frames", "alignment.label_frames", _count_excluded, None),
    ("augment", "apply_augmentation", "augment.apply_augmentation", None, None),
    ("augment", "vtlp_filterbank", "augment.vtlp_filterbank", None, None),
    ("regressor", "train_and_predict_fold", "regressor.train_and_predict_fold",
     _count_call("regressor.folds"), _count_fold_lookups),
]


def install(tracer, full):
    """Wrap the set-up functions, and with full=True every traced layer, in
    every loaded ohm module that holds a reference to them."""
    modules = [m for n, m in sys.modules.items() if n == "ohm" or n.startswith("ohm.")]
    for module_name, attr, name, count, before in SETUP_LAYERS + (LAYERS if full else []):
        original = getattr(sys.modules[f"ohm.{module_name}"], attr)
        wrapped = tracer.wrap(original, name, count, before)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
