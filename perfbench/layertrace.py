"""Layer trace measured from outside the program.

The tracer replaces public functions and layer methods at the module (or
class) attributes the program looks them up through, records one span per
call while an operation is being timed, and turns the spans into per-layer
self times and counts.  Spans stay in memory and are written once, at the
end of the run.  Nothing inside the program changes.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under the operation's root span,
plus the root's own self time (``pipeline.self_s``), add up to the
operation's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "pipeline"

# Self-time metrics: one per span name; together with pipeline.self_s they
# partition the operation's wall time.
SELF_TIME_SPANS = (
    "microcnn.conv2d.fwd",
    "microcnn.conv2d.bwd",
    "microcnn.maxpool2.fwd",
    "microcnn.maxpool2.bwd",
    "microcnn.dense.fwd",
    "microcnn.dense.bwd",
    "microcnn.elementwise",
    "microcnn.adam_step",
    "microcnn.train_two_phase",
    "microcnn.val_scoring",
    "microcnn.predict_proba",
    "microcnn.checkpoint_io",
    "stacking.oof_predictions",
    "stacking.train_meta",
    "pipeline.train_bases",
    "pipeline.write_explanations",
    "pipeline.score_rows",
    "gradcam.explain",
    "gradcam.render_overlay",
    "imageio.write_image",
    "imageio.read_image",
    "imageio.bilinear_resize",
    "data.load_image_dir",
    "data.load_predictions_csv",
    "data.save_predictions_csv",
    "weighting.optimize_weights",
    "metrics.roc_curve",
    "metrics.auc",
    "metrics.roc_points_csv",
)

# Inclusive (wall) times of the spans that have children; not part of the sum.
INCLUSIVE_SPANS = (
    "microcnn.train_two_phase",
    "microcnn.val_scoring",
    "microcnn.predict_proba",
    "stacking.oof_predictions",
    "pipeline.train_bases",
    "pipeline.write_explanations",
    "pipeline.score_rows",
)

COUNTS = (
    "microcnn.adam_steps",
    "microcnn.nets_trained",
    "microcnn.backward_layer_calls",
    "microcnn.val_scored_images",
    "microcnn.predicted_images",
    "gradcam.explained_images",
    "weighting.steps_used",
)

# Layers of the three base architectures that the kernel timings cover:
# every conv2d and maxpool2 layer, by index in the layer stack.
KERNEL_ARCHS = ("convA", "convB", "convC")
KERNEL_KINDS = ("conv2d", "maxpool2")
KERNEL_BATCH = 24
KERNEL_SIDE = 32
KERNEL_REPEATS = 15


def kernel_layers(microcnn) -> list[tuple[str, int, str]]:
    """(arch, index, kind) for every conv2d/maxpool2 layer of the base nets."""
    import numpy as np

    out = []
    for arch in KERNEL_ARCHS:
        net = microcnn.build_micronet(arch, KERNEL_SIDE, 0.0, np.random.default_rng(0))
        out += [(arch, i, layer.kind) for i, layer in enumerate(net.layers)
                if layer.kind in KERNEL_KINDS]
    return out


def metric_specs(microcnn) -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    specs = {f"{name}_s": ("s", "lower") for name in SELF_TIME_SPANS}
    specs["pipeline.self_s"] = ("s", "lower")
    specs.update({f"{name}.incl_s": ("s", "lower") for name in INCLUSIVE_SPANS})
    specs.update({name: ("count", "lower") for name in COUNTS})
    specs["microcnn.backward_useful_ratio"] = ("ratio", "higher")
    specs["process.cpu_s"] = ("s", "lower")
    for arch, i, kind in kernel_layers(microcnn):
        for direction in ("fwd", "bwd"):
            specs[f"layer.{arch}.{i}.{kind}.{direction}_ms"] = ("ms", "lower")
    return specs


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Tracer:
    """Spans and counters for the calls made while an operation is timed."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.useful_backward = 0
        self.backward_scope = None  # (layer id -> index, lowest trainable index)
        self.cpu_s = 0.0
        self.rounds = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, fn, name, after=None):
        """Wrap `fn` in a span; `name` is a string or a callable of the args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args)
            record = [label, tracer.stack[-1], time.perf_counter(), 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def root(self, body):
        """Run `body()` as one traced operation; return its result."""
        cpu0 = cpu_seconds()
        record = [ROOT_SPAN, -1, time.perf_counter(), 0.0]
        self.stack = [len(self.spans)]
        self.spans.append(record)
        self.active = True
        try:
            return body()
        finally:
            record[3] = time.perf_counter()
            self.active = False
            self.stack = []
            self.cpu_s += cpu_seconds() - cpu0
            self.rounds += 1

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def install(self) -> None:
        """Wrap every layer boundary the metrics name."""
        from hybridens import cli, data, gradcam, metrics, microcnn, pipeline, stacking, weighting

        count = self.counts

        def add(counter, amount=1):
            def after(args, result):
                count[counter] += amount(args, result) if callable(amount) else amount
            return after

        for cls, fwd, bwd in (
            (microcnn.Conv2d, "microcnn.conv2d.fwd", "microcnn.conv2d.bwd"),
            (microcnn.MaxPool2, "microcnn.maxpool2.fwd", "microcnn.maxpool2.bwd"),
            (microcnn.Dense, "microcnn.dense.fwd", "microcnn.dense.bwd"),
            (microcnn.Relu, "microcnn.elementwise", "microcnn.elementwise"),
            (microcnn.Dropout, "microcnn.elementwise", "microcnn.elementwise"),
            (microcnn.SigmoidHead, "microcnn.elementwise", "microcnn.elementwise"),
        ):
            self.patch(cls, "forward", fwd)
            self.patch(cls, "backward", bwd, self._count_layer_backward)

        self._patch_backward_scope(microcnn)
        self.patch(microcnn, "adam_step", "microcnn.adam_step", add("microcnn.adam_steps"))
        self.patch(microcnn, "train_two_phase", "microcnn.train_two_phase",
                   add("microcnn.nets_trained"))

        def predict_name(args):
            return ("microcnn.val_scoring" if self.inside("microcnn.train_two_phase")
                    else "microcnn.predict_proba")

        def count_predicted(args, result):
            which = ("microcnn.val_scored_images" if self.inside("microcnn.train_two_phase")
                     else "microcnn.predicted_images")
            count[which] += len(args[1])

        self.patch(microcnn, "predict_proba", predict_name, count_predicted)
        self.patch(microcnn, "save_checkpoint", "microcnn.checkpoint_io")
        self.patch(microcnn, "load_checkpoint", "microcnn.checkpoint_io")
        self.patch(stacking, "oof_predictions", "stacking.oof_predictions")
        self.patch(stacking, "train_meta", "stacking.train_meta")
        self.patch(weighting, "optimize_weights", "weighting.optimize_weights",
                   add("weighting.steps_used", lambda args, fit: fit.steps_used))
        self.patch(metrics, "roc_curve", "metrics.roc_curve")
        self.patch(metrics, "auc", "metrics.auc")
        self.patch(metrics, "roc_points_csv", "metrics.roc_points_csv")
        self.patch(gradcam, "explain", "gradcam.explain", add("gradcam.explained_images"))
        self.patch(gradcam, "render_overlay", "gradcam.render_overlay")
        self.patch(gradcam, "bilinear_resize", "imageio.bilinear_resize")
        self.patch(pipeline, "train_bases", "pipeline.train_bases")
        self.patch(pipeline, "write_explanations", "pipeline.write_explanations")
        self.patch(pipeline, "score_rows", "pipeline.score_rows")
        self.patch(pipeline, "write_pgm", "imageio.write_image")
        self.patch(pipeline, "write_ppm", "imageio.write_image")
        # Names imported with `from .data import ...` are looked up in the
        # importing module, so each binding is wrapped where it is used.
        for owner in (data, pipeline):
            self.patch(owner, "load_image_dir", "data.load_image_dir")
            self.patch(owner, "save_predictions_csv", "data.save_predictions_csv")
        for owner in (data, pipeline, cli):
            self.patch(owner, "load_predictions_csv", "data.load_predictions_csv")
        self.patch(data, "read_image", "imageio.read_image")
        self.patch(data, "bilinear_resize", "imageio.bilinear_resize")

    def _patch_backward_scope(self, microcnn) -> None:
        """Mark layer-backward calls made by `microcnn.backward` below the
        lowest trainable layer: nothing uses their gradients."""
        original = microcnn.backward
        tracer = self

        @functools.wraps(original)
        def scoped(net, cache, labels):
            if not tracer.active:
                return original(net, cache, labels)
            trainable = [i for i in net.parameterized() if net.layers[i].trainable]
            lowest = min(trainable) if trainable else len(net.layers)
            tracer.backward_scope = ({id(layer): i for i, layer in enumerate(net.layers)}, lowest)
            try:
                return original(net, cache, labels)
            finally:
                tracer.backward_scope = None

        self._patches.append((microcnn, "backward", original))
        microcnn.backward = scoped

    def _count_layer_backward(self, args, result) -> None:
        self.counts["microcnn.backward_layer_calls"] += 1
        scope = self.backward_scope
        if scope is None or scope[0][id(args[0])] >= scope[1]:
            self.useful_backward += 1

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def op_seconds(self) -> list[float]:
        return [end - start for name, _, start, end in self.spans if name == ROOT_SPAN]

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, _, start, end), children in zip(self.spans, child_time):
            totals[name] += (end - start) - children
        return totals

    def inclusive_times(self) -> dict[str, float]:
        """Wall time per span name, counting only the outermost of nested
        spans of the same name."""
        totals: dict[str, float] = defaultdict(float)
        for name, parent, start, end in self.spans:
            outer = True
            while parent >= 0:
                if self.spans[parent][0] == name:
                    outer = False
                    break
                parent = self.spans[parent][1]
            if outer:
                totals[name] += end - start
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-operation averages of every span and counter metric."""
        rounds = max(self.rounds, 1)
        self_t = self.self_times()
        incl = self.inclusive_times()
        out = {f"{name}_s": self_t.get(name, 0.0) / rounds for name in SELF_TIME_SPANS}
        out["pipeline.self_s"] = self_t.get(ROOT_SPAN, 0.0) / rounds
        out.update({f"{name}.incl_s": incl.get(name, 0.0) / rounds for name in INCLUSIVE_SPANS})
        out.update({name: self.counts.get(name, 0.0) / rounds for name in COUNTS})
        calls = self.counts.get("microcnn.backward_layer_calls", 0.0)
        # No layer-backward call at all wastes nothing.
        out["microcnn.backward_useful_ratio"] = self.useful_backward / calls if calls else 1.0
        out["process.cpu_s"] = self.cpu_s / rounds
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def kernel_timings(microcnn, seed: int) -> dict[str, float]:
    """Median forward and backward ms of every conv2d/maxpool2 layer of the
    base nets at batch 24 and 32 px, run on untraced layer methods."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = {}
    for arch in KERNEL_ARCHS:
        net = microcnn.build_micronet(arch, KERNEL_SIDE, 0.0, rng)
        x = rng.random((KERNEL_BATCH, 1, KERNEL_SIDE, KERNEL_SIDE))
        for i, layer in enumerate(net.layers):
            if layer.kind not in KERNEL_KINDS:
                x, _ = layer.forward(x, False, None)
                continue
            fwd, bwd = [], []
            y, ctx = layer.forward(x, False, None)
            dy = rng.standard_normal(y.shape)
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter()
                layer.forward(x, False, None)
                t1 = time.perf_counter()
                layer.backward(ctx, dy, bool(layer.params))
                t2 = time.perf_counter()
                fwd.append(t1 - t0)
                bwd.append(t2 - t1)
            key = f"layer.{arch}.{i}.{layer.kind}"
            out[f"{key}.fwd_ms"] = statistics.median(fwd) * 1e3
            out[f"{key}.bwd_ms"] = statistics.median(bwd) * 1e3
            x = y
    return out
