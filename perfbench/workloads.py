"""The three workloads: how each sets up its inputs, runs its operation
through the program's public functions, and checks the outputs.

Every workload makes its inputs from the benchmark seed alone; the program
only sees the generated files and a RunConfig.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from checks import (
    bce,
    centroid_in_box,
    check_roc_files,
    check_row,
    check_simplex,
    rank_auc,
    read_json,
    read_netpbm,
    read_table,
    require,
    sigmoid,
    subject_of,
)
from hybridens import cli, config, data, gradcam, microcnn, pipeline, synth

# The desk scenario of the acceptance suite (tests/test_acceptance.py).
DESK_CONFIG = dict(
    input_side=32, batch_size=24, dropout_rate=0.25, folds=5, freeze_epochs=10,
    finetune_epochs=15, head_learning_rate=1e-2, learning_rate=2e-3,
)
DESK_SPEC = dict(subjects_per_class=20, slices_per_subject=4, image_side=32)
BASES = ("convA", "convB", "convC")
FUSED = ("weighted", "stacked", "hybrid")


class DeskRun:
    """`run_pipeline` on the desk scenario: 18 nets, fusion, report."""

    name = "desk-run"
    setup_repeats = 21

    def setup(self, work: Path, seed: int) -> dict:
        root = synth.synth_data(synth.SynthSpec(seed=seed, **DESK_SPEC), work / "data")
        return {"data": root, "config": config.RunConfig(seed=seed, **DESK_CONFIG)}

    def operate(self, inputs: dict, out: Path):
        return pipeline.run_pipeline(inputs["config"], inputs["data"], out)

    def check(self, inputs: dict, out: Path, result) -> None:
        tau = inputs["config"].threshold
        report = read_json(out / "report.json")
        rows = {row["model"]: row for row in report["rows"]}
        require(list(rows) == list(BASES + FUSED), f"report rows are {list(rows)}")

        test_ids, test_p, test_y, _ = read_table(out / "preds_test.csv")
        val_ids, val_p, val_y, _ = read_table(out / "preds_val.csv")
        weights = read_json(out / "weights.json")
        meta = read_json(out / "meta.json")
        alpha = np.array(weights["alpha"])
        check_simplex(alpha, "weights.json alpha")

        weighted = test_p @ alpha
        stacked = sigmoid(test_p @ np.array(meta["w"]) + meta["b"])
        scores = {arch: test_p[:, k] for k, arch in enumerate(BASES)}
        scores.update(weighted=weighted, stacked=stacked, hybrid=(weighted + stacked) / 2.0)
        for name, s in scores.items():
            check_row(rows[name], test_y, s, tau)

        uniform = bce(val_p.mean(axis=1), val_y)
        fitted = bce(val_p @ alpha, val_y)
        require(abs(fitted - weights["val_bce"]) <= 1e-9,
                f"val_bce {weights['val_bce']!r} != recomputed {fitted!r}")
        require(fitted <= uniform + 1e-12, f"val_bce {fitted} worse than uniform {uniform}")

        oof_ids, oof_p, oof_y, oof_rows = read_table(out / "oof.csv")
        meta_bce = bce(sigmoid(oof_p @ np.array(meta["w"]) + meta["b"]), oof_y)
        require(meta_bce <= math.log(2.0), f"meta BCE on oof.csv {meta_bce} > ln 2")

        every = sorted(f"{d.name}/{f.stem}" for d in inputs["data"].iterdir() if d.is_dir()
                       for f in d.iterdir())
        train = sorted(set(every) - set(val_ids) - set(test_ids))
        require(sorted(oof_ids) == train,
                "oof.csv rows are not exactly the training rows, once each")
        fold_of_subject: dict[str, set] = {}
        for row in oof_rows:
            fold_of_subject.setdefault(subject_of(row["id"]), set()).add(row["fold"])
        spans = [s for s, folds in fold_of_subject.items() if len(folds) > 1]
        require(not spans, f"subjects in more than one fold: {spans[:3]}")
        parts = [set(map(subject_of, ids)) for ids in (train, val_ids, test_ids)]
        require(not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2]),
                "a subject spans two of train/val/test")

        # The C2 margin (hybrid within 0.005 of the best base) holds on the
        # acceptance seeds 1-5 but not on every seed (see CHANGES.md), so it
        # is reported, not required.
        margins = {key: rows["hybrid"][key] - max(rows[arch][key] for arch in BASES)
                   for key in ("acc", "auc")}
        print(f"{self.name}: hybrid minus best base: acc {margins['acc']:+.4f}, "
              f"auc {margins['auc']:+.4f} (C2 asks for at least -0.005)")


class ScoreExplain:
    """Load trained checkpoints, score a held-out set with every net, and
    write a Grad-CAM explanation for every image."""

    name = "score-explain"
    setup_repeats = 3
    held_subjects_per_class = 100
    held_seed_offset = 100_000  # held-out subjects differ from the training ones
    fd_images = 3

    def setup(self, work: Path, seed: int) -> dict:
        cfg = config.RunConfig(seed=seed, **DESK_CONFIG)
        train_root = synth.synth_data(
            synth.SynthSpec(noise_sigma=0.0, seed=seed, **DESK_SPEC), work / "train")
        samples = data.load_image_dir(train_root, cfg.input_side)
        split = data.split_dataset(samples, pipeline.SPLIT_RATIOS, seed)
        _, val_preds, _, _ = pipeline.train_bases(cfg, samples, split, work / "bases")
        held = synth.synth_data(
            synth.SynthSpec(**{**DESK_SPEC, "subjects_per_class": self.held_subjects_per_class},
                            noise_sigma=0.0, seed=self.held_seed_offset + seed),
            work / "held",
        )
        val_y = np.array([samples[i].label for i in split.val_ids])
        val_auc = [rank_auc(val_y, val_preds[:, k]) for k in range(len(BASES))]
        ckpts = {arch: work / "bases" / "checkpoints" / f"{arch}.ckpt" for arch in BASES}
        return {
            "config": cfg,
            "held": held,
            "checkpoints": ckpts,
            "explain": BASES[int(np.argmax(val_auc))],
            "fingerprint": hashlib.sha256(
                b"".join(p.read_bytes() for p in ckpts.values())).hexdigest(),
        }

    def operate(self, inputs: dict, out: Path) -> dict:
        cfg = inputs["config"]
        held = data.load_image_dir(inputs["held"], cfg.input_side)
        nets, probs = {}, {}
        for arch, path in inputs["checkpoints"].items():
            nets[arch] = microcnn.load_checkpoint(path)
            probs[arch] = microcnn.predict_proba(nets[arch], held, cfg.batch_size)
        net = nets[inputs["explain"]]
        for sample in held:
            pipeline.write_explanations(net, {sample.label: sample}, out)
        return {"held": held, "nets": nets, "probs": probs}

    def check(self, inputs: dict, out: Path, result: dict) -> None:
        held, nets, probs = result["held"], result["nets"], result["probs"]
        tau = inputs["config"].threshold
        probe = held[:: max(1, len(held) // 48)]
        for arch, net in nets.items():
            single = np.array([microcnn.predict_proba(net, [s], 1)[0] for s in probe])
            batched = probs[arch][:: max(1, len(held) // 48)]
            gap = float(np.max(np.abs(single - batched)))
            require(gap <= 1e-12, f"{arch}: batched and batch-1 probabilities differ by {gap}")

        net = nets[inputs["explain"]]
        truth = read_json(inputs["held"] / "blobs.json")["subjects"]
        hits = total = empty = 0
        for s, p in zip(held, probs[inputs["explain"]]):
            stem = f"class{s.label}_{s.sample_id.replace('/', '-')}"
            cam = read_netpbm(out / "explanations" / f"{stem}_cam.pgm")
            overlay = read_netpbm(out / "explanations" / f"{stem}_overlay.ppm")
            require(cam.shape == s.payload.shape and overlay.shape == s.payload.shape + (3,),
                    f"{stem}: heatmap {cam.shape} / overlay {overlay.shape} not at input size")
            if s.label == 1 and p > tau:
                inside = centroid_in_box(cam.astype(np.float64), truth[s.subject_id])
                if inside is None:
                    empty += 1
                else:
                    total += 1
                    hits += inside
        # An all-zero map has no centroid.  How many maps are empty depends
        # on the seed (see the FOUND note on pre-ReLU Grad-CAM in CHANGES.md),
        # so the rate is taken over the maps that carry heat.
        print(f"{self.name}: {hits} of {total} heatmaps of correctly classified positives "
              f"centred in the blob box; {empty} more maps are all zero")
        require(hits >= 0.8 * total,
                f"CAM centroid inside the dilated blob box for only {hits}/{total} positives")

        for s in held[: self.fd_images]:
            self._check_cam(net, s, out)
            self._check_gradient(net, s)

    @staticmethod
    def _check_cam(net, sample, out: Path) -> None:
        cam = gradcam.explain(net, sample.payload, class_id=sample.label)
        require(cam.map.shape == sample.payload.shape, f"CAM shape {cam.map.shape}")
        require(float(cam.map.min()) >= 0.0, "CAM has negative entries")
        stem = f"class{sample.label}_{sample.sample_id.replace('/', '-')}"
        overlay = read_netpbm(out / "explanations" / f"{stem}_overlay.ppm")
        cold = cam.map == cam.map.min()
        gray = np.rint(np.clip(sample.payload, 0.0, 1.0) * 255.0).astype(np.uint8)
        for channel in range(3):
            require(np.array_equal(overlay[..., channel][cold], gray[cold]),
                    f"{stem}: zero-heat overlay pixels differ from the grayscale image")

    @staticmethod
    def _check_gradient(net, sample) -> None:
        """Class-score gradient at the final conv layer against central
        finite differences of the layers above it."""
        _, cache = microcnn.forward(net, sample.payload[None, None])
        grad = microcnn.class_score_gradient(net, cache, 1)[0]
        act = cache.conv_activation
        head = net.layers[net.final_conv_index + 1 : -1]

        def score(a):
            for layer in head:
                a, _ = layer.forward(a, False, None)
            return float(a.reshape(-1)[0])

        # Zero-noise images have flat regions, so pooling windows often tie
        # and the score has a kink there; coordinates whose one-sided
        # differences disagree sit on a kink and are skipped.
        eps, base, checked = 1e-6, score(act), 0
        for c in np.argsort(-np.abs(grad).ravel(), kind="stable"):
            idx = (0,) + np.unravel_index(c, grad.shape)
            bump = np.zeros_like(act)
            bump[idx] = eps
            up, down = score(act + bump) - base, base - score(act - bump)
            if abs(up - down) > 1e-14 + 1e-3 * max(abs(up), abs(down)):
                continue
            fd = (up + down) / (2.0 * eps)
            g = float(grad[idx[1:]])
            require(abs(fd - g) <= 1e-6 + 1e-4 * abs(g),
                    f"class-score gradient {g!r} vs finite difference {fd!r} at {idx}")
            checked += 1
            if checked == 8:
                break
        require(checked >= 4, f"only {checked} coordinates off the score's kinks")


class FuseLarge:
    """`fuse_only` and the `hybridens evaluate` command on a 100k-row CSV."""

    name = "fuse-large"
    setup_repeats = 11
    rows = 100_000
    signal = (0.5, 1.0, 1.5)  # per-column separation of the two classes' logits

    def setup(self, work: Path, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, self.rows)
        cols = [np.round(sigmoid(s * (2 * labels - 1) + rng.standard_normal(self.rows)), 6)
                for s in self.signal]
        matrix = np.stack(cols, axis=1)
        lines = ["id," + ",".join(f"p{k + 1}" for k in range(len(cols))) + ",label"]
        lines += [f"r{i:06d},{a!r},{b!r},{c!r},{y}"
                  for i, ((a, b, c), y) in enumerate(zip(matrix.tolist(), labels.tolist()))]
        work.mkdir(parents=True, exist_ok=True)
        path = work / "preds.csv"
        path.write_text("\n".join(lines) + "\n")
        return {"csv": path, "matrix": matrix, "labels": labels, "seed": seed,
                "config": config.RunConfig(seed=seed)}

    def operate(self, inputs: dict, out: Path) -> int:
        pipeline.fuse_only(inputs["csv"], inputs["config"], out / "fuse")
        argv = ["evaluate", "--preds", str(inputs["csv"]), "--out", str(out / "evaluate"),
                "--seed", str(inputs["seed"])]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hybridens evaluate exited with {code}")
        return code

    def check(self, inputs: dict, out: Path, result) -> None:
        tau = inputs["config"].threshold
        fused = read_json(out / "fuse" / "report.json")
        check_simplex(read_json(out / "fuse" / "weights.json")["alpha"], "fuse alpha")
        check_simplex(fused["alpha"], "report alpha")
        names = [row["model"] for row in fused["rows"]]
        require(names == ["p1", "p2", "p3", *FUSED], f"fuse rows are {names}")
        check_roc_files(out / "fuse", fused["rows"], names)

        rows = read_json(out / "evaluate" / "report.json")["rows"]
        names = [row["model"] for row in rows]
        require(names == ["p1", "p2", "p3"], f"evaluate rows are {names}")
        for k, row in enumerate(rows):
            check_row(row, inputs["labels"], inputs["matrix"][:, k], tau)
        check_roc_files(out / "evaluate", rows, names)


WORKLOADS = {w.name: w for w in (DeskRun(), ScoreExplain(), FuseLarge())}
