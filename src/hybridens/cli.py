"""Command-line pipeline: synth-data, train-base, fuse, evaluate, explain, run.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure, 5 I/O or stage failure,
and 128 + the signal number for a run stopped by SIGTERM (143) or Ctrl-C (130), which is what
a shell reports for a process that the signal ends.
All state flows through flags and the config JSON; no environment variables.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from . import microcnn, pipeline
from .config import RunConfig
from .data import load_predictions_csv
from .errors import ConfigError, DataError, NumericError, Stopped
from .imageio import bilinear_resize, read_image
from .synth import SynthSpec, synth_data


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_json(args.config) if args.config else RunConfig()
    if args.seed is not None:
        config.seed = args.seed
        config.validate()
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run configuration JSON (RunConfig fields)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def cmd_synth_data(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        subjects_per_class=args.subjects_per_class,
        slices_per_subject=args.slices_per_subject,
        image_side=args.image_side,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    for class_dir in (Path(args.out) / "pos", Path(args.out) / "neg"):
        if class_dir.is_dir() and any(class_dir.iterdir()):
            raise ConfigError(f"{class_dir} already holds files; give synth-data an --out "
                              "without a dataset")
    root = synth_data(spec, args.out)
    files = 2 * spec.subjects_per_class * spec.slices_per_subject
    print(f"wrote {files} images under {root}")
    return 0


def cmd_train_base(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = Path(args.out)
    pipeline.base_stages(config, args.data, out)
    print(f"trained {config.K} base models; checkpoints and predictions under {out}")
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = pipeline.fuse_only(args.preds, config, args.out)
    print(pipeline.render_table(report.rows), end="")
    return 0


@pipeline.returns_free_heap
def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    matrix, labels = load_predictions_csv(args.preds)
    scores = {f"p{k + 1}": matrix[:, k] for k in range(matrix.shape[1])}
    rows, curves = pipeline.score_rows(scores, labels, config.threshold)
    if args.out:
        out = Path(args.out)
        pipeline.write_report(out, {"rows": rows})
        pipeline.write_rocs(out, curves)
    print(pipeline.render_table(rows), end="")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    net = microcnn.load_checkpoint(args.checkpoint)
    image = bilinear_resize(read_image(args.image), net.input_side, net.input_side)
    out = Path(args.out)
    pipeline.write_explanation(
        net, image, args.class_id, out, Path(args.image).stem, {"image": str(args.image)}
    )
    print(f"explanation written under {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = pipeline.run_pipeline(
        config,
        args.data,
        args.out,
        roc_from_folds=args.roc_from_folds,
        explain_model=args.explain_model,
    )
    print(pipeline.render_table(report.rows), end="")
    print(f"report written to {Path(args.out) / 'report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridens",
        description="Hybrid convolutional ensemble with weighted averaging, "
        "stacking, and Grad-CAM explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate the seeded synthetic blob dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects-per-class", type=int, default=10)
    p.add_argument("--slices-per-subject", type=int, default=4)
    p.add_argument("--image-side", type=int, default=32)
    p.add_argument("--noise-sigma", type=float, default=0.04)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train-base", help="train the base models and save predictions")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("fuse", help="learn fusion from a prediction CSV")
    _add_common(p)
    p.add_argument("--preds", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", help="score each column of a prediction CSV")
    _add_common(p)
    p.add_argument("--preds", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="Grad-CAM overlay for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--class-id", type=int, default=1, choices=(0, 1))
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("run", help="full pipeline: train, fuse, evaluate, explain")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roc-from-folds", action="store_true",
                   help="pool ROC points from out-of-fold predictions instead of the test set")
    p.add_argument("--explain-model", help="architecture id to explain (default: best val AUC)")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (OSError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 5
    except (KeyboardInterrupt, Stopped) as exc:
        signum = signal.SIGTERM if isinstance(exc, Stopped) else signal.SIGINT
        print(f"stopped by {signum.name}", file=sys.stderr)
        return 128 + signum


if __name__ == "__main__":
    sys.exit(main())
