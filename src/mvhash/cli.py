"""Command-line entry point: synth / train / eval / search / gradcheck.

Options may come from a JSON config file (--config); explicit flags win
over config-file values. Every artifact embeds the resolved configuration
so results are self-describing.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .data import SPLITS, SynthConfig, generate_synthetic, load_features, write_features
from .gradcheck import REL_TOL, run_gradcheck
from .net import binarize
from .retrieval import build_index, evaluate, format_summary, pack_code, search, write_report_csv
from .trainer import (TrainConfig, codes_for, export_curves, load_checkpoint,
                      save_checkpoint, train)


def _parse_dims(text, flag):
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def _train_config(args) -> TrainConfig:
    """Config-file values overridden by any explicitly passed flags.

    The file must hold a valid config on its own; its errors name the file.
    """
    values = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text())
            if not isinstance(values, dict):
                raise ValueError(f"expected a JSON object, got {type(values).__name__}")
            unknown = set(values) - {f.name for f in fields(TrainConfig)}
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            TrainConfig(**values)
        except ValueError as e:
            raise ValueError(f"config {args.config}: {e}") from None
    for f in fields(TrainConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return TrainConfig(**values)


def _add_train_flags(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--bits", type=int, help="hash code length K (default 16)")
    p.add_argument("--proj-dim", dest="proj_dim", type=int,
                   help="shared per-view projection dim (default 16)")
    p.add_argument("--epochs", type=int, help="training epochs (default 500)")
    p.add_argument("--batch-size", dest="batch_size", type=int,
                   help="batch size b (default 128)")
    p.add_argument("--lr", type=float, help="AdamW learning rate (default 1e-5)")
    p.add_argument("--beta1", type=float, help="AdamW beta1 (default 0.9)")
    p.add_argument("--beta2", type=float, help="AdamW beta2 (default 0.999)")
    p.add_argument("--eps", type=float, help="AdamW epsilon (default 1e-8)")
    p.add_argument("--weight-decay", dest="weight_decay", type=float,
                   help="decoupled weight decay (default 0)")
    p.add_argument("--dropout", dest="dropout_p", type=float,
                   help="dropout probability on concatenated features (default 0.1)")
    p.add_argument("--lam", type=float,
                   help="block fraction for the pairwise loss, in (0, 0.5] (default 0.5)")
    p.add_argument("--mu", type=float, help="quantization loss weight (default 0.5)")
    p.add_argument("--wd-pair", dest="w_d", type=float,
                   help="dissimilar-pair softplus weight (default 1.5)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--eval-every", dest="eval_every", type=int,
                   help="epochs between test-mAP evaluations (default 20)")
    p.add_argument("--ablation", choices=["full", "metric-only", "quant-only",
                                          "image-only", "text-only", "concat-only"],
                   help="pipeline variant (default full)")
    p.add_argument("--lr-schedule", dest="lr_schedule",
                   choices=["constant", "cosine"], help="lr schedule (default constant)")


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        categories=args.categories, views=args.views,
        view_dims=_parse_dims(args.view_dims, "--view-dims"),
        train_size=args.train_size, retrieval_size=args.retrieval_size,
        query_size=args.query_size, noise_sigma=args.sigma,
        multi_label_p=args.multi_label_p, seed=args.seed,
    )
    split = generate_synthetic(cfg)
    manifest = write_features(split, args.out)
    (Path(args.out) / "synth_config.json").write_text(
        json.dumps(asdict(cfg), indent=2) + "\n")
    print(f"wrote {manifest}")
    return 0


def cmd_train(args) -> int:
    cfg = _train_config(args)
    # Without periodic evaluation, train() reads only the training split.
    dataset = load_features(args.data, read=("train",) if cfg.eval_every == 0 else SPLITS)
    result = train(dataset, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = asdict(cfg)
    save_checkpoint(out / "checkpoint.bin", result.params, result.net_cfg,
                    config=resolved, optim=result.optim_state)
    save_checkpoint(out / "checkpoint_best.bin", result.best_params, result.net_cfg,
                    config={**resolved, "best_epoch": result.best_epoch})
    (out / "train_config.json").write_text(json.dumps(resolved, indent=2) + "\n")
    if result.records:
        export_curves(result.records, out / "curves.csv")
        last = result.records[-1]
        map_txt = "n/a" if last.test_map is None else f"{last.test_map:.4f}"
        print(f"epoch {last.epoch}: loss {last.loss:.6f}, test mAP {map_txt}")
    else:
        print("epochs=0: wrote checkpoint of initialized parameters")
    return 0


def _encoder(args):
    """The dataset, the checkpoint matched to it, and encode(split) -> sign codes."""
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_features(args.data)
    if ckpt.net_cfg.view_dims != dataset.view_dims:
        raise ValueError(f"checkpoint {args.checkpoint} has view_dims "
                         f"{ckpt.net_cfg.view_dims}, dataset {args.data} has {dataset.view_dims}")
    stored = {k: v for k, v in ckpt.config.items() if k != "best_epoch"}
    try:
        _, _, view_mask, use_gating = TrainConfig(**stored).pipeline(ckpt.net_cfg.num_views)
    except (TypeError, ValueError) as e:
        raise ValueError(f"checkpoint {args.checkpoint}: stored config: {e}") from None
    for key, built in (("bits", ckpt.net_cfg.code_bits), ("proj_dim", ckpt.net_cfg.proj_dim)):
        if key in stored and stored[key] != built:  # a partial config may leave a key out
            raise ValueError(f"checkpoint {args.checkpoint}: stored config has {key} "
                             f"{stored[key]}, its network has {built}")

    def encode(split):
        return binarize(codes_for(split, ckpt.params, view_mask, use_gating))
    return dataset, ckpt, encode


def cmd_eval(args) -> int:
    dataset, ckpt, encode = _encoder(args)
    q_codes, db_codes = encode(dataset.query), encode(dataset.retrieval)
    index = build_index(db_codes, dataset.retrieval.ids, dataset.retrieval.labels)
    cutoffs = _parse_dims(args.cutoffs, "--cutoffs") if args.cutoffs else ()
    report = evaluate(q_codes, dataset.query.ids, dataset.query.labels, index,
                      cutoffs=cutoffs)
    if args.out:
        write_report_csv(report, args.out)
    print(format_summary(report))
    return 0


def cmd_search(args) -> int:
    dataset, _, encode = _encoder(args)
    index = build_index(encode(dataset.retrieval), dataset.retrieval.ids,
                        dataset.retrieval.labels)
    for qid, code in zip(dataset.query.ids, encode(dataset.query)):
        print(f"{qid}: {' '.join(search(index, pack_code(code), args.k))}")
    return 0


def cmd_gradcheck(args) -> int:
    result = run_gradcheck(seed=args.seed, cases=args.cases)
    print(f"max relative error over {result.cases} cases: {result.max_rel_err:.3e}")
    if result.failures or result.max_rel_err > REL_TOL:
        print(f"FAILED: {result.failures} entries outside tolerance")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvhash",
        description="Multi-view hashing: synthesize data, train, evaluate, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic clustered dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--categories", type=int, default=4)
    p.add_argument("--views", type=int, default=2)
    p.add_argument("--view-dims", dest="view_dims", default="16,16",
                   help="comma-separated per-view dims")
    p.add_argument("--train-size", dest="train_size", type=int, default=800)
    p.add_argument("--retrieval-size", dest="retrieval_size", type=int, default=800)
    p.add_argument("--query-size", dest="query_size", type=int, default=200)
    p.add_argument("--sigma", type=float, default=0.1, help="cluster noise stddev")
    p.add_argument("--multi-label-p", dest="multi_label_p", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model and write checkpoint + curves")
    p.add_argument("--data", required=True, help="dataset manifest or directory")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="write EvalReport CSV here")
    p.add_argument("--cutoffs", help="comma-separated K cutoffs for mAP@K / Recall@K")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("search", help="rank the retrieval set for each query record")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("-k", type=int, default=10, help="results per query")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=20)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # one-line diagnostic, nonzero exit
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
