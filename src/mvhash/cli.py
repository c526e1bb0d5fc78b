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
from .trainer import (TrainConfig, codes_for, export_curves, load_checkpoint, save_checkpoint,
                      train)


def _parse_dims(text, flag):
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def _flag(f):
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def _add_config_flags(p, cls):
    """One flag per field of the config dataclass `cls`, typed by its annotation.

    A tuple field is read as comma-separated integers after parsing. Every
    flag defaults to None, so only the flags passed override the dataclass.
    """
    for f in fields(cls):
        shown = ",".join(map(str, f.default)) if f.type is tuple else f.default
        p.add_argument(_flag(f), dest=f.name, type=f.type if f.type in (int, float) else None,
                       choices=f.metadata.get("choices"),
                       help=f.metadata["help"] + ("" if shown is None else f" (default {shown})"))


def _flag_values(cls, args) -> dict:
    """The values of the `cls` flags that were passed, keyed by field name."""
    values = {}
    for f in fields(cls):
        value = getattr(args, f.name)
        if value is not None:
            values[f.name] = _parse_dims(value, _flag(f)) if f.type is tuple else value
    return values


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
    return TrainConfig(**{**values, **_flag_values(TrainConfig, args)})


def cmd_synth(args) -> int:
    cfg = SynthConfig(**_flag_values(SynthConfig, args))
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
    (out / "train_config.json").write_text(json.dumps(resolved, indent=2) + "\n")
    if result.records:
        export_curves(result.records, out / "curves.csv")
        last = result.records[-1]
        map_txt = "n/a" if last.test_map is None else f"{last.test_map:.4f}"
        print(f"epoch {last.epoch}: loss {last.loss:.6f}, test mAP {map_txt}")
    else:
        print("epochs=0: wrote checkpoint of initialized parameters")
    return 0


def _indexed(args):
    """(query split, its sign codes, index of the retrieval split) from the
    checkpoint's own network; its stored training config is not read."""
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_features(args.data, read=("retrieval", "query"))
    if ckpt.net_cfg.view_dims != dataset.view_dims:
        raise ValueError(f"checkpoint {args.checkpoint} has view_dims "
                         f"{ckpt.net_cfg.view_dims}, dataset {args.data} has {dataset.view_dims}")
    db, query = dataset.retrieval, dataset.query
    index = build_index(binarize(codes_for(db, ckpt.params)), db.ids, db.labels)
    return query, binarize(codes_for(query, ckpt.params)), index


def cmd_eval(args) -> int:
    query, q_codes, index = _indexed(args)
    cutoffs = _parse_dims(args.cutoffs, "--cutoffs") if args.cutoffs else ()
    report = evaluate(q_codes, query.ids, query.labels, index, cutoffs=cutoffs)
    if args.out:
        write_report_csv(report, args.out)
    print(format_summary(report))
    return 0


def cmd_search(args) -> int:
    query, q_codes, index = _indexed(args)
    for qid, code in zip(query.ids, q_codes):
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
    _add_config_flags(p, SynthConfig)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model and write checkpoint + curves")
    p.add_argument("--data", required=True, help="dataset manifest or directory")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_config_flags(p, TrainConfig)
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
