"""Command-line harness.

    treepatch gen      --config cfg.json --out-dir data/
    treepatch split    --config cfg.json --out-dir splits/
    treepatch train    --config cfg.json --on all --ckpt m.ckpt --report r.json
    treepatch finetune --config cfg.json --prev m.ckpt --ckpt f.ckpt --report r.json
    treepatch evaluate --ckpt m.ckpt --test test.tsv --k 5
    treepatch compare  --finetune r.json --scratch s.json --target-class SL:X
    treepatch sweep    --config cfg.json --prev m.ckpt --scratch-report s.json --out m.csv

Config is a single JSON file (see harness.DEFAULT_CONFIG for the full key
schema); any key can be overridden with repeated `--set dotted.key=value`,
and a bad one raises harness.ConfigError. Errors exit nonzero with a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import dataset as ds
from . import harness
from .model import load_checkpoint, save_checkpoint


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_sets(raw, assignments):
    for item in assignments or []:
        if "=" not in item:
            raise harness.ConfigError(f"--set needs dotted.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        node = raw
        keys = dotted.split(".")
        for depth, key in enumerate(keys[:-1], 1):
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise harness.ConfigError(
                    f"--set {dotted}: config key {'.'.join(keys[:depth])!r} "
                    f"holds {node!r}, not an object")
        node[keys[-1]] = _parse_value(value)
    return raw


def _load_config(args):
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh) or {}  # as from_dict reads an empty config
    if isinstance(raw, dict):  # from_dict rejects any other config
        raw = _apply_sets(raw, getattr(args, "set", None))
    return harness.ExperimentConfig.from_dict(raw, preset=getattr(args, "preset", None))


def _write_json(obj, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def cmd_gen(args):
    cfg = _load_config(args)
    train_set, test_set = harness.load_data(cfg)
    ds.save_tsv(train_set, f"{args.out_dir}/train.tsv")
    ds.save_tsv(test_set, f"{args.out_dir}/test.tsv")
    print(f"wrote {len(train_set)} train / {len(test_set)} test examples to {args.out_dir}")


def cmd_split(args):
    cfg = _load_config(args)
    bundle = harness.prepare(cfg)
    ds.save_tsv(bundle.d1, f"{args.out_dir}/d1.tsv")
    ds.save_tsv(bundle.d2, f"{args.out_dir}/d2.tsv")
    stats = ds.split_stats(bundle.split)
    _write_json({"moved_count": bundle.split.moved_count,
                 "coverage_ids": list(bundle.split.coverage_ids),
                 "d1_size": len(bundle.d1), "d2_size": len(bundle.d2),
                 "per_class": [{"class": c, "d1": a, "d2": b} for c, a, b in stats]},
                args.report)


def cmd_train(args):
    cfg = _load_config(args)
    bundle = harness.prepare(cfg)
    result, report = harness.cmd_train(cfg, bundle, on=args.on)
    if args.ckpt:
        save_checkpoint(result.best, args.ckpt)
    _write_json(report.as_dict(), args.report)


def cmd_finetune(args):
    cfg = _load_config(args)
    bundle = harness.prepare(cfg)
    prev = load_checkpoint(args.prev)
    result, report = harness.cmd_finetune(cfg, bundle, prev)
    if args.ckpt:
        save_checkpoint(result.best, args.ckpt)
    _write_json(report.as_dict(), args.report)


def cmd_evaluate(args):
    ckpt = load_checkpoint(args.ckpt)
    test_set = ds.load_tsv(args.test)
    evaluator = harness.make_evaluator(harness.EvalCases(test_set), args.k,
                                       args.fold_seed)
    _write_json(evaluator(ckpt.model()), args.report)


def _read_report(path):
    with open(path, encoding="utf-8") as fh:
        return harness.RunReport.from_dict(json.load(fh))


def cmd_compare(args):
    ft, scratch = _read_report(args.finetune), _read_report(args.scratch)
    record = harness.cmd_compare(ft, scratch, args.target_class,
                                 require=args.require)
    _write_json(record, args.report)


def _numbers(flag, text):
    values = []
    for item in text.split(","):
        try:
            values.append(float(item))
        except ValueError:
            raise harness.ConfigError(
                f"{flag} takes a comma list of numbers, got {item!r}") from None
    return tuple(values)


def cmd_sweep(args):
    # only the flags given: harness.cmd_sweep holds the defaults
    options = {}
    if args.methods:
        options["methods"] = args.methods.split(",")
    if args.p is not None:
        options["p_values"] = _numbers("--p", args.p)
    if args.strengths is not None:
        options["strengths"] = _numbers("--strengths", args.strengths)
    cfg = _load_config(args)
    bundle = harness.prepare(cfg)
    prev = load_checkpoint(args.prev)
    rows = harness.cmd_sweep(cfg, bundle, prev,
                             _read_report(args.scratch_report), **options)
    harness.sweep_rows_to_csv(rows, args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")


@functools.cache
def build_parser():
    """The argument parser, built once per process: main parses every argv
    with it, and argparse keeps nothing of one parse_args call for the next."""
    parser = argparse.ArgumentParser(prog="treepatch",
                                     description="incremental-training harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a dotted config key")
            p.add_argument("--preset", choices=sorted(harness.PRESETS),
                           help="named method preset")
        p.add_argument("--report", help="write the JSON result here (default stdout)")

    p = sub.add_parser("gen", help="write a synthetic corpus as canonical TSV")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("split", help="partition the training set into old/new")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model from scratch")
    common(p)
    p.add_argument("--on", choices=("all", "d1"), default="all")
    p.add_argument("--ckpt", help="write the best-EM checkpoint here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on the patch")
    common(p)
    p.add_argument("--prev", required=True, help="previous checkpoint")
    p.add_argument("--ckpt", help="write the best-EM checkpoint here")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a TSV test set")
    common(p, config=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--test", required=True, help="canonical 3-column TSV")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--fold-seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="steps-to-parity of finetune vs scratch")
    common(p, config=False)
    p.add_argument("--finetune", required=True, help="finetune report JSON")
    p.add_argument("--scratch", required=True, help="scratch report JSON")
    p.add_argument("--target-class", required=True)
    p.add_argument("--require", choices=harness.PARITY_REQUIRE, default="both")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="method x p x lambda matrix, CSV output")
    common(p)
    p.add_argument("--prev", required=True)
    p.add_argument("--scratch-report", required=True)
    p.add_argument("--methods", help="comma list; default all")
    p.add_argument("--p", help="comma list of sampler.p values")
    p.add_argument("--strengths", help="comma list of reg.strength values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
