"""Batch command-line interface.

Subcommands: build-vocab, train, train-tv, eval, predict, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
A ``--config file`` of key=value lines supplies defaults for any flag not
given explicitly on the command line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import conv as conv_mod
from . import corpus
from . import lstm as lstm_mod
from . import model as model_mod
from . import optim
from . import serialize
from . import tvembed as tv_mod
from .errors import DataError, NumericError
from .numkernel import RngSpec, gaussian_init, set_precision

ARCHES = ("oh-2lstmp", "oh-lstmp", "wv-lstm", "wv-2lstmp", "seq-cnn", "bow-cnn", "multi")
LSTM_ARCHES = ("oh-2lstmp", "oh-lstmp", "wv-lstm", "wv-2lstmp")
CNN_ARCHES = ("seq-cnn", "bow-cnn")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _usage(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _add_common(p):
    p.add_argument("--config", help="key=value file of flag defaults")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--precision", choices=("32", "64"), default="32")
    p.add_argument("--pretokenized", action="store_true",
                   help="input lines are already space-separated tokens")


def _add_optimizer(p):
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--rmsprop", action="store_true")
    p.add_argument("--rmsprop-decay", type=float, default=0.9)
    p.add_argument("--rmsprop-eps", type=float, default=1e-6)
    p.add_argument("--minibatch", type=int, default=50)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--chop", type=int, default=None)
    p.add_argument("--overlap", type=int, default=0)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--dev-fraction", type=float, default=0.1)


def build_parser() -> _Parser:
    parser = _Parser(prog="regemb",
                     description="Text categorization with region embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", parents=[], help="build a vocabulary file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=30000)
    p.add_argument("--stopwords", help="exclude these words (target-view vocabulary)")
    _add_common(p)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--arch", required=True, choices=ARCHES)
    p.add_argument("--units", type=int, default=None)
    p.add_argument("--maps", type=int, default=None)
    p.add_argument("--region", type=int, default=None)
    p.add_argument("--variant", choices=("simplified", "full"), default=None)
    p.add_argument("--pool", choices=("max", "avg"), default="max")
    p.add_argument("--pool-k", type=int, default=1)
    p.add_argument("--branch", action="append", default=None,
                   help="multi-arch branch spec, e.g. conv:kind=seq,region=3,maps=100")
    p.add_argument("--tv", action="append", default=[],
                   help="tv-embedding file to attach (repeatable)")
    p.add_argument("--wordvec", help="word-vector text file (wv archs)")
    p.add_argument("--wordvec-scale", type=float, default=1.0)
    p.add_argument("--embed-dim", type=int, default=None,
                   help="random word-vector dimension when no --wordvec given")
    p.add_argument("--freeze-wordvec", action="store_true")
    p.add_argument("--train", required=True, dest="train_file")
    p.add_argument("--train-labels", required=True)
    p.add_argument("--dev")
    p.add_argument("--dev-labels")
    p.add_argument("--vocab")
    p.add_argument("--vocab-size", type=int, default=30000)
    p.add_argument("--target-encoding", choices=("01", "pm1"), default="01")
    p.add_argument("--out", required=True)
    _add_optimizer(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-tv", help="train a two-view embedding on unlabeled text")
    p.add_argument("--kind", required=True, choices=("lstm", "cnn"))
    p.add_argument("--direction", choices=("fwd", "bwd"), default="fwd")
    p.add_argument("--region", type=int, default=None)
    p.add_argument("--input-kind", choices=("seq", "bow"), default="bow")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k-next", type=int, default=5)
    p.add_argument("--neg", type=int, default=5)
    p.add_argument("--vocab", required=True)
    p.add_argument("--target-vocab", required=True)
    p.add_argument("--unlabeled", required=True)
    p.add_argument("--out", required=True)
    _add_optimizer(p)
    _add_common(p)
    p.set_defaults(func=cmd_train_tv)

    p = sub.add_parser("eval", help="error rate of a model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--labels", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="print one class name per input line")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--arch", choices=ARCHES, default="oh-2lstmp")
    p.add_argument("--units", type=int, default=3)
    p.add_argument("--maps", type=int, default=4)
    p.add_argument("--region", type=int, default=None)
    p.add_argument("--variant", choices=("simplified", "full"), default=None)
    p.add_argument("--pool", choices=("max", "avg"), default="max")
    p.add_argument("--pool-k", type=int, default=1)
    p.add_argument("--vocab-size", type=int, default=8)
    p.add_argument("--doc-len", type=int, default=6)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--with-tv", action="store_true",
                   help="attach a random frozen embedding before checking")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--threshold", type=float, default=1e-4)
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _apply_config(parser, args, argv):
    """Fill flags not given on the command line from the --config file,
    parsing each value with its flag's own type and choices."""
    if not getattr(args, "config", None):
        return
    text = corpus._read_text(args.config)
    explicit = {arg.partition("=")[0] for arg in argv}
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    appended = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        flag = f"--{key}"
        action = sub._option_string_actions.get(flag)
        if flag in explicit or action is None or action.dest == argparse.SUPPRESS:
            continue
        if action.nargs == 0:  # on/off switches
            setattr(args, action.dest, value.lower() in ("1", "true", "yes"))
            continue
        try:
            parsed = action.type(value) if action.type is not None else value
        except (TypeError, ValueError):
            _usage(f"{args.config}: invalid value for {key}: {value!r}")
        if action.choices is not None and parsed not in action.choices:
            _usage(f"{args.config}: {key} must be one of "
                   f"{', '.join(map(str, action.choices))}, not {value!r}")
        if isinstance(action, argparse._AppendAction):  # repeated lines add up
            appended.setdefault(action.dest, []).append(parsed)
            parsed = appended[action.dest]
        setattr(args, action.dest, parsed)


def _set_precision_flag(args):
    set_precision("float64" if args.precision == "64" else "float32")


def load_word_vectors(path, vocab, scale=1.0):
    """`word v1 v2 ... vd` lines -> (d, |V|) matrix in vocabulary column order;
    words missing from the file get zero vectors."""
    from .numkernel import real_dtype

    rows = None
    data = None
    found = 0
    for line in corpus._read_text(path).splitlines():
        parts = line.split()
        if len(parts) < 2:
            continue
        word, vals = parts[0], parts[1:]
        if rows is None:
            rows = len(vals)
            data = np.zeros((rows, len(vocab)), dtype=real_dtype())
        if len(vals) != rows:
            raise DataError(f"{path}: inconsistent vector width for {word!r}")
        wid = vocab.index.get(word)
        if wid is not None:
            data[:, wid] = [float(v) for v in vals]
            found += 1
    if data is None:
        raise DataError(f"{path}: no word vectors found")
    data *= scale
    return data, found


_BRANCH_DIRECTIONS = {"fwd": "forward", "bwd": "backward", "bi": "bidirectional"}


def _parse_branch_spec(text, vocab_size, default_pool, gen):
    kind, _, rest = text.partition(":")
    opts = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            opts[key.strip()] = value.strip()
    if kind not in ("conv", "lstm"):
        _usage(f"unknown branch type {kind!r} in --branch {text!r}")
    try:
        pooling = model_mod.PoolingSpec(opts.get("pool", default_pool.kind),
                                        int(opts.get("k", default_pool.regions)))
        if kind == "conv":
            params = conv_mod.ConvParams.create(
                int(opts.get("maps", 100)), int(opts.get("region", 3)),
                opts.get("kind", "seq"), vocab_size, gen)
            return model_mod.ConvBranch(pooling, params)
        dir_name = opts.get("dir", "bi")
        if dir_name not in _BRANCH_DIRECTIONS:
            raise ValueError(f"dir must be one of {', '.join(_BRANCH_DIRECTIONS)}")
        direction = _BRANCH_DIRECTIONS[dir_name]
        units = int(opts.get("units", 100))
        variant = opts.get("variant", "simplified")
        if variant not in lstm_mod.GATES:
            raise ValueError(f"variant must be one of {', '.join(lstm_mod.GATES)}")
        fwd = bwd = None
        if direction in ("forward", "bidirectional"):
            fwd = lstm_mod.LstmParams.create(variant, units, vocab_size, "one-hot", gen)
        if direction in ("backward", "bidirectional"):
            bwd = lstm_mod.LstmParams.create(variant, units, vocab_size, "one-hot", gen)
        return model_mod.LstmBranch(direction, pooling, fwd, bwd)
    except ValueError as exc:
        _usage(f"bad --branch {text!r}: {exc}")


def _check_train_flags(args):
    if args.arch in LSTM_ARCHES:
        if args.region is not None:
            _usage(f"--region does not apply to arch {args.arch}")
        if args.maps is not None:
            _usage(f"--maps does not apply to arch {args.arch}")
    if args.arch in CNN_ARCHES:
        if args.units is not None:
            _usage(f"--units does not apply to arch {args.arch}")
        if args.variant is not None:
            _usage(f"--variant does not apply to arch {args.arch}")
    if args.arch.startswith("oh-") or args.arch in CNN_ARCHES:
        if args.wordvec or args.embed_dim:
            _usage(f"word vectors do not apply to arch {args.arch}")
    if args.arch.startswith("wv-") and not (args.wordvec or args.embed_dim):
        _usage("wv archs need --wordvec or --embed-dim")
    if args.arch == "multi" and not args.branch:
        _usage("--arch multi needs at least one --branch")
    if args.arch != "multi" and args.branch:
        _usage("--branch applies only to --arch multi")


def build_model(args, vocab, n_classes, class_names, rng) -> model_mod.ModelSpec:
    gen = rng.stream("init")
    vocab_size = len(vocab)
    pooling = model_mod.PoolingSpec(args.pool, args.pool_k)
    branches = []
    if args.arch in LSTM_ARCHES:
        units = args.units if args.units is not None else 100
        variant = args.variant or ("full" if args.arch.startswith("wv") else "simplified")
        embedding = None
        input_dim = vocab_size
        input_kind = "one-hot"
        if args.arch.startswith("wv"):
            if args.wordvec:
                embedding, found = load_word_vectors(args.wordvec, vocab,
                                                     args.wordvec_scale)
                print(f"word_vectors={found}/{vocab_size}")
            else:
                embedding = gaussian_init(args.embed_dim, vocab_size, 0.01, gen)
            input_dim = embedding.shape[0]
            input_kind = "dense"
        direction = "bidirectional" if args.arch in ("oh-2lstmp", "wv-2lstmp") \
            else "forward"
        fwd = bwd = None
        if direction in ("forward", "bidirectional"):
            fwd = lstm_mod.LstmParams.create(variant, units, input_dim, input_kind, gen)
        if direction == "bidirectional":
            bwd = lstm_mod.LstmParams.create(variant, units, input_dim, input_kind, gen)
        branches.append(model_mod.LstmBranch(
            direction, pooling, fwd, bwd, embedding,
            train_embedding=not args.freeze_wordvec))
    elif args.arch in CNN_ARCHES:
        input_kind = "seq" if args.arch == "seq-cnn" else "bow"
        region = args.region if args.region is not None else \
            (3 if input_kind == "seq" else 20)
        maps = args.maps if args.maps is not None else 100
        params = conv_mod.ConvParams.create(maps, region, input_kind, vocab_size, gen)
        branches.append(model_mod.ConvBranch(pooling, params))
    else:
        for text in args.branch:
            branches.append(_parse_branch_spec(text, vocab_size, pooling, gen))
    doc_dim = sum(b.out_dim * b.pooling.regions for b in branches)
    top = model_mod.TopLayerParams.create(n_classes, doc_dim, gen,
                                          dropout_rate=args.dropout)
    return model_mod.ModelSpec(branches, top, n_classes, vocab_size,
                               class_names, args.target_encoding, {}, vocab)


def cmd_build_vocab(args):
    docs = corpus.load_token_file(args.input, args.pretokenized)
    if args.stopwords:
        # rank the whole corpus first so exclusion does not under-fill the cap
        distinct = len({t for toks in docs for t in toks})
        full = corpus.build_vocab(docs, max(args.size, distinct))
        stop = corpus.StopwordList.from_file(args.stopwords)
        vocab = corpus.target_vocab(full, stop, args.size)
    else:
        vocab = corpus.build_vocab(docs, args.size)
    vocab.save(args.out)
    cov = corpus.coverage(docs, vocab)
    print(f"vocab_size={len(vocab)} coverage={100.0 * cov:.2f}%")
    return 0


def _load_or_build_vocab(args, token_docs):
    if args.vocab:
        return corpus.Vocabulary.load(args.vocab)
    return corpus.build_vocab(token_docs, args.vocab_size)


def _train_config(args):
    return optim.TrainConfig(
        lr=args.lr, momentum=args.momentum, rmsprop=args.rmsprop,
        rmsprop_decay=args.rmsprop_decay, rmsprop_eps=args.rmsprop_eps,
        minibatch=args.minibatch, epochs=args.epochs, chop_len=args.chop,
        chop_overlap=args.overlap, dropout_rate=args.dropout, seed=args.seed,
        workers=args.workers,
    )


def cmd_train(args):
    _check_train_flags(args)
    _set_precision_flag(args)
    token_docs = corpus.load_token_file(args.train_file, args.pretokenized)
    vocab = _load_or_build_vocab(args, token_docs)
    labels = corpus.load_label_file(args.train_labels)
    if len(labels) != len(token_docs):
        raise DataError(f"{args.train_file} and {args.train_labels} differ in length")
    ids, class_names = corpus.class_ids(labels)
    docs = [corpus.encode(toks, vocab, label=lab)
            for toks, lab in zip(token_docs, ids)]

    rng = RngSpec(args.seed)
    if args.dev:
        if not args.dev_labels:
            _usage("--dev needs --dev-labels")
        dev_set = corpus.load_dataset(args.dev, args.dev_labels, vocab,
                                      class_names, args.pretokenized)
        train_docs = docs
    elif args.dev_fraction > 0 and len(docs) > 1:
        order = rng.stream("data").permutation(len(docs))
        n_dev = max(1, int(len(docs) * args.dev_fraction))
        dev_idx = set(order[:n_dev].tolist())
        dev_set = corpus.Dataset([docs[i] for i in sorted(dev_idx)],
                                 len(class_names), class_names)
        train_docs = [docs[i] for i in range(len(docs)) if i not in dev_idx]
    else:
        dev_set = None
        train_docs = docs
    train_set = corpus.Dataset(train_docs, len(class_names), class_names)

    spec = build_model(args, vocab, len(class_names), class_names, rng)
    if args.tv:
        embeddings = []
        for path in args.tv:
            emb = serialize.load_tv(path)
            if emb.source_vocab_hash and emb.source_vocab_hash != vocab.sha256():
                raise DataError(f"{path}: trained on a different vocabulary")
            embeddings.append(emb)
        names = [e.name for e in embeddings]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate tv embedding names: {names}")
        model_mod.attach_embeddings(spec, embeddings, rng.stream("init", 1))

    cfg = _train_config(args)
    optim.train(spec, train_set, dev_set, cfg, log_fn=print)
    serialize.save_model(args.out, spec)
    print(f"model={args.out}")
    return 0


def cmd_train_tv(args):
    _set_precision_flag(args)
    if args.kind == "cnn" and args.region is None:
        _usage("--kind cnn needs --region")
    vocab = corpus.Vocabulary.load(args.vocab)
    target = corpus.Vocabulary.load(args.target_vocab)
    token_docs = corpus.load_token_file(args.unlabeled, args.pretokenized)
    docs = [corpus.encode(toks, vocab) for toks in token_docs]
    dataset = corpus.Dataset(docs, 0, [])
    direction = "forward" if args.direction == "fwd" else "backward"
    spec = tv_mod.TvObjectiveSpec.build(vocab, target, args.k_next, args.neg,
                                        direction, args.region)
    cfg = _train_config(args)
    name = Path(args.out).stem
    if args.kind == "lstm":
        emb, _ = tv_mod.train_tv_lstm(dataset, spec, args.dim, cfg, name=name,
                                      log_fn=print)
    else:
        emb, _ = tv_mod.train_tv_cnn(dataset, args.region, args.dim, spec, cfg,
                                     input_kind=args.input_kind, name=name,
                                     log_fn=print)
    serialize.save_tv(args.out, emb)
    print(f"tv={args.out}")
    return 0


def cmd_eval(args):
    _set_precision_flag(args)
    spec = serialize.load_model(args.model)
    if spec.vocab is None:
        raise DataError(f"{args.model}: model carries no vocabulary")
    dataset = corpus.load_dataset(args.test, args.labels, spec.vocab,
                                  spec.class_names, args.pretokenized)
    counts = model_mod.confusion(spec, dataset, workers=args.workers)
    print(f"error_rate={model_mod.percent_wrong(counts):.4f}")
    for true_id, name in enumerate(spec.class_names):
        row = " ".join(f"{spec.class_names[p]}={counts[true_id, p]}"
                       for p in range(spec.n_classes) if counts[true_id, p])
        print(f"confusion {name}: {row}")
    return 0


def cmd_predict(args):
    _set_precision_flag(args)
    spec = serialize.load_model(args.model)
    if spec.vocab is None:
        raise DataError(f"{args.model}: model carries no vocabulary")
    token_docs = corpus.load_token_file(args.input, args.pretokenized)
    docs = [corpus.encode(toks, spec.vocab) for toks in token_docs]
    for lo in range(0, len(docs), 512):
        chunk = docs[lo:lo + 512]
        scores = model_mod.batch_scores(spec, chunk, workers=args.workers)
        for pred in np.argmax(scores, axis=0):
            print(spec.class_names[pred])
    return 0


def cmd_gradcheck(args):
    set_precision("float64")
    rng = RngSpec(args.seed)
    gen = rng.stream("data")
    args.dropout = 0.0
    args.target_encoding = "01"
    args.wordvec = None
    args.wordvec_scale = 1.0
    args.embed_dim = 4 if args.arch.startswith("wv") else None
    args.freeze_wordvec = False
    args.branch = args.branch if getattr(args, "branch", None) else None
    if args.arch == "multi" and not args.branch:
        args.branch = ["conv:kind=seq,region=2,maps=3", "lstm:dir=bi,units=2"]
    words = [f"w{i}" for i in range(args.vocab_size)]
    vocab = corpus.Vocabulary(words)
    class_names = [f"c{i}" for i in range(args.classes)]
    spec = build_model(args, vocab, args.classes, class_names, rng)
    if args.with_tv:
        emb_params = lstm_mod.LstmParams.create("full", 3, args.vocab_size,
                                                "one-hot", gen)
        emb = tv_mod.TvEmbedding(kind="lstm", dim=3, name="tv0",
                                 lstm_params=emb_params,
                                 direction="forward").freeze()
        model_mod.attach_embeddings(spec, [emb], gen)
    doc = corpus.TokenSequence(gen.integers(0, args.vocab_size, args.doc_len))
    label = int(gen.integers(0, args.classes))
    report = optim.grad_check(spec, doc, label, eps=args.eps,
                              threshold=args.threshold, seed=args.seed)
    for line in report.lines():
        print(line)
    if not report.passed:
        raise NumericError("gradient check failed")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(parser, args, argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
