"""Batch command-line interface.

Subcommands: build-vocab, train, train-tv, eval, predict, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
A ``--config file`` of key=value lines supplies defaults for any flag not
given explicitly on the command line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
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
from .numkernel import RngSpec, gaussian_init, real_dtype, set_precision

# --branch options of each kind: (default, choices), no choices meaning a
# positive integer; `pool` and `k` default to --pool and --pool-k
_POOL_OPTIONS = {"pool": (None, ("max", "avg")), "k": (None, None)}
BRANCH_OPTIONS = {
    "lstm": {"dir": ("bi", ("fwd", "bwd", "bi")), "units": (100, None),
             "variant": ("simplified", tuple(lstm_mod.GATES)), **_POOL_OPTIONS},
    "conv": {"kind": ("seq", ("seq", "bow")), "region": (3, None),
             "maps": (100, None), **_POOL_OPTIONS},
}
ARCHES = {  # one branch: kind, preset options, word-vector input
    "oh-2lstmp": ("lstm", {}, False),
    "oh-lstmp": ("lstm", {"dir": "fwd"}, False),
    "wv-lstm": ("lstm", {"dir": "fwd", "variant": "full"}, True),
    "wv-2lstmp": ("lstm", {"variant": "full"}, True),
    "seq-cnn": ("conv", {}, False),
    "bow-cnn": ("conv", {"kind": "bow", "region": 20}, False),
    "multi": (None, {}, False),  # branches from --branch
}
# flags that set the option of the same name of a named arch's branch
_ARCH_FLAGS = ("units", "variant", "maps", "region")
_DIRECTIONS = {"fwd": "forward", "bwd": "backward", "bi": "bidirectional"}
_GRADCHECK_BRANCHES = ("conv:kind=seq,region=2,maps=3", "lstm:dir=bi,units=2")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _usage(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _checked(build, *args, **kwargs):
    """Call a constructor that validates flag values; its ValueError is a
    usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        _usage(str(exc))


def _refuse_inert(args, rows):
    """Refuse each flag of `rows` (flag, applies, where) that is given, its
    value (from the command line or --config) differing from the parser
    default, where it does not apply and so would change nothing."""
    for flag, applies, where in rows:
        if flag.split()[0] in args.given and not applies:
            _usage(f"{flag} does not apply {where}")


def _optimizer_rows(args):
    return [("--momentum", not args.rmsprop, "with --rmsprop"),
            ("--rmsprop-decay", args.rmsprop, "without --rmsprop"),
            ("--rmsprop-eps", args.rmsprop, "without --rmsprop")]


def _check_positive(args, *names):
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            _usage(f"--{name.replace('_', '-')} must be >= 1")


def _add_common(p):
    p.add_argument("--config", help="key=value file of flag defaults")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored (each minibatch is one batched pass)")
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


def _add_arch(p, **arch):
    """--arch and the flags that set the options of its branches."""
    p.add_argument("--arch", choices=ARCHES, **arch)
    p.add_argument("--units", type=int, default=None)
    p.add_argument("--maps", type=int, default=None)
    p.add_argument("--region", type=int, default=None)
    p.add_argument("--variant", choices=("simplified", "full"), default=None)
    p.add_argument("--pool", choices=("max", "avg"), default="max")
    p.add_argument("--pool-k", type=int, default=1)


def build_parser() -> _Parser:
    # no abbreviated flags: _apply_config must see which flags were given
    parser = _Parser(prog="regemb", allow_abbrev=False,
                     description="Text categorization with region embeddings")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("build-vocab", help="build a vocabulary file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=30000)
    p.add_argument("--stopwords", help="exclude these words (target-view vocabulary)")
    _add_common(p)
    p.set_defaults(func=cmd_build_vocab)

    p = add_parser("train", help="train a classifier")
    _add_arch(p, required=True)
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
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--dev-fraction", type=float, default=0.1)
    _add_optimizer(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = add_parser("train-tv", help="train a two-view embedding on unlabeled text")
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
    p.add_argument("--dev-fraction", type=float, default=0.1,
                   help="accepted and ignored (tv training holds out no dev set)")
    _add_optimizer(p)
    _add_common(p)
    p.set_defaults(func=cmd_train_tv)

    p = add_parser("eval", help="error rate of a model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--labels", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = add_parser("predict", help="print one class name per input line")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = add_parser("gradcheck", help="finite-difference gradient check")
    _add_arch(p, default="oh-2lstmp")
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


def _apply_config(sub, args, argv):
    """Fill flags not given on the command line from the --config file,
    parsing each value with its flag's own type and choices."""
    if not getattr(args, "config", None):
        return
    explicit = {arg.partition("=")[0] for arg in argv}
    appended = {}
    for line in corpus.read_lines(args.config):
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


def load_word_vectors(path, vocab, scale=1.0):
    """`word v1 v2 ... vd` lines -> (d, |V|) matrix in vocabulary column order;
    words missing from the file get zero vectors.  The vectors of vocabulary
    words must be finite numbers.  A first line of two integers `count d`
    (a word2vec text header) is skipped when d is the width that follows."""
    lines = corpus.read_lines(path)
    head = lines[0].split() if lines else []
    following = next((p for p in map(str.split, itertools.islice(lines, 1, None))
                      if len(p) >= 2), [])
    if len(head) == 2 and all(p.isdecimal() for p in head) \
            and int(head[1]) == len(following) - 1:
        del lines[0]
    rows = None
    data = None
    found = 0
    for line in lines:
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
            try:
                data[:, wid] = [float(v) for v in vals]
            except ValueError:
                raise DataError(f"{path}: vector of {word!r} has an entry "
                                "that is not a number") from None
            if not np.isfinite(data[:, wid]).all():
                raise DataError(f"{path}: vector of {word!r} has a non-finite entry")
            found += 1
    if data is None:
        raise DataError(f"{path}: no word vectors found")
    data *= scale
    return data, found


def _branch(kind, options, pooling, vocab_size, gen, embedding=None,
            train_embedding=True):
    """A branch of `kind` from its options (text or integer values; `pool`
    and `k` default to `pooling`); an unknown option or a bad value raises
    ValueError.  An LSTM branch reads `embedding` if given and draws its fwd
    cell before its bwd cell."""
    table = BRANCH_OPTIONS[kind]
    opts = {**{key: default for key, (default, _) in table.items()},
            "pool": pooling.kind, "k": pooling.regions}
    for key, value in options.items():
        if key not in table:
            raise ValueError(f"unknown {kind} option {key!r} (known: {', '.join(table)})")
        choices = table[key][1]
        if choices is None:
            if not (str(value).isdecimal() and int(value) > 0):
                raise ValueError(f"{key} must be a positive integer, not {value!r}")
            value = int(value)
        elif value not in choices:
            raise ValueError(f"{key} must be one of {', '.join(choices)}, not {value!r}")
        opts[key] = value
    pooling = model_mod.PoolingSpec(opts["pool"], opts["k"])
    if kind == "conv":
        return model_mod.ConvBranch(pooling, conv_mod.ConvParams.create(
            opts["maps"], opts["region"], opts["kind"], vocab_size, gen))
    input_dim, input_kind = (vocab_size, "one-hot") if embedding is None \
        else (embedding.shape[0], "dense")
    cells = {tag: lstm_mod.LstmParams.create(opts["variant"], opts["units"],
                                             input_dim, input_kind, gen)
             for tag in ("fwd", "bwd") if opts["dir"] in (tag, "bi")}
    return model_mod.LstmBranch(_DIRECTIONS[opts["dir"]], pooling, cells.get("fwd"),
                                cells.get("bwd"), embedding, train_embedding)


def _branch_list(args, specs, defaults=None):
    """(source, kind, options) of each branch of --arch: a named arch's
    preset, then `defaults` for the options of its kind, then the flags
    given; for `multi`, each spec text `kind:key=value,...`.  A flag that
    sets no option of the arch is a usage error."""
    kind, preset, _ = ARCHES[args.arch]
    given = {name: getattr(args, name) for name in _ARCH_FLAGS
             if getattr(args, name) is not None}
    for name in given:
        if name not in BRANCH_OPTIONS.get(kind, ()):
            _usage(f"--{name} does not apply to arch {args.arch}")
    if kind is not None:
        defaults = {k: v for k, v in (defaults or {}).items() if k in BRANCH_OPTIONS[kind]}
        return [(f"--arch {args.arch}", kind, {**preset, **defaults, **given})]
    branches = []
    for text in specs:
        kind, _, rest = text.partition(":")
        if kind not in BRANCH_OPTIONS:
            _usage(f"unknown branch type {kind!r} in --branch {text!r}")
        pairs = [item.partition("=")[::2] for item in rest.split(",")] if rest else []
        options = {key.strip(): value.strip() for key, value in pairs}
        if len(options) < len(pairs):
            _usage(f"bad --branch {text!r}: an option is given twice")
        branches.append((f"--branch {text!r}", kind, options))
    return branches


def _check_train_flags(args):
    if ARCHES[args.arch][2] and not (args.wordvec or args.embed_dim):
        _usage("wv archs need --wordvec or --embed-dim")
    if args.arch == "multi" and not args.branch:
        _usage("--arch multi needs at least one --branch")
    if args.arch != "multi" and args.branch:
        _usage("--branch applies only to --arch multi")


def build_model(branches, pooling, vocab, class_names, gen, embedding=None,
                train_embedding=True, dropout=0.0, target_encoding="01"):
    """The model of `_branch_list` triples; a bad option is a usage error
    naming its source.  Draws the branches in order, then the top layer."""
    built = []
    for source, kind, options in branches:
        try:
            built.append(_branch(kind, options, pooling, len(vocab), gen,
                                 embedding, train_embedding))
        except ValueError as exc:
            _usage(f"bad {source}: {exc}")
    doc_dim = sum(b.out_dim * b.pooling.regions for b in built)
    top = model_mod.TopLayerParams.create(len(class_names), doc_dim, gen,
                                          dropout_rate=dropout)
    return model_mod.ModelSpec(built, top, len(class_names), len(vocab),
                               class_names, target_encoding, {}, vocab)


def cmd_build_vocab(args):
    _check_positive(args, "size")
    docs = corpus.load_token_file(args.input, args.pretokenized)
    if args.stopwords:
        # rank the whole corpus first so exclusion does not under-fill the cap
        distinct = len({t for toks in docs for t in toks})
        full = corpus.build_vocab(docs, max(args.size, distinct))
        vocab = corpus.target_vocab(full, corpus.load_stopwords(args.stopwords),
                                    args.size)
    else:
        vocab = corpus.build_vocab(docs, args.size)
    vocab.save(args.out)
    cov = corpus.coverage(docs, vocab)
    print(f"vocab_size={len(vocab)} coverage={100.0 * cov:.2f}%")
    return 0


def _train_config(args, **extra):
    return _checked(
        optim.TrainConfig,
        lr=args.lr, momentum=args.momentum, rmsprop=args.rmsprop,
        rmsprop_decay=args.rmsprop_decay, rmsprop_eps=args.rmsprop_eps,
        minibatch=args.minibatch, epochs=args.epochs, chop_len=args.chop,
        chop_overlap=args.overlap, seed=args.seed, **extra,
    )


def cmd_train(args):
    _check_train_flags(args)
    branches = _branch_list(args, args.branch)
    _check_positive(args, "units", "maps", "region", "embed_dim", "vocab_size")
    pooling = _checked(model_mod.PoolingSpec, args.pool, args.pool_k)
    if not 0 <= args.dev_fraction < 1:
        _usage("--dev-fraction must be in [0, 1)")
    if not math.isfinite(args.wordvec_scale):
        _usage("--wordvec-scale must be finite")
    cfg = _train_config(args, dropout_rate=args.dropout)
    wordvec, arch = ARCHES[args.arch][2], f"to arch {args.arch}"
    # --overlap needs --chop, so the --chop row covers it
    _refuse_inert(args, [
        ("--chop", any(kind == "lstm" for _, kind, _ in branches), "without an LSTM branch"),
        ("--wordvec", wordvec, arch), ("--embed-dim", wordvec, arch),
        ("--freeze-wordvec", wordvec, arch),
        ("--dev-fraction", not args.dev, "with --dev"),
        ("--dev-labels", bool(args.dev), "without --dev"),
        ("--vocab-size", not args.vocab, "with --vocab"),
        *_optimizer_rows(args),
        ("--embed-dim", not args.wordvec, "with --wordvec"),
        ("--wordvec-scale", bool(args.wordvec), "without --wordvec")])
    if args.dev and not args.dev_labels:
        _usage("--dev needs --dev-labels")
    set_precision(f"float{args.precision}")
    token_docs = corpus.load_token_file(args.train_file, args.pretokenized)
    vocab = corpus.Vocabulary.load(args.vocab) if args.vocab \
        else corpus.build_vocab(token_docs, args.vocab_size)
    labels = corpus.load_label_file(args.train_labels)
    if len(labels) != len(token_docs):
        raise DataError(f"{args.train_file} and {args.train_labels} differ in length")
    ids, class_names = corpus.class_ids(labels)
    docs = [corpus.encode(toks, vocab, label=lab)
            for toks, lab in zip(token_docs, ids)]

    rng = RngSpec(args.seed)
    if args.dev:
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

    gen = rng.stream("init")
    embedding = None
    if args.wordvec:
        embedding, found = load_word_vectors(args.wordvec, vocab, args.wordvec_scale)
        print(f"word_vectors={found}/{len(vocab)}")
    elif args.embed_dim:
        embedding = gaussian_init(args.embed_dim, len(vocab), 0.01, gen)
    spec = build_model(branches, pooling, vocab, class_names, gen, embedding,
                       not args.freeze_wordvec, args.dropout, args.target_encoding)
    if args.tv:
        embeddings = []
        for path in args.tv:
            emb = serialize.load_tv(path)
            if emb.source_vocab_hash and emb.source_vocab_hash != vocab.sha256():
                raise DataError(f"{path}: trained on a different vocabulary")
            if emb.vocab_size != len(vocab):
                raise DataError(f"{path}: reads {emb.vocab_size} words, "
                                f"the vocabulary has {len(vocab)}")
            embeddings.append(emb)
        names = [e.name for e in embeddings]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate tv embedding names: {names}")
        model_mod.attach_embeddings(spec, embeddings, rng.stream("init", 1))

    optim.train(spec, train_set, dev_set, cfg, log_fn=print)
    serialize.save_model(args.out, spec)
    print(f"model={args.out}")
    return 0


def cmd_train_tv(args):
    if args.kind == "cnn" and args.region is None:
        _usage("--kind cnn needs --region")
    _check_positive(args, "dim", "region")
    lstm, kind = args.kind == "lstm", f"to --kind {args.kind}"
    _refuse_inert(args, [("--chop", lstm, kind), ("--overlap", lstm, kind),
                         ("--direction bwd", lstm, kind), ("--region", not lstm, kind),
                         ("--input-kind seq", not lstm, kind), *_optimizer_rows(args)])
    cfg = _train_config(args)
    set_precision(f"float{args.precision}")
    vocab = corpus.Vocabulary.load(args.vocab)
    target = corpus.Vocabulary.load(args.target_vocab)
    token_docs = corpus.load_token_file(args.unlabeled, args.pretokenized)
    docs = [corpus.encode(toks, vocab) for toks in token_docs]
    dataset = corpus.Dataset(docs, 0, [])
    direction = "forward" if args.direction == "fwd" else "backward"
    spec = _checked(tv_mod.TvObjectiveSpec.build, vocab, target, args.k_next,
                    args.neg, direction)
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
    set_precision(f"float{args.precision}")
    spec = serialize.load_model(args.model)
    if spec.vocab is None:
        raise DataError(f"{args.model}: model carries no vocabulary")
    dataset = corpus.load_dataset(args.test, args.labels, spec.vocab,
                                  spec.class_names, args.pretokenized)
    counts = model_mod.confusion(spec, dataset)
    print(f"error_rate={model_mod.percent_wrong(counts):.4f}")
    for true_id, name in enumerate(spec.class_names):
        row = " ".join(f"{spec.class_names[p]}={counts[true_id, p]}"
                       for p in range(spec.n_classes) if counts[true_id, p])
        print(f"confusion {name}: {row}")
    return 0


def cmd_predict(args):
    set_precision(f"float{args.precision}")
    spec = serialize.load_model(args.model)
    if spec.vocab is None:
        raise DataError(f"{args.model}: model carries no vocabulary")
    token_docs = corpus.load_token_file(args.input, args.pretokenized)
    docs = [corpus.encode(toks, spec.vocab) for toks in token_docs]
    for pred in model_mod.predict(model_mod.batch_scores(spec, docs)):
        print(spec.class_names[pred])
    return 0


def cmd_gradcheck(args):
    branches = _branch_list(args, _GRADCHECK_BRANCHES, {"units": 3, "maps": 4})
    _check_positive(args, "units", "maps", "region", "vocab_size", "doc_len", "classes")
    if not 0 < args.eps < math.inf:
        _usage("--eps must be finite and > 0")
    if not math.isfinite(args.threshold):
        _usage("--threshold must be finite")
    _refuse_inert(args, [("--precision", False, "to gradcheck (it always runs in float64)"),
                         ("--pretokenized", False, "to gradcheck (it reads no file)")])
    set_precision("float64")
    rng = RngSpec(args.seed)
    gen = rng.stream("data")
    vocab = corpus.Vocabulary([f"w{i}" for i in range(args.vocab_size)])
    class_names = [f"c{i}" for i in range(args.classes)]
    init = rng.stream("init")
    embedding = gaussian_init(4, args.vocab_size, 0.01, init) \
        if ARCHES[args.arch][2] else None
    spec = build_model(branches, _checked(model_mod.PoolingSpec, args.pool, args.pool_k),
                       vocab, class_names, init, embedding)
    if args.with_tv:
        emb_params = lstm_mod.LstmParams.create("full", 3, args.vocab_size,
                                                "one-hot", gen, std=0.5)
        emb = tv_mod.TvEmbedding(kind="lstm", dim=3, name="tv0",
                                 lstm_params=emb_params,
                                 direction="forward").freeze()
        model_mod.attach_embeddings(spec, [emb], gen)
    # At the init std of 0.01 many gradients are ~1e-8, below what central
    # differences resolve; std 0.4 gives gradients the check can judge.
    for _, param in model_mod.iter_params(spec):
        param *= 40.0
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
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[args.command]
        _apply_config(sub, args, argv)
        args.given = {flag for a in sub._actions
                      if getattr(args, a.dest, a.default) != a.default
                      for flag in a.option_strings}
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
