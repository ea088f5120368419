"""Properties of the file formats and the tokenizer, checked by Hypothesis
over drawn names, word lists and text."""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from regemb import conv as conv_mod
from regemb import model as model_mod
from regemb.corpus import Vocabulary, tokenize
from regemb.numkernel import RngSpec
from regemb.serialize import load_model, save_model

from test_serialize import random_tv

# any text a label file line could hold: no "\n", no "\r", no lone surrogate
# (U+2028 and the other Unicode line breaks included)
NAME = st.text(st.characters(exclude_characters="\n\r", exclude_categories=("Cs",)),
               min_size=1, max_size=8)


@given(class_names=st.lists(NAME, min_size=2, max_size=3, unique=True),
       tv_names=st.lists(NAME, min_size=1, max_size=2, unique=True))
def test_model_file_round_trips_any_names(tmp_path_factory, class_names, tv_names):
    gen = RngSpec(1).stream("init")
    branch = model_mod.ConvBranch(model_mod.PoolingSpec("max", 1),
                                  conv_mod.ConvParams.create(2, 1, "bow", 4, gen))
    top = model_mod.TopLayerParams.create(len(class_names), 2, gen)
    spec = model_mod.ModelSpec([branch], top, len(class_names), 4, class_names, "01",
                               {}, Vocabulary(["a", "b", "c", "d"]))
    embs = [dataclasses.replace(random_tv(seed, "lstm", vocab=4), name=name)
            for seed, name in enumerate(tv_names)]
    model_mod.attach_embeddings(spec, embs, gen)
    first = tmp_path_factory.mktemp("model") / "m.rgem"
    save_model(first, spec)
    loaded = load_model(first)
    assert loaded.class_names == class_names and set(loaded.tv_table) == set(tv_names)
    again = first.with_name("again.rgem")
    save_model(again, loaded)
    assert first.read_bytes() == again.read_bytes()


@given(texts=st.lists(st.text(), max_size=5))
def test_vocabulary_file_keeps_tokenized_words(tmp_path_factory, texts):
    words = list(dict.fromkeys(tok for text in texts for tok in tokenize(text)))
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    Vocabulary(words).save(path)
    assert Vocabulary.load(path).words == words


@given(text=st.text())
def test_tokenize_round_trips(text):
    tokens = tokenize(text)
    assert "".join(tokens) == "".join(text.lower().split())
    assert all(tok and not any(c.isspace() for c in tok) for tok in tokens)
    assert tokenize(" ".join(tokens)) == tokens
