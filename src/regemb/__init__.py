"""Text categorization with learned region embeddings and pooling.

Region embeddings (one-hot LSTM in either direction, or a one-hot
convolution layer) are applied at every document position, pooled into a
document vector, and classified by a linear layer.  Embeddings trained on
unlabeled text (two-view embeddings) can be attached as additional input.
"""

from .corpus import (
    Dataset,
    StopwordList,
    TokenSequence,
    Vocabulary,
    build_vocab,
    encode,
    target_vocab,
    tokenize,
)
from .errors import DataError, NumericError
from .lstm import (
    GateOverride,
    LstmParams,
    SideInputParams,
    fold_embedding,
    forward_sequence,
    sequence_gradients,
)
from .conv import ConvParams, conv_forward
from .model import (
    ConvBranch,
    LstmBranch,
    ModelSpec,
    PoolingSpec,
    TopLayerParams,
    attach_embeddings,
    error_rate,
    model_forward,
    pool,
    predict,
    square_loss,
)
from .numkernel import (
    RngSpec,
    gaussian_init,
    precision,
    set_precision,
)
from .optim import TrainConfig, dropout_mask, grad_check, rmsprop_step, sgd_step, train
from .serialize import load_model, load_tv, save_model, save_tv
from .tvembed import (
    TvEmbedding,
    TvObjectiveSpec,
    apply_tv,
    attach,
    train_tv_cnn,
    train_tv_lstm,
)

__version__ = "0.1.0"
