"""readpath: exploration/exploitation analysis of ordered reading corpora.

Pipeline: ingest a dated reading manifest plus full texts into a
term-count corpus, fit a latent-topic model by collapsed Gibbs sampling,
measure per-step reading surprise (KL divergence in bits) against the
previous text and against the averaged past, compare with a
publication-date-constrained permutation null and with publication
order, and segment the surprise series into behavioral epochs by
maximum likelihood, with the epoch count chosen by Bayesian evidence.
"""

from .corpus import (
    CorpusMatrix,
    TokenizerConfig,
    Vocabulary,
    VolumeRecord,
    build_corpus,
    load_manifest,
    tokenize,
)
from .epochs import (
    EpochModel,
    EpochSearchConfig,
    epoch_mean_relative,
    fit,
    segment_loglik,
    select_n,
)
from .errors import InputError
from .nullmodel import (
    ConstrainedPermutationSampler,
    NullConfig,
    NullEnsemble,
    build_null,
    null_permutations,
    publication_order_series,
)
from .paths import (
    GreedyPath,
    RankDistribution,
    divergence_matrix,
    greedy_t2p_path,
    greedy_t2t_path,
    rank_bands,
    rank_counts,
)
from .surprise import (
    SurpriseSeries,
    kl_divergence,
    t2n_series,
    t2p_series,
    t2t_series,
)
from .topics import TopicModel, TopicModelParams, sweep_k, train

__all__ = [
    "CorpusMatrix",
    "ConstrainedPermutationSampler",
    "EpochModel",
    "EpochSearchConfig",
    "GreedyPath",
    "InputError",
    "NullConfig",
    "NullEnsemble",
    "RankDistribution",
    "SurpriseSeries",
    "TokenizerConfig",
    "TopicModel",
    "TopicModelParams",
    "Vocabulary",
    "VolumeRecord",
    "build_corpus",
    "build_null",
    "divergence_matrix",
    "epoch_mean_relative",
    "fit",
    "greedy_t2p_path",
    "greedy_t2t_path",
    "kl_divergence",
    "load_manifest",
    "null_permutations",
    "publication_order_series",
    "rank_bands",
    "rank_counts",
    "segment_loglik",
    "select_n",
    "sweep_k",
    "t2n_series",
    "t2p_series",
    "t2t_series",
    "tokenize",
    "train",
]

__version__ = "0.1.0"
