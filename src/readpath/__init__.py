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
    break_to_date,
    fit,
    log_evidence,
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
    sample_constrained_permutation,
)
from .paths import (
    GreedyPath,
    RankDistribution,
    divergence_matrix,
    greedy_t2p_path,
    greedy_t2t_path,
    rank_distribution,
)
from .surprise import (
    SurpriseSeries,
    cumulative_relative,
    epoch_mean_relative,
    kl_divergence,
    pub_read_regression,
    reading_density,
    t2n_series,
    t2p_series,
    t2t_series,
)
from .topics import TopicModel, TopicModelParams, sweep_k, theta_row, train

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
    "break_to_date",
    "build_corpus",
    "build_null",
    "cumulative_relative",
    "divergence_matrix",
    "epoch_mean_relative",
    "fit",
    "greedy_t2p_path",
    "greedy_t2t_path",
    "kl_divergence",
    "load_manifest",
    "log_evidence",
    "null_permutations",
    "pub_read_regression",
    "publication_order_series",
    "rank_distribution",
    "reading_density",
    "sample_constrained_permutation",
    "segment_loglik",
    "select_n",
    "sweep_k",
    "t2n_series",
    "t2p_series",
    "t2t_series",
    "theta_row",
    "tokenize",
    "train",
]

__version__ = "0.1.0"
