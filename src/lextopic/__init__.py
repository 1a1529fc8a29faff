"""Topic-modeling toolkit for Persian law-record corpora.

Pipeline: load and filter records (corpus), clean text (preprocess),
build term matrices (vectorize), fit a topic model by collapsed Gibbs
sampling (lda), and derive share/trend analytics (analyze). The cli
module wires the stages into batch commands.
"""

from .analyze import (
    TopicSummary,
    dominant_topic,
    label_topics,
    top_words,
    topic_shares,
    wordcloud_weights,
    yearly_topic_percentages,
)
from .corpus import (
    Corpus,
    GroundTruth,
    LawRecord,
    LawType,
    RecordDate,
    SynthConfig,
    filter_by_type,
    generate_synthetic_corpus,
    jalali_to_gregorian_year,
    length_ratio,
    load_corpus,
    save_corpus,
    type_counts_by_year,
)
from .errors import LextopicError
from .lda import (
    LdaConfig,
    LdaModel,
    coherence_umass,
    exact_posterior,
    fit,
    load_model,
    perplexity,
    save_model,
)
from .preprocess import (
    Document,
    PreprocessConfig,
    default_config,
    preprocess_corpus,
)
from .trends import TrendTable
from .vectorize import (
    DocTermMatrix,
    TfidfMatrix,
    Vocabulary,
    build_vocabulary,
    count_matrix,
    idf,
    tfidf,
    to_pseudo_counts,
)

__version__ = "0.1.0"

__all__ = [
    "TopicSummary",
    "dominant_topic",
    "label_topics",
    "top_words",
    "topic_shares",
    "wordcloud_weights",
    "yearly_topic_percentages",
    "Corpus",
    "GroundTruth",
    "LawRecord",
    "LawType",
    "RecordDate",
    "SynthConfig",
    "filter_by_type",
    "generate_synthetic_corpus",
    "jalali_to_gregorian_year",
    "length_ratio",
    "load_corpus",
    "save_corpus",
    "type_counts_by_year",
    "LextopicError",
    "LdaConfig",
    "LdaModel",
    "coherence_umass",
    "exact_posterior",
    "fit",
    "load_model",
    "perplexity",
    "save_model",
    "Document",
    "PreprocessConfig",
    "default_config",
    "preprocess_corpus",
    "TrendTable",
    "DocTermMatrix",
    "TfidfMatrix",
    "Vocabulary",
    "build_vocabulary",
    "count_matrix",
    "idf",
    "tfidf",
    "to_pseudo_counts",
    "__version__",
]
