"""Desk-scale hybrid autoregressive transducers with adaptable internal LMs."""

import ctypes
import glob
import os

import numpy as np

from .adapt import AdaptReport, IlmaConfig, ilm_snapshot, ilma_loss, run_ilma
from .data import (
    CheckpointError,
    Corpus,
    DomainSpec,
    Utterance,
    confusable_pair_domains,
    gen_corpus,
    load_checkpoint,
    read_corpus,
    read_text_corpus,
    read_vocab,
    save_checkpoint,
    write_corpus,
    write_text_corpus,
    write_vocab,
)
from .decode import (
    DecodeResult,
    FusionConfig,
    NO_FUSION,
    beam_search,
    greedy_decode,
    score_sequence,
)
from .extlm import ExternalLm, LmTrainConfig, lm_perplexity, train_lm
from .lattice import (
    AlignmentLattice,
    brute_force_log_prob,
    build_lattice,
    forward_log_prob,
    hat_loss,
)
from .losses import ilm_loss, mhat_loss, perplexity
from .model import (
    ConfigError,
    EncoderConfig,
    HatModel,
    MhatModel,
    StructureError,
    VocabError,
    Vocabulary,
    label_posterior,
)
from .numerics import (
    EvaluationError,
    ParameterSet,
    ShapeError,
    Tensor,
    affine,
    gradient_check,
    log_softmax,
    log_sum_exp,
    no_grad,
    sigmoid,
)
from .training import TrainConfig, train_asr

__version__ = "0.1.0"


def _numpy_openblas() -> ctypes.CDLL:
    """numpy's bundled OpenBLAS, loaded: the wheel's `numpy.libs` library that
    carries `scipy_openblas_set_num_threads64_`.  Raises ImportError when
    numpy carries no such OpenBLAS."""
    setter = "scipy_openblas_set_num_threads64_"
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas64_-*.so")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        if getattr(lib, setter, None) is not None:
            return lib
    raise ImportError(f"mhat pins numpy's OpenBLAS to one thread, but found no {setter} in {pattern}")


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread, for the whole process.

    A threaded product sums in an order that depends on the thread count (the
    weight gradients of `numerics.affine` do), so trained models and decodes
    would depend on `OPENBLAS_NUM_THREADS`.  Raises ImportError when numpy
    carries no such OpenBLAS, rather than run unpinned.
    """
    fn = _numpy_openblas().scipy_openblas_set_num_threads64_
    fn.argtypes, fn.restype = [ctypes.c_int], None
    fn(1)


_one_blas_thread()
