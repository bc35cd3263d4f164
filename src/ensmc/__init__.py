"""Compose autoregressive sequence models with mean-family operators and
sample the induced string distribution with particle methods, checked
against exact enumeration.

The top-level names are the ones the README documents, the benchmark,
the acceptance and golden-record tests use, and the CLI entry point;
everything else is imported from its defining submodule. The names in
``_LAZY`` import theirs on first use (PEP 562): a run that serves no
model, tokenizes nothing and parses no command line never loads them.
"""

from importlib import import_module

from .config import build_expert, config_from_dict, load_config
from .runner import read_records, run_experiment
from .ensemble import EnsembleSpec, ExpertPanel, is_consensus
from .errors import (
    DeadPrefixError,
    DegenerateRunError,
    EnsmcError,
    EnumerationBudgetError,
    ExpertUnavailableError,
    UndefinedConditionalError,
)
from .inference import (
    Estimate,
    OptimalProposal,
    OracleShaping,
    PrefixPotentialShaping,
    SamplerConfig,
    ensemble_log_target,
    ess,
    importance_sample,
    local_sample,
    one_step_weight_variance,
    sis,
    smc,
)
from .lmcore import (
    EOS_KEY,
    Alphabet,
    SequenceModel,
    check_model,
    prefix_log_prob,
    string_log_prob,
)
from .logtools import LOG_ZERO
from .metrics import empirical_distribution, mixture_identity
from .oracle import (
    ExactTable,
    dump_table,
    enumerate_ensemble,
    load_table,
    minimize_divergence_simplex,
    total_variation,
)
from .toy import NGramModel, PFSAModel, TableModel, fit_ngram

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "DeadPrefixError",
    "DegenerateRunError",
    "EnsembleSpec",
    "EnsmcError",
    "EnumerationBudgetError",
    "EOS_KEY",
    "Estimate",
    "ExactTable",
    "ExpertPanel",
    "ExpertUnavailableError",
    "LOG_ZERO",
    "ModelServer",
    "NGramModel",
    "OptimalProposal",
    "OracleShaping",
    "PFSAModel",
    "PrefixPotentialShaping",
    "RemoteModel",
    "SamplerConfig",
    "SequenceModel",
    "TableModel",
    "Tokenizer",
    "UndefinedConditionalError",
    "as_byte_model",
    "build_expert",
    "check_model",
    "config_from_dict",
    "dump_table",
    "empirical_distribution",
    "ensemble_log_target",
    "enumerate_ensemble",
    "ess",
    "fit_ngram",
    "importance_sample",
    "is_consensus",
    "load_config",
    "load_table",
    "local_sample",
    "main",
    "minimize_divergence_simplex",
    "mixture_identity",
    "one_step_weight_variance",
    "prefix_log_prob",
    "read_records",
    "run_experiment",
    "sis",
    "smc",
    "string_log_prob",
    "total_variation",
]

#: Top-level names whose submodule is imported when the name is first read.
_LAZY = {"main": "cli", "Tokenizer": "bridge", "as_byte_model": "bridge",
         "ModelServer": "remote", "RemoteModel": "remote"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value
