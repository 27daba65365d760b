"""LLM-driven cleaning pipeline: backends, prompts, parsing, and the loop."""

from .backends import (
    DEFAULT_PARAMS,
    MASS_EDIT_TEMPERATURE,
    RETRY_TEMPERATURE,
    CompletionBackend,
    DecodingParams,
    HttpBackend,
    ScriptedBackend,
    ScriptEntry,
)
from .parsing import OpChoice, QualityReport
from .pipeline import (
    MAX_RETRIES,
    PipelineConfig,
    PipelineResult,
    Trace,
    choose_operation,
    generate_arguments,
    inspect_column_quality,
    run_pipeline,
    select_target_columns,
)
from .prompts import ColumnSampler, PromptTemplates, load_default_templates

__all__ = [
    "DEFAULT_PARAMS",
    "MASS_EDIT_TEMPERATURE",
    "RETRY_TEMPERATURE",
    "CompletionBackend",
    "DecodingParams",
    "HttpBackend",
    "ScriptedBackend",
    "ScriptEntry",
    "OpChoice",
    "QualityReport",
    "MAX_RETRIES",
    "PipelineConfig",
    "PipelineResult",
    "Trace",
    "choose_operation",
    "generate_arguments",
    "inspect_column_quality",
    "run_pipeline",
    "select_target_columns",
    "ColumnSampler",
    "PromptTemplates",
    "load_default_templates",
]
