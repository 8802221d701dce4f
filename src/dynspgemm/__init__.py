"""Batch-dynamic sparse matrix storage and distributed sparse matrix products
over semirings, on a simulated message-passing process grid."""

from .semiring import (
    BOOLEAN,
    MIN_PLUS,
    PLUS_TIMES_F64,
    PLUS_TIMES_I64,
    REGISTRY,
    Semiring,
    by_name,
)
from .storage import (
    DcsrBlock,
    DecodeError,
    STRUCTURE_CODEC,
    add_into,
    dcsr_deserialize,
    dcsr_from_coo,
    dcsr_serialize,
    filter_rows_by_bloom,
    or_into,
    same_entries,
    semiring_codec,
)
from .grid import BlockPartition, ProcessGrid, split_range
from .transport import (
    AbortedError,
    Communicator,
    Counters,
    DeadlockError,
    NULL_PHASES,
    PHASE_NAMES,
    PhaseRecorder,
    SimCluster,
    TransportError,
    run_spmd,
)
from .redistribute import (
    OP_DELETE,
    OP_UPSERT,
    apply_batch,
    batch_dtype,
    redistribute_updates,
    update_batch,
)
from .kernels import gustavson_multiply, masked_multiply, pattern_multiply
from .distmm import (
    DistMatrix,
    SpgemmState,
    UnsupportedFeatureError,
    compute_pattern,
    spgemm_algebraic_init,
    spgemm_algebraic_update,
    spgemm_general_update,
    summa_static,
)
from .bench import (
    ConfigError,
    ExperimentConfig,
    MetricsRecord,
    ResourceCapError,
    VerificationError,
    emit_csv,
    load_edges,
    parse_csv,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AbortedError", "BOOLEAN", "BlockPartition", "Communicator",
    "ConfigError", "Counters", "DcsrBlock", "DeadlockError",
    "DecodeError", "DistMatrix", "ExperimentConfig",
    "MIN_PLUS", "MetricsRecord", "NULL_PHASES", "OP_DELETE", "OP_UPSERT",
    "PHASE_NAMES", "PLUS_TIMES_F64", "PLUS_TIMES_I64", "PhaseRecorder",
    "ProcessGrid", "REGISTRY", "ResourceCapError", "STRUCTURE_CODEC",
    "Semiring", "SimCluster", "SpgemmState", "TransportError",
    "UnsupportedFeatureError", "VerificationError", "add_into",
    "apply_batch", "batch_dtype", "by_name",
    "compute_pattern", "dcsr_deserialize", "dcsr_from_coo",
    "dcsr_serialize", "emit_csv", "filter_rows_by_bloom",
    "gustavson_multiply", "load_edges", "masked_multiply", "or_into",
    "parse_csv", "pattern_multiply", "redistribute_updates",
    "run_experiment", "run_spmd", "same_entries", "semiring_codec",
    "spgemm_algebraic_init", "spgemm_algebraic_update",
    "spgemm_general_update", "split_range", "summa_static", "update_batch",
]
