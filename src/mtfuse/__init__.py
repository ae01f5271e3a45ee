"""mtfuse: incremental multi-task kernel regression behind a small server.

Per-task observation streams are fused into a shared disclosed database
(unique inputs, condensed responses, a condensed inverse) kept current by
rank-one updates; an active client reads its task's model from the
server, and a passive client recovers it from the disclosed data, the
factors of its inputs and its own observations.
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
from .client import Client, ClientModel, PrivateData, predict_client, preference_score
from .errors import (
    ChecksumMismatch,
    DegenerateGram,
    EngineError,
    InvalidInput,
    MalformedFrame,
    MissingFeatures,
    NonPositiveWeight,
    ProtocolError,
    SingularSystem,
    SingularUpdate,
    Unauthorized,
    UnknownKey,
    UnknownTask,
    UnsupportedVersion,
)
from .kernels import (
    BiasBasis,
    InputPoint,
    KernelSpec,
    LookupTable,
    MixedEffectConfig,
    Pool,
    eval_kernel,
    eval_mixed,
)
from .linalg import (
    SymMatrix,
    schur_enlarge_inverse,
    smw_rank_one_inverse_update,
)
from .offline import (
    Dataset,
    Triple,
    build_index_structures,
    merge_repeats,
    predictions_grid,
    solve_backfit,
    solve_condensed,
    solve_full_system,
)
from .protocol import load_snapshot, save_snapshot
from .server import (
    CASE_NEW_INPUT,
    CASE_REPEAT_GLOBAL,
    CASE_REPEAT_TASK,
    ServerEngine,
    UpdateReceipt,
)
from .sim import SynthConfig, generate_world, sweep, top_k_hits

__all__ = [
    "__version__",
    "errors",
    # configuration and inputs
    "InputPoint",
    "Pool",
    "LookupTable",
    "KernelSpec",
    "BiasBasis",
    "MixedEffectConfig",
    "eval_kernel",
    "eval_mixed",
    # offline solvers
    "Dataset",
    "Triple",
    "merge_repeats",
    "build_index_structures",
    "solve_condensed",
    "solve_backfit",
    "solve_full_system",
    "predictions_grid",
    # streaming server
    "ServerEngine",
    "UpdateReceipt",
    "CASE_REPEAT_TASK",
    "CASE_REPEAT_GLOBAL",
    "CASE_NEW_INPUT",
    # clients
    "Client",
    "ClientModel",
    "PrivateData",
    "predict_client",
    "preference_score",
    # persistence
    "save_snapshot",
    "load_snapshot",
    # linear-algebra primitives
    "SymMatrix",
    "smw_rank_one_inverse_update",
    "schur_enlarge_inverse",
    # simulation harness
    "SynthConfig",
    "generate_world",
    "sweep",
    "top_k_hits",
    # exceptions
    "EngineError",
    "DegenerateGram",
    "SingularUpdate",
    "SingularSystem",
    "NonPositiveWeight",
    "UnknownTask",
    "UnknownKey",
    "MissingFeatures",
    "InvalidInput",
    "ProtocolError",
    "MalformedFrame",
    "UnsupportedVersion",
    "ChecksumMismatch",
    "Unauthorized",
]
