"""Norm-ball linear minimization oracles and the optimizers built on them.

The library has five layers: dense linear algebra primitives (`linalg`), norms and
their lmos (`norms`), the update rules and schedules (`optim`), a small MLP with
manual backpropagation (`models`), and experiment harnesses plus problems
(`experiments`, `problems`). The `cli` module exposes the same machinery as the
`lmopt` command.
"""

from .linalg import (
    LowRank,
    SvdResult,
    derive_seed,
    derive_seeds,
    lowrank_svd,
    newton_schulz_orthogonalize,
    rng_gaussian,
    rng_permutation,
    rng_rademacher,
    semi_orthogonal_init,
    singular_values,
    svd_reduced,
)
from .models import (
    Activation,
    Domain,
    LayerSpec,
    MlpModel,
    backward,
    backward_factors,
    build_config,
    forward,
    init_model,
    load_model,
    loss_and_grad,
    save_model,
)
from .norms import (
    ModelNormSpec,
    NormKind,
    NormSpec,
    composite_norm,
    dual_norm,
    fw_gap,
    lmo,
    lmo_coefficient,
    model_lmo,
    op_norm,
    sharp_op,
)
from .optim import (
    RULES,
    Algo,
    AlphaKind,
    Buffer,
    GammaKind,
    Move,
    OptimizerState,
    Rule,
    ScheduleSpec,
    alpha_at,
    gamma_at,
    rule_for,
    step,
    theory_gamma,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
