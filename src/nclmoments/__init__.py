"""Moment-matrix nonclassicality tests and homodyne-correlation simulation.

The package decides nonclassicality of single-mode bosonic states from
normally ordered moments (determinant hierarchies, scalar witnesses and
Bochner determinants of the characteristic function), simulates three
correlation-measurement layouts that would produce those moments in the
laboratory, and constructs amplitude-squared squeezed states together
with an independent closed-form moment oracle for them.
"""

from types import ModuleType as _ModuleType

from .criteria import (
    BasisKind,
    BochnerResult,
    CriterionReport,
    DEFAULT_TOLERANCE,
    MomentMatrix,
    MonomialBasis,
    asq_min_max,
    asq_variance,
    bochner_det,
    bochner_search,
    build_matrix,
    build_matrix_d2,
    determinant_hierarchy,
    principal_minor,
    s2_witnesses,
    s3,
    witnesses,
)
from .errors import (
    DimensionError,
    DuplicatePointError,
    InsufficientOrderError,
    NclError,
    NumericConsistencyError,
    OrderAccuracyWarning,
    SingularInversionError,
    TruncationError,
    ValidationError,
    WeakOscillatorWarning,
)
from .hermite import HermiteOracle, ass_moment_analytic, ass_oracle, gegenbauer_c_m_sq
from .measurement import (
    DetectionRecord,
    FourierRecord,
    LOConfig,
    add_shot_noise,
    scheme_a_forward,
    scheme_a_invert,
    scheme_a_phases,
    scheme_a_sample_and_fourier,
    scheme_b_extract,
    scheme_b_forward,
    scheme_c_extract,
    scheme_c_forward,
)
from .moments import (
    MomentTable,
    as_real,
    ass_moment_table,
    ass_moment_tables,
    char_function,
    char_values,
    moment_table,
    resolve_table,
)
from .states import (
    AssParams,
    DensityState,
    FockState,
    apply_squeeze,
    ass_params,
    make_ass_state,
    make_coherent,
    make_fock,
    make_thermal,
    q_function,
)

# The public names are the ones imported above, other than the submodules
# that importing them binds.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
