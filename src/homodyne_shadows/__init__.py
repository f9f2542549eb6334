"""Classical-shadow estimation for discretized homodyne detection.

Measure a continuous-variable state at N uniformly spaced local-oscillator
phases, record which of M quadrature bins each outcome lands in, and invert
the resulting binned-phase POVM's measurement frame to turn every outcome
into an unbiased snapshot of the truncated-Fock-space density matrix.  The
package covers the full pipeline: POVM construction and informational-
completeness certification (``povm``), bin design, frame inversion and
observable estimation with exact variance and shot-count accounting
(``shadow``), input states and observables (``states``), exact measurement
simulation (``sim``), record streams and their CSV files (``records``), and
a CLI (``hshadow``).
"""

from . import errors, fockcore, povm, records, shadow, sim, states
from .errors import (
    BinDesignError,
    CacheKeyMismatchError,
    HomodyneShadowsError,
    InvariantViolationError,
    MalformedRecordError,
    StrictModeSingularError,
    UnsupportedConfigurationError,
)
from .fockcore import bin_overlap, bin_overlaps, wavefunction
from .povm import (
    BinningScheme,
    PhaseGrid,
    PovmSet,
    build_povm,
    design_bins,
    is_informationally_complete,
    load_parameters,
    load_povm,
    necessary_condition,
    normalization_residual,
    save_povm,
    sufficient_condition,
)
from .records import Records, bin_raw, ingest_records, write_records
from .shadow import (
    EstimateReport,
    InverseFrame,
    SnapshotTable,
    bernstein_samples,
    estimate_observable,
    exact_variance,
    frame_operator,
    invert_frame,
    reconstruct_state,
    shadow_norm,
    snapshots,
    variance_bound,
)
from .sim import (
    MultiModeConfig,
    OutcomeDistribution,
    estimate_local,
    indistinguishability_experiment,
    joint_distribution,
    multi_shadow_norm,
    outcome_distribution,
    sample,
    sample_multi,
)
from .states import (
    DensityMatrix,
    Observable,
    cat,
    coherent,
    expectation,
    fock,
    from_file,
    number_operator,
    observable_from_file,
    superposition_pair,
    thermal,
    trace_distance,
)

__version__ = "0.1.0"
