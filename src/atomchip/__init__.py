"""Atom-chip microtrap simulator and BEC interferometry analysis toolkit."""

__version__ = "0.1.0"

from .errors import (
    ChipError, ConfigError, ConvergenceError, FieldDomainError, FieldZeroError, FitError,
    GeometryError, SaddlePointError, ThermalRunawayError,
)
from .fields import BiotSavartModel, GridSpec, field_map
from .fringes import (
    FringeFitResult, FringeModel, GaussianEnvelope, PhaseEnsembleStats,
    end_to_end_shot, fit_modulated_gaussian, fringe_period, phase_statistics,
    synthesize_fringes, wrap_phase,
)
from .geometry import (
    AtomSpecies, ChipLayout, CurrentConfig, RfChannelDrive, WireSegmentPath,
    builtin_paper_layout, discretize_wire, load_layout, load_layout_file,
    parse_config, rb87_f2m2, serialize_config,
)
from .rf import (
    DoubleWellReport, RfDriveState, characterize_double_well, dressed_potential,
    dressed_potential_line, rf_field_phasor, split_scan,
)
from .roughness import (
    BoltzmannInversion, CenterlineDeviation, RandomDeviation, RoughnessProfile,
    SinusoidDeviation, ThomasFermiInversion, TriangleDeviation,
    contact_interaction_constant, invert_density_boltzmann,
    invert_density_thomas_fermi, perturb_wire, remove_harmonic_background,
    roughness_field,
)
from .thermal import (
    ThermalNetwork, calibrate_mount, fast_time_constant, max_current_density,
    paper_calibrated_network, resistance_monitor, steady_temperature,
    transient_temperature,
)
from .trap import (
    PotentialDef, TrapCharacterization, characterize_trap, find_trap_minimum,
    magnetic_potential, trap_depth, trap_frequencies,
)
