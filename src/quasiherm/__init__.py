"""Numerical toolkit for quantum evolution with time-dependent metric operators."""

from .dynamics import (Scenario, end_states, evolve, integrate_u, metric_from_ur,
                       ur_from_corrected_generator, ur_from_definition,
                       ur_from_naive_generator)
from .linalg import (HermitianEigen, eig_hermitian, fro_norm, hermitize,
                     inverse, principal_sqrt)
from .models import BUILTINS, builtin_names, make_builtin
from .schedules import OmegaSchedule, OperatorSchedule, TimeGrid
from .spaces import (DysonMap, Metric, Space, SpaceTaggedVector, SpectralData,
                     inner_physical, inner_standard, map_to_reference,
                     metric_from_dyson, metric_from_theta, reference_ket,
                     spectral_hamiltonian, standard_ket)
from .verify import (Diagnostics, Verdict, convergence_order, run_diagnostics,
                     verdicts)

__version__ = "0.1.0"
