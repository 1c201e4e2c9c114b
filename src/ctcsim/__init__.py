"""Simulator for quantum circuits interacting with a Deutsch-model closed
timelike curve.

The time-machine register must be in a state that is self-consistent under
the circuit's action; this package finds such fixed points, applies the
resulting (nonlinear) evolution to ordinary inputs, and packages the
discrimination and computation protocols whose mixture-level behaviour that
nonlinearity breaks.
"""

import types

from .circuit import (Circuit, CircuitFormatError, Gate, build_bhw2,
                      build_bhw_multi, build_epr_swap, builtin_matrix,
                      compile_unitary, complete_unitary, pad_with_ancillas,
                      parse_circuit, serialize_circuit)
from .ctc import (ConvergenceError, FixedPointResult, SolverError,
                  Superoperator, choi_matrix, ctc_evolve,
                  evolve_given_ctc_state, fixed_point_cesaro,
                  fixed_point_exact, induced_superoperator,
                  validate_superoperator)
from .oracle import (OracleReport, fixed_point_bruteforce, random_density,
                     random_unitary)
from .protocol import (ComputationTask, DiscriminationOutcome,
                       LabeledEnsemble, helstrom_bound, labeled_ensemble,
                       run_computation_mixture, run_discrimination,
                       run_superposition, simulate_without_ctc)
from .qmat import (ValidationError, ValidationReport, dagger, kron,
                   mutual_information, partial_trace, trace_distance,
                   validate, von_neumann_entropy)

__version__ = "0.1.0"

# every name imported above, stated once there
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__.append("__version__")
