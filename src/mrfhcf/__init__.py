"""MAP labeling on Markov random fields by highest confidence first.

The library models a labeling problem as a Gibbs energy over a site graph
(core), minimizes it by serial or synchronous-parallel highest confidence
first descent (hcf, local_hcf), ships reference estimators for comparison
(baselines), exact small-instance oracles (oracles), and an edge-labeling
image domain with file formats and a command line front end (edges,
fileio, cli).
"""

from .baselines import (AnnealSchedule, MpmParams, anneal_run, icm_run,
                        mpm_marginals, mpm_run, tlr)
from .core import (UNCOMMITTED, Clique, DataTerm, Field, assign_ranks, augmented_energy,
                   best_label, energy, fully_committed, local_energies, local_energy,
                   new_configuration, stability, validate_field)
from .edges import (EDGE, LABEL_LETTERS, NON_EDGE, EdgeLattice, EdgeModel,
                    EdgePotentials, Image, build_edge_field, compute_llr,
                    edge_llr, llr_data_term, make_chain_fixture,
                    make_checkerboard, render_overlay)
from .fileio import (COMPARE_HEADER, TRACE_HEADER, FileFormatError, parse_config,
                     read_mrfl, read_mrfllr, read_pgm, write_compare_csv,
                     write_mrfl, write_mrfllr, write_pgm, write_trace_csv)
from .hcf import hcf_run
from .local_hcf import StepResult, local_hcf_run, local_hcf_step
from .oracles import (SEARCH_GUARD, OracleResult, brute_force_map, chain_dp_map,
                      is_local_minimum)
from .trace import RunTrace, TraceRow

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule", "MpmParams", "anneal_run", "icm_run", "mpm_marginals",
    "mpm_run", "tlr",
    "UNCOMMITTED", "Clique", "DataTerm", "Field", "augmented_energy", "energy",
    "fully_committed", "local_energies", "local_energy", "new_configuration",
    "validate_field",
    "EDGE", "LABEL_LETTERS", "NON_EDGE", "EdgeLattice", "EdgeModel",
    "EdgePotentials", "Image", "build_edge_field", "compute_llr", "edge_llr",
    "llr_data_term", "make_chain_fixture", "make_checkerboard", "render_overlay",
    "COMPARE_HEADER", "TRACE_HEADER", "FileFormatError", "parse_config",
    "read_mrfl", "read_mrfllr", "read_pgm", "write_compare_csv", "write_mrfl",
    "write_mrfllr", "write_pgm", "write_trace_csv",
    "best_label", "hcf_run", "stability",
    "StepResult", "assign_ranks", "local_hcf_run", "local_hcf_step",
    "SEARCH_GUARD", "OracleResult", "brute_force_map", "chain_dp_map",
    "is_local_minimum",
    "RunTrace", "TraceRow",
    "__version__",
]
