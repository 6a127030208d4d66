"""Clique and independence numbers over degree-equivalence classes of
complete multipartite graphs and disjoint clique unions.

The package provides: an immutable graph core with graph6 / edge-list /
DIMACS I/O; linear-time family recognition from graphs or degree sequences;
exact independence and clique solvers with certificates plus a brute-force
oracle; classical closed-form bounds and the family-sharpened bound; a
degree-sequence realization engine (one witness, exhaustive enumeration up to
isomorphism, seeded 2-switch sampling, the four-copies reduction); a
polynomial-time constructive witness that produces an independent set of size
k + 1 in every non-canonical member of a clique-union class; and verification
campaigns tying it all together.
"""

from .bounds import (
    BoundReport,
    caro_wei,
    compare_bounds,
    edwards_elphick,
    hansen_zheng,
    myers_liu,
    sharpened_alpha_bound,
    sharpened_omega_bound,
    turan_alpha,
    turan_edge_count,
    turan_graph,
)
from .errors import (
    CanonicalGraphError,
    FormatError,
    GraphTooLargeError,
    KPartiteError,
    NonGraphicalError,
    OutsideFamilyError,
    ProofStateError,
)
from .exact import (
    CLIQUE,
    INDEPENDENT_SET,
    WitnessCertificate,
    brute_force_alpha,
    max_clique,
    max_independent_set,
    validate_certificate,
)
from .formats import (
    decode_graph6,
    encode_graph6,
    load_graph,
    load_graphs,
    save_graph,
    save_graphs,
)
from .graph import (
    Graph,
    clique_union,
    complement,
    complete_graph,
    complete_multipartite,
    connected_components,
    cycle_graph,
    degree_sequence,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    path_graph,
    petersen_graph,
)
from .harness import (
    CampaignResult,
    bounds_report_csv,
    check_profile,
    find_sharp_example,
    iter_profiles,
    verify_theorem,
)
from .instrument import OpCounter
from .isomorphism import canonical_key, contains_induced, is_isomorphic
from .realizations import (
    enumerate_realizations,
    four_copies,
    havel_hakimi_realize,
    random_switch_walk,
)
from .recognition import is_clique_union, is_complete_multipartite
from .sequences import (
    DegreeSequence,
    PartitionProfile,
    clique_union_profile_from_degrees,
    is_graphical,
    multipartite_profile_from_degrees,
    parse_degree_list,
)
from .witness import (
    ProofState,
    base_independent_set,
    extend_independent_set,
    initial_proof_state,
    strip_clique_components,
    witness_clique,
    witness_independent_set,
)

__version__ = "0.1.0"
