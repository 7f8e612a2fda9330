"""Constrained-coloring kernelization toolkit.

Relation analysis (permutation invariance, OR-definability, kernel exponent
formulas), polynomial-basis kernels over GF(p) for uniformly-rainbow-free
coloring, the product-pruning kernel for constrained coloring, gadget
reductions between satisfiability, rainbow-free coloring, hypergraph
coloring, and clique-modulator coloring, and brute-force oracles certifying
every transformation at desk scale.
"""

from .budget import BudgetExceededError
from .instances import (
    CliqueKvInstance,
    CnfFormula,
    Graph,
    GurfcBlock,
    GurfcInstance,
    Hypergraph,
    ListAssignment,
    NotCliqueError,
    ParseError,
    RccInstance,
    canonicalize_urfc_tuple,
    parse,
    serialize,
    validate_clique_kv,
)
from .oracles import (
    SolutionSet,
    cliquekv_colorable,
    extend_to_cliques,
    solve_cnf,
    solve_hypergraph_qcol,
    solve_rcc,
    solve_rclc,
    solve_urfc,
)
from .polykernel import (
    CapturePair,
    CaptureUnavailableError,
    KernelReport,
    KernelResult,
    SparsePoly,
    build_capture,
    check_captures,
    kernelize_product_pruning,
    kernelize_gurfc,
    kernelize_poly,
    kernelize_urfc,
    smallest_prime_geq,
    vandermonde_set,
)
from .reductions import (
    ReductionReport,
    decode_sat_coloring,
    extract_clique_constraints,
    forbid_pair_gadget,
    gurfc_to_cliquekv,
    kernelize_cliquekv,
    nae_to_urfc,
    rclc_to_rcc,
    sat_to_rclc,
    urfc_to_hypergraph,
)
from .relations import (
    OrWitness,
    Relation,
    UrfcShape,
    eta,
    find_or_witness,
    full_relation,
    is_permutation_invariant,
    is_uniformly_rainbow,
    make_nur,
    max_or_arity,
    nur_membership,
    nur_or_witness,
    nur_witness_items,
    r_clique,
)

__version__ = "0.1.0"
