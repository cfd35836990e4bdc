"""Normal factor graphs as executable objects.

Build graphs whose vertices carry finite tensors, contract them to their
exterior functions (brute force or via a greedy pairwise plan), rewrite them
by vertex grouping/splitting, and combine them into scalar-weighted compound
sums.  Ships exact-rational and float64 scalar backends, the Levi-Civita and
Kronecker-delta builtins, diagram constructors for trace, cross product,
determinant and Pfaffian, and a textual DSL with a CLI.
"""

from .algebra import CompoundNfg, add_nfgs, eval_compound, scale_nfg, stack, sub_nfgs
from .builtins import (
    Permutation,
    delta2,
    delta_point,
    levi_civita,
    perm_sign,
    tau,
)
from .contraction import (
    ContractionPlan,
    exterior_brute,
    exterior_planned,
    group_vertices,
    plan_greedy,
    split_vertex,
)
from .diagrams import (
    IdentityCheckReport,
    check_cross_chain,
    check_eps_contraction,
    check_triple_product,
    cross_diagram,
    det_diagram,
    det_oracle,
    pfaffian_diagram,
    pfaffian_oracle,
    trace_diagram,
)
from .graph import Edge, Nfg, NfgError
from .scalars import EXACT, F64, BackendMismatch, rat
from .tensor import Tensor, TensorError, pair_contract

__version__ = "0.1.0"
