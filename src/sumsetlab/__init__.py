"""Sumsets, product sets, and subset-sum closures over finite groups,
with mechanical verification of covering bounds at desk scale."""

from .abelian import (
    KpnSearchReport,
    KpnUpper,
    PlunneckeReport,
    Theorem1Report,
    check_plunnecke,
    is_additive_basis,
    kpn_exact_small,
    kpn_upper,
    pigeonhole_exhaustive,
    plunnecke_trials,
    theorem1_bound,
    theorem1_bound_raw,
    theorem1_trials,
    verify_theorem1,
)
from .config import DEFAULT_ORDER_CAP, OrderCapError, order_cap, set_order_cap
from .constructions import (
    BasisMatrix,
    Example1Report,
    SearchBudgetError,
    enumerate_bases,
    example1_family,
    example_A,
    example_C,
    random_basis,
    random_basis_matrix,
    random_cover_set,
    random_set,
    standard_basis,
    verify_example1,
)
from .groups import GroupSpec, add, decode, encode, is_prime, neg, parse_group_spec, vector_space_spec
from .setops import (
    ElementMultiset,
    GroupSet,
    SpecMismatchError,
    is_cover,
    m_fold,
    set_from_json,
    set_to_json,
    subset_sums,
    sumset,
    translate,
)
from .sl2 import (
    GowersReport,
    QuasirandomInfo,
    Remark12Report,
    RuzsaReport,
    SL2Group,
    SL2Set,
    Theorem4Report,
    check_gowers,
    check_ruzsa,
    gowers_trials,
    inverse_set,
    product_set,
    quasirandom_info,
    remark12,
    ruzsa_trials,
    sample_hypothesis_set,
    sl2_group,
    theorem4_bound,
    theorem4_trials,
    verify_theorem4,
)

__version__ = "0.1.0"
