"""Exact computer algebra for non-negatively graded chain complexes of
modules over the Weyl algebra: Groebner kernels, homology presentations,
the projective model-structure constructions (generating cofibrations,
pushouts, pushout products, mapping cones), Sullivan algebras and
modules over them, base change, and a catalog of named verification
checks runnable from the `dgdm` command line.
"""

from .weyl import (
    WeylElement,
    act_on_poly,
    filtration_decompose,
    order_and_symbol,
)
from .groebner import (
    DegreeGuardExceeded,
    FreeModuleElement,
    GrobnerBasis,
    LiftBasis,
    buchberger,
    degree_guard,
    express_in_inputs,
    lift_basis,
    member,
    normal_form,
    submodule_equal,
    syzygies,
)
from .complexes import (
    ChainMap,
    ComplexError,
    ConnectionModule,
    FreeDComplex,
    HomologyPresentation,
    direct_sum,
    disk,
    homology,
    identity_map,
    is_acyclic,
    is_weak_equivalence,
    mapping_cone,
    shift,
    sphere,
    tensor_with_connection,
)
from .obasis import (
    OBasisChainMap,
    OBasisComplex,
    is_bounded_weq,
    obasis_of_free,
    tensor_free,
    truncated_acyclicity,
)
from .model import (
    CofibrationCertificate,
    GeneratingMap,
    attach_cells,
    certify_cofibration,
    iota,
    is_fibration,
    pushout,
    pushout_product,
    zeta,
)
from .dga import (
    AlgebraElement,
    AlgebraMorphism,
    Generator,
    Inclusion,
    SullivanAlgebra,
    algebra_bounded_weq,
    dga_pushout_gen,
    extend_morphism,
    initial_morphism,
)
from .amod import (
    AModule,
    AModuleElement,
    AModuleMorphism,
    amod_pushout_gen,
    cmon_to_under,
    free_amodule,
    transfinite_compose_finite,
    under_to_cmon,
)
from .verify import CheckReport, run_check, run_suite

__all__ = [
    "WeylElement", "act_on_poly", "filtration_decompose",
    "order_and_symbol",
    "DegreeGuardExceeded", "FreeModuleElement", "GrobnerBasis", "LiftBasis", "buchberger",
    "degree_guard", "express_in_inputs", "lift_basis", "member", "normal_form",
    "submodule_equal", "syzygies",
    "ChainMap", "ComplexError", "ConnectionModule", "FreeDComplex",
    "HomologyPresentation", "direct_sum", "disk", "homology", "identity_map",
    "is_acyclic", "is_weak_equivalence", "mapping_cone", "shift", "sphere",
    "tensor_with_connection",
    "OBasisChainMap", "OBasisComplex", "is_bounded_weq", "obasis_of_free",
    "tensor_free", "truncated_acyclicity",
    "CofibrationCertificate", "GeneratingMap", "attach_cells",
    "certify_cofibration", "iota", "is_fibration", "pushout",
    "pushout_product", "zeta",
    "AlgebraElement", "AlgebraMorphism", "Generator", "Inclusion", "SullivanAlgebra",
    "algebra_bounded_weq", "dga_pushout_gen", "extend_morphism", "initial_morphism",
    "AModule", "AModuleElement", "AModuleMorphism", "amod_pushout_gen",
    "cmon_to_under", "free_amodule",
    "transfinite_compose_finite", "under_to_cmon",
    "CheckReport", "run_check", "run_suite",
]

__version__ = "0.1.0"
