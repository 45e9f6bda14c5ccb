"""Finite residuated and orthomodular structure toolkit.

Three engines: explicit-table law checking on finite posets, lattices,
ortholattices and residuated structures; exhaustive enumeration/search
confirming that complemented lattices carry integral residuations only
when Boolean; and a numerical realization of the subspaces of R^n as a
commutative quantale whose orthocomplement is the linear negation.
The subspace operations are imported from girardlab.subspaces; the
package does not re-export them, so girardlab.ortho is the module.
"""

from .reports import InputError, LawReport, Verdict, law_fail, law_pass, law_skip
from .orders import (
    FiniteLattice, FinitePoset, NotALattice, NotBounded, OrderError, PosetViolation,
    check_inversion, closure_from_covers, compute_lattice, enumerate_inversions, hasse_covers,
    is_boolean, is_complemented, is_distributive, lattice_from_covers, sublattice, validate_poset,
)
from .ortho import (
    OrthoLattice, blocks, check_ortholattice, check_orthomodular, compatible, downset_oml,
    is_orthomodular,
)
from .residuation import (
    AdjointnessFailure, Flags, NoResiduum, ResiduatedStructure, ResiduationError,
    check_associative, classify, derive_residua, godel_chain, lukasiewicz_chain,
    residuated_structure,
)
from .girard import (
    GirardCertificate, GirardEquivalenceReport, check_boolean_idempotent_criterion,
    check_dualizer_join_formula, check_quantale, check_unit_downset_boolean, find_cyclic_dualizing,
    girard_equivalences, is_cyclic, is_dualizing,
)
from .search import (
    EnumerationResult, ResiduationSearchResult, confirm_boolean_forcing, enumerate_lattices,
    search_integral_residuation, search_unital_residuation,
)
from .structfile import ParseError, RangeError, StructError, StructureFile, parse, serialize
from .render import export_dot, render_report
from . import catalog, subspaces

__version__ = "0.1.0"
