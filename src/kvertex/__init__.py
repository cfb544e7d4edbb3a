"""kvertex: exact residues, multiplicative expansions and vertex operations
on quiver character rings, with the wall-crossing transform on top."""

from .hopf import (NumericalPoly, PhiElement, XiElement, chern_character,
                   coproduct, from_numerical, phi_pair, star, to_numerical,
                   translation_pairing)
from .laurent import (LaurentPoly, Monomial, PolyFraction, laurent_exact_div,
                      symmetrize)
from .quiver import (GradedElement, Quiver, VirtualCharacter, a2_quiver,
                     axiom_check, conner_floyd, deformation_character,
                     jordan_quiver, lie_bracket, symmetrized_wedge,
                     theta_kernel, translate, vertex_kernel, vertex_shuffle)
from .residues import (K_THEORY, NAIVE, COHOMOLOGICAL, ResidueKind,
                       constraint_suite, residue_coh, residue_k,
                       residue_k_oracle, residue_naive)
from .scalars import Cyclo, cyclotomic_poly, generalized_binomial, root_of_unity
from .series import (FormalSeries, PartialFractions, RationalFunction,
                     expand_at, partial_fractions)
from .wallcross import (StabilityData, forward_transform, invert_transform,
                        master_identity_residual, ordered_partitions)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
