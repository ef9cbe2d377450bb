"""Algebraic self-linking and linking numbers of knots and 2-component
links in 3-manifolds whose fundamental groups are free, free abelian,
free-times-Z, or free products of those.

The pipeline: group words (``groups``) -> coset-class rings (``cosets``)
-> trace invariants mu and sphere pairings lambda (``linking``) -> the
indeterminacy action and certified equality decisions (``indeterminacy``),
with homomorphic abelian separators (``separators``) certifying
inequalities, and a scenario-file CLI (``scenario``, ``cli``).
"""

from .cosets import (RingContext, RingElement, add, biact, canonicalize,
                     conj_act, conjugacy_ring, coset_ring, format_ring,
                     from_terms, negate, parse_ring, plain_ring, project_pi,
                     reduced_ring, scale, single, two_sided_ring, zero)
from .errors import (DimensionMismatch, EndpointMismatch, IdentityInput,
                     InvariantViolation, LatitudeMismatch, NonVanishingLinking,
                     NotInCentralizer, NotSelfTrace, ParseError, SelfLinkError,
                     SpecMismatch, UnknownGenerator, UnresolvedReference)
from .groups import (GroupElement, GroupSpec, all_generators,
                     centralizer_generators, commutes, conjugate, format_word,
                     free, free_abelian, free_product, free_times_z, generator,
                     identity, invert, is_identity, make_element, maximal_root,
                     multiply, parse_word, power, shortlex_key, shortlex_min)
from .indeterminacy import (Bounds, Certificate, DecisionResult, PhiGen,
                            PhiGroup, act, act_inverse, build_phi,
                            build_phi_link, decide_equal,
                            is_spherical_presented, phi_conjugation_only,
                            replay)
from .linking import (Knot, LinkTrace, SphereData, Trace, compose, connect_sum,
                      invert_trace, lambda_absolute, lambda_link, lambda_sphere,
                      lambda_sphere_combo, mu_absolute, mu_pi, mu_trace,
                      realize_trace, rebase, sphere_for_unlink_complement,
                      sphere_pairing_context, translate_points)
from .scenario import Scenario, execute_query, parse_scenario, print_scenario
from .separators import (PushedContext, Separator, abelianization,
                         cyclic_separator, default_separator_suite,
                         lattice_member, push_forward)

__version__ = "0.1.0"
