"""Finite prime supersets for quaternion discriminants over imaginary
quadratic fields of class number > 1."""

from .arith import FactorBudget, FactoredInteger, factor, is_prime, kronecker, primes_up_to
from .quadfield import FieldContext, make_field, splitting_type
from .classgroup import (
    ClassNumberOne,
    QuadForm,
    SplitPrime,
    compose,
    enumerate_S0,
    form_order,
    form_power,
    generates,
    prime_form,
    principal_generator,
)
from .weilsets import ASet, beta_for, intersection_set, prime_support, trace_families, trace_power, trace_set
from .mazur import MazurResult, is_in_mazur, mazur_prime_set
from .bound import BoundParams, BoundReport, assemble_bound, candidate_discriminants, verify_prime_membership

__version__ = "0.1.0"
