"""Exact symbolic tests for bi-Lipschitz triviality of one-parameter
deformations of matrix singularities.

The package decides, for a family ``F + t*theta`` of matrix germs,
whether the deformation is bi-Lipschitz trivial by comparing two
ideals built on a doubled variable set: the difference ideal of the
family and the difference ideal of the direction.  Inclusion of the
second in the first is certified with Groebner cofactors; failure of
the inclusion's valuative closure is certified with an explicit
monomial test curve.  Everything runs over exact rational arithmetic,
and every verdict carries evidence that can be replayed without
trusting the solver that produced it.

Entry points: :func:`analyze` for one family, :func:`normal_space_basis`
for miniversal data, :func:`reproduce_catalog_table` for the bundled
catalog of simple symmetric germs, and the ``liptriv`` command line.
The package re-exports only these and the names they take and return;
everything else is imported from its submodule (``liptriv.rings``,
``groebner``, ``doubling``, ``curves``, ``tangent``, ``catalog``,
``analyzer``).
"""

from .analyzer import (
    INCONCLUSIVE,
    AnalyzeOptions,
    AuditError,
    Verdict,
    analyze,
    reproduce_catalog_table,
    verify_inclusion_certificate,
    verify_witness_dense,
)
from .catalog import LIPSCHITZ, NOT_LIPSCHITZ, normal_form, random_direction
from .doubling import parse_matrix_germ, unfolding_double_ideal
from .rings import RingContext
from .tangent import normal_space_basis

__version__ = "0.1.0"

__all__ = [
    "INCONCLUSIVE",
    "LIPSCHITZ",
    "NOT_LIPSCHITZ",
    "AnalyzeOptions",
    "AuditError",
    "RingContext",
    "Verdict",
    "analyze",
    "normal_form",
    "normal_space_basis",
    "parse_matrix_germ",
    "random_direction",
    "reproduce_catalog_table",
    "unfolding_double_ideal",
    "verify_inclusion_certificate",
    "verify_witness_dense",
    "__version__",
]
