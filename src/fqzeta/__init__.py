"""Exact power sums and multizeta values over F_q[t] at integer arguments.

The package is organized as:

* digitlab  - base-p digit combinatorics: class vectors, digit-sum
  coordinates, split capacities, vanishing thresholds, cover extension;
* compose   - carry-free compositions with q-even constraints, class
  matrices, monotone representatives, greedy/modest/optimal selection;
* fqpoly    - exact arithmetic in F_q, F_q[t] and F_q(t);
* powersum  - power sums over monics by two independent routes;
* mzv       - multizeta evaluation, vanishing classification, sweeps;
* verify    - the named verification suites driven by tests and the CLI,
  with the brute-force oracles they check the structural routes against;
* cli       - the fqzeta command-line tool.
"""

from .digitlab import (
    ClassVector,
    FracVector,
    PrimePower,
    capacity_equals,
    capacity_exceeds,
    carry_free_add,
    digit_class_vector,
    digit_sum_coords,
    extend_to_cover,
    is_even_class,
    shift_difference,
    shift_difference_inv,
    split_capacity,
    vanishing_threshold,
)
from .compose import (
    ClassMatrix,
    Composition,
    enumerate_head_free,
    enumerate_tail_free,
    greedy,
    modest,
    monotone_rep,
    optimal_set,
    power_classes,
    tail_free_nonempty,
    valid_class_matrices,
)
from .errors import (
    DegenerateCoverError,
    EmptySetError,
    FqzetaError,
    PreconditionError,
    ResourceLimitError,
    VanishingMismatchError,
)
from .fqpoly import (
    INF,
    FieldSpec,
    Poly,
    RationalFn,
    field_from_q,
    make_field,
    monic_polys,
)
from .mzv import (
    ZetaIndex,
    ZetaResult,
    classify_zero,
    zeta_mixed,
    zeta_negative,
    zeta_valuation,
)
from .powersum import (
    PowerSumResult,
    bruteforce_power_table,
    power_sum_bruteforce,
    power_sum_formula,
    power_sum_valuation,
    vanishes,
)

__version__ = "0.1.0"
