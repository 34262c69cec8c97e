"""Exact enumeration of height-two Dyck path families driven by a rational parameter.

Given a coprime pair r/s, three nested families of Dyck paths of height at
most two are defined by how many valleys must follow each run of peaks
(:mod:`rdyck.classes`).  The package provides validated path objects and
their block factorization (:mod:`rdyck.core`), constructive generation with a
brute-force oracle to test it against, exact counting by recurrence and by
closed rational generating functions (:mod:`rdyck.counting`), the
size-preserving correspondence with compositions over restricted part sets
(:mod:`rdyck.compositions`), and the semilength-raising map between the quasi
and restricted families with its collision analysis (:mod:`rdyck.bijection`).
A CLI (``rdyck``) exposes every operation.
"""

from rdyck.bijection import PhiReport, check_bijection, collision_pair, phi, phi_inv
from rdyck.classes import PathClass, generate, iter_generate, member, oracle_all_height2, oracle_generate
from rdyck.compositions import (
    Composition,
    PartSet,
    comp_to_path,
    enumerate_compositions,
    parts_upto,
    path_to_comp,
)
from rdyck.core import (
    EMPTY_PATH,
    DyckPath,
    Factorization,
    RationalParam,
    defactorize,
    factorize,
    height,
    min_valleys,
    part_size,
    semilength,
    valley_slope,
)
from rdyck.counting import (
    CountTable,
    Polynomial,
    RationalSeries,
    check_sum_identity,
    class_gf,
    compositions_gf,
    count_enumeration,
    count_recurrence,
    quasi_gf,
    rational_gf,
    rational_gf_unreduced,
    restricted_gf,
    series_coeffs,
)

__all__ = [
    "Composition",
    "CountTable",
    "DyckPath",
    "EMPTY_PATH",
    "Factorization",
    "PartSet",
    "PathClass",
    "PhiReport",
    "Polynomial",
    "RationalParam",
    "RationalSeries",
    "check_bijection",
    "check_sum_identity",
    "class_gf",
    "collision_pair",
    "comp_to_path",
    "compositions_gf",
    "count_enumeration",
    "count_recurrence",
    "defactorize",
    "enumerate_compositions",
    "factorize",
    "generate",
    "height",
    "iter_generate",
    "member",
    "min_valleys",
    "oracle_all_height2",
    "oracle_generate",
    "part_size",
    "parts_upto",
    "path_to_comp",
    "phi",
    "phi_inv",
    "quasi_gf",
    "rational_gf",
    "rational_gf_unreduced",
    "restricted_gf",
    "semilength",
    "series_coeffs",
    "valley_slope",
]
