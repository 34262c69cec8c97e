"""Exact enumeration of height-two Dyck path families driven by a rational parameter.

Given a coprime pair r/s, three nested families of Dyck paths of height at
most two are defined by how many valleys must follow each run of peaks
(:mod:`rdyck.classes`).  The package provides validated path objects and
their block factorization (:mod:`rdyck.core`), constructive generation, exact
counting by recurrence and by closed rational generating functions
(:mod:`rdyck.counting`), the size-preserving correspondence with
compositions over restricted part sets (:mod:`rdyck.compositions`), and the
semilength-raising map between the quasi and restricted families with its
collision analysis (:mod:`rdyck.bijection`).  A CLI (``rdyck``) exposes
membership, enumeration, counting, series, both maps and the bijection
check, though not ``factorize``, ``defactorize`` or
``enumerate_compositions``; its ``verify`` checks them against a brute-force
oracle (:mod:`rdyck.verify`, which the package does not import).
"""

from rdyck import bijection, classes, compositions, core, counting
from rdyck.bijection import *
from rdyck.classes import *
from rdyck.compositions import *
from rdyck.core import *
from rdyck.counting import *

__all__ = [*core.__all__, *classes.__all__, *counting.__all__, *compositions.__all__, *bijection.__all__]
