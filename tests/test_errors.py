"""The capacity bound that every brute-force search checks first."""

import re

import pytest

from twisted_dihedral import errors
from twisted_dihedral.attacks import DpdInstance, exhaustive_dpd, mitm_offline
from twisted_dihedral.cocycle import Cocycle, check_triples, equivalence_search
from twisted_dihedral.errors import CapacityError
from twisted_dihedral.group import DihedralGroup


@pytest.mark.parametrize("search,bound,value,message", [
    ("exhaustive", "MAX_CANDIDATES", 242, "243 candidates exceed the bound 242"),
    ("table", "MAX_TABLE_ENTRIES", 100, "243 table entries exceed the bound 100"),
    ("triples", "MAX_CANDIDATES", 215, "216 cocycle triples exceed the bound 215"),
    ("maps", "MAX_CANDIDATES", 10, "7776 candidate maps exceed the bound 10")])
def test_refusals_name_space_and_bound(search, bound, value, message, pp333, f7,
                                       monkeypatch):
    # each refusal reads its bound at call time and names the size of the
    # space it refuses: 3^3 * 3^2 candidates and, at t = 3, table entries
    # at (3,1,3); 6^3 triples and 6^5 maps D_6 -> F_7* for the cocycles
    c7 = Cocycle.alpha(f7.elem(3), 3)
    searches = {
        "exhaustive": lambda: exhaustive_dpd(DpdInstance(pp333, pp333.algebra.basis(2))),
        "table": lambda: mitm_offline(pp333, 3),
        "triples": lambda: check_triples(3),
        "maps": lambda: equivalence_search(c7, c7, DihedralGroup(3), f7)}
    monkeypatch.setattr(errors, bound, value)
    with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
        searches[search]()
