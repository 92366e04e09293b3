from __future__ import annotations

import pytest

from motive_ring.burnside import BurnsideRing
from motive_ring.center import CenterAlgebra
from motive_ring.crossed import CrossedBurnsideRing
from motive_ring.groups import construct_group
from motive_ring.mackey import MackeyAlgebra
from motive_ring.subgroups import SubgroupClassTable

GROUP_SPECS = {
    "C1": "cyclic:1",
    "C2": "cyclic:2",
    "C3": "cyclic:3",
    "C4": "cyclic:4",
    "C6": "cyclic:6",
    "V4": "gens:(1 2)(3 4);(1 3)(2 4)",
    "S3": "sym:3",
    "D8": "dihedral:4",
    "Q8": "gens:(1 3 2 4)(5 7 6 8);(1 5 2 6)(3 8 4 7)",
    "A4": "alt:4",
    "D10": "dihedral:5",
    "S4": "sym:4",
    "A5": "alt:5",
}


class Workspace:
    """Session cache: groups, class tables and rings are expensive to build."""

    def __init__(self):
        self._groups = {}
        self._tables = {}
        self._burnside = {}
        self._crossed = {}
        self._center = {}
        self._mackey = {}

    def group(self, name):
        if name not in self._groups:
            self._groups[name] = construct_group(GROUP_SPECS[name])
        return self._groups[name]

    def table(self, name) -> SubgroupClassTable:
        if name not in self._tables:
            self._tables[name] = SubgroupClassTable(self.group(name))
        return self._tables[name]

    def burnside(self, name) -> BurnsideRing:
        if name not in self._burnside:
            self._burnside[name] = BurnsideRing(self.table(name))
        return self._burnside[name]

    def crossed(self, name) -> CrossedBurnsideRing:
        if name not in self._crossed:
            self._crossed[name] = CrossedBurnsideRing(self.table(name))
        return self._crossed[name]

    def center(self, name) -> CenterAlgebra:
        if name not in self._center:
            self._center[name] = CenterAlgebra(self.group(name))
        return self._center[name]

    def mackey(self, name) -> MackeyAlgebra:
        if name not in self._mackey:
            self._mackey[name] = MackeyAlgebra(self.table(name))
        return self._mackey[name]


@pytest.fixture(scope="session")
def ws() -> Workspace:
    return Workspace()
