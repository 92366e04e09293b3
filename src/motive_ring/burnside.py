"""The Burnside ring of a finite group over exact scalars.

Basis: transitive sets G/H, one per conjugacy class of subgroups.  The
mark homomorphism sends an element to its fixed-point counts; the mark
matrix is triangular in the class ordering, so pulling ghost vectors
back is a back-substitution.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Algebra, Element
from .linalg import solve_upper_triangular
from .scalars import QQ, ZZ, ScalarRing, ScalarError, p_local
from .subgroups import SubgroupClassTable


class TableOfMarks:
    """marks[i][j] = number of cosets of class-j subgroups fixed by class i."""

    __slots__ = ("class_names", "marks")

    def __init__(self, class_names: tuple[str, ...], marks: tuple[tuple[int, ...], ...]):
        self.class_names = class_names
        self.marks = marks


class BurnsideRing(Algebra):
    """Burnside ring bound to a subgroup class table."""

    commutative = True

    def __init__(self, table: SubgroupClassTable):
        super().__init__()
        self.table = table
        self.group = table.group
        self.n = len(table)
        self.labels = tuple(c.name for c in table.classes)
        self._marks: TableOfMarks | None = None

    # -- marks ------------------------------------------------------------

    def table_of_marks(self) -> TableOfMarks:
        """Marks read off the lattice: the cosets gK_j fixed by H_i are those
        with H_i <= gK_jg^-1, and |N_G(K_j):K_j| cosets give each conjugate,
        so the mark is |N_G(K_j):K_j| times the number of class-j subgroups
        containing H_i."""
        if self._marks is None:
            classes = self.table.classes
            counts = [[0] * self.n for _ in range(self.n)]
            for K in self.table.all_subgroups:
                j = self.table.fusion(K)[0]
                for i in range(j + 1):  # H_i <= K needs i <= j in the class order
                    if classes[i].representative <= K:
                        counts[i][j] += 1
            rows = tuple(
                tuple(c * (len(cls.normalizer) // cls.order) for c, cls in zip(row, classes))
                for row in counts
            )
            self._marks = TableOfMarks(self.labels, rows)
        return self._marks

    def one(self, scalar: ScalarRing = ZZ) -> Element:
        return self.basis_element(self.n - 1, scalar)  # G/G is the last class

    def _basis_product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """[G/H_i][G/H_j]: one G/(H_i n gH_jg^-1) per double coset H_i g H_j."""
        counts: dict[int, int] = {}
        for idx, _, _ in self.table.double_coset_meets(i, j):
            counts[idx] = counts.get(idx, 0) + 1
        return tuple(sorted(counts.items()))

    # -- marks of elements ---------------------------------------------------

    def marks(self, x: Element) -> tuple:
        """The ghost vector of x: its marks at every subgroup class, in x's
        scalar ring."""
        m = self.table_of_marks().marks
        s = x.scalar
        vals = []
        for i in range(self.n):
            acc = s.zero
            for j, c in enumerate(x.coeffs):
                if not s.is_zero(c) and m[i][j]:
                    acc = s.add(acc, s.mul(c, s.coerce(m[i][j])))
            vals.append(acc)
        return tuple(vals)

    def from_marks(self, values, scalar: ScalarRing = QQ) -> Element:
        """Pull a ghost vector back through the triangular mark matrix (over Q)."""
        m = self.table_of_marks().marks
        sol = solve_upper_triangular(m, [Fraction(v) for v in values])
        return self.element(sol, scalar)

    # -- idempotents ----------------------------------------------------------

    def _pullback(self, ghost) -> list[Fraction]:
        """The element with the given 0/1 marks, by one integer
        back-substitution scaled by d = |G|: every denominator of a sum of
        basic rational idempotents divides |G| (Gluck's formula), so each
        division is exact; a division that is not raises RuntimeError."""
        m = self.table_of_marks().marks
        d = self.group.order
        scaled = [0] * self.n
        for i in reversed(range(self.n)):
            acc = d * ghost[i] - sum(m[i][j] * scaled[j] for j in range(i + 1, self.n) if m[i][j])
            scaled[i], rest = divmod(acc, m[i][i])
            if rest:
                raise RuntimeError(f"the marks do not pull back over the denominator {d}")
        return [Fraction(x, d) for x in scaled]

    def rational_idempotents(self) -> list[Element]:
        """Primitive idempotents over Q, one per subgroup class, by ghost inversion."""
        return [
            self.element(self._pullback([int(j == i) for j in range(self.n)]), QQ)
            for i in range(self.n)
        ]

    def dress_idempotents(self, mode) -> list[tuple[int, Element]]:
        """Idempotents summing basic rational ones over residual fibers: the
        pullback of each fiber's 0/1 indicator (_pullback).

        mode is "solvable" (integer coefficients) or a prime p (p-local
        coefficients).  Returns (residual class index, element) pairs in
        class order.  A coefficient outside the promised ring aborts.
        """
        scalar = ZZ if mode == "solvable" else p_local(mode)  # rejects a non-prime first
        fibers = self.table.residual_fiber_classes(mode)
        out = []
        for j in sorted(fibers):
            members = set(fibers[j])
            coeffs = self._pullback([int(i in members) for i in range(self.n)])
            try:
                elem = self.element(coeffs, scalar)
            except ScalarError as exc:
                # residual fibers always produce coefficients in the target
                # ring; landing here means the fiber computation is broken
                raise RuntimeError(
                    f"residual idempotent for class {j} not in {scalar.tag}: {exc}"
                ) from exc
            out.append((j, elem))
        return out
