"""Budget configuration for the exponential constructions.

Every operation that materializes an exponentially sized object (operation
table enumerations, closures over A^n, matrix expansions, relational powers,
game trees) checks an explicit limit and fails with a deterministic message
instead of hanging.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import BudgetError

ENV_BUDGET_BYTES = "QCSP_BUDGET_BYTES"

# rough per-atom object cost used for the byte cap
_ATOM_BYTES = 64


@dataclass(frozen=True)
class Budgets:
    max_op_tables: int = 1 << 20      # candidate tables in one enumeration
    max_closure_points: int = 1 << 20  # tuples a closure may accumulate
    max_power_rank: int = 1 << 24      # |A|**n for closure membership bitsets
    max_matrix_copies: int = 4096      # expansion copies in eliminate/zeta/reduce
    max_matrix_atoms: int = 1 << 18    # total atoms a transformed matrix may hold
    max_prefix_vars: int = 1 << 16     # total quantified variables after a transform
    max_power_domain: int = 65536      # |A|**k for power domains
    max_power_tuples: int = 65536      # |R|**k for power relations
    max_game_tree: int = 1 << 22       # |A|**(prefix length) for the oracle
    max_preserve_cells: int = 1 << 27  # array cells in a preservation check
    max_bytes: int = 1 << 28           # 64 B per atom of a transformed matrix

    @classmethod
    def from_env(cls, **overrides) -> "Budgets":
        raw = os.environ.get(ENV_BUDGET_BYTES)
        if raw is not None and "max_bytes" not in overrides:
            overrides["max_bytes"] = int(raw)
        return cls(**overrides)

    def check(self, what: str, required: int, limit: int) -> None:
        if required > limit:
            raise BudgetError(what, required, limit)

    def check_expansion(
        self, what: str, atoms: int, copies: int | None = None, prefix: int | None = None
    ) -> None:
        """Check a matrix expansion, in this order: its ``copies`` of the
        matrix and its ``atoms``, its ``prefix`` variables, and the atoms'
        bytes; ``copies`` and ``prefix`` are skipped when None.  A failure is
        named ``"<what> copies"``, ``"<what> atoms"``, ``"<what> prefix"`` or
        ``"<what> (bytes)"``."""
        if copies is not None and copies > self.max_matrix_copies:
            raise BudgetError(f"{what} copies", copies, self.max_matrix_copies)
        if atoms > self.max_matrix_atoms:
            raise BudgetError(f"{what} atoms", atoms, self.max_matrix_atoms)
        if prefix is not None and prefix > self.max_prefix_vars:
            raise BudgetError(f"{what} prefix", prefix, self.max_prefix_vars)
        if atoms * _ATOM_BYTES > self.max_bytes:
            raise BudgetError(f"{what} (bytes)", atoms * _ATOM_BYTES, self.max_bytes)


DEFAULT_BUDGETS = Budgets()
