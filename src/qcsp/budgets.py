"""Budget configuration for the exponential constructions.

Every operation that materializes an exponentially sized object (operation
table enumerations, closures over A^n, matrix expansions, relational powers,
game trees) checks an explicit limit and fails with a deterministic message
instead of hanging.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import BudgetError, QcspError
from .parsing import is_integer

ENV_BUDGET_BYTES = "QCSP_BUDGET_BYTES"

# rough per-atom object cost used for the byte cap
_ATOM_BYTES = 64

# a figure of more bits is never built; a failing check reports its power
_PRINTABLE_BITS = 4096


@dataclass(frozen=True)
class Budgets:
    max_op_tables: int = 1 << 20      # candidate tables in one enumeration
    max_closure_points: int = 1 << 20  # tuples a closure may accumulate
    max_power_rank: int = 1 << 24      # |A|**n for closure membership bitsets
    max_matrix_copies: int = 4096      # copies a transform makes of what it copies
    max_matrix_atoms: int = 1 << 18    # atoms a transform builds, pins included
    max_prefix_vars: int = 1 << 16     # variables a transform builds
    max_power_domain: int = 65536      # |A|**k for power domains
    max_power_tuples: int = 65536      # |R|**k for power relations
    max_game_tree: int = 1 << 22       # |A|**(prefix length) for the oracle
    max_preserve_cells: int = 1 << 27  # array cells in a preservation check
    max_bytes: int = 1 << 28           # 64 B per atom a transform builds

    @classmethod
    def from_env(cls, **overrides) -> "Budgets":
        """Budgets with ``max_bytes`` read from the environment variable
        QCSP_BUDGET_BYTES when it is set, in the integer syntax of the input
        files (:func:`qcsp.parsing.is_integer`); a value that is not a
        positive integer in that syntax raises :class:`QcspError`."""
        raw = os.environ.get(ENV_BUDGET_BYTES)
        if raw is not None and "max_bytes" not in overrides:
            if not is_integer(raw) or int(raw) <= 0:
                raise QcspError(f"{ENV_BUDGET_BYTES} must be a positive integer, got {raw!r}")
            overrides["max_bytes"] = int(raw)
        return cls(**overrides)

    def check(self, what: str, required: int, limit: int) -> None:
        if required > limit:
            raise BudgetError(what, required, limit)

    def check_power(self, what: str, limit: int, base: int, exp, scale: int = 1) -> int:
        """Check ``scale * base ** exp`` against ``limit`` and return it.

        ``exp`` is an int or a (base, exp) pair of the same form, so
        ``check_power(w, limit, a, (a, a))`` checks a ** (a ** a).  A figure
        of at most _PRINTABLE_BITS bits is built and compared by :meth:`check`.
        A larger one exceeds 2**2048, above any budget limit, and is never
        built: the failure's ``required`` is its expression, such as
        ``"10**10000000000"``.
        """
        figure = _power(base, exp)
        if isinstance(figure, str):
            raise BudgetError(what, figure if scale == 1 else f"{scale}*{figure}", limit)
        self.check(what, scale * figure, limit)
        return scale * figure

    def check_partitions(self, what: str, limit: int, n: int, m: int) -> int:
        """Check S(n, m), the number of partitions of n things into m nonempty
        blocks (a Stirling number of the second kind), against ``limit`` and
        return it.  S(n, m) >= m ** (n - m), so when :meth:`check_power` would
        not build that power, S(n, m) exceeds 2**2048 too and is not built:
        the failure's ``required`` is the expression ``"S(n, m)"``."""
        if isinstance(_power(m, n - m), str):
            raise BudgetError(what, f"S({n}, {m})", limit)
        figure = _stirling2(n, m)
        self.check(what, figure, limit)
        return figure

    def check_expansion(self, what: str, atoms: int, prefix: int | None = None) -> None:
        """Check a matrix expansion, in this order: its ``atoms``, its
        ``prefix`` variables (skipped when None), and the atoms' bytes.  A
        failure is named ``"<what> atoms"``, ``"<what> prefix"`` or ``"<what>
        (bytes)"``.  Callers count what they are about to build, and check its
        copies first, as ``"<what> copies"``."""
        if atoms > self.max_matrix_atoms:
            raise BudgetError(f"{what} atoms", atoms, self.max_matrix_atoms)
        if prefix is not None and prefix > self.max_prefix_vars:
            raise BudgetError(f"{what} prefix", prefix, self.max_prefix_vars)
        if atoms * _ATOM_BYTES > self.max_bytes:
            raise BudgetError(f"{what} (bytes)", atoms * _ATOM_BYTES, self.max_bytes)


def _power(base: int, exp) -> int | str:
    """``base ** exp`` (``exp`` as in :meth:`Budgets.check_power`), or its
    expression when it could have more than _PRINTABLE_BITS bits."""
    if isinstance(exp, tuple):
        exp = _power(*exp)
    if base < 2:
        return base if exp else 1
    if isinstance(exp, str) or exp * base.bit_length() > _PRINTABLE_BITS:
        return f"{base}**{exp}"
    return base**exp


def _stirling2(n: int, m: int) -> int:
    """S(n, m) for n >= m >= 0, as the complete homogeneous symmetric
    polynomial of degree n - m in 1, ..., m, taking in one variable at a
    time: O(m (n - m)) steps."""
    h = [1] + [0] * (n - m)
    for x in range(1, m + 1):
        for j in range(1, n - m + 1):
            h[j] += x * h[j - 1]
    return h[-1]


DEFAULT_BUDGETS = Budgets()
