"""Operations on the algebraic side: polymorphisms, coordinatewise closure,
switchability witnesses, and weak near-unanimity checks.

An operation table stores a total map A^m -> A in lexicographic argument
order.  Preservation, closure, and the witness computation are all bounded by
explicit budgets because their natural formulations are exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, groupby, product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import BudgetError
from .model import (
    ConstraintLanguage,
    DomainSpec,
    Relation,
    cached_on,
    decode_rank,
    encode_tuple,
    enumerate_switch_bounded,
)

WITNESSED = "witnessed"
REFUTED_AT_BOUNDS = "refuted-at-bounds"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OperationTable:
    """A finite operation A^m -> A, outputs listed in lexicographic argument order."""

    arity: int
    domain: DomainSpec
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("operation arity must be >= 1")
        expected = self.domain.size**self.arity
        table = tuple(self.table)
        if len(table) != expected:
            raise ValueError(f"table has {len(table)} entries, expected {expected}")
        if table and (min(table) < 0 or max(table) >= self.domain.size):
            raise ValueError("table output out of domain range")
        object.__setattr__(self, "table", table)

    def apply(self, args: Sequence[int]) -> int:
        return self.table[encode_tuple(tuple(args), self.domain.size)]

    def sort_key(self) -> tuple:
        return (self.arity, self.table)


def table_from_function(dom: DomainSpec, arity: int, fn: Callable[..., int]) -> OperationTable:
    table = tuple(fn(*args) for args in product(dom.elements, repeat=arity))
    return OperationTable(arity, dom, table)


def projection_table(dom: DomainSpec, arity: int, position: int) -> OperationTable:
    return table_from_function(dom, arity, lambda *args: args[position])


def lift_operation(f: OperationTable, k: int, budgets: Budgets = DEFAULT_BUDGETS) -> OperationTable:
    """Apply ``f`` digitwise to k-digit encodings, giving an operation on A^k."""
    if k < 1:
        raise ValueError("power must be >= 1")
    size = f.domain.size
    power_size = budgets.check_power(
        "power domain for lifted operation", budgets.max_power_domain, size, k
    )
    budgets.check_power("lifted operation table", budgets.max_op_tables, power_size, f.arity)
    pows = size ** np.arange(k - 1, -1, -1)
    digits = np.arange(power_size)[:, None] // pows % size  # row c: digits of c
    table = np.asarray(f.table)
    codes = np.concatenate([table[block] @ pows for block in _entry_blocks([digits] * f.arity, size)])
    return OperationTable(f.arity, DomainSpec(power_size), tuple(codes.tolist()))


# ---------------------------------------------------------------------------
# preservation

# cells of one block of argument combinations; the sieve takes ~13 bytes a cell
_BLOCK_CELLS = 1 << 16


def _entry_blocks(args: Sequence[np.ndarray], size: int, copies: int = 1) -> Iterator[np.ndarray]:
    """Table entries hit by every combination of one row a_i of each
    ``args[i]`` (shape (rows, width)): column j of its block row is the rank
    of (a_1[j], ..., a_m[j]) in A^m.  Blocks follow the combinations in
    lexicographic order, and ``copies`` copies of one block take at most
    ``_BLOCK_CELLS`` cells (or one combination, if that is more).
    """
    m, width = len(args), args[0].shape[1]
    cells = max(1, width * copies)
    s, rest = m, np.zeros((1, width), dtype=np.intp)
    while s and len(args[s - 1]) * len(rest) * cells <= _BLOCK_CELLS:
        s -= 1
        rest = (args[s][:, None] * size ** (m - 1 - s) + rest).reshape(-1, width)
    lead = [len(a) for a in args[:s]]
    total, step = math.prod(lead), max(1, _BLOCK_CELLS // max(1, len(rest) * cells))
    for lo in range(0, total, step):
        block = np.zeros((min(step, total - lo), 1), dtype=np.intp)
        picks = np.unravel_index(np.arange(lo, lo + len(block)), lead) if s else ()
        for a, i in zip(args, picks):
            block = block * size + a[i]
        yield (block[:, None] * size ** (m - s) + rest).reshape(-1, width)


def _digits(cols: np.ndarray, size: int, base: int) -> np.ndarray:
    """``cols``, one row per column of values below ``size``, with each row
    replaced by the rows of its base-``base`` digits, most significant first
    (``base`` is ``size`` or a power of two)."""
    if base == size:
        return cols
    bits = base.bit_length() - 1
    width = -(-(size - 1).bit_length() // bits)  # digits per value
    shifts = bits * np.arange(width - 1, -1, -1)[:, None]
    return (cols[:, None] >> shifts & base - 1).reshape(len(cols) * width, *cols.shape[1:])


def _row_index(rel: Relation, m: int, size: int, budgets: Budgets) -> tuple[np.ndarray, tuple]:
    """Rows of a nonempty relation and an exact membership index over them,
    after the budget check of an arity-m preservation check.

    The check runs on every call; the rows and the index do not depend on m,
    so they are built once per relation object and domain size and kept on
    the relation (``cached_on``).

    The index reads a tuple's digits (base |A|, or a power of two if |A| is
    too wide for ``cap``) in stages.  A stage over digits ``lo:hi`` maps
    (prefix number, rank of those digits) to the number of the longer prefix
    among the rows', or to -1, which reads the table's last row, all -1.
    Tables hold at most ``cap`` entries: O((|rel| * arity + _BLOCK_CELLS) *
    log|A|) in all.
    """
    budgets.check_power(
        "preservation check cells", budgets.max_preserve_cells, len(rel), m, scale=rel.arity
    )
    return cached_on(rel, f"row_index_{size}", lambda: _build_row_index(rel, size))


def _build_row_index(rel: Relation, size: int) -> tuple[np.ndarray, tuple]:
    rows = np.array(rel.sorted_tuples(), dtype=np.intp)
    cap = max(2 * len(rel) + 2, _BLOCK_CELLS // rel.arity)
    base = size if (len(rel) + 1) * size <= cap else 1 << (cap // (len(rel) + 1)).bit_length() - 1
    digits = _digits(rows.T, size, base).T
    stages, state, count, lo = [], 0, 1, 0
    while lo < digits.shape[1]:
        hi = lo + 1
        while hi < digits.shape[1] and (count + 1) * base ** (hi + 1 - lo) <= cap:
            hi += 1
        pows = base ** np.arange(hi - lo - 1, -1, -1, dtype=np.intp)
        codes = state * pows[0] * base + digits[:, lo:hi] @ pows
        state = np.cumsum(np.diff(codes, prepend=-1) > 0) - 1  # rows are sorted
        step = np.full((count + 1) * pows[0] * base, -1, dtype=np.intp)
        step[codes] = state
        stages.append((lo, hi, pows, step))
        count, lo = int(state[-1]) + 1, hi
    return rows, (base, stages)


def _members(index: tuple, cols: np.ndarray, size: int) -> np.ndarray:
    """Which of the tuples whose j-th entries are ``cols[j]`` lie in the
    relation indexed by ``index`` (see ``_row_index``)."""
    base, stages = index
    cols = _digits(cols, size, base)
    state: np.ndarray | int = 0
    for lo, hi, pows, step in stages:
        code = pows @ cols[lo:hi]
        if lo:
            code += state * pows[0] * base
        state = step[code]
    return state >= 0


def _preserving(cand: np.ndarray, blocks: Iterable[np.ndarray], index: tuple, size: int) -> np.ndarray:
    """The columns of ``cand`` (one table per column, entry e in row e) under
    which the row combinations of ``blocks`` (entry blocks, as from
    ``_entry_blocks``) stay in the relation indexed by ``index``: each block is
    looked up for all columns at once, and failing columns are dropped."""
    for block in blocks:
        images = cand[block.T].reshape(block.shape[1], -1)  # (entry column, combination, table)
        keep = _members(index, images, size).reshape(len(block), -1).all(axis=0)
        if not keep.all():
            cand = cand[:, keep]
            if not cand.shape[1]:
                break
    return cand


def preserves(f: OperationTable, rel: Relation, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff applying ``f`` coordinatewise to any tuples of ``rel`` stays in ``rel``."""
    for v in {v for t in rel.tuples for v in t}:
        if not (0 <= v < f.domain.size):
            raise ValueError(f"relation {rel.name} has element {v} outside the operation domain")
    if not rel.tuples or rel.arity == 0:
        return True
    size = f.domain.size
    rows, index = _row_index(rel, f.arity, size, budgets)
    blocks = _entry_blocks([rows] * f.arity, size)
    return _preserving(np.asarray(f.table)[:, None], blocks, index, size).shape[1] == 1


def _stage_blocks(
    rows: np.ndarray, m: int, size: int, last: np.ndarray, lo: int, hi: int, width: int
) -> Iterator[np.ndarray]:
    """Entry blocks of the m-combinations of ``rows`` whose last-set entry
    (largest ``last`` over the entries they hit) lies in ``lo:hi``, in
    lexicographic order; a block and its images under ``width`` tables take
    at most ``_BLOCK_CELLS`` cells (or one combination, if that is more)."""
    for block in _entry_blocks([rows] * m, size):
        stage = last[block].max(axis=1)
        block = block[(stage >= lo) & (stage < hi)]
        step = max(1, _BLOCK_CELLS // (block.shape[1] * width))
        for i in range(0, len(block), step):
            yield block[i : i + step]


def _sieve(
    lang: ConstraintLanguage, m: int, fixed: dict, slot_of: dict, what: str, budgets: Budgets
) -> list[OperationTable]:
    """Arity-m tables preserving every relation of ``lang``, in ascending k.

    Candidate k sets entry e (in lexicographic argument order) to ``fixed[e]``,
    or else to digit ``slot_of[e]`` of k in base |A|, most significant first.
    ``what`` names the budget check of the candidates against ``max_op_tables``;
    it and every relation's preservation check run before any table is built.

    Candidates grow in stages, a few slots at a time: each surviving prefix
    is extended by every value of the next slots, as many as keep the stage
    within isqrt(_BLOCK_CELLS) tables (at least one slot), so that a block of
    ``_BLOCK_CELLS`` cells checks at least isqrt(_BLOCK_CELLS) / arity row
    combinations on all of them; the candidates stay in ascending k.  A
    combination of relation rows is checked once, in the stage that sets the
    last of the entries it hits (one hitting only fixed entries, in the
    first), so most combinations meet only the prefixes that survived the
    earlier stages.  When all candidates fit in one stage, this is one pass
    over every combination, as an unstaged sieve would make.
    """
    size, entries = lang.domain.size, lang.domain.size**m
    n_slots = max(slot_of.values()) + 1 if slot_of else 0
    budgets.check_power(what, budgets.max_op_tables, size, n_slots)
    checks = [
        _row_index(rel, m, size, budgets) for rel in lang.sorted_relations() if rel.tuples and rel.arity
    ]
    last = np.array([slot_of.get(e, -1) for e in range(entries)], dtype=np.intp)
    cand = np.array([[fixed.get(e, 0)] for e in range(entries)], dtype=np.min_scalar_type(size - 1))
    lo, width = 0, math.isqrt(_BLOCK_CELLS)
    while cand.shape[1]:
        hi = min(lo + 1, n_slots)
        while hi < n_slots and cand.shape[1] * size ** (hi + 1 - lo) <= width:
            hi += 1
        grow = size ** (hi - lo)
        cand = np.repeat(cand, grow, axis=1)
        values = cand.reshape(entries, -1, grow)
        for e in np.flatnonzero((last >= lo) & (last < hi)):
            values[e] = np.arange(grow) // size ** (hi - 1 - last[e]) % size
        for rows, index in checks:
            if not cand.shape[1]:
                break
            # the first stage also takes the combinations of fixed entries (last -1)
            blocks = _stage_blocks(rows, m, size, last, lo if lo else -1, hi, cand.shape[1])
            cand = _preserving(cand, blocks, index, size)
        if hi == n_slots:
            break
        lo = hi
    return [OperationTable(m, lang.domain, tuple(t)) for t in cand.T.tolist()]


def polymorphisms(
    lang: ConstraintLanguage, m: int, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[OperationTable, ...]:
    """All arity-m operations preserving every relation of the language, in
    lexicographic table order: a sieve over all size**(size**m) tables."""
    if m < 1:
        raise ValueError("operation arity must be >= 1")
    entries = {e: e for e in range(lang.domain.size**m)}
    return tuple(_sieve(lang, m, {}, entries, f"arity-{m} operation enumeration", budgets))


# ---------------------------------------------------------------------------
# coordinatewise closure


def generate_closure(
    seeds: Iterable[tuple[int, ...]],
    ops: Iterable[OperationTable],
    n: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> frozenset[tuple[int, ...]]:
    """Least superset of ``seeds`` closed under coordinatewise application of ``ops``.

    Semi-naive passes apply the operations of one arity at once, and only to
    argument combinations with a point from the last frontier (the first such
    argument; earlier ones older, later ones any), with a membership array
    over A^n.  Returns once the closure is all of A^n.  The result does not
    depend on the input iteration order.  With no operations it returns the
    seeds, after the same closure-size check.
    """
    ops = sorted(set(ops), key=OperationTable.sort_key)
    members = sorted(set(tuple(s) for s in seeds))
    for s in members:
        if len(s) != n:
            raise ValueError(f"seed {s} does not have length {n}")
    if not ops:
        budgets.check("closure size", len(members), budgets.max_closure_points)
        return frozenset(members)
    dom = ops[0].domain
    size = dom.size
    for f in ops:
        if f.domain != dom:
            raise ValueError("operations drawn from different domains")
    total = budgets.check_power("closure membership index", budgets.max_power_rank, size, n)
    for s in members:
        if any(not (0 <= v < size) for v in s):
            raise ValueError(f"seed {s} out of domain range")
    budgets.check("closure size", len(members), budgets.max_closure_points)

    pows = size ** np.arange(n - 1, -1, -1, dtype=np.intp)
    ranks = [encode_tuple(s, size) for s in members]
    seen = np.zeros(total, dtype=bool)
    seen[ranks] = True
    tables = [
        (m, np.array([f.table for f in fs], dtype=np.intp))
        for m, fs in groupby(ops, key=lambda f: f.arity)
    ]

    frontier_start = 0
    while frontier_start < len(ranks) < total:
        points = np.array(ranks, dtype=np.intp)[:, None] // pows % size
        old, new = points[:frontier_start], points[frontier_start:]
        for m, table in tables:
            for p in range(m):
                args = [old] * p + [new] + [points] * (m - 1 - p)
                for block in _entry_blocks(args, size, len(table)):
                    out = (table[:, block] @ pows).ravel()
                    for rank in dict.fromkeys(out[~seen[out]].tolist()):
                        seen[rank] = True
                        ranks.append(rank)
                        budgets.check("closure size", len(ranks), budgets.max_closure_points)
                    if len(ranks) == total:
                        return frozenset(product(range(size), repeat=n))
        frontier_start = len(points)
    return frozenset(decode_rank(r, size, n) for r in ranks)


# ---------------------------------------------------------------------------
# switchability witnesses


@dataclass(frozen=True)
class SwitchabilityWitness:
    """Evidence that switch-bounded tuples generate A^n at the checked powers.

    ``witnessed`` is sound for the checked powers: any superset of the found
    operations generates a superset.  ``refuted-at-bounds`` only refutes
    generation by the operations found within the arity bound.
    """

    r: int
    operations: tuple[OperationTable, ...]
    powers: tuple[tuple[int, bool], ...]
    verdict: str

    def __post_init__(self):
        if self.verdict == WITNESSED and not all(g for _, g in self.powers):
            raise ValueError("witnessed verdict with a failed power")

    def arities_used(self) -> list[int]:
        return sorted({f.arity for f in self.operations})

    def first_wnu(self, m: int) -> OperationTable | None:
        """The first arity-m operation, in the order held, that is a weak
        near-unanimity operation (:func:`is_wnu`)."""
        if m < 2:
            raise ValueError("weak near-unanimity needs arity >= 2")
        return next((f for f in self.operations if f.arity == m and is_wnu(f)), None)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "arities_used": self.arities_used(),
            "powers": [{"n": n, "generated": g} for n, g in self.powers],
            "verdict": self.verdict,
        }


def _minors(tables: np.ndarray, size: int) -> np.ndarray:
    """The distinct minors g(x_1..x_{m-1}) = f(x_1..x_{m-1}, x_{m-1}) of the
    arity-m tables ``tables`` (one per row), in lexicographic order.  Entry e
    of g is entry e * |A| + (e mod |A|) of f."""
    e = np.arange(tables.shape[1] // size)
    minors = tables[:, e * size + e % size]
    minors = minors[np.lexsort(minors.T[::-1])]
    fresh = np.ones(len(minors), dtype=bool)
    fresh[1:] = (minors[1:] != minors[:-1]).any(axis=1)
    return minors[fresh]


def _generators(tables: np.ndarray, size: int, m: int) -> np.ndarray:
    """Which of the arity-m tables ``tables`` (one per row) can add a point to
    a closure under all lower arities: at m = 1 all but the identity, above
    it those that depend on every argument."""
    if m == 1:
        return (tables != np.arange(size)).any(axis=1)
    cube = tables.reshape(len(tables), *[size] * m)
    keep = np.ones(len(tables), dtype=bool)
    for axis in range(1, m + 1):
        keep &= (cube != cube.take([0], axis=axis)).reshape(len(tables), -1).any(axis=1)
    return keep


def switchability_witness(
    lang: ConstraintLanguage,
    r: int,
    max_arity: int = 3,
    max_power: int = 4,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> SwitchabilityWitness:
    """Check whether tuples with at most ``r`` switches generate A^n for n up to
    ``max_power`` under the polymorphisms of arity up to ``max_arity``.

    The closure is computed once, at ``max_power`` = N.  Each smaller power n
    is read from it: projection onto the first n coordinates is a
    homomorphism of the power algebras, and it maps the <= r-switch N-tuples
    onto the <= r-switch n-tuples (pad one with its last entry), so
    Sg(SB_n) is the projection of Sg(SB_N).  If the closure at N exceeds a
    budget, the powers below N are closed one by one from n = 2 until one
    fails too, and the verdict is inconclusive unless a closed power fell short.

    Only the top arity M is sieved.  Each lower arity m is the set of the
    minors f(x_1..x_m, x_m) of arity m + 1: a minor of a polymorphism is one,
    and every arity-m polymorphism g is the minor of g(x_1..x_m) read as an
    arity-(m + 1) operation.  ``operations`` lists each arity in
    lexicographic table order, arity 1 first.  The closure runs only under
    the non-identity unary operations and the operations of arity >= 2 that
    depend on every argument: one that ignores an argument equals an
    operation of the arity below, and the identity adds no point, so the
    closure is the same.  The budget checks run before any table is built,
    in the order that sieving every arity in turn raises them: the table
    count of each arity, the closure index, then each arity's preservation
    checks from arity 1 up.

    Raises ``ValueError`` when ``max_power < 2``, which checks no power and
    so would witness every language, or when ``max_arity < 1``, which
    searches no operation.
    """
    if max_power < 2:
        raise ValueError(f"witness power bound must be >= 2, got {max_power}")
    if max_arity < 1:
        raise ValueError(f"witness arity bound must be >= 1, got {max_arity}")
    size = lang.domain.size
    for m in range(1, max_arity + 1):
        budgets.check_power(f"arity-{m} operation enumeration", budgets.max_op_tables, size, (size, m))
    budgets.check_power("closure membership index", budgets.max_power_rank, size, max_power)
    relations = [rel for rel in lang.sorted_relations() if rel.tuples and rel.arity]
    for m in range(1, max_arity):
        for rel in relations:
            _row_index(rel, m, size, budgets)

    top = polymorphisms(lang, max_arity, budgets)
    tables = [np.array([f.table for f in top])]
    while len(tables) < max_arity:
        tables.insert(0, _minors(tables[0], size))
    ops: list[OperationTable] = []
    generators: list[OperationTable] = []
    for m, rows in enumerate(tables, 1):
        found = top if m == max_arity else [OperationTable(m, lang.domain, tuple(t)) for t in rows.tolist()]
        ops += found
        generators += compress(found, _generators(rows, size, m))

    def closure(n: int) -> frozenset[tuple[int, ...]]:
        return generate_closure(enumerate_switch_bounded(n, r, lang.domain), generators, n, budgets)

    powers: list[tuple[int, bool]] = []
    try:
        points = closure(max_power)
    except BudgetError:
        # a smaller power's closure is a projection of this one, so it may
        # still fit: close each from n = 2 until one fails too
        verdict = INCONCLUSIVE
        for n in range(2, max_power):
            try:
                powers.append((n, len(closure(n)) == size**n))
            except BudgetError:
                break
    else:
        verdict = WITNESSED
        for n in range(max_power, 1, -1):
            powers.append((n, len(points) == size**n))
            points = {t[:-1] for t in points}
        powers.reverse()
    if not all(g for _, g in powers):
        verdict = REFUTED_AT_BOUNDS
    return SwitchabilityWitness(r, tuple(ops), tuple(powers), verdict)


# ---------------------------------------------------------------------------
# weak near-unanimity


def is_wnu(f: OperationTable) -> bool:
    """Idempotent and equal on all one-off argument patterns f(y,x,..,x) etc.,
    read at the entries that :func:`_wnu_entries` names."""
    if f.arity < 2:
        raise ValueError("weak near-unanimity needs arity >= 2")
    diagonal, one_off = _wnu_entries(f.domain.size, f.arity)
    table = f.table
    return all(table[e] == x for e, x in diagonal) and all(
        len({table[e] for e in ranks}) == 1 for ranks in one_off
    )


@lru_cache(maxsize=32)
def _wnu_entries(size: int, m: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """The entries of an arity-m table that :func:`is_wnu` reads, by rank in
    lexicographic argument order: (rank of (x, ..., x), x) for each x, and
    for each x != y the ranks of the m tuples with y at one position and x
    at the others, x * (|A|^(m-1) + ... + 1) + (y - x) * |A|^(m-1-p) for y
    at position p."""
    base = sum(size**q for q in range(m))
    diagonal = tuple((x * base, x) for x in range(size))
    one_off = tuple(
        tuple(x * base + (y - x) * size ** (m - 1 - p) for p in range(m))
        for x in range(size)
        for y in range(size)
        if x != y
    )
    return diagonal, one_off


def _wnu_slots(size: int, m: int) -> tuple[dict[int, int], dict[int, int]]:
    """Fixed entries and shared value slots of the candidate tables, keyed by
    entry rank in lexicographic argument order, read off :func:`_wnu_entries`.

    Idempotence pins the diagonal; the one-off symmetry shares one slot per
    rank group (at m = 2 the groups of (x, y) and (y, x) are the same ranks).
    Every other entry is free and gets a slot of its own.  Slots are numbered
    by their first entry in rank order.
    """
    diagonal, one_off = _wnu_entries(size, m)
    fixed = dict(diagonal)
    group_of = {e: min(ranks) for ranks in one_off for e in ranks}
    keys: dict[int, int] = {}
    slot_of = {
        e: keys.setdefault(group_of.get(e, e), len(keys)) for e in range(size**m) if e not in fixed
    }
    return fixed, slot_of


def find_wnu(
    lang: ConstraintLanguage, m: int, budgets: Budgets = DEFAULT_BUDGETS
) -> OperationTable | None:
    """First arity-m weak near-unanimity polymorphism of the language, if any.

    Sieves only idempotent tables already satisfying the one-off symmetry,
    which covers the full size**(size**m) table space; "first" is the order
    of the slot values.
    """
    if m < 2:
        raise ValueError("weak near-unanimity needs arity >= 2")
    fixed, slot_of = _wnu_slots(lang.domain.size, m)
    found = _sieve(lang, m, fixed, slot_of, f"arity-{m} symmetric-table enumeration", budgets)
    return found[0] if found else None
