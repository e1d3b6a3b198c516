"""Parsing and serialization of language and sentence documents.

Text formats are line oriented:

language::

    domain 2
    relation NOT 2
    0 1
    1 0
    end

sentence::

    forall x
    exists y
    constraint NOT x y

A JSON mirror of both formats (same field names) is accepted for files with a
``.json`` extension.  Blank lines and ``#`` comments are ignored in the text
forms.  Variables containing ``$`` are reserved for transform-generated names
and rejected in user input; pass ``allow_reserved=True`` to re-read serialized
transform output.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .errors import ParseError
from .model import (
    EXISTS,
    FORALL,
    Atom,
    ConstraintLanguage,
    DomainSpec,
    QuantifiedSentence,
    Relation,
    RESERVED_MARK,
    known_wellformed,
)

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")  # relation and variable names
_INTEGER = re.compile(r"-?[0-9]+")

_NULLARY_ROW = "()"


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if line.strip():
            yield lineno, raw, line.split()


def _column(raw: str, token: str) -> int:
    pos = raw.find(token)
    return pos + 1 if pos >= 0 else 1


def is_integer(token: str) -> bool:
    """Whether ``token`` is an optional ``-`` then ASCII digits, the one
    integer syntax of the input files and the command line; ``int`` alone
    would also take ``+9``, `` 9``, ``1_0`` and non-ASCII digits."""
    return _INTEGER.fullmatch(token) is not None


def _parse_int(token: str, lineno: int, raw: str) -> int:
    if not is_integer(token):
        raise ParseError(f"expected an integer, got {token!r}", lineno, _column(raw, token))
    return int(token)


def parse_language(text: str) -> ConstraintLanguage:
    """Parse the text language format; errors report line and column."""
    domain: DomainSpec | None = None
    relations: dict[str, Relation] = {}
    current: tuple[str, int, list[tuple[int, ...]]] | None = None
    current_line = 0

    for lineno, raw, tokens in _lines(text):
        head = tokens[0]
        if domain is None:
            if head != "domain" or len(tokens) != 2:
                raise ParseError("expected 'domain <size>' as the first directive", lineno, 1)
            size = _parse_int(tokens[1], lineno, raw)
            if size < 1:
                raise ParseError(f"domain size must be >= 1, got {size}", lineno, _column(raw, tokens[1]))
            domain = DomainSpec(size)
        elif head == "relation":
            if current is not None:
                raise ParseError(
                    f"relation block starting at line {current_line} not terminated by 'end'", lineno, 1
                )
            if len(tokens) != 3:
                raise ParseError("expected 'relation <name> <arity>'", lineno, 1)
            name = tokens[1]
            if not _NAME.fullmatch(name):
                raise ParseError(f"bad relation name {name!r}", lineno, _column(raw, name))
            if name in relations:
                raise ParseError(f"duplicate relation name {name!r}", lineno, _column(raw, name))
            arity = _parse_int(tokens[2], lineno, raw)
            if arity < 0:
                raise ParseError("arity must be >= 0", lineno, _column(raw, tokens[2]))
            current = (name, arity, [])
            current_line = lineno
        elif head == "end":
            if current is None:
                raise ParseError("'end' outside a relation block", lineno, 1)
            name, arity, rows = current
            relations[name] = Relation(name, arity, frozenset(rows))
            current = None
        elif head == "domain":
            raise ParseError("duplicate 'domain' directive", lineno, 1)
        elif current is not None:
            name, arity, rows = current
            if arity == 0:
                if tokens != [_NULLARY_ROW]:
                    raise ParseError(
                        f"nullary relation rows must be the literal {_NULLARY_ROW!r}", lineno, 1
                    )
                rows.append(())
                continue
            if len(tokens) != arity:
                raise ParseError(
                    f"tuple has {len(tokens)} entries, relation {name} has arity {arity}", lineno, 1
                )
            row = []
            for token in tokens:
                v = _parse_int(token, lineno, raw)
                if not (0 <= v < domain.size):
                    raise ParseError(
                        f"element {v} out of domain 0..{domain.size - 1}",
                        lineno,
                        _column(raw, token),
                    )
                row.append(v)
            rows.append(tuple(row))
        else:
            raise ParseError(f"unexpected directive {head!r}", lineno, 1)

    if domain is None:
        raise ParseError("empty document: missing 'domain' directive")
    if current is not None:
        raise ParseError(f"relation block starting at line {current_line} not terminated by 'end'")
    return ConstraintLanguage(domain, relations)


def _variable_problem(name: str, allow_reserved: bool) -> str | None:
    if not _NAME.fullmatch(name):
        return f"bad variable name {name!r}"
    if not allow_reserved and RESERVED_MARK in name:
        return f"variable {name!r} uses the reserved '{RESERVED_MARK}' marker"
    return None


class _SentenceReader:
    """The checks shared by the text and JSON sentence formats.

    Each check raises ``fail(message, token)``: the text format places the
    error at the token's line and column, the JSON format names the entry.
    """

    def __init__(self, lang: ConstraintLanguage, allow_reserved: bool) -> None:
        self.lang = lang
        self.allow_reserved = allow_reserved
        self.prefix: list[tuple[str, str]] = []
        self.atoms: list[Atom] = []
        self.quantified: set[str] = set()

    def quantify(self, quantifier: str, var: str, fail) -> None:
        problem = _variable_problem(var, self.allow_reserved)
        if problem:
            raise fail(problem, var)
        if var in self.quantified:
            raise fail(f"variable {var!r} quantified twice", var)
        self.quantified.add(var)
        self.prefix.append((quantifier, var))

    def constrain(self, name: str, args: list[str], fail) -> None:
        rel = self.lang.relations.get(name)
        if rel is None:
            raise fail(f"unknown relation {name!r}", name)
        if len(args) != rel.arity:
            raise fail(f"relation {name} has arity {rel.arity}, got {len(args)} arguments", None)
        for var in args:
            problem = _variable_problem(var, self.allow_reserved)
            if problem:
                raise fail(problem, var)
            if var not in self.quantified:
                raise fail(f"variable {var!r} is not quantified", var)
        self.atoms.append(Atom(name, tuple(args)))

    def sentence(self) -> QuantifiedSentence:
        """The sentence read, which passed every check of
        :func:`~qcsp.model.invariant_report` on the way in, so it keeps an ok
        report and is not checked again."""
        return known_wellformed(QuantifiedSentence(tuple(self.prefix), tuple(self.atoms), self.lang))


def parse_sentence(
    text: str, lang: ConstraintLanguage, allow_reserved: bool = False
) -> QuantifiedSentence:
    """Parse the text sentence format and validate it against ``lang``."""
    reader = _SentenceReader(lang, allow_reserved)
    in_matrix = False

    for lineno, raw, tokens in _lines(text):

        def fail(message: str, token: str | None) -> ParseError:
            return ParseError(message, lineno, _column(raw, token) if token else 1)

        head = tokens[0]
        if head in (FORALL, EXISTS):
            if in_matrix:
                raise ParseError("quantifier after the first constraint line", lineno, 1)
            if len(tokens) != 2:
                raise ParseError(f"expected '{head} <var>'", lineno, 1)
            reader.quantify(head, tokens[1], fail)
        elif head == "constraint":
            in_matrix = True
            if len(tokens) < 2:
                raise ParseError("expected 'constraint <relation> <vars...>'", lineno, 1)
            reader.constrain(tokens[1], tokens[2:], fail)
        else:
            raise ParseError(f"unexpected directive {head!r}", lineno, 1)

    return reader.sentence()


# ---------------------------------------------------------------------------
# serialization


def serialize_language(lang: ConstraintLanguage) -> str:
    lines = [f"domain {lang.domain.size}"]
    for rel in lang.sorted_relations():
        lines.append(f"relation {rel.name} {rel.arity}")
        for row in rel.sorted_tuples():
            lines.append(_NULLARY_ROW if rel.arity == 0 else " ".join(str(v) for v in row))
        lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_sentence(sentence: QuantifiedSentence) -> str:
    lines = [f"{q} {v}" for q, v in sentence.prefix]
    for atom in sentence.matrix:
        lines.append(" ".join(["constraint", atom.relation, *atom.args]))
    return "\n".join(lines) + "\n" if lines else ""


def language_to_dict(lang: ConstraintLanguage) -> dict:
    return {
        "domain": lang.domain.size,
        "relations": [
            {"relation": rel.name, "arity": rel.arity, "rows": [list(t) for t in rel.sorted_tuples()]}
            for rel in lang.sorted_relations()
        ],
    }


def sentence_to_dict(sentence: QuantifiedSentence) -> dict:
    return {
        "prefix": [[q, v] for q, v in sentence.prefix],
        "constraints": [[atom.relation, *atom.args] for atom in sentence.matrix],
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_field(data: dict, key: str, where: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{where}'{key}' must be a list, got {value!r}")
    return value


def _known_keys(data: dict, keys: frozenset, where: str) -> None:
    """Refuse a key outside ``keys``: a missing list reads as empty, so a
    mistyped key would otherwise go unnoticed."""
    for key in data:
        if key not in keys:
            raise ParseError(f"{where}unknown key {key!r}; expected one of {', '.join(sorted(keys))}")


_LANGUAGE_KEYS = frozenset(("domain", "relations"))
_RELATION_KEYS = frozenset(("relation", "arity", "rows"))
_SENTENCE_KEYS = frozenset(("prefix", "constraints"))


def _entry_fail(field: str, index: int):
    return lambda message, token=None: ParseError(f"{field} entry {index}: {message}")


def language_from_dict(data: dict) -> ConstraintLanguage:
    """Read the JSON language format; booleans are not integers here, and a
    key other than 'domain' and 'relations' (or, in a relation entry,
    'relation', 'arity' and 'rows') is refused by name."""
    if not isinstance(data, dict) or "domain" not in data:
        raise ParseError("language JSON must be an object with a 'domain' field")
    _known_keys(data, _LANGUAGE_KEYS, "language JSON: ")
    size = data["domain"]
    if not _is_int(size) or size < 1:
        raise ParseError(f"bad domain size {size!r}")
    relations: dict[str, Relation] = {}
    for index, entry in enumerate(_list_field(data, "relations", "")):
        if not isinstance(entry, dict):
            raise ParseError(f"relations entry {index}: expected an object, got {entry!r}")
        _known_keys(entry, _RELATION_KEYS, f"relations entry {index}: ")
        name = entry.get("relation")
        arity = entry.get("arity")
        if not isinstance(name, str) or not _NAME.fullmatch(name):
            raise ParseError(f"relations entry {index}: bad relation name {name!r}")
        if name in relations:
            raise ParseError(f"duplicate relation name {name!r}")
        if not _is_int(arity) or arity < 0:
            raise ParseError(f"relation {name}: bad arity {arity!r}")
        tuples = set()
        for row in _list_field(entry, "rows", f"relation {name}: "):
            if not isinstance(row, list) or len(row) != arity:
                raise ParseError(f"relation {name}: row {row!r} does not match arity {arity}")
            for v in row:
                if not _is_int(v) or not (0 <= v < size):
                    raise ParseError(f"relation {name}: element {v!r} out of domain 0..{size - 1}")
            tuples.add(tuple(row))
        relations[name] = Relation(name, arity, frozenset(tuples))
    return ConstraintLanguage(DomainSpec(size), relations)


def sentence_from_dict(
    data: dict, lang: ConstraintLanguage, allow_reserved: bool = False
) -> QuantifiedSentence:
    """Read the JSON sentence format entry by entry, with the checks of
    :func:`parse_sentence`; an error names the offending entry's index, or
    the first key other than 'prefix' and 'constraints'."""
    if not isinstance(data, dict):
        raise ParseError("sentence JSON must be an object")
    _known_keys(data, _SENTENCE_KEYS, "sentence JSON: ")
    reader = _SentenceReader(lang, allow_reserved)
    for index, entry in enumerate(_list_field(data, "prefix", "")):
        fail = _entry_fail("prefix", index)
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
            raise fail(f"expected [quantifier, variable], got {entry!r}")
        if entry[0] not in (FORALL, EXISTS):
            raise fail(f"unknown quantifier {entry[0]!r}")
        reader.quantify(entry[0], entry[1], fail)
    for index, entry in enumerate(_list_field(data, "constraints", "")):
        fail = _entry_fail("constraints", index)
        if not (isinstance(entry, list) and entry and all(isinstance(x, str) for x in entry)):
            raise fail(f"expected [relation, variables...], got {entry!r}")
        reader.constrain(entry[0], entry[1:], fail)
    return reader.sentence()


def load_language(path: str | Path) -> ConstraintLanguage:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return language_from_dict(json.loads(text))
    return parse_language(text)


def load_sentence(
    path: str | Path, lang: ConstraintLanguage, allow_reserved: bool = False
) -> QuantifiedSentence:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return sentence_from_dict(json.loads(text), lang, allow_reserved=allow_reserved)
    return parse_sentence(text, lang, allow_reserved=allow_reserved)
