"""Query AST node types (the rebuild of the reference's query algebra).

Mirrors the operator inventory of SURVEY.md §2.5 (Xapian matcher postlist
combinators L1-L9) as plain dataclasses; the executor gives them Ray-side
semantics. Scoring semantics follow the reference: weights sum across
matching weighted subtrees; FILTER/AND_NOT right sides contribute no weight;
SYNONYM scores its subtree as one pseudo-term.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MatchAll:
    """Xapian's <alldocuments> postlist: every document, weight 0 (reached
    via FLAG_PURE_NOT: ``NOT x`` parses to AND_NOT(MatchAll, x)). Requires
    enumerating the doc universe — inherently a full-bucket scan, priced
    accordingly at scale."""


@dataclass(frozen=True)
class Term:
    text: str
    wqf: int = 1


@dataclass(frozen=True)
class Wildcard:
    """OP_WILDCARD right-truncation. limit 0 = unlimited
    (api/queryinternal.cc:1019-1126). most_frequent selects the ``limit``
    highest-termfreq matches instead of erroring past the limit
    (WILDCARD_LIMIT_MOST_FREQUENT — what FLAG_PARTIAL uses, capped at 100,
    queryparser_internal.h:128-130)."""
    prefix: str
    limit: int = 0
    most_frequent: bool = False


@dataclass(frozen=True)
class Or:
    children: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class And:
    children: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class AndNot:
    left: object = None
    right: object = None


@dataclass(frozen=True)
class AndMaybe:
    left: object = None
    right: object = None


@dataclass(frozen=True)
class Xor:
    children: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class Filter:
    left: object = None
    right: object = None  # boolean filter: no weight contribution


@dataclass(frozen=True)
class Synonym:
    children: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class EliteSet:
    """OP_ELITE_SET: OR of the ``set_size`` highest-maxweight sub-postlists
    after OR-like flattening (api/queryinternal.cc:1248-1280,
    OrContext::select_elite_set :188-197; default set_size 10,
    queryinternal.h:29-30,369-371). Ties at the cut are unspecified in
    xapian (nth_element); the executor keeps the earliest in query order."""
    children: tuple = field(default_factory=tuple)
    set_size: int = 10


@dataclass(frozen=True)
class Phrase:
    """Positional window op (OP_PHRASE when ordered, OP_NEAR when not;
    window 0 means len(terms) — the Xapian default for both). On an index
    built with ``IndexConfig(positions=True)`` the executor verifies real
    position windows (matcher/phrasepostlist.cc, nearpostlist.cc); on a
    positionless index it degrades to AND of the unstemmed terms (a
    documented superset; SURVEY.md §2.5 L7)."""
    terms: tuple = field(default_factory=tuple)
    window: int = 0
    ordered: bool = True


@dataclass(frozen=True)
class ScaleWeight:
    child: object = None
    factor: float = 1.0


def query_leaves(node) -> tuple[list[str], list[Wildcard]]:
    """(concrete term texts, wildcard nodes) of the tree, in walk order."""
    terms: list[str] = []
    wildcards: list[Wildcard] = []

    def walk(n):
        if isinstance(n, Term):
            terms.append(n.text)
        elif isinstance(n, Phrase):
            terms.extend(n.terms)
        elif isinstance(n, Wildcard):
            wildcards.append(n)
        elif isinstance(n, (Or, And, Xor, Synonym, EliteSet)):
            for c in n.children:
                walk(c)
        elif isinstance(n, (AndNot, AndMaybe, Filter)):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, ScaleWeight):
            walk(n.child)

    walk(node)
    return terms, wildcards


def query_terms(node) -> list[str]:
    """All concrete term texts in the tree (wildcards excluded)."""
    return query_leaves(node)[0]


def describe(node) -> str:
    """Stable description string (the analog of Xapian's get_description
    golden strings used by the reference's expression_tests,
    src/interactive/xapian_utils.rs:481-549)."""
    if isinstance(node, MatchAll):
        return "<alldocuments>"
    if isinstance(node, Term):
        return node.text if node.wqf == 1 else f"{node.text}#{node.wqf}"
    if isinstance(node, Wildcard):
        return f"WILDCARD {node.prefix}*"
    if isinstance(node, Or):
        return "(" + " OR ".join(describe(c) for c in node.children) + ")"
    if isinstance(node, And):
        return "(" + " AND ".join(describe(c) for c in node.children) + ")"
    if isinstance(node, Xor):
        return "(" + " XOR ".join(describe(c) for c in node.children) + ")"
    if isinstance(node, Synonym):
        return "(SYNONYM " + " ".join(describe(c) for c in node.children) + ")"
    if isinstance(node, EliteSet):
        return ("(ELITE_SET " + str(node.set_size) + " "
                + " ".join(describe(c) for c in node.children) + ")")
    if isinstance(node, AndNot):
        return f"({describe(node.left)} AND_NOT {describe(node.right)})"
    if isinstance(node, AndMaybe):
        return f"({describe(node.left)} AND_MAYBE {describe(node.right)})"
    if isinstance(node, Filter):
        return f"({describe(node.left)} FILTER {describe(node.right)})"
    if isinstance(node, Phrase):
        op = "PHRASE" if node.ordered else "NEAR"
        return f"({op} " + " ".join(node.terms) + ")"
    if isinstance(node, ScaleWeight):
        return f"({node.factor} * {describe(node.child)})"
    return repr(node)
