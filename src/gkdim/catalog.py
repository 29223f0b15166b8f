"""Built-in dimension-sequence catalog.

Two stock entries exercise growth regimes that monomial presentations cannot
reach: the free algebra on two generators (exponential growth) and the
enveloping algebra of the Lie algebra spanned by x, y1, y2, ... with
[x, y_i] = y_{i+1} (subexponential but superpolynomial growth, so the
classifier is expected to return "inconclusive" on it).
"""

from typing import NamedTuple

from .hilbert import DimensionSequence
from .presentations import count_monomials_by_weight


class CatalogEntry(NamedTuple):
    """A named dimension sequence with a known growth verdict."""

    entry_id: str
    description: str
    expected_classification: str  # "exponential" | "inconclusive"


_ENTRIES = {
    "free_algebra_2": CatalogEntry(
        "free_algebra_2",
        "free associative algebra on two generators; 2^n words of length n",
        "exponential"),
    "smith_lie": CatalogEntry(
        "smith_lie",
        "enveloping algebra of the Lie algebra with basis x, y1, y2, ... and "
        "[x, y_i] = y_{i+1}; growth like exp(sqrt(n))",
        "inconclusive"),
}


def catalog_ids() -> tuple:
    return tuple(sorted(_ENTRIES))


def catalog_entry(entry_id: str) -> CatalogEntry:
    if entry_id not in _ENTRIES:
        raise ValueError(f"unknown catalog entry {entry_id!r}; "
                         f"known: {', '.join(catalog_ids())}")
    return _ENTRIES[entry_id]


def graded_values(entry_id: str, top: int) -> list:
    """Graded piece dimensions of a catalog entry, degrees 0..top."""
    catalog_entry(entry_id)
    if entry_id == "free_algebra_2":
        return [2 ** n for n in range(top + 1)]
    # smith_lie: the degree-n piece is spanned by the monomials x^a y^b of
    # weight n, with deg x = 1 and deg y_i = i, so it counts the monomials of
    # weight n in parts 1, 1, 2, ..., top
    return count_monomials_by_weight((1, *range(1, top + 1)), top)


def cumulative_sequence(entry_id: str, top: int) -> DimensionSequence:
    """Cumulative dimensions of a catalog entry as a DimensionSequence."""
    return DimensionSequence(tuple(graded_values(entry_id, top)), "graded_piece").cumulative()
