"""Catalogs of doubly regular tournaments and counts of tight codes.

Also the exhaustive sweep that excludes the spectrum with a double zero
at n = 2d.  analyze and embed use none of it, so the package loads this
module on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._constructions import (canonical_form, dominated_extension, enumerate_tournaments,
                             paley_tournament, switching_class)
from .codes import is_doubly_regular
from .errors import InputError
from .spectral import spectrum_of
from .tournament import Tournament, _read_ascii, parse_catalog


def verify_no_double_zero_spectrum(n: int) -> bool:
    """Exhaustively confirm that no tournament on n vertices has spectrum
    (-theta)^(d-1), 0, 0, theta^(d-1) with d = n/2.

    Supported for n in {2, 4, 6}; n = 2 passes vacuously.
    """
    if n not in (2, 4, 6):
        raise InputError(f"the exhaustive sweep supports n in 2, 4, 6, got {n}")
    d = n // 2
    if d == 1:
        shape = [2]
    else:
        shape = [d - 1, 2, d - 1]
    for T in enumerate_tournaments(n):
        spectrum = spectrum_of(T)
        if list(spectrum.multiplicities()) != shape:
            continue
        middle = spectrum.lines[len(shape) // 2]
        if abs(middle.tau) <= 1e-7 * max(1.0, abs(spectrum.lines[-1].tau)):
            return False
    return True


@dataclass(frozen=True)
class DrtCatalog:
    """Known doubly regular tournaments of one order.

    trusted is True when completeness of the list is taken on faith (the
    built-in order 11 and every external catalog file) instead of being
    re-derived by exhaustive search.
    """

    order: int
    tournaments: tuple[Tournament, ...]
    trusted: bool


@lru_cache(maxsize=None)
def _builtin_catalog(order: int) -> DrtCatalog:
    if order < 3 or order % 4 != 3:
        # No doubly regular tournament exists at these orders.
        return DrtCatalog(order, (), False)
    if order in (3, 7):
        found = tuple(T for T in enumerate_tournaments(order)
                      if is_doubly_regular(T) is not None)
        return DrtCatalog(order, found, False)
    if order == 11:
        return DrtCatalog(order, (paley_tournament(11),), True)
    raise InputError(
        f"no built-in catalog of doubly regular tournaments for order {order}; "
        "supply a catalog file")


def _read_catalog(path: str | None) -> str | None:
    """The text of the catalog file at path, or None without a path."""
    return None if path is None else _read_ascii(path, "catalog")


def _parse_drt(order: int, text: str | None) -> DrtCatalog:
    """The doubly regular tournaments of a positive order in the text of a
    catalog file, or in the built-in catalogs when text is None."""
    if text is None:
        return _builtin_catalog(order)
    seen: dict = {}
    for k, T in parse_catalog(text.splitlines(), numbered=True):
        if T.n != order:
            raise InputError(f"line {k}: catalog entry has order {T.n}, expected {order}")
        if is_doubly_regular(T) is None:
            raise InputError(f"line {k}: catalog entry {T.line()} is not doubly regular")
        seen.setdefault(canonical_form(T), T)
    return DrtCatalog(order, tuple(seen[k] for k in sorted(seen)), True)


def drt_catalog(order: int, catalog_path: str | None = None) -> DrtCatalog:
    """Doubly regular tournaments of the given order.

    Orders 3 and 7 are verified by exhaustive enumeration, order 11 ships
    as a trusted single entry, and other orders of the form 4k + 3 need an
    external catalog file in the usual line format.
    """
    if order < 1:
        raise InputError(f"catalog order must be positive, got {order}")
    return _parse_drt(order, _read_catalog(catalog_path))


@dataclass(frozen=True)
class TightCodeCount:
    d: int
    count: int
    catalog_trusted: bool


def count_tight_codes(d: int, catalog_path: str | None = None) -> TightCodeCount:
    """Number of tight angle-set configurations in dimension d, up to
    tournament isomorphism.

    Odd d counts doubly regular tournaments of order 2d + 1.  Even d
    counts isomorphism classes in the union of the switching classes of
    the dominated extensions of the doubly regular tournaments of order
    2d - 1.
    """
    return _count_tight(d, _read_catalog(catalog_path) if d >= 1 else None)


def _count_tight(d: int, text: str | None) -> TightCodeCount:
    """count_tight_codes from the text of a catalog file, or from the
    built-in catalogs when text is None.  Callers read no catalog for a d
    below 1, so its error comes before any error of the file."""
    if d < 1:
        raise InputError(f"dimension must be positive, got {d}")
    if d % 2:
        catalog = _parse_drt(2 * d + 1, text)
        return TightCodeCount(d, len(catalog.tournaments), catalog.trusted)
    catalog = _parse_drt(2 * d - 1, text)
    classes: set = set()
    for T in catalog.tournaments:
        classes |= switching_class(dominated_extension(T))
    return TightCodeCount(d, len(classes), catalog.trusted)
