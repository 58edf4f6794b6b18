"""Text, JSON, and CSV forms for distributions.

Distributions print as ``1/2|0> + 3/10|1>``: an exact rational weight,
then the element between ``|`` and ``>``.  Multiset elements nest their
own kets (``1/5|3|0> + 1|3>>``); tuple elements list their components
separated by commas inside the outer ket.  Parsing splits terms at the
`` + `` occurrences outside any ket, tracking ``|``/``>`` nesting, and
recovers the exact rational weights.  Integers of any length are written
by ``multisets._decimal`` and read by ``multisets._integer``, past the
interpreter's int-to-str digit limit too, so an exported distribution
round-trips bit-exactly.

JSON form: a list of ``{element, numerator, denominator, probability}``
records.  The rational fields are authoritative; ``probability`` is the
float n / d, as ``float(Fraction(n, d))`` rounds it.  CSV form:
``element,probability`` with decimals at 12 significant digits.
"""

from __future__ import annotations

import re
from typing import Any

from .distributions import Dist, element_text
from .multisets import GroundSet, Multiset, _decimal, _integer, parse_multiset

__all__ = [
    "format_dist",
    "parse_dist",
    "dist_to_json",
    "dist_to_csv_rows",
    "element_text",
]


def format_dist(omega: Dist) -> str:
    return str(omega)


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on ``sep`` occurrences that sit outside all kets.

    Only bars, closing brackets and ``sep`` are visited, so the digits of
    long weights are skipped at C speed.
    """
    parts, depth, start = [], 0, 0
    for m in re.finditer(f"[|>]|{re.escape(sep)}", text):
        mark = m.group()
        if mark == "|":
            depth += 1
        elif mark == ">":
            depth -= 1
        elif depth == 0:
            parts.append(text[start:m.start()])
            start = m.end()
    parts.append(text[start:])
    return parts


def _parse_element(text: str, ground: GroundSet | None) -> Any:
    text = text.strip()
    comps = _split_top_level(text, ",")
    if len(comps) > 1:
        return tuple(_parse_element(c, ground) for c in comps)
    if "|" in text:
        return parse_multiset(text, ground)
    if text.lstrip("-").isdigit():
        return _integer(text)
    return text


def parse_dist(text: str, ground: GroundSet | None = None) -> Dist:
    """Parse the ket text form of a distribution.

    ``ground`` scopes any multiset elements; without it each multiset
    infers its own ground, which is only safe when every element names
    every label.  Weights are parsed as exact rationals, and integers past
    the interpreter's digit limit are read too.
    """
    from fractions import Fraction
    pairs = []
    for term in _split_top_level(text.strip(), " + "):
        term = term.strip()
        bar = term.index("|")
        if not term.endswith(">"):
            raise ValueError(f"malformed distribution term {term!r}")
        written = term[:bar].strip()
        num, slash, den = written.partition("/")
        try:  # the n/d and n forms the writer makes at any length; others as Fraction reads them
            weight = (Fraction(_integer(num), _integer(den) if slash else 1)
                      if num.isdecimal() and (den.isdecimal() or not slash) else Fraction(written))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in distribution term {term!r}") from None
        element = _parse_element(term[bar + 1:-1], ground)
        pairs.append((element, weight))
    return Dist(pairs)


def _json_element(x: Any) -> Any:
    if isinstance(x, Multiset):
        return str(x)
    if isinstance(x, tuple):
        return [_json_element(c) for c in x]
    return x


def dist_to_json(omega: Dist) -> list[dict[str, Any]]:
    return [
        {"element": _json_element(x), "numerator": n, "denominator": d, "probability": n / d}
        for x, n, d in omega._reduced()
    ]


def _json_text(x: Any) -> str:
    """``json.dumps(x)`` for dicts with string keys, lists, strings, ints, floats,
    bools and None, with every int written by ``_decimal``, whatever its length."""
    from json import dumps
    from json.encoder import encode_basestring_ascii as quote

    def text(x: Any) -> str:
        if isinstance(x, dict):
            return "{" + ", ".join(f"{quote(k)}: {text(v)}" for k, v in x.items()) + "}"
        if isinstance(x, list):
            return "[" + ", ".join(map(text, x)) + "]"
        if isinstance(x, int) and not isinstance(x, bool):
            return _decimal(x)
        return dumps(x)

    return text(x)


def dist_to_json_text(omega: Dist) -> str:
    return _json_text(dist_to_json(omega))


def dist_to_csv_rows(omega: Dist) -> list[str]:
    rows, den = [], omega.denominator
    for x, m in omega.numerators():
        cell = element_text(x)
        if "," in cell:
            cell = f'"{cell}"'
        rows.append(f"{cell},{m / den:.12g}")
    return rows
