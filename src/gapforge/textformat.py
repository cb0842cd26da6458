"""The one layout shared by the six text formats, read strictly and written back.

A file is a header line `tag n1 ... nk` of non-negative integers followed by
exactly the body lines that the header promises; only blank lines may follow
the body. Each body line is a row of whitespace-separated tokens: a set, a
DNF term, or a matrix row. `ncp` and `cvp` end the body with a target line.
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache


# most tokens repeat (0, 1, small counts), so a hit skips the pattern match
@lru_cache(maxsize=4096)
def integer(tok):
    """int(tok) for ASCII digits after an optional '-'; a '+', an underscore
    or a non-ASCII digit, which int() would take, raises ValueError."""
    if not re.fullmatch("-?[0-9]+", tok):
        raise ValueError(f"{tok!r} is not an integer")
    return int(tok)


def number(tok):
    """An integer, or an exact Fraction: an integer, one '/' or '.', digits.
    A zero denominator raises ValueError, as any other malformed number does."""
    if not re.fullmatch("-?[0-9]+([/.][0-9]+)?", tok):
        raise ValueError(f"{tok!r} is not a number")
    if re.fullmatch("-?[0-9]+/0+", tok):
        raise ValueError(f"number {tok!r} has a zero denominator")
    return Fraction(tok) if "/" in tok or "." in tok else int(tok)


# One format's header field names and body: as many rows as the `rows` header
# fields add up to, each as long as the `width` fields add up to when `width`
# is given, then a target line when `target` is set. `noun` names the rows in
# error messages and `token` converts each token of a row.
Layout = namedtuple("Layout", "fields rows noun width target token",
                    defaults=((), False, integer))


LAYOUTS = {
    "cov": Layout(("universe", "sets", "k"), ("sets",), "set lines"),
    "setsys": Layout(("universe", "k"), ("k",), "set lines"),
    "dnf": Layout(("vars", "terms"), ("terms",), "term lines"),
    "clustering": Layout(("clients", "facilities", "k", "exponent"),
                         ("clients", "facilities"), "matrix rows",
                         width=("clients", "facilities"), token=number),
    "ncp": Layout(("rows", "cols", "k"), ("rows",), "matrix rows",
                  width=("cols",), target=True),
    "cvp": Layout(("rows", "cols", "k", "p"), ("rows",), "matrix rows",
                  width=("cols",), target=True),
}


def read(tag, text):
    """(header values, body rows) of a `tag` file; a target line is the last
    row. Any departure from the layout raises ValueError."""
    layout = LAYOUTS[tag]
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if not head or head[0] != tag:
        raise ValueError(f"missing {tag} header")
    if len(head) != 1 + len(layout.fields):
        raise ValueError(f"{tag} header needs {len(layout.fields)} fields "
                         f"({' '.join(layout.fields)}), found {len(head) - 1}")
    header = {}
    for name, tok in zip(layout.fields, head[1:]):
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"{tag} header: {name} must be a non-negative integer, not {tok!r}")
        header[name] = int(tok)
    count = sum(header[name] for name in layout.rows)
    expected = f"{count} {layout.noun}" + (" and a target line" if layout.target else "")
    need = count + layout.target
    body = lines[1:1 + need]
    if len(body) < need:
        raise ValueError(f"expected {expected}, found {len(body)}"
                         + (": target line missing" if layout.target else ""))
    if any(line.strip() for line in lines[1 + need:]):
        raise ValueError(f"{tag}: a non-blank line follows the {expected}")
    rows = tuple(tuple(layout.token(tok) for tok in line.split()) for line in body)
    if layout.width:
        width = sum(header[name] for name in layout.width)
        if any(len(row) != width for row in rows[:count]):
            raise ValueError("row width does not match the header")
    return tuple(header.values()), rows


def write(tag, header, rows):
    """The text of a `tag` file with these header values and body rows."""
    lines = [" ".join(map(str, (tag, *header)))]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"
