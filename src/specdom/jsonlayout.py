"""JSON laid out as ``json.dumps(..., indent=2)`` lays it out, a piece at a
time, and ``search --json``.

``json_object`` and ``json_list`` nest value texts that are already laid
out, and ``array_texts`` lays out an array one item at a time, so a
writer never holds its whole payload.  ``analyze``'s writers and
``search --json`` share these; this module imports nothing of the
package, so ``search --json`` loads none of ``analyze``'s code.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def _jfloat(x: float) -> str:
    """JSON text of ``x`` rounded to 12 significant digits, as json.dumps
    writes float(f"{x:.12g}")."""
    text = f"{x:.12g}"
    # a decimal of at most 12 digits with a point and no exponent is the
    # shortest text of its float, so repr would return it unchanged
    return text if "." in text and "e" not in text else repr(float(text))


def json_list(items: list[str], depth: int) -> str:
    """JSON array of item texts, laid out as json.dumps(indent=2) lays it
    out ``depth`` levels deep; the items are laid out one level deeper."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def json_object(fields: list[tuple[str, str]], depth: int) -> str:
    """JSON object of (key, value text) fields, laid out as ``json_list``
    lays out an array; keys are plain names that need no escaping."""
    if not fields:
        return "{}"
    pad = "\n" + "  " * (depth + 1)
    return ("{" + pad + ("," + pad).join([f'"{key}": {value}' for key, value in fields])
            + pad[:-2] + "}")


def array_texts(items: Iterable[str], depth: int) -> Iterator[str]:
    """``json_list`` in pieces: one per item, then the closing bracket."""
    pad = "\n" + "  " * (depth + 1)
    sep = "[" + pad
    for item in items:
        yield sep + item
        sep = "," + pad
    yield "[]" if sep[0] == "[" else pad[:-2] + "]"


def summary_json(summary) -> Iterator[str]:
    """A ScanSummary as json.dumps(indent=2) of its JSON form plus a
    newline, in pieces: each listed event and error is one."""
    from json.encoder import encode_basestring_ascii as json_str

    def event_json(e) -> str:
        return json_object([("id", json_str(e.record)), ("check", json_str(e.check)),
                            ("k", str(e.k)), ("margin", _jfloat(e.margin))], 2)

    checks = json_list([json_str(c) for c in summary.checks], 1)
    yield f'{{\n  "records": {summary.records},\n  "checks": {checks},\n  "violations": '
    yield from array_texts(map(event_json, summary.violations), 1)
    yield f',\n  "near_equality_count": {summary.near_count},\n  "near_equality": '
    yield from array_texts(map(event_json, summary.near), 1)
    yield ',\n  "errors": '
    yield from array_texts((json_object([("line", str(e.line)),
                                         ("message", json_str(e.message))], 2)
                            for e in summary.errors), 1)
    yield "\n}\n"
