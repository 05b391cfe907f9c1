"""graph6 encoding and DOT export.

graph6 packs the upper triangle of the adjacency matrix column by column
(bit x_{i,j} for j = 1..n-1, i = 0..j-1), zero-pads the bit string to a
multiple of six, and maps each 6-bit group to the ASCII character
``value + 63``.  The leading character is ``n + 63``.  Only the short
form is needed here since n never exceeds 16.

Graphs are encoded from edge records, the format the listings keep: the
bytes ``u v`` of each edge, u < v, two per edge.  ``emit_graph6_records``
encodes a run of records on n vertices with one base64 pass, and
``emit_graph6`` is its one-graph case; ``parse_graph6`` reads through the
same bit layout (``_layout``).
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from functools import lru_cache
from itertools import chain
from struct import Struct
from typing import Callable, Sequence

from .graphs import Graph, MAX_VERTICES, SizeLimitError, graph_from_edges

_HEADER = ">>graph6<<"
# base64 digit v (the alphabet below, in order) <-> graph6 character v + 63
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)


class Graph6Error(ValueError):
    """Malformed graph6 input."""


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[dict[int, int], int, int]:
    """``(bits, chars, nbytes)`` for n vertices: for every pair i < j < n,
    keyed by its record's two-byte edge code ``i << 8 | j``, the integer
    with only the pair's bit set; the number of 6-bit characters; and the
    bytes of whole 3-byte base64 blocks that hold them."""
    chars = (n * (n - 1) // 2 + 5) // 6
    nbytes = (chars + 3) // 4 * 3
    top = 8 * nbytes - 1
    bits = {i << 8 | j: 1 << (top - (j * (j - 1) >> 1) - i) for j in range(n) for i in range(j)}
    return bits, chars, nbytes


@lru_cache(maxsize=None)
def _edge_codes(m: int) -> Callable[[bytes], tuple[int, ...]]:
    """The edge codes of a record of m edges, each two bytes read big-endian."""
    return Struct(f">{m}H").unpack


def emit_graph6_records(records: Sequence[bytes], n: int) -> list[str]:
    """graph6 strings of the graphs on n vertices whose edge records are
    ``records``, all of one edge count (else ``struct.error``), in order.

    The pair (i, j), i < j, is bit ``j*(j-1)/2 + i`` of the column-order
    bit string, counted from its most significant end, so each edge is
    one bit of a single integer, read from a table per n (``_layout``) by
    the edge's code; the edges are distinct, so the sum of their bits sets
    each of them.  graph6 and base64 both cut a bit string into 6-bit
    groups, most significant first, and differ only in the alphabet.  Each
    graph's integer fills whole 3-byte blocks, so one base64 pass over
    them all gives each graph the same ``4*nbytes/3`` characters, in
    order; each is cut to ``chars`` (the cut drops only padding) and the
    whole is translated to ``value + 63`` once.
    """
    if not records:
        return []
    bits, chars, nbytes = _layout(n)
    bit = bits.__getitem__
    codes = _edge_codes(len(records[0]) // 2)
    values = b"".join([sum(map(bit, codes(r))).to_bytes(nbytes, "big") for r in records])
    text = b2a_base64(values, newline=False).translate(_FROM_BASE64).decode("ascii")
    step = nbytes // 3 * 4
    head = chr(n + 63)
    return [head + text[i * step : i * step + chars] for i in range(len(records))]


def emit_graph6(g: Graph) -> str:
    """graph6 string of ``g``: ``emit_graph6_records`` of its edges."""
    return emit_graph6_records([bytes(chain.from_iterable(g.edges))], g.n)[0]


def parse_graph6(text: str) -> Graph:
    """Graph of a short-form graph6 string, an optional header first.

    The inverse of :func:`emit_graph6`, through the same ``_layout``: the
    characters become base64 digits, zero-padded to whole blocks, and the
    decoded integer holds an edge for each pair whose bit is set; any
    other set bit is nonzero padding.
    """
    data = text.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER) :]
    if not data:
        raise Graph6Error("empty graph6 string")
    if any(not (63 <= ord(c) <= 126) for c in data):
        raise Graph6Error("graph6 characters must be in the range chr(63)..chr(126)")
    n = ord(data[0]) - 63
    if n == 63:
        # Long-form size prefix; never produced for graphs this small.
        raise SizeLimitError("long-form graph6 sizes are not supported")
    if n > MAX_VERTICES:
        raise SizeLimitError(f"graph6 input has {n} vertices; at most {MAX_VERTICES} supported")
    if n < 1:
        raise Graph6Error("graph6 vertex count must be at least 1")
    bits, chars, nbytes = _layout(n)
    body = data[1:].encode("ascii")
    if len(body) != chars:
        raise Graph6Error(f"expected {chars} data characters for n={n}, got {len(body)}")
    digits = body.translate(_TO_BASE64).ljust(nbytes // 3 * 4, b"A")
    value = int.from_bytes(a2b_base64(digits), "big")
    codes = [code for code, bit in bits.items() if value & bit]
    if value != sum(map(bits.__getitem__, codes)):
        raise Graph6Error("nonzero padding bits")
    return graph_from_edges(n, [divmod(code, 256) for code in codes])


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
