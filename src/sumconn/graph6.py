"""graph6 encoding and DOT export.

graph6 packs the upper triangle of the adjacency matrix column by column
(bit x_{i,j} for j = 1..n-1, i = 0..j-1), zero-pads the bit string to a
multiple of six, and maps each 6-bit group to the ASCII character
``value + 63``.  The leading character is ``n + 63``.  Only the short
form is needed here since n never exceeds 16.
"""

from __future__ import annotations

from binascii import b2a_base64
from functools import lru_cache

from .graphs import Graph, MAX_VERTICES, SizeLimitError, graph_from_edges

_HEADER = ">>graph6<<"
# base64 digit v (the alphabet below, in order) -> graph6 character v + 63
_FROM_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)),
)


class Graph6Error(ValueError):
    """Malformed graph6 input."""


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[dict[tuple[int, int], int], int, int]:
    """``(bits, chars, nbytes)`` for n vertices: the integer with only the
    bit of the pair (i, j) set, for every pair i < j < n; the number of
    6-bit characters; and the bytes of whole 3-byte base64 blocks that
    hold them."""
    chars = (n * (n - 1) // 2 + 5) // 6
    nbytes = (chars + 3) // 4 * 3
    top = 8 * nbytes - 1
    bits = {(i, j): 1 << (top - (j * (j - 1) >> 1) - i) for j in range(n) for i in range(j)}
    return bits, chars, nbytes


def emit_graph6(g: Graph) -> str:
    """graph6 string of ``g``, built from its edge list in O(m) steps.

    The pair (i, j), i < j, is bit ``j*(j-1)/2 + i`` of the column-order
    bit string, counted from its most significant end, so each edge is
    one bit of a single integer, read from a table per n (``_layout``);
    the edges are distinct, so the sum of their bits sets each of them.
    graph6 and base64 both cut a bit string into 6-bit groups, most
    significant first, and differ only in the alphabet; so the integer,
    zero-padded to whole 3-byte base64 blocks, is base64-encoded, cut to
    the needed number of characters (the cut drops only padding), and
    translated to ``value + 63``.
    """
    n = g.n
    bits, chars, nbytes = _layout(n)
    value = sum(map(bits.__getitem__, g.edges))
    body = b2a_base64(value.to_bytes(nbytes, "big"), newline=False)[:chars]
    return chr(n + 63) + body.translate(_FROM_BASE64).decode("ascii")


def parse_graph6(text: str) -> Graph:
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
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[1:]
    if len(body) != need:
        raise Graph6Error(f"expected {need} data characters for n={n}, got {len(body)}")
    bits: list[int] = []
    for c in body:
        value = ord(c) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    count = n * (n - 1) // 2
    if any(bits[count:]):
        raise Graph6Error("nonzero padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return graph_from_edges(n, edges)


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
