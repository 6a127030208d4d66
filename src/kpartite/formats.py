"""Graph file formats: graph6, whitespace edge lists, and DIMACS, plus the
CSV encoder and the text writer every report shares (path ``-`` is stdout).

graph6 is the primary interchange format: one graph per line, ASCII bytes
with offset 63, upper adjacency triangle packed column by column.  Edge-list
files carry one ``u v`` pair per line plus an optional ``n=<int>`` header for
isolated vertices; arbitrary labels are relabeled to 0..n-1 in first-seen
order, so edge-list round trips preserve the graph only up to isomorphism.
DIMACS files (``p edge n m`` / ``e u v``) are 1-indexed on disk and converted
to 0-indexed in memory.
"""

from __future__ import annotations

import binascii
import csv
import io
import sys
from pathlib import Path

from .errors import FormatError
from .graph import Graph

GRAPH6 = "graph6"
EDGES = "edges"
DIMACS = "dimacs"

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047  # 2^18 - 1, three 6-bit groups
# A graph6 body byte is 63 plus a six-bit value, which is the value's base64
# digit under a different alphabet; the codec packs bits through base64.
_G6_DIGITS = bytes(range(63, 127))
_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_TO_BASE64 = bytes.maketrans(_G6_DIGITS, _BASE64_DIGITS)
_BASE64_TO_G6 = bytes.maketrans(_BASE64_DIGITS, _G6_DIGITS)


def encode_graph6(g: Graph) -> str:
    """One-line graph6 encoding (no trailing newline, no ``>>graph6<<`` header)."""
    n = g.n
    if n <= _G6_MAX_SHORT:
        head = [n + 63]
    elif n <= _G6_MAX_LONG:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise FormatError(f"graph6 writer supports at most {_G6_MAX_LONG} vertices")
    rows = g.adjacency_masks()
    # Column j is the pairs (i, j), i < j, in ascending i: the low j bits of
    # row j, reversed.  Padding to whole base64 quanta (24 bits) adds only
    # zero digits past the body, which the slice drops.
    bits = "".join(
        format(rows[j] & ((1 << j) - 1), "b").zfill(j)[::-1] for j in range(1, n)
    )
    bits += "0" * (-len(bits) % 24)
    packed = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    body = binascii.b2a_base64(packed, newline=False).translate(_BASE64_TO_G6)
    nbytes = (n * (n - 1) // 2 + 5) // 6
    return (bytes(head) + body[:nbytes]).decode("ascii")


def decode_graph6(line: str) -> Graph:
    """Parse one graph6 line (an optional ``>>graph6<<`` prefix is ignored).

    The bits that pad the last byte to a multiple of six are ignored, even
    when they are nonzero.  Rows are built from strings of the whole upper
    triangle, so decoding takes O(n^2) character work in C and O(n) Python
    steps (and about 1.5 n^2 bytes of transient strings).
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 line")
    data = s.encode("ascii", errors="strict")
    if data.translate(None, _G6_DIGITS):
        raise FormatError(f"invalid graph6 byte in {line!r}")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise FormatError("graph6 inputs beyond 258047 vertices are unsupported")
        if len(data) < 4:
            raise FormatError("truncated graph6 vertex count")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    need = n * (n - 1) // 2
    nbytes = (need + 5) // 6
    if len(data) - pos != nbytes:
        raise FormatError(
            f"graph6 body length {len(data) - pos} != expected {nbytes} for n={n}"
        )
    # base64 decoding packs the six-bit groups into bytes, which then print
    # as one '0'/'1' per bit.
    body = data[pos:].translate(_G6_TO_BASE64)
    packed = binascii.a2b_base64(body + b"A" * (-len(body) % 4))
    bits = format(int.from_bytes(packed, "big"), "b").zfill(8 * len(packed))
    # bits[j*(j-1)//2 + i] is the pair (i, j), i < j.  Line j of ``lower``
    # holds those pairs reversed and left-padded to n characters, so that
    # character n-1-i stands for bit i of row j.  Column n-1-i of the stacked
    # lines is then the part of row i above the diagonal, in ascending j.
    lower = "".join(
        bits[j * (j - 1) // 2 : j * (j + 1) // 2][::-1].zfill(n) for j in range(n)
    )
    return Graph._from_rows(
        tuple(
            int(lower[i * n : (i + 1) * n], 2)
            | int(lower[n - 1 - i :: n][::-1], 2)
            for i in range(n)
        )
    )


def _header_vertex_count(n: int) -> int:
    """Refuse header vertex counts above graph6's limit before building rows."""
    if not 0 <= n <= _G6_MAX_LONG:
        raise FormatError(f"vertex count must be in 0..{_G6_MAX_LONG}, got {n}")
    return n


def encode_edge_list(g: Graph) -> str:
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def decode_edge_list(text: str) -> Graph:
    """Labels are numbered on first sight; each vertex's neighbours are
    collected while parsing and its row is built once, after the last line."""
    header_n: int | None = None
    labels: dict[str, int] = {}
    neighbours: list[list[int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("n="):
            if header_n is not None:
                raise FormatError(f"second vertex-count header: {raw!r}")
            try:
                header_n = _header_vertex_count(int(line[2:]))
            except ValueError as exc:
                raise FormatError(f"bad vertex-count header: {raw!r}") from exc
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"expected 'u v' pair, got {raw!r}")
        a, b = tokens
        if a == b:
            raise FormatError(f"loop {raw!r} not allowed")
        u = labels.get(a)
        if u is None:
            u = labels[a] = len(neighbours)
            neighbours.append([])
        v = labels.get(b)
        if v is None:
            v = labels[b] = len(neighbours)
            neighbours.append([])
        neighbours[u].append(v)
        neighbours[v].append(u)
    n = len(labels)
    if header_n is not None:
        if n > header_n:
            raise FormatError(
                f"header says n={header_n} but {n} distinct labels appear"
            )
        n = header_n
    rows = []
    for ws in neighbours:
        row = 0
        for w in ws:
            row |= 1 << w
        rows.append(row)
    return Graph._from_rows(tuple(rows) + (0,) * (n - len(rows)))


def encode_csv(columns, rows) -> str:
    """CSV text: the header row, then the rows, each ended by a bare newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def encode_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def decode_dimacs(text: str) -> Graph:
    n: int | None = None
    declared_m: int | None = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise FormatError(f"second problem line: {raw!r}")
            tokens = line.split()
            if len(tokens) != 4 or tokens[1].lower() != "edge":
                raise FormatError(f"bad problem line: {raw!r}")
            try:
                size, declared_m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise FormatError(f"bad problem line: {raw!r}") from None
            n = _header_vertex_count(size)
            continue
        if line.startswith("e"):
            if n is None:
                raise FormatError("edge line before problem line")
            tokens = line.split()
            if len(tokens) != 3:
                raise FormatError(f"bad edge line: {raw!r}")
            try:
                u, v = int(tokens[1]) - 1, int(tokens[2]) - 1
            except ValueError:
                raise FormatError(f"bad edge line: {raw!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"edge {raw!r} out of range for n={n}")
            if u == v:
                raise FormatError(f"loop {raw!r} not allowed")
            edges.append((u, v))
            continue
        raise FormatError(f"unrecognized DIMACS line: {raw!r}")
    if n is None:
        raise FormatError("missing DIMACS problem line")
    g = Graph(n, edges)
    if declared_m is not None and g.m != declared_m:
        raise FormatError(f"problem line declares {declared_m} edges, file has {g.m}")
    return g


def infer_format(path: str) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".g6", ".graph6"):
        return GRAPH6
    if suffix in (".col", ".dimacs", ".clq"):
        return DIMACS
    if suffix in (".edges", ".edgelist", ".txt"):
        return EDGES
    return GRAPH6


def read_text(path: str) -> str:
    """Read the file ``path``, or stdin when it is ``-``."""
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def write_text(text: str, path: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when it is ``-``."""
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def load_graphs(path: str, fmt: str | None = None) -> list[Graph]:
    """Read every graph in a file (graph6 holds one per line; the other
    formats hold exactly one)."""
    fmt = fmt or infer_format(path)
    text = read_text(path)
    if fmt == GRAPH6:
        return [decode_graph6(line) for line in text.splitlines() if line.strip()]
    if fmt == EDGES:
        return [decode_edge_list(text)]
    if fmt == DIMACS:
        return [decode_dimacs(text)]
    raise FormatError(f"unknown format {fmt!r}")


def load_graph(path: str, fmt: str | None = None) -> Graph:
    graphs = load_graphs(path, fmt)
    if len(graphs) != 1:
        raise FormatError(f"expected exactly one graph in {path}, found {len(graphs)}")
    return graphs[0]


def save_graph(g: Graph, path: str, fmt: str | None = None) -> None:
    fmt = fmt or infer_format(path)
    if fmt == GRAPH6:
        text = encode_graph6(g) + "\n"
    elif fmt == EDGES:
        text = encode_edge_list(g)
    elif fmt == DIMACS:
        text = encode_dimacs(g)
    else:
        raise FormatError(f"unknown format {fmt!r}")
    write_text(text, path)


def save_graphs(graphs: list[Graph], path: str) -> None:
    """Write graphs as one graph6 line each."""
    write_text("".join(encode_graph6(g) + "\n" for g in graphs), path)
