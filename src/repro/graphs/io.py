"""Graph (de)serialization.

Two formats:

* a plain-text edge list (``u v [w]`` per line, ``#`` comments, a
  ``# nodes: N`` header) — the format SNAP distributes graphs in, so the
  loaders here would read the paper's real inputs unchanged were they
  available; and
* a ``.npz`` binary of the raw CSR arrays, used to cache transformed
  graphs between benchmark runs (the paper amortizes preprocessing over
  multiple executions; caching is how a user realizes that).
"""

from __future__ import annotations

import io as _io
import math
import zipfile
from pathlib import Path

import numpy as np

from ..errors import GraphFormatError
from ..obs.trace import traced
from ..resilience.faults import fault_point
from .csr import CSRGraph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "read_dimacs",
    "write_dimacs",
    "save_npz",
    "load_npz",
]


#: the most nodes a graph can have: CSRGraph stores node ids as int32
MAX_NODES = 2**31


def _check_node_count(n: int, where: str) -> int:
    """``n`` if a graph can have that many nodes, else :class:`GraphFormatError`."""
    if n < 0:
        raise GraphFormatError(f"{where}: negative node count {n}")
    if n > MAX_NODES:
        raise GraphFormatError(
            f"{where}: n={n} exceeds the {MAX_NODES} node limit of int32 node ids"
        )
    return n


def _parse_weight(text: str, where: str) -> float:
    """``text`` as a finite, non-negative edge weight, else :class:`GraphFormatError`."""
    try:
        x = float(text)
    except ValueError as exc:
        raise GraphFormatError(f"{where}: bad weight {text!r}") from exc
    if not math.isfinite(x):
        raise GraphFormatError(f"{where}: non-finite weight {x}")
    if x < 0:
        raise GraphFormatError(f"{where}: negative weight {x:g}")
    return x


def _weight_text(x: float) -> str:
    """``x`` as the shortest text that reads back to the same float.

    Integral weights keep their integer form (``3``, not ``3.0``), as
    DIMACS road files write them.
    """
    return repr(x).removesuffix(".0")


@traced("io.write_edge_list")
def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write ``graph`` as a SNAP-style text edge list."""
    path = Path(path)
    srcs = graph.edge_sources()
    w = graph.weights
    with path.open("w") as fh:
        fh.write(f"# nodes: {graph.num_nodes}\n")
        fh.write(f"# edges: {graph.num_edges}\n")
        if w is not None:
            # weightedness is otherwise inferred from the edge lines,
            # which a zero-edge weighted graph doesn't have
            fh.write("# weighted: 1\n")
        if w is None:
            for s, d in zip(srcs.tolist(), graph.indices.tolist()):
                fh.write(f"{s} {d}\n")
        else:
            for s, d, x in zip(srcs.tolist(), graph.indices.tolist(), w.tolist()):
                fh.write(f"{s} {d} {_weight_text(x)}\n")


@traced("io.read_edge_list")
def read_edge_list(
    path: str | Path,
    *,
    num_nodes: int | None = None,
    require_nodes_header: bool = False,
) -> CSRGraph:
    """Parse a SNAP-style edge list.

    If the file carries no ``# nodes:`` header and ``num_nodes`` is not
    given, the node count is inferred as ``max endpoint + 1`` — unless
    ``require_nodes_header`` is set, in which case a headerless file is a
    :class:`GraphFormatError` (batch pipelines want the explicit count so
    isolated high-id typos cannot silently inflate the graph).  Node
    counts past :data:`MAX_NODES` and non-finite or negative weights
    raise :class:`GraphFormatError` naming ``path:line``.
    """
    path = Path(path)
    fault_point("io", str(path))
    header_nodes: int | None = None
    src: list[int] = []
    dst: list[int] = []
    wts: list[float] = []
    weighted = False
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if line.startswith("#"):
                body = line[1:].strip().lower()
                if body.startswith("nodes:"):
                    try:
                        nodes = int(body.split(":", 1)[1])
                    except ValueError as exc:
                        raise GraphFormatError(
                            f"{where}: malformed nodes header"
                        ) from exc
                    header_nodes = _check_node_count(nodes, where)
                elif body.startswith("weighted:"):
                    try:
                        weighted = bool(int(body.split(":", 1)[1]))
                    except ValueError as exc:
                        raise GraphFormatError(
                            f"{where}: malformed weighted header"
                        ) from exc
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{where}: expected 'u v [w]', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"{where}: bad endpoint") from exc
            _check_node_count(max(u, v) + 1, where)  # ids imply n > max id
            src.append(u)
            dst.append(v)
            if len(parts) == 3:
                weighted = True
                wts.append(_parse_weight(parts[2], where))
            elif weighted:
                raise GraphFormatError(
                    f"{where}: mixed weighted/unweighted lines"
                )
    if require_nodes_header and header_nodes is None:
        raise GraphFormatError(f"{path}: missing '# nodes:' header")
    n = num_nodes if num_nodes is not None else header_nodes
    if n is None:
        n = (max(max(src), max(dst)) + 1) if src else 0
    return CSRGraph.from_edges(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(wts, dtype=np.float64) if weighted else None,
    )


@traced("io.write_dimacs")
def write_dimacs(graph: CSRGraph, path: str | Path, *, comment: str = "") -> None:
    """Write the DIMACS shortest-path format (``p sp``, 1-indexed ``a`` arcs).

    This is the native format of the paper's USA-road input (the 9th
    DIMACS Implementation Challenge), so a real download would round-trip
    through here unchanged.
    """
    path = Path(path)
    srcs = graph.edge_sources()
    w = graph.effective_weights()
    with path.open("w") as fh:
        if comment:
            fh.write(f"c {comment}\n")
        fh.write(f"p sp {graph.num_nodes} {graph.num_edges}\n")
        for s_, d, x in zip(srcs.tolist(), graph.indices.tolist(), w.tolist()):
            fh.write(f"a {s_ + 1} {d + 1} {_weight_text(x)}\n")


@traced("io.read_dimacs")
def read_dimacs(path: str | Path) -> CSRGraph:
    """Parse a DIMACS shortest-path graph (``c``/``p sp``/``a`` lines).

    Exactly one ``p sp <n> <m>`` header must precede every arc, each arc's
    endpoints must lie in ``1..n`` and its weight must be finite and
    non-negative, and the file must hold exactly ``m`` arcs.  Any other
    input raises :class:`GraphFormatError` naming ``path:line``.
    """
    path = Path(path)
    fault_point("io", str(path))
    header: tuple[int, int, int] | None = None  # (n, m, line)
    src: list[int] = []
    dst: list[int] = []
    wts: list[float] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            where = f"{path}:{lineno}"
            if parts[0] == "p":
                if header is not None:
                    raise GraphFormatError(
                        f"{where}: second 'p' line (first at line {header[2]})"
                    )
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphFormatError(f"{where}: expected 'p sp <n> <m>'")
                try:
                    n, m = int(parts[2]), int(parts[3])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{where}: 'p sp' counts must be integers"
                    ) from exc
                if n < 0 or m < 0:
                    raise GraphFormatError(
                        f"{where}: negative count in 'p sp {n} {m}'"
                    )
                header = (_check_node_count(n, where), m, lineno)
            elif parts[0] == "a":
                if header is None:
                    raise GraphFormatError(f"{where}: arc before the 'p sp' line")
                if len(parts) != 4:
                    raise GraphFormatError(f"{where}: expected 'a <u> <v> <w>'")
                try:
                    u, v = int(parts[1]) - 1, int(parts[2]) - 1
                except ValueError as exc:
                    raise GraphFormatError(f"{where}: malformed arc line") from exc
                if u < 0 or v < 0:
                    raise GraphFormatError(f"{where}: DIMACS node ids are 1-indexed")
                if max(u, v) >= header[0]:
                    raise GraphFormatError(
                        f"{where}: node id {max(u, v) + 1} exceeds n={header[0]}"
                    )
                x = _parse_weight(parts[3], where)
                src.append(u)
                dst.append(v)
                wts.append(x)
            else:
                raise GraphFormatError(
                    f"{where}: unknown DIMACS record {parts[0]!r}"
                )
    if header is None:
        raise GraphFormatError(f"{path}: missing 'p sp' header")
    n, m, lineno = header
    if len(src) != m:
        raise GraphFormatError(
            f"{path}:{lineno}: header declares {m} arcs, file has {len(src)}"
        )
    return CSRGraph.from_edges(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(wts, dtype=np.float64),
    )


@traced("io.save_npz")
def save_npz(graph: CSRGraph, path: str | Path) -> None:
    """Binary-cache the CSR arrays (compressed)."""
    arrays = {"offsets": graph.offsets, "indices": graph.indices}
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    with Path(path).open("wb") as fh:
        np.savez_compressed(fh, **arrays)


@traced("io.load_npz")
def load_npz(path: str | Path) -> CSRGraph:
    """Load a graph cached by :func:`save_npz`.

    A truncated or otherwise unreadable archive (the telltale of a crash
    mid-:func:`save_npz`) raises :class:`GraphFormatError`, not the
    underlying zip/pickle exception.
    """
    path = Path(path)
    fault_point("io", str(path))
    try:
        ctx = np.load(path)
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise GraphFormatError(
            f"{path}: not a readable graph archive ({exc})"
        ) from exc
    with ctx as data:
        if "offsets" not in data or "indices" not in data:
            raise GraphFormatError(f"{path}: not a repro graph archive")
        try:
            return CSRGraph(
                data["offsets"],
                data["indices"],
                data["weights"] if "weights" in data else None,
            )
        except zipfile.BadZipFile as exc:  # truncated member payload
            raise GraphFormatError(
                f"{path}: corrupt graph archive ({exc})"
            ) from exc


def dumps(graph: CSRGraph) -> bytes:
    """In-memory variant of :func:`save_npz` (round-trips via :func:`loads`)."""
    buf = _io.BytesIO()
    arrays = {"offsets": graph.offsets, "indices": graph.indices}
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    np.savez_compressed(buf, **arrays)
    return buf.getvalue()


def loads(blob: bytes) -> CSRGraph:
    """Inverse of :func:`dumps`."""
    try:
        ctx = np.load(_io.BytesIO(blob))
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise GraphFormatError(f"not a readable graph blob ({exc})") from exc
    with ctx as data:
        return CSRGraph(
            data["offsets"],
            data["indices"],
            data["weights"] if "weights" in data else None,
        )
