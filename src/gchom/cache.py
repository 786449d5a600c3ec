"""The one provider of slice bases and differentials.

`FileCache` with a root keeps each entry in a file, keyed by the complex
spec, the vertex count and a format version.  Files are written to a
temporary name and renamed into place, so a reader never sees one half
written; a file that fails to parse, such as one cut off by a crash or
one that is not UTF-8, is recomputed and rewritten.  Without a root it
reads and writes no files.
"""

from __future__ import annotations

import os
from pathlib import Path

from gchom.complexes import (
    BasisSlice,
    ComplexSpec,
    basis_rows,
    differential_matrix,
    dump_basis,
    enumerate_basis,
    load_basis,
)
from gchom.sparse import IntSparseMatrix, dump_sms, load_sms

FORMAT_VERSION = "1"


class FileCache:
    """Provides slice sizes, slice bases (.gls) and differentials (.sms).

    With a root, entries are files keyed by the complex spec plus vertex
    count and a format version tag; a cached file is byte-identical to a
    fresh recomputation.  With no root, each matrix is assembled on every
    request.  A slice size is the length of a basis already held, else
    the row count of its checked file, else the length of `basis`; a
    table needs only sizes and matrices, so a filled cache builds no
    graphs.  Each basis is parsed (or computed) once per instance and
    kept, and only when a differential has to be assembled, since that
    needs the bases on both of its sides.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = None if root is None else Path(root) / f"v{FORMAT_VERSION}"
        self._bases: dict[tuple[ComplexSpec, int], BasisSlice] = {}
        self._sizes: dict[tuple[ComplexSpec, int], int] = {}

    def _key(self, spec: ComplexSpec, vertices: int) -> str:
        return f"{spec.parity}-{spec.variant}-g{spec.loops}-V{vertices}"

    def _path(self, name: str) -> Path | None:
        return None if self.root is None else self.root / name

    def basis_path(self, spec: ComplexSpec, vertices: int) -> Path | None:
        return self._path(f"basis-{self._key(spec, vertices)}.gls")

    def matrix_path(self, spec: ComplexSpec, vertices: int) -> Path | None:
        return self._path(f"diff-{self._key(spec, vertices)}.sms")

    def size(self, spec: ComplexSpec, vertices: int) -> int:
        """Generators in the slice, counted without building them when a file holds them."""
        key = (spec, vertices)
        if key not in self._sizes:
            read = None
            if key not in self._bases:
                read = _read(self.basis_path(spec, vertices), basis_rows)
            if read is not None and read[:2] == key:  # (spec, vertices, rows)
                self._sizes[key] = len(read[2])
            else:
                self._sizes[key] = len(self.basis(spec, vertices))
        return self._sizes[key]

    def basis(self, spec: ComplexSpec, vertices: int) -> BasisSlice:
        key = (spec, vertices)
        if key not in self._bases:
            self._bases[key] = self._load_basis(spec, vertices)
        return self._bases[key]

    def _load_basis(self, spec: ComplexSpec, vertices: int) -> BasisSlice:
        path = self.basis_path(spec, vertices)
        loaded = _read(path, load_basis)
        if loaded is not None and loaded.spec == spec and loaded.num_vertices == vertices:
            return loaded
        fresh = enumerate_basis(spec, vertices)
        _write(path, dump_basis, fresh)
        return fresh

    def matrix(self, spec: ComplexSpec, vertices: int) -> IntSparseMatrix:
        """Differential from the slice at `vertices` down one slice.

        A loaded file is checked against the two slice sizes; the bases
        are fetched only to assemble a matrix the file does not hold.
        """
        path = self.matrix_path(spec, vertices)
        loaded = _read(path, load_sms)
        if loaded is not None and (loaded.ncols, loaded.nrows) == (
                self.size(spec, vertices), self.size(spec, vertices - 1)):
            return loaded
        fresh = differential_matrix(self.basis(spec, vertices), self.basis(spec, vertices - 1))
        _write(path, dump_sms, fresh)
        return fresh


def resolve_cache(explicit: str | None) -> FileCache:
    """Provider rooted at the --cache flag, else GC_CACHE_DIR, else in memory."""
    return FileCache(explicit or os.environ.get("GC_CACHE_DIR") or None)


def _read(path: Path | None, parse):
    """The parsed file, or None when there is no path, no file or no parse.

    A file that is not UTF-8 raises UnicodeDecodeError, a ValueError, and
    so does not parse; KeyError is a .gls header cut between fields.
    """
    if path is None:
        return None
    try:
        return parse(path.read_text())
    except (FileNotFoundError, ValueError, KeyError):
        return None


def _write(path: Path | None, dump, value) -> None:
    """Make the directory, write `dump(value)` to a temporary file, rename; no path, no write."""
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(dump(value))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
