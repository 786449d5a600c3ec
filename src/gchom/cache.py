"""The one provider of slice bases and differentials.

`FileCache` with a root keeps each entry in a file, keyed by the complex
spec, the vertex count and a format version.  Files are written to a
temporary name and renamed into place, so a reader never sees one half
written; a file that fails to parse, such as one cut off by a crash, is
recomputed and rewritten.  Without a root it reads and writes no files.
"""

from __future__ import annotations

import os
from pathlib import Path

from gchom.complexes import (
    BasisSlice,
    ComplexSpec,
    differential_matrix,
    dump_basis,
    enumerate_basis,
    load_basis,
)
from gchom.sparse import IntSparseMatrix, dump_sms, load_sms

FORMAT_VERSION = "1"


class FileCache:
    """Provides slice bases (.gls) and differential matrices (.sms).

    With a root, entries are files keyed by the complex spec plus vertex
    count and a format version tag; a cached file is byte-identical to a
    fresh recomputation.  With no root, each matrix is assembled on every
    request.  Either way each basis is read (or computed) once per
    instance and kept, since every differential needs the bases on both
    of its sides.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = None if root is None else Path(root) / f"v{FORMAT_VERSION}"
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._bases: dict[tuple[ComplexSpec, int], BasisSlice] = {}

    def _key(self, spec: ComplexSpec, vertices: int) -> str:
        return f"{spec.parity}-{spec.variant}-g{spec.loops}-V{vertices}"

    def _path(self, name: str) -> Path | None:
        return None if self.root is None else self.root / name

    def basis_path(self, spec: ComplexSpec, vertices: int) -> Path | None:
        return self._path(f"basis-{self._key(spec, vertices)}.gls")

    def matrix_path(self, spec: ComplexSpec, vertices: int) -> Path | None:
        return self._path(f"diff-{self._key(spec, vertices)}.sms")

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
        """Differential from the slice at `vertices` down one slice."""
        path = self.matrix_path(spec, vertices)
        src = self.basis(spec, vertices)
        dst = self.basis(spec, vertices - 1)
        loaded = _read(path, load_sms)
        if loaded is not None and loaded.nrows == len(dst) and loaded.ncols == len(src):
            return loaded
        fresh = differential_matrix(src, dst)
        _write(path, dump_sms, fresh)
        return fresh


def resolve_cache(explicit: str | None) -> FileCache:
    """Provider rooted at the --cache flag, else GC_CACHE_DIR, else in memory."""
    return FileCache(explicit or os.environ.get("GC_CACHE_DIR") or None)


def _read(path: Path | None, parse):
    """The parsed file, or None when there is no path, no file or no parse."""
    if path is None:
        return None
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    try:
        return parse(text)
    except (ValueError, KeyError):  # KeyError: a .gls header cut between fields
        return None


def _write(path: Path | None, dump, value) -> None:
    """Write `dump(value)` through a temporary file, then rename; no path, no write."""
    if path is None:
        return
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(dump(value))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
