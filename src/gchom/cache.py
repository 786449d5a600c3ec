"""File cache for slice bases and differentials.

Entries are keyed by the complex spec, the vertex count and a format
version.  Files are written to a temporary name and renamed into place,
so a reader never sees one half written; a file that fails to parse, such
as one cut off by a crash, is recomputed and rewritten.
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
    """Caches slice bases (.gls) and differential matrices (.sms).

    Entries are keyed by the complex spec plus vertex count and a format
    version tag; a cached file is byte-identical to a fresh recomputation.
    Each basis is read (or computed) once per instance and kept, since
    every differential needs the bases on both of its sides.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root) / f"v{FORMAT_VERSION}"
        self.root.mkdir(parents=True, exist_ok=True)
        self._bases: dict[tuple[ComplexSpec, int], BasisSlice] = {}

    def _key(self, spec: ComplexSpec, vertices: int) -> str:
        return f"{spec.parity}-{spec.variant}-g{spec.loops}-V{vertices}"

    def basis_path(self, spec: ComplexSpec, vertices: int) -> Path:
        return self.root / f"basis-{self._key(spec, vertices)}.gls"

    def matrix_path(self, spec: ComplexSpec, vertices: int) -> Path:
        return self.root / f"diff-{self._key(spec, vertices)}.sms"

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
        _write(path, dump_basis(fresh))
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
        _write(path, dump_sms(fresh))
        return fresh


def resolve_cache(explicit: str | None) -> FileCache | None:
    """Cache from the --cache flag, else GC_CACHE_DIR, else nothing."""
    root = explicit or os.environ.get("GC_CACHE_DIR")
    return FileCache(root) if root else None


def _read(path: Path, parse):
    """The parsed file, or None when it is missing or does not parse."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    try:
        return parse(text)
    except (ValueError, KeyError):  # KeyError: a .gls header cut between fields
        return None


def _write(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, then rename."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
