from gchom.cache import FileCache
from gchom.complexes import ComplexSpec, Variant, differential_matrix, enumerate_basis
from gchom.graphs import Parity


def test_truncated_files_are_recomputed(tmp_path):
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 4)
    FileCache(tmp_path).matrix(spec, 5)
    cache = FileCache(tmp_path)
    files = [cache.basis_path(spec, 5), cache.matrix_path(spec, 5)]
    originals = [p.read_bytes() for p in files]
    for path, blob in zip(files, originals):
        path.write_bytes(blob[: len(blob) // 2])

    got = cache.matrix(spec, 5)
    want = differential_matrix(enumerate_basis(spec, 5), enumerate_basis(spec, 4))
    assert (got.nrows, got.ncols, got.entries) == (want.nrows, want.ncols, want.entries)
    assert [p.read_bytes() for p in files] == originals
    assert not list(tmp_path.rglob("*.tmp"))
