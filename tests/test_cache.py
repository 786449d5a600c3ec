from collections import Counter

import gchom.cache
from gchom.cache import FileCache
from gchom.cohomology import cohomology_dims
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


def test_each_basis_file_is_parsed_once_per_instance(tmp_path, monkeypatch):
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 5)
    want = cohomology_dims(spec, confirm_prime=10007, cache=FileCache(tmp_path))
    parsed = Counter()

    def counting_load_basis(text):
        basis = load_basis(text)
        parsed[basis.num_vertices] += 1
        return basis

    load_basis = gchom.cache.load_basis
    monkeypatch.setattr(gchom.cache, "load_basis", counting_load_basis)
    got = cohomology_dims(spec, confirm_prime=10007, cache=FileCache(tmp_path))
    assert got == want
    files = list((tmp_path / f"v{gchom.cache.FORMAT_VERSION}").glob("basis-*.gls"))
    assert len(parsed) == len(files) > 1
    assert set(parsed.values()) == {1}
