from collections import Counter
from pathlib import Path

import pytest

import gchom.cache
from gchom.cache import FileCache
from gchom.cohomology import cohomology_dims
from gchom.complexes import (
    ComplexSpec,
    Variant,
    differential_matrix,
    dump_basis,
    enumerate_basis,
)
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
    root = tmp_path / f"v{gchom.cache.FORMAT_VERSION}"
    originals = {p.name: p.read_bytes() for p in root.iterdir()}
    reads, parsed = Counter(), Counter()

    def counting_read_text(path, *args, **kwargs):
        reads[path.name] += 1
        return read_text(path, *args, **kwargs)

    def counting_load_basis(text):
        basis = load_basis(text)
        parsed[basis.num_vertices] += 1
        return basis

    read_text = Path.read_text
    load_basis = gchom.cache.load_basis
    monkeypatch.setattr(Path, "read_text", counting_read_text)
    monkeypatch.setattr(gchom.cache, "load_basis", counting_load_basis)
    # a warm table reads each file once, though it ranks each matrix at
    # two primes, and takes the slice sizes without parsing a basis
    assert cohomology_dims(spec, confirm_prime=10007, cache=FileCache(tmp_path)) == want
    assert reads == Counter(originals.keys()) and any(n.endswith(".sms") for n in reads)
    assert not parsed

    # every matrix() misses: each basis on a side of a differential is
    # parsed once, from a file read once for its size and once to parse
    for path in root.glob("diff-*.sms"):
        path.unlink()
    reads.clear()
    assert cohomology_dims(spec, confirm_prime=10007, cache=FileCache(tmp_path)) == want
    dims = {v: len(enumerate_basis(spec, v)) for v in range(2, 2 * (spec.loops - 1) + 1)}
    sides = {w for v in dims if dims[v] and dims.get(v - 1) for w in (v, v - 1)}
    assert set(parsed) == sides and set(parsed.values()) == {1}
    assert {n for n, count in reads.items() if count > 1} == {
        FileCache(tmp_path).basis_path(spec, v).name for v in sides}
    assert {p.name: p.read_bytes() for p in root.iterdir()} == originals


@pytest.mark.parametrize("kind", ["basis", "matrix"])
def test_files_that_are_not_utf8_are_recomputed(tmp_path, kind):
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 4)
    want = FileCache(tmp_path).matrix(spec, 5)
    path = getattr(FileCache(tmp_path), f"{kind}_path")(spec, 5)
    original = path.read_bytes()
    path.write_bytes(b"\xff\xfe")
    assert FileCache(tmp_path).matrix(spec, 5) == want
    assert path.read_bytes() == original


def test_two_prime_table_assembles_each_differential_once(monkeypatch):
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 5)
    built = Counter()

    def counting_differential_matrix(src, dst):
        built[src.num_vertices] += 1
        return differential_matrix(src, dst)

    monkeypatch.setattr(gchom.cache, "differential_matrix", counting_differential_matrix)
    table = cohomology_dims(spec, confirm_prime=10007)
    dims = [r.dim for r in table.rows]  # rows run up the vertex count
    nonempty = sum(1 for lo, hi in zip(dims, dims[1:]) if lo and hi)
    assert nonempty > 1
    assert len(built) == nonempty
    assert set(built.values()) == {1}


def test_basis_lines_outside_the_header_slice_are_recomputed(tmp_path):
    spec = ComplexSpec(Parity.ODD, Variant.FULL, 3)
    cache = FileCache(tmp_path)
    path = cache.basis_path(spec, 4)
    path.parent.mkdir(parents=True)
    # a theta graph under a V=4 header: parses as a graph, but not of this slice
    path.write_text("#gls parity=odd variant=full loops=3 vertices=4 count=1\n"
                    "2 3 0 1 0 1 0 1\n")
    got = cache.basis(spec, 4)
    assert got == enumerate_basis(spec, 4)
    assert path.read_text() == dump_basis(enumerate_basis(spec, 4))
