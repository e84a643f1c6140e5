"""The stdlib generator against numpy, which it reproduces bit for bit.

Each reference test skips where numpy is not installed; the trace digests
in test_golden.py and the benchmark hold the generator to the same bytes
without it.
"""

import struct
from pathlib import Path

import pytest

from edgepark import rng

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 104_729]
TABLES = {"ke_double": ("<256Q", rng._KE), "we_double": ("<256d", rng._WE),
          "fe_double": ("<256d", rng._FE)}


@pytest.mark.parametrize("spawned", [1, 125])
@pytest.mark.parametrize("seed", SEEDS)
def test_child_state_and_pcg64_seeding_equal_numpy(seed, spawned):
    np = pytest.importorskip("numpy")
    for child, seq in enumerate(np.random.SeedSequence(seed).spawn(spawned)):
        assert rng.child_state(seed, child) == tuple(map(int, seq.generate_state(4, np.uint64)))
        want = np.random.PCG64(seq).state["state"]
        generator = rng.Generator(seed, child)
        assert (generator.state, generator.inc) == (want["state"], want["inc"])


def test_a_million_draws_equal_numpy_through_every_ziggurat_branch(monkeypatch):
    np = pytest.importorskip("numpy")
    # log1p runs only in the tail draw, exp only in the wedge test.
    branches = {"tail": 0, "wedge": 0}

    def counted(name, fn):
        def call(x):
            branches[name] += 1
            return fn(x)
        return call

    monkeypatch.setattr(rng, "log1p", counted("tail", rng.log1p))
    monkeypatch.setattr(rng, "exp", counted("wedge", rng.exp))
    draws = 0
    for seed, child in [(0, 0), (1, 7), (104_729, 124), (2**64 - 1, 3)]:
        ours = rng.Generator(seed, child)
        theirs = np.random.default_rng(np.random.SeedSequence(seed).spawn(child + 1)[child])
        for block, scale in enumerate([1.0, 1e-5, 1_200_000.0, 0.5] * 6):
            n = 1000 if block % 2 else 4000
            assert [ours.random() for _ in range(n)] == theirs.random(n).tolist()
            assert [ours.exponential(scale) for _ in range(4 * n)] == (
                theirs.exponential(scale, 4 * n).tolist())
            draws += 5 * n
    assert draws >= 10**6
    assert branches["tail"] > 0 and branches["wedge"] > 0


def test_tables_are_literals_built_at_compile_time():
    code = compile(Path(rng.__file__).read_text(encoding="utf-8"), rng.__file__, "exec")
    constants = [c for c in code.co_consts if isinstance(c, tuple) and len(c) == 256]
    assert len(constants) == 3
    assert sorted(constants) == sorted(table for _fmt, table in TABLES.values())


def ar_member(archive: bytes, name: str) -> bytes:
    """One member of a GNU ar archive, by name."""
    assert archive.startswith(b"!<arch>\n")
    pos, long_names = 8, b""
    while pos < len(archive):
        header = archive[pos:pos + 60]
        member, size = header[:16].decode().rstrip(), int(header[48:58])
        data = archive[pos + 60:pos + 60 + size]
        if member == "//":
            long_names = data
        elif member.startswith("/") and member[1:].isdigit():
            start = int(member[1:])
            member = long_names[start:long_names.index(b"/\n", start)].decode()
        if member.rstrip("/") == name:
            return data
        pos += 60 + size + size % 2
    raise LookupError(name)


def elf_objects(obj: bytes, names: set[str]) -> dict[str, bytes]:
    """The bytes of each named symbol of a little-endian ELF64 object."""
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    sections = [struct.unpack_from("<IIQQQQII", obj, shoff + i * shentsize) for i in range(shnum)]
    found = {}
    for _name, kind, _flags, _addr, offset, size, link, _info in sections:
        if kind != 2:  # SHT_SYMTAB
            continue
        strtab = sections[link][4]
        for at in range(offset, offset + size, 24):
            st_name, _st_info, _other, shndx, value, length = struct.unpack_from(
                "<IBBHQQ", obj, at)
            symbol = obj[strtab + st_name:obj.index(b"\0", strtab + st_name)].decode()
            if symbol in names:
                start = sections[shndx][4] + value
                found[symbol] = obj[start:start + length]
    return found


def test_tables_equal_numpy_s_ziggurat_tables():
    np = pytest.importorskip("numpy")
    lib = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    if not lib.exists():
        pytest.skip(f"{lib} is not installed")
    obj = ar_member(lib.read_bytes(), "src_distributions_distributions.c.o")
    found = elf_objects(obj, set(TABLES))
    assert {name: struct.pack(fmt, *table) for name, (fmt, table) in TABLES.items()} == found
