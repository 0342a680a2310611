"""Seeded inputs: the references, the reads and the request bodies.

Everything the server receives comes from here, never from the commit under
test (`bwaver simulate-*`), so a commit cannot change what it is measured on.
The reference of a workload is fixed (its generator seed is a constant of the
workload), because a server serves one reference for a long time and a chr21
index build costs ~15 s; `--seed` draws the reads, their strands, the absent
reads and the arrival schedule.
"""

import hashlib
import os
import random

READ_LEN = 100
ABSENT_SHARE = 0.10
QUAL = b"I" * READ_LEN
COMPLEMENT = bytes.maketrans(b"ACGT", b"TGCA")


class Reference:
    """A single-sequence reference with planted exact repeat families."""

    def __init__(self, name, length, gc, seed, families, unit, copies):
        self.name = name
        self.length = length
        self.gc = gc
        self.seed = seed
        self.families = families
        self.unit = unit
        self.copies = copies

    def key(self):
        lo, hi = self.copies
        return f"{self.name}-{self.length}-{self.gc}-{self.seed}-{self.families}x{self.unit}-{lo}-{hi}"


ECOLI = Reference("ecoli_like", 4_641_652, 0.508, 1655, families=24, unit=1200, copies=(2, 8))
CHR21 = Reference("chr21_like", 40_088_619, 0.41, 21, families=60, unit=300, copies=(2, 120))


def base_table(gc):
    """256-entry byte map to ACGT with the requested GC share (to 1/256)."""
    gc_slots = round(gc * 128)
    at_slots = 128 - gc_slots
    table = b"A" * at_slots + b"C" * gc_slots + b"G" * gc_slots + b"T" * at_slots
    return bytes.maketrans(bytes(range(256)), table)


UNIFORM = base_table(0.5)


def revcomp(seq):
    return seq.translate(COMPLEMENT)[::-1]


def make_genome(ref):
    rng = random.Random(ref.seed)
    seq = bytearray(rng.randbytes(ref.length).translate(base_table(ref.gc)))
    # Exact repeat families, some copies reverse-complemented: reads from them
    # have several hits, and families with more copies than the server's
    # per-read cap (64) exercise the capped path of locate and SAM.
    for _ in range(ref.families):
        src = rng.randrange(ref.length - ref.unit)
        unit = bytes(seq[src:src + ref.unit])
        for _ in range(rng.randint(*ref.copies)):
            dst = rng.randrange(ref.length - ref.unit)
            seq[dst:dst + ref.unit] = revcomp(unit) if rng.random() < 0.5 else unit
    return bytes(seq)


def fasta_bytes(name, genome, width=80):
    lines = [b">" + name.encode()]
    lines += [genome[i:i + width] for i in range(0, len(genome), width)]
    return b"\n".join(lines) + b"\n"


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def cached_reference(ref, cache_dir):
    """(genome bytes, FASTA path, FASTA digest), generated once per cache."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, ref.key() + ".fa")
    if not os.path.exists(path):
        data = fasta_bytes(ref.name, make_genome(ref))
        tmp = path + f".tmp{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    with open(path, "rb") as f:
        data = f.read()
    genome = b"".join(data.split(b"\n")[1:])
    return genome, path, digest(data)


class Truth:
    """Where each read of a request came from: (position, reverse) or None."""

    __slots__ = ("names", "origins")

    def __init__(self, names, origins):
        self.names = names
        self.origins = origins


def make_request(genome, n_reads, rng, tag):
    """One FASTQ body of `n_reads` reads plus their truth.

    90% of the reads are copied from the reference, on either strand; 10% are
    random sequences, absent from it (a random 100-mer occurs in a 40 Mbp
    text with probability ~1e-52)."""
    records = []
    names = []
    origins = []
    limit = len(genome) - READ_LEN
    for i in range(n_reads):
        name = f"{tag}.{i}"
        if rng.random() < ABSENT_SHARE:
            seq = rng.randbytes(READ_LEN).translate(UNIFORM)
            origins.append(None)
        else:
            pos = rng.randrange(limit + 1)
            seq = genome[pos:pos + READ_LEN]
            reverse = rng.random() < 0.5
            if reverse:
                seq = revcomp(seq)
            origins.append((pos, reverse))
        names.append(name)
        records.append(b"@" + name.encode() + b"\n" + seq + b"\n+\n" + QUAL + b"\n")
    return b"".join(records), Truth(names, origins)


def request_pool(genome, n_requests, n_reads, seed, salt):
    """`n_requests` distinct bodies drawn from `seed`; a run cycles through them."""
    rng = random.Random(f"{salt}:{seed}")
    return [make_request(genome, n_reads, rng, f"s{seed}r{k}") for k in range(n_requests)]


def pool_digest(pool):
    h = hashlib.sha256()
    for body, _ in pool:
        h.update(body)
    return h.hexdigest()[:16]
