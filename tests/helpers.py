"""Test helpers: the [n^c] prime stream as (n, floor) pairs, and prime-list files."""

from psqr.psprimes import BLOCK_SIZE, ps_prime_array


def ps_primes_in(rng, block_size=BLOCK_SIZE):
    """(n, floor(n**c)) for the n of the window rng whose floor is prime,
    ascending: ps_prime_array over rng's blocks."""
    for block in rng.blocks(block_size):
        ns, floors = ps_prime_array(*block)
        yield from zip(ns.tolist(), floors.tolist())


def write_prime_file(path, primes, comment=None):
    """A prime-list file: comment lines, then one prime per line."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.writelines(f"{p}\n" for p in primes)
