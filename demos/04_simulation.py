"""End-to-end caching round: place caches, broadcast XOR signals, decode.

The simulator splits each file into F packets, fills every user's cache
from the star cells of its column, sends one XOR signal per symbol, and
has every user reconstruct its demanded file byte-exactly from its cache
plus the broadcast.
"""

from fractions import Fraction

from pdacache import (
    build_theorem7,
    deliver,
    pda_params,
    place,
    random_instance,
    run_round_trip,
)

pda, pred = build_theorem7(4, 2, 3)
p = pda_params(pda)
print(f"scheme: K={p.K} users, F={p.F} packets/file, Z={p.Z} cached, S={p.S} signals")

inst = random_instance(pda, seed=42, packet_bytes=4)
print(f"library: {inst.N} files of {len(inst.files[0])} bytes, "
      f"worst-case demand (all distinct)")

caches = place(inst)
print(f"user 0 caches {len(caches[0])} packets "
      f"= Z/F = {Fraction(len(caches[0]), inst.N * pda.F)} of the library")

transcript = deliver(inst)
print(f"server broadcasts {len(transcript.signals)} signals of "
      f"{len(transcript.signals[0])} bytes; measured load {transcript.measured_load} "
      f"(uncoded delivery would cost K(1 - Z/F) = {p.K * (1 - Fraction(p.Z, p.F))})")

_, _, ok = run_round_trip(pda, seed=42, packet_bytes=4)
print("every user decoded its file byte-exactly:", ok)
