"""Build a placement delivery array from first principles and verify it.

A placement delivery array (PDA) is an F x K grid whose cells are either a
star ("user k caches packet j of every file") or an integer symbol ("packet
j reaches user k inside the XOR signal for that symbol").  The defining
condition guarantees every user can peel its packet out of each signal it
needs using only its cache.

This script builds the smallest interesting PDA by hand, runs the verifier
on it, then breaks it and shows the verifier's counterexample witness.
"""

from pdacache import Pda, pda_params, verify_pda

grid = [
    [None, None, None, 0, 1, 2],
    [None, 0, 1, None, None, 3],
    [0, None, 2, None, 3, None],
    [1, 2, None, 3, None, None],
]
pda = Pda(grid)

print("grid (None = star):")
for row in grid:
    print("   ", " ".join("*" if c is None else str(c) for c in row))

verdict = verify_pda(pda)
print("\nverifier says:", "accept" if verdict else "reject")

p = pda_params(pda)
print(f"parameters: K={p.K} users, F={p.F} packets/file, Z={p.Z} stars/column, "
      f"S={p.S} signals")
print(f"memory ratio Z/F = {p.Z}/{p.F}, transmission load R = S/F = {p.R}")
print(f"gain histogram {p.gain_histogram}: each signal serves 3 users at once")

# Now violate the defining condition: symbol 1 already sits at (0, 4) and
# (3, 0); putting it at (0, 0) creates an equal-symbol pair in row 0.
broken = [list(r) for r in grid]
broken[0][0] = 1
verdict = verify_pda(Pda(broken))
print("\nafter tampering:", "accept" if verdict else f"reject, witness {verdict.witness}")
