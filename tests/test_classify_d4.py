"""The d=4 classification on windows small enough for the quick loop; the
full n <= 10 run is `rigikit verify classify-d4`."""

from rigikit import build_glued_cliques, canonical_code
from rigikit.verify import STATUS_PASS, classify_flexible_circuits


def test_windows_below_nine_vertices_are_empty():
    # circuits on at most d+3 vertices are rigid, so nothing shows up
    rep, found = classify_flexible_circuits(4, 7, seed=0)
    assert rep.status == STATUS_PASS and found == []


def test_nine_vertices_find_exactly_b43():
    rep, found = classify_flexible_circuits(4, 9, seed=0)
    b43 = canonical_code(build_glued_cliques(4, 3).graph).decode("ascii")
    assert b43 == "HJaN~z~"
    assert rep.claim == "classify-d4"
    assert rep.status == STATUS_PASS and found == [b43]
    assert rep.details[-1]["name"] == "matches-constructed-families"
