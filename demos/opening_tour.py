"""A guided tour of the opening and closure constructions.

Usage:
    python3 demos/opening_tour.py

Starts from the two smallest planar quadrangulations, opens them at
different basepoints, shows that the tree labels are exactly the
graph distances to the basepoint, closes the trees back, and finishes
with an exhaustive roundtrip over a small census.  Every printed claim
is asserted on the spot.
"""

from __future__ import annotations

from surfmaps import (
    LabeledMap,
    PointedQuad,
    RotationMap,
    close_rooted,
    close_rooted_pointed,
    distance_labels,
    enumerate_quadrangulations,
    enumerate_well_labeled_trees,
    open_rooted,
    open_rooted_pointed,
    write_map_text,
)


def show(title: str, m: RotationMap, labels=None) -> None:
    print(f"--- {title} ---")
    print(write_map_text(m, labels), end="")
    print(f"(v={m.n_vertices}, e={m.n_edges}, f={m.n_faces}, "
          f"genus={m.genus})")
    print()


def main() -> None:
    # the path quadrangulation: one face of degree 4, no cycle
    path = RotationMap((0, 1, 4, 3, 2), (0, 2, 1, 4, 3))
    show("path quadrangulation (1 face)", path)

    print("Opening at the root vertex draws one chord per face corner")
    print("whose label rises along the face walk, then forgets the old")
    print("edges. The result is a plane tree labeled by distances:\n")
    t = open_rooted(path)
    show("opened tree", t.map, t.labels)

    dist = distance_labels(path, path.root)
    print(f"distances to the root vertex of the quadrangulation: {dist}")
    assert sorted(t.labels) == sorted(x for x in dist if x > 0)
    print("tree labels = distances of the non-basepoint vertices\n")

    back = close_rooted(t)
    assert back.canonical_key() == path.canonical_key()
    print("closing the tree returns the same rooted quadrangulation\n")

    # opening at another vertex needs the sign to stay invertible
    print("A pointed opening returns (tree, sign); the sign remembers")
    print("which of the two root arcs the closure should restore:\n")
    for v0 in range(path.n_vertices):
        tree, sign = open_rooted_pointed(path, v0)
        pq = close_rooted_pointed(tree, sign)
        assert (pq.quad.rooted_pointed_key(pq.basepoint)
                == path.rooted_pointed_key(v0))
        print(f"  basepoint {v0}: labels {tree.labels}, sign {sign:+d}, "
              "closes back exactly")
    print()

    # one labeled tree, two signs, two different pointed quadrangulations
    link = RotationMap((0, 1, 2), (0, 2, 1))
    lm = LabeledMap(link, (1, 2))
    plus = close_rooted_pointed(lm, 1)
    minus = close_rooted_pointed(lm, -1)
    assert isinstance(plus, PointedQuad) and isinstance(minus, PointedQuad)
    assert (plus.quad.canonical_key(), plus.basepoint) \
        != (minus.quad.canonical_key(), minus.basepoint)
    print("the same embedded tree closes to two distinct pointed")
    print("quadrangulations, one per sign\n")

    # the full correspondence at census scale
    n, g = 3, 0
    quads = enumerate_quadrangulations(n, g)
    trees = enumerate_well_labeled_trees(n, g)
    opened = {open_rooted(q).canonical_key() for q in quads}
    assert opened == {t.canonical_key() for t in trees}
    assert len(quads) == len(trees) == 54
    print(f"census n={n}, genus {g}: {len(quads)} rooted quadrangulations")
    print(f"open bijectively onto the {len(trees)} well-labeled trees")

    print("\nall claims checked")


if __name__ == "__main__":
    main()
