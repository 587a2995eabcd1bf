"""Slow reference constructions shared by the test modules."""

from pathideal.complexes import SimplicialComplex


def stanley_reisner_complex(ideal):
    """The complex whose faces are the variable subsets containing no
    generator, by a scan of all 2^n subsets; its facets are the faces to
    which no vertex can be added."""
    if not ideal.is_proper_nonzero:
        raise ValueError("the zero and the unit ideal are refused")
    n, gens = ideal.n, ideal.gen_masks()
    faces = {f for f in range(1 << n) if all(f & g != g for g in gens)}
    facets = [
        f for f in faces
        if not any(f | 1 << v in faces for v in range(n) if not f >> v & 1)
    ]
    return SimplicialComplex.from_faces(n, facets)
