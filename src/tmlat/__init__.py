"""Presentations of transversal matroids and their extension lattices."""

from .core import (GroundSet, SetSystem, SubsetLattice, make_system,
                   parse_lattice, parse_presentation)
from .matching import is_independent, max_matching, rank
from .matroid import (Matroid, is_transversal, matroid_doc, parse_matroid,
                      transversal_presentation)
from .presentations import (cover_chain, is_maximal, is_minimal, maximalize,
                            minimal_presentations_below, preceq,
                            presentation_rank, reindexing_equivalent)
from .extlattice import (CommonExtensions, ExtensionRecord,
                         common_extension_lattice, extend, extension_lattice,
                         extension_lattice_from_supports, extension_matroid,
                         extension_matroids, hasse_dot, index_closure,
                         irreducibles, least_map, tight_supports)
from .constructions import (build_maximal_presentation,
                            build_uniform_presentation, ideals_of_poset,
                            validate_lattice)

__all__ = [
    "GroundSet", "SetSystem", "SubsetLattice", "make_system", "parse_lattice",
    "parse_presentation",
    "is_independent", "max_matching", "rank",
    "Matroid", "is_transversal", "matroid_doc", "parse_matroid",
    "transversal_presentation",
    "cover_chain", "is_maximal", "is_minimal", "maximalize",
    "minimal_presentations_below", "preceq", "presentation_rank",
    "reindexing_equivalent",
    "CommonExtensions", "ExtensionRecord", "common_extension_lattice",
    "extend", "extension_lattice", "extension_lattice_from_supports",
    "extension_matroid", "extension_matroids", "hasse_dot", "index_closure",
    "irreducibles", "least_map", "tight_supports",
    "build_maximal_presentation", "build_uniform_presentation",
    "ideals_of_poset", "validate_lattice",
]
__version__ = "0.1.0"
