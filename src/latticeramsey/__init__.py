"""Blue-red colorings of Boolean lattices: constructions, embeddings, verification.

Each name is imported from the module that defines it, for example
`from latticeramsey.embedder import embed_with_permutation`.
"""

__version__ = "0.1.0"
