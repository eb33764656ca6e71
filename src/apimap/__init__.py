"""Cross-language API mapping through embedding-space alignment.

The pipeline: normalize code-token corpora, train skip-gram embeddings per
language, mine signature-matched seed pairs, solve an initial orthogonal
mapping, improve it adversarially, refine it on synthetic dictionaries, and
answer API-mapping queries by nearest-neighbor search in the aligned spaces.
Each name is imported from the layer module that defines it, for example
``from apimap.query import batch_query``.
"""

__version__ = "0.1.0"
