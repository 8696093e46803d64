"""lucene_ray — a Ray-Data-native inverted-index build + BM25 top-k
query engine with the core capabilities of the reference full-text
engine (Apache Lucene's indexing/search path), built from scratch on
``ray.data.Dataset`` pipelines.

Subpackages:
  analysis  — StandardAnalyzer-conformant tokenize / lowercase / stop /
              SmallFloat norms
  codecs    — delta+FOR packed posting blocks, block-max impacts
  index     — segment build (map_batches), merge (groupby-on-term),
              manifest/checkpoint, collection stats
  search    — BM25 scoring, boolean queries, top-k (block-max pruning
              for single terms, exhaustive boolean accumulation)
  pipelines — training-data ops: dedup, similarity search, text analysis
"""

__version__ = "0.1.0"
