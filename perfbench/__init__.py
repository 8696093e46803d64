"""Layered build/query benchmark for lucene_ray (see DESIGN.md)."""
