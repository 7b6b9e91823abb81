"""Seeded benchmark for the autoner_ray KG and curation pipelines."""
