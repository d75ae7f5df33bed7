"""End-to-end benchmark of the reproduction: see ``bench/README.md``."""
