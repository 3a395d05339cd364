"""Standalone benchmark of the REVMAX engine (see ``bench/README.md``)."""
