"""End-to-end and per-layer benchmark of focalcurves (see README.md)."""
