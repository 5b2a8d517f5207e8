"""Step benchmark for Hotline training (see README.md in this directory)."""
