"""The repository's one end-to-end benchmark (see README.md here)."""
