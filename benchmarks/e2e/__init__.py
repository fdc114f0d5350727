"""End-to-end benchmark of the repository: see README.md in this directory."""
