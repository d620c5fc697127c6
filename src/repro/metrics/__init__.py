"""Privacy and utility quantification (Section IV of the paper)."""
