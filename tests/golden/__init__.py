"""Golden-results corpus: exact simulator outputs pinned in ``corpus.json``."""
