"""ASCII renderers for the paper's figures."""
