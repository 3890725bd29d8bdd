"""Semantic-ID engineering toolkit: residual-quantization codebooks, SID
assignment and rendering, quality diagnostics, conversational corpus export,
and trie-constrained next-item evaluation.

The package namespace holds only `__version__`; import from the submodules
(`sidforge.rq`, `sidforge.synthgen`, ...), so loading one does not load the
rest."""

__version__ = "0.1.0"
