"""sliceforge: training and evaluation stack for binary classification of 2D
slice stacks, with subject-level cross-validation and leakage auditing."""

__version__ = "0.1.0"
