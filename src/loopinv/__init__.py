"""Exact involution eigenspaces of circle-equivariant free loop space
cohomology, with stable pseudoisotopy and A-theory dimension tables.

The package exports what the README's Library section and the CLI's
loop and Borel spaces use (its base space is the parsed model itself);
everything else is imported from its submodule."""

__version__ = "0.1.0"

from .cohomology import eigen_table
from .curvature import KernelBoundInputs, enumerate_pairs, kernel_lower_bound
from .models import borel_model, loop_model, parse_model
from .pseudoisotopy import pseudoisotopy_table

__all__ = [
    "KernelBoundInputs",
    "borel_model",
    "eigen_table",
    "enumerate_pairs",
    "kernel_lower_bound",
    "loop_model",
    "parse_model",
    "pseudoisotopy_table",
]
