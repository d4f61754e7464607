"""Distance-regular graph feasibility toolkit.

Library layout:

* drgf.core        -- intersection arrays, parsing, derived parameters
* drgf.spectral    -- eigenvalues of L and their multiplicities
* drgf.feasibility -- the battery of necessary conditions
* drgf.bound       -- the odd-girth smallest-eigenvalue bound machinery
* drgf.search      -- pruned enumeration and the diameter-4/5 classification
* drgf.oracle      -- explicit witness graphs and brute-force verification
* drgf.cli         -- the `drgf` command
"""

from .core import IntersectionArray, format_array, parse_array
from .feasibility import full_report
from .search import SearchSpec, classify_diameter, enumerate_arrays
from .spectral import eigenvalues, multiplicity, spectrum

__version__ = "0.1.0"

__all__ = [
    "IntersectionArray", "SearchSpec", "classify_diameter", "eigenvalues",
    "enumerate_arrays", "format_array", "full_report", "multiplicity",
    "parse_array", "spectrum", "__version__",
]
