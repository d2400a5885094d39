"""Two-boundary Hecke algebra combinatorics and seminormal representations.

Subpackages by responsibility:

* :mod:`tbh.scalars`, :mod:`tbh.matrices`: "p/q" serialization of
  rationals, column-sparse exact operators, exact ranks, dense matrices.
* :mod:`tbh.params`, :mod:`tbh.partitions`: rectangle parameters,
  partitions, contents, tableaux.
* :mod:`tbh.bratteli`: the ranked diagram of the centralizer tower.
* :mod:`tbh.algebra`: relation catalogs as data, sparse word evaluation.
* :mod:`tbh.seminormal`: explicit matrix modules, entry criteria,
  relation suites, simplicity certificates.
* :mod:`tbh.oracle`: brute-force gl_n tensor-space cross-checks.
* :mod:`tbh.cli`: the ``tbh`` command.
"""

from .params import HeckeParams

__all__ = ["HeckeParams"]
__version__ = "0.1.0"
