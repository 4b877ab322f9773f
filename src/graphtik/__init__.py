"""graphtik: graph-Laplacian discretization of 1D blurring operators and
generalized Tikhonov deblurring.

The toolkit builds a forward operator for a compact integral operator in
two ways (a lattice Schrodinger matrix whose inverse has an asymptotically
exact spectrum, and a box-function Galerkin projection), assembles penalty
operators including a graph Laplacian learned from the observed data, and
solves the regularized inversion over an oracle parameter sweep.

The package binds no names itself; import each from the module that
defines it, one module per layer:

- ``discretization``: grids, the lattice operator and its stencil, the
  pseudoinverse, the Galerkin matrix and the even/odd split.
- ``graph_core``: m-path Dirichlet Laplacians of node sets on the integer
  line.
- ``problems``: the two benchmark examples, the four test functions, data
  synthesis and seeded noise.
- ``penalty``: the Dirichlet and Neumann penalties, the data graph
  Laplacian and its kernel-matched variant.
- ``regularization``: the Tikhonov pencil, the direct solves and the oracle
  sweep over the alpha grid.
- ``metrics``: spectral and restoration errors.
- ``experiments``: the cell config, the discrete and continuous spectra,
  the catalogue of tables and figures and the runners that read it.
- ``reporting``: report records and their CSV and JSON output.
- ``cli``: the ``graphtik`` command line.
- ``errors``: the exception hierarchy and the input rules.

A leading underscore marks a name as private to its module.
"""
