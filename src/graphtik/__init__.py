"""graphtik: graph-Laplacian discretization of 1D blurring operators and
generalized Tikhonov deblurring.

The toolkit builds a forward operator for a compact integral operator in
two ways (a lattice Schrodinger matrix whose inverse has an asymptotically
exact spectrum, and a box-function Galerkin projection), assembles penalty
operators including a graph Laplacian learned from the observed data, and
solves the regularized inversion over an oracle parameter sweep.
"""

from .discretization import (
    ContinuousProblem,
    DiscreteOperator,
    Grid,
    build_galerkin_operator,
    build_schrodinger_operator,
    continuous_eigenvalues,
    pseudo_inverse,
    toeplitz_stencil,
)
from .errors import GraphtikError
from .experiments import (
    ExperimentConfig,
    emit_figure_data,
    forward_matrix,
    run_cell,
    run_table,
)
from .graph_core import (
    DirichletSubsetSpec,
    PathTransform,
    alternating_inverse_square_transform,
    line_interior,
    m_path_dirichlet_laplacian,
    transformed_path_laplacian,
)
from .metrics import lsre, max_abs_error, msre, rre
from .penalty import (
    SimilarityParams,
    data_graph_laplacian,
    dirichlet_penalty,
    kernel_matched_penalty,
    neumann_penalty,
    similarity_weights,
)
from .problems import (
    EXAMPLES,
    NoiseModel,
    TEST_FUNCTIONS,
    TestFunction,
    add_noise,
    get_example,
    get_test_function,
    synthesize_data,
)
from .regularization import (
    AlphaGrid,
    RegularizedSolution,
    TikhonovPencil,
    TikhonovProblem,
    alpha_sweep,
    filter_solution,
    tikhonov_solve,
)
from .reporting import ExperimentReport, config_hash

__version__ = "0.1.0"
