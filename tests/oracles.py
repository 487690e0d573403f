"""Reference computations that tests compare the package against.

None of these is on a run's path: the Ritz projection by a sparse direct
solve is the oracle of criterion 4 and of the stepper's initial level, the
figure of merit evaluated from the points is the oracle of the FFT-based
CBC search (criterion 8), and the dump reader checks the binary files that
``fracuq solve --dump-fields`` writes.
"""

import struct

import numpy as np
import scipy.sparse.linalg as spla

from fracuq.cli import DUMP_MAGIC
from fracuq.errors import ConfigurationError
from fracuq.fem import StiffnessAssembler
from fracuq.qmc import _effective_weights, classical_points, kernel_values


def ritz_projection(mesh, field, y, g, grad_g, assembler=None) -> np.ndarray:
    """Coefficients of the energy projection R_h g onto the interior P1 space."""
    if assembler is None:
        assembler = StiffnessAssembler(mesh, field)
    D = assembler.matrix(y)
    rhs = assembler.ritz_rhs(y, grad_g)
    return spla.spsolve(D.tocsc(), rhs)


def figure_of_merit(b, m, beta, p, gen, gammas) -> float:
    """Weighted worst-case figure of merit, evaluated directly from the points.

    E = (1/N) sum_{n=1}^{N-1} prod_c (1 + W_c psi(x_{n,c})), the n = 0 point
    being common to every rule.  Lower is better.
    """
    dim = len(gen)
    ps = classical_points(b, m, dim, p, gen)
    kern, _ = kernel_values(b, m, beta)
    w = _effective_weights(dim, beta, b, gammas)
    vals = kern[ps.mantissas[1:]]  # (N-1, dim)
    return float(np.sum(np.prod(1.0 + w[None, :] * vals, axis=1))) / ps.n_points


def read_field_dump(path) -> np.ndarray:
    """The (levels, dofs) array of a file written by ``cli.write_field_dump``."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != DUMP_MAGIC:
            raise ConfigurationError(f"{path} is not a coefficient dump")
        d, levels, _ = struct.unpack("<III", header[4:])
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if payload.size != d * levels:
        raise ConfigurationError(f"{path}: truncated payload")
    return payload.reshape(levels, d).copy()
