"""Error taxonomy shared by every module.

Three failure kinds are kept apart so callers (and the command line tool)
can map them to distinct outcomes: bad input, a request past a brute-force
or search limit, and oracle answers that contradict the promised class.
"""


class ValidationError(ValueError):
    """Malformed or out-of-contract input: bad indices, bad factor chains,

    mismatched sizes, unknown method names, and similar caller mistakes.
    """


class CapabilityError(RuntimeError):
    """The request is well formed but exceeds a capability,

    e.g. a permutation brute force past the relabeling budget
    (``algebra.RELABELING_BUDGET``), a search past its candidate budget, or a
    field with no shipped polynomial. The message names the limit that was hit.
    """


class NotInClassError(RuntimeError):
    """Oracle answers are inconsistent with the structure class a recovery

    algorithm was promised (a power chain that never closes, colliding
    coset products, a "max" answer outside the queried pair, ...).
    """
