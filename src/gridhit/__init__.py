"""Online hitting sets for fat objects on the integer grid.

The ground set is the integer points of an open cube (0, N)^d.  An
adversary reveals open fat objects one at a time and a hitting set must
be maintained with irrevocable choices.  This package ships:

* ``geometry``  -- dyadic point levels, shapes, exact predicates;
* ``engine``    -- the online algorithm (add all maximum-level points);
* ``adversary`` -- the nested-dilation game that forces any opponent;
* ``oracle``    -- exact offline optimum (branch and bound);
* ``harness``   -- generation, runs, sweeps; ``cli`` -- the command line.
"""

from gridhit.adversary import (
    GameState,
    GameSummary,
    find_empty_subcube,
    initial_object,
    new_game,
    next_object,
)
from gridhit.engine import Added, AlreadyHit, Decision, EngineState
from gridhit.errors import (
    EmptyObjectError,
    FatnessViolation,
    GridBoundsError,
    GridHitError,
    InstanceFormatError,
    InvariantViolation,
    ProtocolError,
)
from gridhit.exactnum import Scalar, SqrtExt, sqrt_exact
from gridhit.formats import InstanceFile, read_instance, write_instance
from gridhit.geometry import (
    Ball,
    Box,
    Cube,
    FatObject,
    GridSpec,
    contains,
    grid_points_in,
    in_width,
    int_level,
    object_level,
    out_width,
    point_level,
    points_of_level,
)
from gridhit.harness import Report, gen_random, run_adversary, run_online
from gridhit.oracle import (
    HittingSetResult,
    ReducedInstance,
    exact_min_hitting_set,
    greedy_hitting_set,
    reduce_instance,
    verify_hitting_set,
)

__version__ = "0.1.0"
