"""htnsat: a SAT-guided totally-ordered HTN planner.

The planner grows a layered decomposition grid one expansion at a time,
asking an incremental SAT session two questions per round: is there a
fully primitive, executable, goal-reaching decomposition already (the
solution query), and if not, which frontier, with undeveloped abstract
tasks treated as tentative actions, still looks like it could reach the
goal (the relaxed query). The relaxed answer picks what to develop next.
"""

__version__ = "0.1.0"

from .model import (
    ACTION,
    ABSTRACT,
    Action,
    AbstractTask,
    DecompositionTree,
    DtNode,
    Fact,
    Method,
    ModelError,
    Problem,
    TaskRef,
)

__all__ = [
    "ACTION",
    "ABSTRACT",
    "Action",
    "AbstractTask",
    "DecompositionTree",
    "DtNode",
    "Fact",
    "Method",
    "ModelError",
    "Problem",
    "TaskRef",
    "__version__",
]
