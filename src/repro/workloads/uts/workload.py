"""UTS as a task-pool workload (paper §5.2.2).

Every tree node is one task (Table 2: 48-byte tasks, ~110 ns average
"work" per node).  A node task hashes out its children — real SHA-1
evaluations, so the tree shape is genuine — and spawns one child task
per child node.  Payload layout (little-endian)::

    depth : u32
    flags : u32   (bit 0: is_root)
    state : 20 bytes (SHA-1 digest)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ...runtime.registry import TaskContext, TaskOutcome, TaskRegistry
from ...runtime.task import Task, make_task
from .tree import UtsParams, expander

_NODE = struct.Struct("<II20s")

#: Task record size used by the paper for UTS (Table 2).
PAPER_TASK_SIZE = 48

#: Average per-node task duration reported in Table 2 (0.00011 ms).
PAPER_NODE_TIME = 0.00011e-3

_ROOT_FLAG = 1


@dataclass(frozen=True)
class UtsWorkloadParams:
    """Execution-side knobs for the UTS workload."""

    node_time: float = PAPER_NODE_TIME   # seconds of compute per node
    per_child_time: float = 0.0          # extra compute per spawned child

    def __post_init__(self) -> None:
        if self.node_time < 0 or self.per_child_time < 0:
            raise ValueError("node times must be non-negative")


class UtsWorkload:
    """Registers the UTS node task and produces the root seed task."""

    def __init__(
        self,
        registry: TaskRegistry,
        tree: UtsParams,
        params: UtsWorkloadParams | None = None,
    ) -> None:
        self.tree = tree
        self.params = params or UtsWorkloadParams()
        self.registry = registry
        self.node_id = registry.register("uts.node", self._node)
        # Hot-loop hoists: _node runs once per tree node.
        self._node_time = self.params.node_time
        self._per_child = self.params.per_child_time
        self._children = expander(tree)

    def seed_task(self) -> Task:
        """The root node's task."""
        return Task(
            self.node_id, _NODE.pack(0, _ROOT_FLAG, self.tree.root())
        )

    def _node(self, payload: bytes, tc: TaskContext) -> TaskOutcome:
        depth, flags, state = _NODE.unpack(payload)
        children = self._children(state, depth, flags & _ROOT_FLAG)
        pack = _NODE.pack
        nid = self.node_id
        d1 = depth + 1
        # make_task: nid is a registry id and the payload a fixed-width
        # struct, so Task's range validation is statically satisfied.
        tasks = [make_task(nid, pack(d1, 0, c)) for c in children]
        duration = self._node_time + self._per_child * len(tasks)
        return TaskOutcome(duration=duration, children=tasks)
