"""One pass at a time of a bubble search, for tests that set leaf states,
parent costs or a selection between the passes.

The passes of :func:`repro.backend.spinal_passes` run a whole search as
one call, ``search``.  These helpers bind a received view as ``search``
binds it and run single passes over it: on the compiled passes through
the kernel module's ``spinal_expand``, ``spinal_score`` and
``spinal_gather`` on the passes' own struct (where C's refusal, -1, raises
``ValueError``), and on ``_NumpyPasses`` through their private steps.
"""

from repro.backend import ckernels


def bind(passes, view):
    """Check ``view`` and bind it to ``passes``, one leaf a message at the
    root state and cost 0, as ``search`` starts a search."""
    planes = ckernels._check_planes(view, passes._n_msgs, passes._is_bsc,
                                    passes._has_csi)
    passes.states[:passes._n_msgs] = passes._s0
    passes.costs[:passes._n_msgs] = 0.0
    passes._bind(*planes)


def set_leaves(passes, n_leaves):
    """Make the bound search's next pass read ``n_leaves`` leaves a
    message from ``states`` and ``costs``."""
    if isinstance(passes, ckernels.SpinalPasses):
        passes._ctx.n_leaves = n_leaves
    else:
        passes._n_leaves = n_leaves


def step(passes, name, *args):
    """Run pass ``name`` (``expand`` or ``score`` with a spine position,
    ``gather`` with none) on ``passes``."""
    if isinstance(passes, ckernels.SpinalPasses):
        lib = ckernels.load().lib
        if getattr(lib, f"spinal_{name}")(passes._ctx, *args):
            raise ValueError(f"spinal_{name} refused {args}")
    else:
        getattr(passes, f"_{name}")(*args)
