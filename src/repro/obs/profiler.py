"""Module/op-level training profiler (``torch.profiler`` analogue).

The :class:`Profiler` attaches forward pre/post hooks to every module
in a model tree (via :meth:`Module.named_modules`) and records each
forward call as a span on the process-wide :data:`repro.obs.tracer`,
nested under whatever span is open (``trainer.epoch``, a caller's
span) beside ``engine.query`` and ``dataloader.batch``.  Each span
carries ``kind`` (module / op / data), ``op_type`` and ``step``
attributes, and records

- **wall time** per module path: the span's ``elapsed_s``, and *self*
  time (:func:`self_time`: total minus its child module / kernel spans),
- **analytic FLOPs** (``flops``) from layer shapes (conv / linear /
  recurrent / normalization / activation formulas — each module is
  charged only for the math it computes itself, so summing spans never
  double counts a container and its children),
- **parameter bytes** (``param_bytes``: the module's own parameters,
  not recursive) and **activation bytes** (``activation_bytes``:
  output array sizes).

Kernel-level spans from :mod:`repro.tensor.ops_conv` and DataLoader
batch-fetch spans nest under the innermost open module span through
the module-level :func:`op_span` API.  That API is the only coupling
the tensor layer has to the profiler, and its disabled fast path is a
single global read plus a ``None`` check — no profiler active means
near-zero cost.  A recording profiler is silenced by the one switch
of the observability layer, :func:`repro.obs.set_enabled` /
:func:`repro.obs.disabled`, like every other record.

A :func:`schedule` (wait / warmup / active, optionally repeating)
gates recording per training step so steady-state steps are profiled
without warmup skew; :meth:`Trainer.fit(profiler=...)
<repro.core.training.trainer.Trainer.fit>` steps the profiler once
per batch.  Results are views of the recorded spans:
:meth:`Profiler.key_averages` (text table grouped by module path or op
type), :meth:`Profiler.total_flops`, and the Chrome Trace Event Format
export of the tracer tree, :func:`repro.obs.export.to_chrome_trace`.

>>> from repro.obs.profiler import Profiler, schedule
>>> prof = Profiler(model, schedule=schedule(wait=1, warmup=1, active=3))
>>> trainer.fit(loader, epochs=1, profiler=prof)
>>> print(prof.key_averages().table())
"""

from __future__ import annotations

#: Hard cap on the spans one profiler opens on the tracer (module,
#: kernel and data regions, warmup steps included).  Once reached,
#: further regions open no span and are counted in
#: :attr:`Profiler.dropped_events`, so a run without a schedule cannot
#: grow the span tree without bound.
MAX_EVENTS = 100_000


class ProfilerAction:
    """What the schedule asks for at one step."""

    NONE = "none"
    WARMUP = "warmup"
    RECORD = "record"


def schedule(*, wait: int = 0, warmup: int = 0, active: int = 1, repeat: int = 0):
    """Return a ``step -> action`` callable (torch.profiler style).

    Each cycle is ``wait`` idle steps, then ``warmup`` steps where
    hooks run but their spans are discarded, then ``active`` recorded
    steps.  ``repeat=0`` cycles forever; ``repeat=N`` stops after N
    cycles.
    """
    if active <= 0:
        raise ValueError("active must be positive")
    if wait < 0 or warmup < 0 or repeat < 0:
        raise ValueError("wait, warmup, and repeat must be non-negative")
    cycle = wait + warmup + active

    def fn(step: int) -> str:
        if repeat and step >= cycle * repeat:
            return ProfilerAction.NONE
        position = step % cycle
        if position < wait:
            return ProfilerAction.NONE
        if position < wait + warmup:
            return ProfilerAction.WARMUP
        return ProfilerAction.RECORD

    return fn


# ----------------------------------------------------------------------
# Analytic FLOPs, keyed by module class name so the profiler never has
# to import repro.nn (which would be circular: nn -> tensor -> here).
# Each formula counts only the module's *own* math — gate transforms
# inside recurrent cells are charged to the child Linear/Conv2d module
# whose hook fires separately.
# ----------------------------------------------------------------------

def _numel(tensor) -> int:
    data = getattr(tensor, "data", tensor)
    return int(getattr(data, "size", 0))


def _flops_linear(module, args, output):
    x = args[0]
    batch = _numel(x) // max(int(x.shape[-1]), 1)
    flops = 2.0 * batch * module.in_features * module.out_features
    if module.bias is not None:
        flops += batch * module.out_features
    return flops


def _flops_conv2d(module, args, output):
    n, f, oh, ow = output.shape
    flops = 2.0 * n * f * oh * ow * module.in_channels * module.kernel_size**2
    if module.bias is not None:
        flops += float(n * f * oh * ow)
    return flops


def _flops_conv_transpose2d(module, args, output):
    x = args[0]
    n, c, h, w = x.shape
    flops = 2.0 * n * c * h * w * module.out_channels * module.kernel_size**2
    if module.bias is not None:
        flops += float(_numel(output))
    return flops


def _flops_lstm_cell(module, args, output):
    # Elementwise gate combination only; the (I+H) x 4H affine map is
    # the child ``gates`` Linear.
    x = args[0]
    return 9.0 * x.shape[0] * module.hidden_size


def _flops_conv_lstm_cell(module, args, output):
    x = args[0]
    n, _, h, w = x.shape
    return 9.0 * n * module.hidden_channels * h * w


def _flops_per_output(multiplier: float):
    def fn(module, args, output):
        return multiplier * _numel(output)

    return fn


def _flops_pool(module, args, output):
    return float(module.kernel_size * module.kernel_size) * _numel(output)


FLOP_FORMULAS = {
    "Linear": _flops_linear,
    "Conv2d": _flops_conv2d,
    "ConvTranspose2d": _flops_conv_transpose2d,
    "LSTMCell": _flops_lstm_cell,
    "ConvLSTMCell": _flops_conv_lstm_cell,
    "MaxPool2d": _flops_pool,
    "AvgPool2d": _flops_pool,
    "GlobalAvgPool2d": _flops_per_output(1.0),
    "BatchNorm2d": _flops_per_output(5.0),
    "LayerNorm": _flops_per_output(8.0),
    "ReLU": _flops_per_output(1.0),
    "LeakyReLU": _flops_per_output(2.0),
    "Sigmoid": _flops_per_output(4.0),
    "Tanh": _flops_per_output(4.0),
    "Softmax": _flops_per_output(5.0),
    "Dropout": _flops_per_output(1.0),
}


def flops_of(module, args, output) -> float:
    """Analytic FLOPs for one forward call; 0.0 for containers and
    unknown layer types.  Never raises — a formula failure (unexpected
    shapes) degrades to 0 rather than breaking training."""
    formula = FLOP_FORMULAS.get(type(module).__name__)
    if formula is None:
        return 0.0
    try:
        return float(formula(module, args, output))
    except Exception:
        return 0.0


def activation_bytes(output) -> int:
    """Recursive byte size of a forward output (tensor, or nested
    tuple/list/dict of tensors)."""
    if isinstance(output, (tuple, list)):
        return sum(activation_bytes(item) for item in output)
    if isinstance(output, dict):
        return sum(activation_bytes(item) for item in output.values())
    data = getattr(output, "data", output)
    return int(getattr(data, "nbytes", 0))


# ----------------------------------------------------------------------
# The op-span API: tensor kernels and the DataLoader call
# ``op_span(name)`` around their hot section.  With no profiler active
# (or recording off) this returns a shared no-op context manager.
# ----------------------------------------------------------------------

_ACTIVE: "Profiler | None" = None


class _NullOpSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set_bytes(self, nbytes):
        pass


_NULL_OP_SPAN = _NullOpSpan()


class _OpSpan:
    """Context manager recording one kernel/data span into the active
    profiler, nested under the innermost open span."""

    __slots__ = ("_profiler", "_span", "_bytes")

    def __init__(self, profiler: "Profiler", name: str, kind: str):
        self._profiler = profiler
        self._span = profiler._open(name, kind, name)
        self._bytes = 0

    def set_bytes(self, nbytes: int) -> None:
        self._bytes = int(nbytes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._span is not None:
            self._profiler._close(self._span, 0.0, 0, self._bytes)
        return False


def op_span(name: str, kind: str = "op"):
    """Time one kernel-level region under the active profiler.

    Usage: ``with op_span("ops_conv.conv2d") as op: ...``; the region
    is a tracer span nested under whichever span (usually a module
    forward) is currently open.  Returns a shared no-op when no
    profiler is recording.
    """
    profiler = _ACTIVE
    if profiler is None or not profiler._recording:
        return _NULL_OP_SPAN
    return _OpSpan(profiler, name, kind)


def active_profiler() -> "Profiler | None":
    """The profiler currently installed by :meth:`Profiler.start`."""
    return _ACTIVE


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def self_time(span) -> float:
    """A profiler span's wall seconds minus those of its
    profiler-recorded children (module, kernel and data spans)."""
    return span.elapsed_s - sum(
        child.elapsed_s for child in span.children if "kind" in child.attrs
    )


class KeyAverages:
    """Aggregated view over profiler spans; iterable list of row
    dicts plus a formatted text table."""

    def __init__(self, rows: list[dict], group_by: str):
        self.rows = rows
        self.group_by = group_by

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    @property
    def total_flops(self) -> float:
        return sum(row["flops"] for row in self.rows)

    @property
    def total_param_bytes(self) -> int:
        return sum(row["param_bytes"] for row in self.rows)

    def as_dicts(self) -> list[dict]:
        return [dict(row) for row in self.rows]

    def table(self, sort_by: str = "self_time", row_limit: int | None = None) -> str:
        """Render as a fixed-width text table.

        ``sort_by``: ``self_time`` | ``total_time`` | ``flops`` |
        ``name`` (name sort is fully deterministic — what the golden
        test pins).
        """
        key_fns = {
            "self_time": lambda r: (-r["self_s"], r["name"]),
            "total_time": lambda r: (-r["total_s"], r["name"]),
            "flops": lambda r: (-r["flops"], r["name"]),
            "name": lambda r: r["name"],
        }
        if sort_by not in key_fns:
            raise ValueError(
                f"sort_by must be one of {sorted(key_fns)}, got {sort_by!r}"
            )
        rows = sorted(self.rows, key=key_fns[sort_by])
        if row_limit is not None:
            rows = rows[:row_limit]
        header = (
            f"{'name':<34s} {'type':<22s} {'calls':>6s} {'total_ms':>10s} "
            f"{'self_ms':>10s} {'flops':>14s} {'param_B':>10s} {'act_B':>12s}"
        )
        rule = "-" * len(header)
        lines = [rule, header, rule]
        for row in rows:
            name = row["name"]
            if len(name) > 34:
                name = "…" + name[-33:]
            op_type = row["op_type"]
            if len(op_type) > 22:
                op_type = "…" + op_type[-21:]
            lines.append(
                f"{name:<34s} {op_type:<22s} {row['calls']:>6d} "
                f"{row['total_s'] * 1e3:>10.3f} {row['self_s'] * 1e3:>10.3f} "
                f"{int(row['flops']):>14d} {row['param_bytes']:>10d} "
                f"{row['activation_bytes']:>12d}"
            )
        lines.append(rule)
        lines.append(
            f"total FLOPs {int(self.total_flops)} · "
            f"param bytes {self.total_param_bytes} · rows {len(rows)}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The profiler
# ----------------------------------------------------------------------

class Profiler:
    """Hierarchical module/op profiler recording tracer spans.

    Parameters
    ----------
    model:
        The module tree to hook.  May be ``None`` at construction and
        supplied later (``Trainer.fit`` fills it in from its model).
    schedule:
        Optional ``step -> action`` callable from :func:`schedule`.
        Without one, every step is recorded.

    ``spans`` holds the finished spans of recorded steps, in
    completion order; they also sit in the tracer's tree.  At most
    :data:`MAX_EVENTS` spans are opened per profiler; regions past the
    cap are counted in ``dropped_events``.
    """

    def __init__(self, model=None, schedule=None):
        self.model = model
        self.schedule = schedule
        self.spans: list = []
        self.dropped_events = 0
        self.step_num = 0
        self._handles: list = []
        self._tracer = None
        self._opened = 0
        self._recording = False
        self._action = ProfilerAction.NONE
        self._warmup_mark = 0
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "Profiler":
        global _ACTIVE
        if self._started:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another Profiler is already active")
        from repro import obs

        self._tracer = obs.tracer
        _ACTIVE = self
        self._started = True
        if self.model is not None:
            self._attach(self.model)
        self._apply_schedule()
        return self

    def stop(self) -> None:
        global _ACTIVE
        if not self._started:
            return
        for handle in self._handles:
            handle.remove()
        self._handles.clear()
        # A forward that raised never ran its post hooks; end the module
        # spans it left open so later spans do not nest under them.
        tracer = self._tracer
        span = tracer.current
        while span is not None and span.attrs.get("kind") == "module":
            tracer.end_span(span)
            span = tracer.current
        self._recording = False
        self._started = False
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def step(self) -> None:
        """Advance to the next training step (call once per batch)."""
        self.step_num += 1
        self._apply_schedule()

    def _apply_schedule(self) -> None:
        action = (
            ProfilerAction.RECORD if self.schedule is None
            else self.schedule(self.step_num)
        )
        if action == ProfilerAction.WARMUP and self._action != ProfilerAction.WARMUP:
            self._warmup_mark = len(self.spans)
        if self._action == ProfilerAction.WARMUP and action == ProfilerAction.RECORD:
            # Warmup spans existed only to stabilize timing; drop them.
            del self.spans[self._warmup_mark:]
        self._action = action
        self._recording = action in (ProfilerAction.WARMUP, ProfilerAction.RECORD)

    # -- hooks ----------------------------------------------------------
    def _attach(self, model) -> None:
        root_name = type(model).__name__
        for path, module in model.named_modules():
            label = f"{root_name}.{path}" if path else root_name
            pre_hook, post_hook = self._make_hooks(label)
            self._handles.append(module.register_forward_pre_hook(pre_hook))
            self._handles.append(module.register_forward_hook(post_hook))

    def _make_hooks(self, label: str):
        def pre_hook(module, args):
            if self._recording:
                self._open(label, "module", type(module).__name__)

        def post_hook(module, args, output):
            if not self._recording:
                return
            # The module's span is the innermost open one unless a
            # child forward raised (and was caught) inside it: end
            # those orphans first.  A module whose pre hook opened no
            # span (cap reached, layer off) finds no match.
            tracer = self._tracer
            span = tracer.current
            orphans = []
            while span is not None and span.attrs.get("kind") == "module":
                if span.name == label:
                    break
                orphans.append(span)
                span = span.parent
            else:
                return
            for orphan in orphans:
                tracer.end_span(orphan)
            self._close(
                span,
                flops_of(module, args, output),
                sum(p.data.nbytes for p in module._parameters.values()),
                activation_bytes(output),
            )

        return pre_hook, post_hook

    # -- spans ----------------------------------------------------------
    def _open(self, name: str, kind: str, op_type: str):
        """Open a profiler span under the calling thread's current
        span; ``None`` when the layer is off or the cap is reached."""
        tracer = self._tracer
        if not tracer.enabled:
            return None
        if self._opened >= MAX_EVENTS:
            self.dropped_events += 1
            return None
        self._opened += 1
        span = tracer.start_span(name)
        attrs = span.attrs
        attrs["kind"] = kind
        attrs["op_type"] = op_type
        attrs["step"] = self.step_num
        return span

    def _close(self, span, flops: float, param_bytes: int, act_bytes: int) -> None:
        self._tracer.end_span(span)
        attrs = span.attrs
        attrs["flops"] = flops
        attrs["param_bytes"] = param_bytes
        attrs["activation_bytes"] = act_bytes
        self.spans.append(span)

    # -- results --------------------------------------------------------
    def key_averages(self, group_by: str = "module") -> KeyAverages:
        """Aggregate recorded spans by ``module`` path or ``op_type``.

        Parameter bytes are de-duplicated per module path (calling a
        layer N times does not multiply its weights), then summed
        across the paths a group covers.
        """
        if group_by not in ("module", "op_type"):
            raise ValueError(
                f"group_by must be 'module' or 'op_type', got {group_by!r}"
            )
        groups: dict[str, dict] = {}
        group_params: dict[str, dict] = {}  # key -> {module path: bytes}
        for span in self.spans:
            attrs = span.attrs
            key = span.name if group_by == "module" else attrs["op_type"]
            row = groups.get(key)
            if row is None:
                row = groups[key] = {
                    "name": key,
                    "op_type": attrs["op_type"],
                    "calls": 0,
                    "total_s": 0.0,
                    "self_s": 0.0,
                    "flops": 0.0,
                    "param_bytes": 0,
                    "activation_bytes": 0,
                }
                group_params[key] = {}
            row["calls"] += 1
            row["total_s"] += span.elapsed_s
            row["self_s"] += self_time(span)
            row["flops"] += attrs["flops"]
            row["activation_bytes"] += attrs["activation_bytes"]
            params = group_params[key]
            params[span.name] = max(params.get(span.name, 0), attrs["param_bytes"])
        for key, row in groups.items():
            row["param_bytes"] = sum(group_params[key].values())
        return KeyAverages(list(groups.values()), group_by)

    def total_flops(self) -> float:
        """Sum of per-module analytic FLOPs over all recorded spans."""
        return sum(
            span.attrs["flops"] for span in self.spans
            if span.attrs["kind"] == "module"
        )
