"""Differentiable convolution and pooling primitives (NCHW layout).

Each primitive has two execution strategies selected by the active
backend (:mod:`repro.tensor.backend`):

- ``accelerated``: one whole-convolution BLAS gemm over an im2col
  column buffer that is *pooled*, not materialized fresh — the
  ``(rows, KH*KW*C)`` scratch comes from :func:`default_pool`, so its
  allocation cost (the classic im2col objection on CPU) is paid once
  and amortized across every subsequent conv of the same shape.
  Backward is one gemm for ``dw`` and one gemm plus a per-tap scatter
  for ``dx``; small column buffers (``_COLS_KEEP_BYTES``) ride along
  from forward to backward so ``dw`` skips the second fill pass.
- ``naive``: per-output-pixel loops — the reference implementation
  used as the "CPU" leg of the Figure 9 reproduction.

Both strategies compute identical values; tests assert this.

Each kernel wraps its hot section in a profiler op-span
(:func:`repro.obs.profiler.op_span`), so kernel-level time nests under
the owning module's span when a profiler is active; with no profiler
the wrapper is a shared no-op costing one global read.
"""

from __future__ import annotations

import numpy as np

from repro.obs.profiler import op_span
from repro.tensor.backend import ACCELERATED, get_backend
from repro.tensor.pool import default_pool
from repro.tensor.tensor import Tensor


def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


#: Column buffers at or below this size are kept alive from forward to
#: backward (dw reuses them instead of refilling).  Larger ones are
#: released immediately — im2col retention costs KH*KW times the
#: activation size, which defeats the graph-freeing memory budget on
#: wide convolutions.
_COLS_KEEP_BYTES = 1 << 20


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    activation: str | None = None,
) -> Tensor:
    """2D cross-correlation.

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_out, C_in, KH, KW)
    bias : optional Tensor of shape (C_out,)
    activation : ``"relu"`` fuses the bias-add + ReLU epilogue into
        this node — one graph node and one saved mask instead of a
        separate activation node holding a second activation-sized
        array.  Values and gradients match the composed
        ``conv2d(...).relu()`` bit for bit.
    """
    if activation not in (None, "relu"):
        raise ValueError(f"unsupported conv2d activation {activation!r}")
    n, c, h, w = x.shape
    f, c_w, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(
            f"input channels {c} do not match weight channels {c_w}"
        )
    oh = _conv_out_size(h, kh, stride, padding)
    ow = _conv_out_size(w, kw, stride, padding)
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"conv output would be empty for input {h}x{w}, kernel "
            f"{kh}x{kw}, stride {stride}, padding {padding}"
        )

    if padding:
        xp = default_pool().acquire(
            (n, c, h + 2 * padding, w + 2 * padding), x.data.dtype, zero=True
        )
        xp[:, :, padding:-padding, padding:-padding] = x.data
    else:
        xp = x.data
    accelerated = get_backend() == ACCELERATED

    def tap_slice(i: int, j: int) -> np.ndarray:
        """Input window feeding kernel tap (i, j): (N, C, OH, OW)."""
        return xp[
            :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
        ]

    k2 = kh * kw
    rows = n * oh * ow

    def fill_cols(cols: np.ndarray) -> None:
        """Lay the KH*KW tap windows side by side in ``cols`` —
        (N*OH*OW, KH*KW*C) gemm layout.  Written through a 4-D view so
        each tap is one strided copy, no intermediate materialization."""
        cols4 = cols.reshape(n, oh, ow, k2 * c)
        for i in range(kh):
            for j in range(kw):
                b = (i * kw + j) * c
                cols4[:, :, :, b : b + c] = tap_slice(i, j).transpose(
                    0, 2, 3, 1
                )

    saved_cols = None
    with op_span("ops_conv.conv2d") as _op:
        if accelerated:
            # One whole-convolution gemm over the pooled column buffer
            # (recycled every call, so this does not carry im2col's
            # allocation cost).
            pool = default_pool()
            w2 = weight.data.transpose(2, 3, 1, 0).reshape(k2 * c, f)
            cols = pool.acquire((rows, k2 * c), xp.dtype)
            fill_cols(cols)
            out = np.dot(cols, w2).reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
            if weight.requires_grad and cols.nbytes <= _COLS_KEEP_BYTES:
                # Small column buffers ride along to backward so dw
                # skips a second fill pass.  Never pooled again: a
                # retained graph may run backward twice, and a
                # recycled buffer would hand it someone else's data.
                saved_cols = cols
            else:
                pool.release(cols)
        else:
            out = np.empty((n, f, oh, ow), dtype=xp.dtype)
            w_flat = weight.data.reshape(f, -1)
            for i in range(oh):
                for j in range(ow):
                    patch = xp[
                        :, :, i * stride : i * stride + kh, j * stride : j * stride + kw
                    ].reshape(n, -1)
                    out[:, :, i, j] = patch @ w_flat.T

        if bias is not None:
            out = out + bias.data.reshape(1, f, 1, 1)
        if activation == "relu":
            # Same expression as Tensor.relu so fused == composed
            # bitwise; only the mask is saved, not a pre-activation
            # copy.
            relu_mask = out > 0
            out = out * relu_mask
        else:
            relu_mask = None
        _op.set_bytes(out.nbytes)

    def backward(grad):
        with op_span("ops_conv.conv2d.backward"):
            pool = default_pool()
            if relu_mask is not None:
                grad = grad * relu_mask
            if weight.requires_grad:
                if accelerated:
                    if saved_cols is not None:
                        cols = saved_cols
                    else:
                        cols = pool.acquire((rows, k2 * c), xp.dtype)
                        fill_cols(cols)
                    grad_fm = grad.transpose(1, 0, 2, 3).reshape(f, -1)
                    dw = np.ascontiguousarray(
                        np.dot(grad_fm, cols)
                        .reshape(f, kh, kw, c)
                        .transpose(0, 3, 1, 2)
                    )
                    if saved_cols is None:
                        pool.release(cols)
                else:
                    dw = pool.acquire(
                        weight.data.shape, weight.data.dtype, zero=True
                    )
                    w_rows = dw.reshape(f, -1)
                    for i in range(oh):
                        for j in range(ow):
                            patch = xp[
                                :,
                                :,
                                i * stride : i * stride + kh,
                                j * stride : j * stride + kw,
                            ].reshape(n, -1)
                            w_rows += grad[:, :, i, j].T @ patch
                weight._accumulate(dw, donate=True)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)), donate=True)
            if x.requires_grad:
                dxp = pool.acquire(xp.shape, xp.dtype, zero=True)
                if accelerated:
                    # One gemm produces every tap's contribution, then
                    # each column block scatters into its shifted
                    # window.
                    grad_cols = grad.transpose(0, 2, 3, 1).reshape(-1, f)
                    dcols4 = np.dot(grad_cols, w2.T).reshape(
                        n, oh, ow, k2 * c
                    )
                    for i in range(kh):
                        for j in range(kw):
                            b = (i * kw + j) * c
                            dxp[
                                :, :, i : i + stride * oh : stride,
                                j : j + stride * ow : stride,
                            ] += dcols4[:, :, :, b : b + c].transpose(
                                0, 3, 1, 2
                            )
                else:
                    grad_nhwf = grad.transpose(0, 2, 3, 1)
                    for i in range(kh):
                        for j in range(kw):
                            contrib = np.tensordot(
                                grad_nhwf, weight.data[:, :, i, j],
                                axes=([3], [0]),
                            )
                            dxp[
                                :, :, i : i + stride * oh : stride,
                                j : j + stride * ow : stride,
                            ] += contrib.transpose(0, 3, 1, 2)
                if padding:
                    x._accumulate(dxp[:, :, padding:-padding, padding:-padding])
                    pool.release(dxp)
                else:
                    x._accumulate(dxp, donate=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D transposed convolution (fractionally-strided convolution).

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_in, C_out, KH, KW)
    """
    n, c, h, w = x.shape
    c_w, f, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(
            f"input channels {c} do not match weight channels {c_w}"
        )
    oh = (h - 1) * stride + kh - 2 * padding
    ow = (w - 1) * stride + kw - 2 * padding
    if oh <= 0 or ow <= 0:
        raise ValueError("conv_transpose output would be empty")

    with op_span("ops_conv.conv_transpose2d") as _op:
        full = np.zeros(
            (n, f, (h - 1) * stride + kh, (w - 1) * stride + kw), dtype=x.data.dtype
        )
        for i in range(kh):
            for j in range(kw):
                # (N, H, W, F) contribution from kernel tap (i, j)
                contrib = np.tensordot(x.data, weight.data[:, :, i, j], axes=([1], [0]))
                full[:, :, i : i + stride * h : stride, j : j + stride * w : stride] += (
                    contrib.transpose(0, 3, 1, 2)
                )
        out = full[:, :, padding : padding + oh, padding : padding + ow]
        if bias is not None:
            out = out + bias.data.reshape(1, f, 1, 1)
        _op.set_bytes(out.nbytes)

    def backward(grad):
        with op_span("ops_conv.conv_transpose2d.backward"):
            pool = default_pool()
            gfull = pool.acquire(
                (n, f, (h - 1) * stride + kh, (w - 1) * stride + kw),
                grad.dtype,
                zero=True,
            )
            gfull[:, :, padding : padding + oh, padding : padding + ow] = grad
            if x.requires_grad:
                dx = pool.acquire(x.data.shape, x.data.dtype, zero=True)
                for i in range(kh):
                    for j in range(kw):
                        gslice = gfull[
                            :, :, i : i + stride * h : stride,
                            j : j + stride * w : stride,
                        ]
                        dx += np.tensordot(
                            gslice, weight.data[:, :, i, j], axes=([1], [1])
                        ).transpose(0, 3, 1, 2)
                x._accumulate(dx, donate=True)
            if weight.requires_grad:
                dw = pool.acquire(weight.data.shape, weight.data.dtype)
                for i in range(kh):
                    for j in range(kw):
                        gslice = gfull[
                            :, :, i : i + stride * h : stride,
                            j : j + stride * w : stride,
                        ]
                        dw[:, :, i, j] = np.tensordot(
                            x.data, gslice, axes=([0, 2, 3], [0, 2, 3])
                        )
                weight._accumulate(dw, donate=True)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)), donate=True)
            pool.release(gfull)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling.  Only non-overlapping pooling (stride == kernel) is
    supported, which covers every model in this library."""
    stride = kernel if stride is None else stride
    if stride != kernel:
        raise NotImplementedError("max_pool2d requires stride == kernel")
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial dims ({h}, {w}) must be divisible by kernel {kernel}"
        )
    oh, ow = h // kernel, w // kernel
    with op_span("ops_conv.max_pool2d") as _op:
        blocks = x.data.reshape(n, c, oh, kernel, ow, kernel)
        out = blocks.max(axis=(3, 5))
        _op.set_bytes(out.nbytes)

    def backward(grad):
        with op_span("ops_conv.max_pool2d.backward"):
            pool = default_pool()
            expanded = out[:, :, :, None, :, None]
            mask = pool.acquire(blocks.shape, np.bool_)
            np.equal(blocks, expanded, out=mask)
            counts = mask.sum(axis=(3, 5), keepdims=True)
            g = grad[:, :, :, None, :, None] * mask / counts
            x._accumulate(g.reshape(n, c, h, w))
            pool.release(mask)

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling with stride == kernel."""
    stride = kernel if stride is None else stride
    if stride != kernel:
        raise NotImplementedError("avg_pool2d requires stride == kernel")
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial dims ({h}, {w}) must be divisible by kernel {kernel}"
        )
    oh, ow = h // kernel, w // kernel
    with op_span("ops_conv.avg_pool2d") as _op:
        blocks = x.data.reshape(n, c, oh, kernel, ow, kernel)
        out = blocks.mean(axis=(3, 5))
        _op.set_bytes(out.nbytes)

    def backward(grad):
        with op_span("ops_conv.avg_pool2d.backward"):
            g = np.broadcast_to(
                grad[:, :, :, None, :, None] / (kernel * kernel),
                (n, c, oh, kernel, ow, kernel),
            )
            x._accumulate(g.reshape(n, c, h, w).copy(), donate=True)

    return Tensor._make(out, (x,), backward)


def upsample_nearest2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor."""
    n, c, h, w = x.shape
    with op_span("ops_conv.upsample_nearest2d") as _op:
        out = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)
        _op.set_bytes(out.nbytes)

    def backward(grad):
        with op_span("ops_conv.upsample_nearest2d.backward"):
            g = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
            x._accumulate(g, donate=True)

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dims: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))
