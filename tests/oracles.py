"""Reference forwards that tests compare the library against."""

from enecg import autodiff as ad


def frozen_layer_forward(layer, x):
    """A LoRA layer with its low-rank update term dropped: x @ w0.T + bias."""
    return ad.add(ad.matmul(x, ad.transpose(layer.w0)), layer.bias)


def head_forward_frozen(head, features):
    """A head with every low-rank update dropped (frozen-base behavior)."""
    h = features
    for i, layer in enumerate(head.layers):
        h = frozen_layer_forward(layer, h)
        if i + 1 < len(head.layers):
            h = ad.relu(h)
    return h
