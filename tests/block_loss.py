"""The contrastive loss of one block as a graph of separate ops.

This is the reference the fused alignment kernel and the batched stage-2
terms are checked against, independent of the masked kernel: the block's
similarity matrix, its row and column softmax at ``temperature``, and the KL
to the smoothed identity of its size.
"""

from navprompt.alignment import contrastive_loss, effective_smoothing, ground_truth_matrix, normalize, similarity_matrix


def composed_loss(text, visual, temperature, smoothing):
    """The contrastive loss of (M, d) ``text`` and ``visual`` rows."""
    s = similarity_matrix(text, visual)
    m = s.shape[0]
    gt = ground_truth_matrix(m, effective_smoothing(m, smoothing))
    return contrastive_loss(normalize(s, "rows", temperature), normalize(s, "cols", temperature), gt)
