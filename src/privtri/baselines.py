"""Trusted-server comparator: plain Laplace mechanism on the exact count."""

from .graph import Graph, exact_triangle_count


def central_lap(g: Graph, epsilon: float, rng) -> float:
    """Exact count plus Laplace(d_max / epsilon) noise.

    The trusted server sees the whole graph, so it uses the true maximum
    degree as the sensitivity; no projection, no sharing.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    t = exact_triangle_count(g)
    scale = g.d_max / epsilon
    noise = float(rng.laplace(0.0, scale)) if scale > 0 else 0.0
    return t + noise
