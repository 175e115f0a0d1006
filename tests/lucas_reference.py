"""Reference Lucas sequences for the trace tests: the (U, V) doubling
ladder over the bits of n, which carries U_n and Q^k alongside V_n.
weilsets._lucas_v walks V alone over a Lucas chain; this is the
independent path to its values, and is used only as the oracle that the
chain is compared against."""


def reference_lucas(P: int, Q: int, n: int) -> tuple[int, int]:
    """(U_n, V_n) of the Lucas sequences of X^2 - P*X + Q: U_2k = U_k*V_k,
    V_2k = V_k^2 - 2*Q^k, and U_k+1 = (P*U_k + V_k)/2, V_k+1 = (D*U_k +
    P*V_k)/2 with D = P^2 - 4Q."""
    D = P * P - 4 * Q
    u, v, qk = 0, 2, 1
    for bit in bin(n)[2:]:
        u, v, qk = u * v, v * v - 2 * qk, qk * qk
        if bit == "1":
            u, v, qk = (P * u + v) // 2, (D * u + P * v) // 2, qk * Q
    return u, v
