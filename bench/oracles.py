"""Closed forms the sgk method must reproduce, written without importing sgk.

Every function here is plain numpy. The benchmark compares the command
line's outputs against them; each tolerance is built from the error order
of the numerical route sgk takes (RK4 is O(h^4), central differences are
O(h_fd^2) at sgk's default step, the plaquette curvature is Richardson
combined and limited by roundoff in the loop angle over h_fd^2).
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps
# sgk's default finite-difference step is FD_STEP_SCALE * max(1, |m|).
FD_STEP_SCALE = 1e-4
SAFETY = 10.0


def fd_step(m_norm_max: float) -> float:
    """Largest default central-difference step sgk takes along a path."""
    return FD_STEP_SCALE * max(1.0, m_norm_max)


# ---------------------------------------------------------------------------
# Zeeman d=3 in a static quadratic field: energy conservation and the path


def poly_field(f0, G, Q, r):
    """B(r) = f0 + G r + 1/2 Q_ijk r_j r_k for r of shape (..., 3)."""
    Qs = 0.5 * (Q + np.swapaxes(Q, 1, 2))
    return (f0 + r @ G.T + 0.5 * np.einsum("ijk,...j,...k->...i", Qs, r, r))


def zeeman_energy(p, r, band, f0, G, Q, chi, m_star, hbar):
    """Band energy p^2/2m* -+ hbar chi |B(r)| along rows of p and r."""
    sign = 1.0 if band == 1 else -1.0
    b = np.linalg.norm(poly_field(f0, G, Q, r), axis=-1)
    return np.sum(p * p, axis=-1) / (2.0 * m_star) + sign * hbar * chi * b


def zeeman_rhs(y, band, f0, G, Q, chi, m_star, hbar):
    """(pdot, rdot) of the exact velocity system for a static Zeeman field.

    The coupling depends on r only, so the only curvature block is
    F_rr = -S b.(J_i x J_j)/|b|^3 with b = chi B and J = chi dB/dr, and the
    system reduces to rdot = p/m*, pdot = -dE/dr + hbar F_rr rdot.
    """
    sign = 1.0 if band == 1 else -1.0
    p, r = y[:3], y[3:]
    Qs = 0.5 * (Q + np.swapaxes(Q, 1, 2))
    b = chi * poly_field(f0, G, Q, r)
    J = chi * (G + Qs @ r)
    nb = float(np.linalg.norm(b))
    rdot = p / m_star
    grad_r = sign * hbar * (b @ J) / nb
    F_rr = -0.5 * sign * np.einsum("k,kij->ij", b,
                                   np.cross(J.T[:, None, :], J.T[None, :, :])
                                   .transpose(2, 0, 1)) / nb**3
    return np.concatenate([-grad_r + hbar * F_rr @ rdot, rdot])


def zeeman_path(y0, t, **params):
    """RK4 path of zeeman_rhs through the given times, one row per time."""
    ys = [np.asarray(y0, dtype=float)]
    for h in np.diff(t):
        y = ys[-1]
        k1 = zeeman_rhs(y, **params)
        k2 = zeeman_rhs(y + 0.5 * h * k1, **params)
        k3 = zeeman_rhs(y + 0.5 * h * k2, **params)
        k4 = zeeman_rhs(y + h * k3, **params)
        ys.append(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(ys)


def zeeman_tolerances(*, duration, step, p, r, t, f0, G, Q, chi, m_star,
                      hbar, path_speed):
    """Bounds on the energy drift of sgk's RK4 path and on its distance from zeeman_path.

    RK4's global error is O(h^4): at most T L (h L)^4 |grad E| with L the
    Lipschitz rate of the flow, bounded by the Hessian of E. sgk
    differentiates E by central differences: exact in p (E is quadratic
    there), O(h_fd^2)/6 times the third r-derivative of chi|B| in r, plus
    the roundoff 4 eps |E| / h_fd of the difference. The third derivative
    of |B| for quadratic B is bounded by 3 g1 g2 / |B| + 3 g1^3 / |B|^2,
    with g1 the largest |dB/dr| on the path and g2 the norm of Q.
    The energy drifts at |rdot| times the gradient error, plus RK4's own
    error. zeeman_path takes the same steps, so only the gradient error
    separates the two paths, grown by at most exp(L T).
    """
    Qs = 0.5 * (Q + np.swapaxes(Q, 1, 2))
    r_max = float(np.max(np.linalg.norm(r, axis=-1)))
    g2 = float(np.linalg.norm(Qs.reshape(3, -1), ord=2))
    g1 = float(np.linalg.norm(G, ord=2)) + g2 * r_max
    b_min = float(np.min(np.linalg.norm(poly_field(f0, G, Q, r), axis=-1)))
    third = 3.0 * g1 * g2 / b_min + 3.0 * g1**3 / b_min**2
    m_norm = float(np.max(np.sqrt(np.sum(p * p, -1) + np.sum(r * r, -1)
                                  + t * t)))
    h_fd = fd_step(m_norm)
    e_scale = float(np.max(np.abs(zeeman_energy(p, r, 1, f0, G, Q, chi,
                                                m_star, hbar))))
    dgrad = hbar * chi * third * h_fd**2 / 6.0 + 4.0 * EPS * e_scale / h_fd
    lip = 1.0 / m_star + hbar * chi * (g2 + g1 * g1 / b_min)
    grad = float(np.max(np.linalg.norm(p, axis=-1))) / m_star \
        + hbar * chi * g1
    rk_term = duration * lip * (step * lip) ** 4 * grad
    y_scale = float(np.max(np.abs(np.concatenate([p, r], axis=1))))
    return {
        "energy_drift": SAFETY * (duration * path_speed * dgrad + rk_term)
        + 64.0 * EPS * e_scale,
        "path": SAFETY * duration * math.exp(lip * duration) * dgrad
        + 64.0 * EPS * (duration / step) * max(1.0, y_scale),
    }


# ---------------------------------------------------------------------------
# Zeeman in a rotating field, at rest, over one period


def rotating_phases(band, magnitude, polar_angle, omega, chi, duration):
    """(berry, dynamic) after one period, band 1 upper sign.

    Berry phase -+ pi (1 - cos theta): the solid angle swept by the field
    direction, times the spin charge. Dynamic phase -+ chi |B| T: the band
    energy at rest, hbar chi |B|, over hbar.
    """
    sign = 1.0 if band == 1 else -1.0
    berry = -sign * math.pi * (1.0 - math.cos(polar_angle))
    dynamic = -sign * chi * magnitude * duration
    return berry, dynamic


def berry_tolerance(berry, omega, m_norm_max, steps):
    """Central-difference connection error (omega h_fd)^2 / 6, relative.

    At rest the connection along t is constant, so the trapezoid sum is
    exact and the O(h_fd^2) stencil error is all that is left.
    """
    h_fd = fd_step(m_norm_max)
    return SAFETY * abs(berry) * (omega * h_fd) ** 2 / 6.0 \
        + 64.0 * EPS * steps * max(1.0, abs(berry))


def dynamic_tolerance(dynamic, steps):
    """Trapezoid sum of a constant: roundoff only."""
    return 64.0 * EPS * steps * max(1.0, abs(dynamic))


# ---------------------------------------------------------------------------
# Rashba gas: batched RK4 of the closed-form velocities


def transverse_axis(e_inplane):
    """In-plane unit vector e_z x E / |E|."""
    ex, ey = e_inplane
    n = math.hypot(ex, ey)
    return np.array([-ey / n, ex / n])


def rashba_velocity(p, band_sign, *, b_z, e_inplane, chi, rho, m_star,
                    hbar, e_charge, c_light):
    """(pdot, rdot) of each row from the exact 4x4 velocity system.

    p has shape (N, 2) and band_sign shape (N,) with +1 for the upper
    band. The only curvature is F_p1p2 = -S chi rho^2 B / |H1|^3 with
    S = band_sign / 2, and grad_p E = p/m* + band_sign hbar rho^2 p / |H1|.
    The system is pdot - (e/c) (rdot x B) = e E and
    rdot + hbar F_pp pdot = grad_p E.
    """
    n = p.shape[0]
    h1 = np.hypot(rho * np.hypot(p[:, 0], p[:, 1]), chi * b_z)
    f = -0.5 * band_sign * chi * rho**2 * b_z / h1**3
    grad = p / m_star + (band_sign * hbar * rho**2 / h1)[:, None] * p
    M = np.zeros((n, 4, 4))
    M[:, 0, 0] = M[:, 1, 1] = M[:, 2, 2] = M[:, 3, 3] = 1.0
    k = e_charge / c_light * b_z
    # rows 0-1: pdot - (e/c) X_B rdot with X_B v = v x B e_z
    M[:, 0, 3] = -k
    M[:, 1, 2] = +k
    # rows 2-3: hbar F_pp pdot + rdot
    M[:, 2, 1] = hbar * f
    M[:, 3, 0] = -hbar * f
    rhs = np.empty((n, 4))
    rhs[:, 0] = e_charge * e_inplane[0]
    rhs[:, 1] = e_charge * e_inplane[1]
    rhs[:, 2:] = grad
    v = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    return v[:, :2], v[:, 2:]


def rashba_ensemble(samples, *, step, duration, **params):
    """Both bands of every sample by fixed-step RK4, sgk's step rule.

    samples has shape (count, 2, 2): [i, 0] = p0, [i, 1] = r0. Steps are
    `step` long except the last, which lands on `duration`. Returns the
    report fields sgk's ensemble prints.
    """
    count = samples.shape[0]
    p0 = np.concatenate([samples[:, 0], samples[:, 0]])
    r0 = np.concatenate([samples[:, 1], samples[:, 1]])
    sign = np.concatenate([-np.ones(count), np.ones(count)])

    def rhs(y):
        pdot, rdot = rashba_velocity(y[:, :2], sign, **params)
        return np.concatenate([pdot, rdot], axis=1)

    y = np.concatenate([p0, r0], axis=1)
    v0 = rhs(y)[:, 2:]
    m_norm_max = float(np.max(np.linalg.norm(y, axis=1)))
    s = 0.0
    n_steps = 0
    while s < duration - 1e-15 * max(1.0, duration):
        h = min(step, duration - s)
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += h
        n_steps += 1
        m_norm_max = max(m_norm_max, float(np.max(np.sqrt(
            np.sum(y * y, axis=1) + s * s))))
    axis = transverse_axis(params["e_inplane"])
    disp = ((y[:, 2:] - r0) @ axis).reshape(2, count)
    vel = disp / duration
    v0p = (v0 @ axis).reshape(2, count)
    band_disp = disp.mean(axis=1)
    band_vel = vel.mean(axis=1)
    return {
        "band_disp": band_disp,
        "band_vel": band_vel,
        "band_v0": v0p.mean(axis=1),
        "spin_current": 0.5 * (band_vel[0] - band_vel[1]),
        "splitting": band_disp[0] - band_disp[1],
        "steps": n_steps,
        "m_norm_max": m_norm_max,
    }


def rashba_tolerances(*, step, duration, m_norm_max, p_max, b_z, e_inplane,
                      chi, rho, m_star, hbar, e_charge, c_light):
    """Bounds on |sgk - oracle| per report field.

    sgk and the oracle take the same RK4 steps, so truncation errors agree
    to first order and the difference is sgk's central-difference error in
    grad_p E: hbar h_fd^2 / 6 times the third p-derivative of |H1|, at most
    0.86 rho^3 / (chi B)^2, plus the roundoff 4 eps |E| / h_fd of the
    difference. The velocity system amplifies it by at most
    1 / (1 - hbar |F| (e/c) |B|) and the flow over T by exp(omega_c T),
    omega_c = (e/c) |B| the cyclotron rate.
    """
    h_fd = fd_step(m_norm_max)
    cb = abs(chi * b_z)
    e_scale = p_max**2 / (2.0 * m_star) + hbar * math.hypot(rho * p_max, cb)
    dgrad = hbar * h_fd**2 / 6.0 * 0.86 * rho**3 / cb**2 \
        + 4.0 * EPS * e_scale / h_fd
    f_max = 0.5 * abs(chi) * rho**2 * abs(b_z) / cb**3
    gain = 1.0 / max(1e-3, 1.0 - hbar * f_max * abs(e_charge / c_light * b_z))
    flow = math.exp(abs(e_charge / c_light * b_z) * duration)
    dv = SAFETY * gain * dgrad
    ddisp = dv * duration * flow
    floor = 64.0 * EPS * (duration / step) * max(1.0, math.hypot(*e_inplane))
    return {
        "band_disp": ddisp + floor,
        "band_vel": ddisp / duration + floor,
        "band_v0": dv + floor,
        "spin_current": ddisp / duration + floor,
        "splitting": 2.0 * ddisp + floor,
    }


# ---------------------------------------------------------------------------
# Spin-orbit coupling with linear fields: curvature pulled back through H1


def spin_orbit_curvature(vec, *, e0, eg, et, b0, bg, bt, chi, rho):
    """F[band] over the 7 flat axes (p, r, t) at one point, bands (S=-1/2, +1/2).

    H1 = chi B(r, t) + rho E(r, t) x p with linear fields; the Jacobian
    columns are rho E x e_i (p axes), chi dB/dr_j + rho dE/dr_j x p (r
    axes) and chi dB/dt + rho dE/dt x p (t), and the curvature is the
    coupling-space monopole pulled back: F_ij = -S H1.(J_i x J_j)/|H1|^3.
    """
    p, r, t = vec[:3], vec[3:6], vec[6]
    E = e0 + eg @ r + et * t
    B = b0 + bg @ r + bt * t
    h1 = chi * B + rho * np.cross(E, p)
    J = np.empty((3, 7))
    eye = np.eye(3)
    for i in range(3):
        J[:, i] = rho * np.cross(E, eye[i])
        J[:, 3 + i] = chi * bg[:, i] + rho * np.cross(eg[:, i], p)
    J[:, 6] = chi * bt + rho * np.cross(et, p)
    cross = np.cross(J.T[:, None, :], J.T[None, :, :])   # (7, 7, 3)
    X = cross @ h1 / np.linalg.norm(h1) ** 3
    return np.stack([0.5 * X, -0.5 * X]), h1


def plaquette_tolerance(f_scale, h1_norm, h_scale, m_norm):
    """Relative bound on the Richardson plaquette curvature.

    The O(h^4) truncation left after Richardson is far below roundoff at
    sgk's step; the loop angle carries about 8 eps (four overlaps, each
    limited by the eigenvectors' eps |H| / gap), the plaquette divides it
    by h^2 and Richardson weighs the two plaquettes by (16 + 1) / 3.
    """
    h = fd_step(m_norm)
    angle = 8.0 * EPS * h_scale / (2.0 * h1_norm)
    return SAFETY * (17.0 / 3.0) * angle / h**2 / max(f_scale, 1e-3)


def chern_tolerance(radius, h_scale, h1_min):
    """Bound on |charge + 2S| from the plaquette roundoff over the sphere.

    Quadrature of the uniform flux of a centred monopole is exact, so the
    charge error is (1/2 pi) times the sphere area times the curvature
    roundoff (17/3) 8 eps (|H| / gap) / h^2, taken at the inner sphere,
    where the steps are smaller than on the outer check sphere.
    """
    h = fd_step(radius)
    df = (17.0 / 3.0) * 8.0 * EPS * h_scale / (2.0 * h1_min) / h**2
    return SAFETY * 2.0 * radius**2 * df
