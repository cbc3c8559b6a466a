"""Independent loop-based evaluators used as oracles for the diagnostics.

Deliberately written with plain Python loops and scalar math so they share
no code path with the vectorized implementations they check.
"""

from __future__ import annotations

import math


def entropy_energy(state, params, grid):
    dm = grid.dm
    total = 0.0
    for j in range(state.n_cells):
        ubar = 0.5 * (state.u[j] + state.u[j + 1])
        total += 0.5 * ubar * ubar
        total += params.R * (state.v[j] - math.log(state.v[j]) - 1.0)
        total += params.c_v * (state.theta[j] - math.log(state.theta[j]) - 1.0)
    return total * dm


def dissipation_rates(state, params, grid):
    dm = grid.dm
    d_visc = 0.0
    for j in range(state.n_cells):
        s = (state.u[j + 1] - state.u[j]) / dm
        d_visc += params.mu * s * s / (state.v[j] * state.theta[j]) * dm
    d_heat = 0.0
    for i in range(1, state.n_cells):
        tx = (state.theta[i] - state.theta[i - 1]) / dm
        v_face = 0.5 * (state.v[i - 1] + state.v[i])
        t_face = 0.5 * (state.theta[i - 1] + state.theta[i])
        d_heat += params.kappa * tx * tx / (v_face * t_face * t_face) * dm
    return d_visc, d_heat


def field_bounds(state):
    return (
        min(state.v),
        max(state.v),
        min(state.theta),
        max(state.theta),
    )


def lp_deviation(state, grid, p):
    n = state.n_cells
    devs = []
    for j in range(n):
        ubar = 0.5 * (state.u[j] + state.u[j + 1])
        devs.append((abs(state.v[j] - 1.0), abs(ubar), abs(state.theta[j] - 1.0)))
    if math.isinf(p):
        return max(max(triple) for triple in devs)
    total = 0.0
    for dv, du, dth in devs:
        total += (dv**p + du**p + dth**p) * grid.dm
    return total ** (1.0 / p)


def outer_deviation(state, setup):
    """Max of |v - 1|, |theta - 1| over the outermost ceil(n/20) cells (at least
    one) and of |u| over their nodes, at x = L and, without a wall, at the left end."""
    n = state.n_cells
    k = max(1, (n + 19) // 20)
    cells = list(range(n - k, n))
    nodes = list(range(n - k, n + 1))
    if not setup.has_wall:
        cells += list(range(k))
        nodes += list(range(k + 1))
    best = 0.0
    for j in cells:
        best = max(best, abs(state.v[j] - 1.0), abs(state.theta[j] - 1.0))
    for i in nodes:
        best = max(best, abs(state.u[i]))
    return best


def h1_seminorms(state, grid):
    dm = grid.dm
    n = state.n_cells

    vx = [(state.v[i] - state.v[i - 1]) / dm for i in range(1, n)]
    thx = [(state.theta[i] - state.theta[i - 1]) / dm for i in range(1, n)]
    ux = [(state.u[j + 1] - state.u[j]) / dm for j in range(n)]
    uxx = [(ux[j] - ux[j - 1]) / dm for j in range(1, n)]
    thxx = [(thx[i] - thx[i - 1]) / dm for i in range(1, n - 1)]

    def l2(values):
        return math.sqrt(sum(w * w for w in values) * dm)

    return l2(vx), l2(ux), l2(thx), l2(uxx), l2(thxx)


def truncated_excess(state, grid, a):
    excess = 0.0
    count = 0
    for th in state.theta:
        over = th - a
        if over > 0.0:
            excess += over * over * grid.dm
            count += 1
    return excess, count * grid.dm


def sup_embedding_check(values, grid):
    dm = grid.dm
    lhs = max((w * w for w in values), default=0.0)
    norm = math.sqrt(sum(w * w for w in values) * dm)
    grad = math.sqrt(
        sum(
            ((values[i] - values[i - 1]) / dm) ** 2
            for i in range(1, len(values))
        )
        * dm
    )
    return lhs, 2.0 * norm * grad


def df8_rate(state, grid):
    dm = grid.dm
    total = 0.0
    for j in range(state.n_cells):
        s = (state.u[j + 1] - state.u[j]) / dm
        ubar = 0.5 * (state.u[j] + state.u[j + 1])
        total += (1.0 + state.theta[j] + ubar * ubar) * s * s * dm
    for i in range(1, state.n_cells):
        tx = (state.theta[i] - state.theta[i - 1]) / dm
        total += tx * tx * dm
    return total


def z4_rate(state, grid):
    dm = grid.dm
    n = state.n_cells
    total = 0.0
    for i in range(1, n):
        vx = (state.v[i] - state.v[i - 1]) / dm
        t_face = 0.5 * (state.theta[i - 1] + state.theta[i])
        total += t_face * vx * vx * dm
    ux = [(state.u[j + 1] - state.u[j]) / dm for j in range(n)]
    for j in range(1, n):
        uxx = (ux[j] - ux[j - 1]) / dm
        total += uxx * uxx * dm
    thx = [(state.theta[i] - state.theta[i - 1]) / dm for i in range(1, n)]
    for i in range(1, n - 1):
        thxx = (thx[i] - thx[i - 1]) / dm
        total += thxx * thxx * dm
    return total


def strain_rate(state, grid):
    """Cell-centered velocity gradient (u[j+1] - u[j]) / dm."""
    return [(state.u[j + 1] - state.u[j]) / grid.dm for j in range(state.n_cells)]


def heat_flux(state, grid, params, setup, i):
    """Heat flux kappa*theta_x/v through face (node) i, boundary closures included."""
    from lagas.core import SetupKind

    dm, n = grid.dm, state.n_cells
    v, th = state.v, state.theta
    if i == 0:
        if setup is SetupKind.CAUCHY:
            return params.kappa * (th[0] - 1.0) / (dm * 0.5 * (v[0] + 1.0))
        if setup is SetupKind.HALFLINE_INSULATED:
            return 0.0
        return params.kappa * (th[0] - 1.0) / (0.5 * dm * v[0])
    if i == n:
        return params.kappa * (1.0 - th[n - 1]) / (dm * 0.5 * (1.0 + v[n - 1]))
    v_face = 0.5 * (v[i - 1] + v[i])
    return params.kappa * (th[i] - th[i - 1]) / (dm * v_face)


def rhs(state, grid, params, setup, sources=None):
    """Stencil-by-stencil rate evaluation, including the boundary closures.

    The thermal rate is the governing equation's -p*s + (flux)_x + mu*s*s/v,
    term by term.  ``sources`` = (dv, du, dtheta) are added to the rates; a
    wall node's du stays 0 under them.
    """
    from lagas.core import SetupKind

    dm = grid.dm
    n = state.n_cells
    v, th, u = state.v, state.theta, state.u

    def strain(j):  # ghost cells j = -1 and j = n use ghost node u = 0
        if j == -1:
            return (u[0] - 0.0) / dm
        if j == n:
            return (0.0 - u[n]) / dm
        return (u[j + 1] - u[j]) / dm

    def volume(j):
        return 1.0 if j in (-1, n) else v[j]

    def temperature(j):
        return 1.0 if j in (-1, n) else th[j]

    def stress(j):
        return params.mu * strain(j) / volume(j) - params.R * temperature(j) / volume(j)

    dv = [strain(j) for j in range(n)]

    du = [0.0] * (n + 1)
    for i in range(1, n):
        du[i] = (stress(i) - stress(i - 1)) / dm
    du[n] = (stress(n) - stress(n - 1)) / dm
    if setup is SetupKind.CAUCHY:
        du[0] = (stress(0) - stress(-1)) / dm
    else:
        du[0] = 0.0

    def flux(i):
        return heat_flux(state, grid, params, setup, i)

    dth = []
    for j in range(n):
        s = strain(j)
        work = -params.R * (th[j] / v[j]) * s
        heat = (flux(j + 1) - flux(j)) / dm
        heating = params.mu * s * s / v[j]
        dth.append((work + heat + heating) / params.c_v)

    if sources is not None:
        sv, su, sth = sources
        dv = [dv[j] + sv[j] for j in range(n)]
        du = [du[i] + su[i] for i in range(n + 1)]
        dth = [dth[j] + sth[j] for j in range(n)]
        if setup is not SetupKind.CAUCHY:
            du[0] = 0.0
    return dv, du, dth


def stable_dt(state, grid, params, ctrl):
    """SSPRK(10,4)'s stable step by a loop over the cells, clamped to ``dt_max``.

    Cell j has sound speed sqrt(R*theta_j*gamma)/v_j and diffusivity
    max(mu/v_j, kappa/(c_v*v_j)).  The acoustic limit is cfl_hyperbolic*dm over
    the largest speed; with dt_FE = dm^2/(2D) of the largest diffusivity D the
    diffusive limit is min(6 dt_FE, 10 * (2 cfl_parabolic dt_FE)).  Each product
    and quotient is taken in the vectorized operand order, so the bits agree.
    No dt_min check.  Returns (dt, acoustic limit, diffusive limit).
    """
    dm, gamma = grid.dm, params.R / params.c_v + 1.0
    sound = diffusivity = 0.0
    for j in range(state.n_cells):
        v, theta = float(state.v[j]), float(state.theta[j])
        sound = max(sound, math.sqrt(params.R * theta * gamma) / v)
        diffusivity = max(diffusivity, params.mu / v, params.kappa / (params.c_v * v))
    acoustic = ctrl.cfl_hyperbolic * dm / sound
    two_d = 2.0 * diffusivity
    diffusive = min(6.0 * dm * dm / two_d, 10.0 * (2.0 * ctrl.cfl_parabolic * dm * dm / two_d))
    return min(acoustic, diffusive, ctrl.dt_max), acoustic, diffusive


def explicit_rk_step(state, dt, grid, params, setup, a, b, c, sources=None):
    """One explicit Runge-Kutta step with Butcher tableau ``(a, b, c)``.

    Stage i is Y_i = y0 + dt * sum_j a[i][j] K_j with K_j = rhs(Y_j) plus
    the one row of ``sources([t0 + c[j]*dt])``; the result is y0 + dt * sum_i b[i] K_i.
    Fields are lists ordered [v | theta | u].  Returns the result and the
    stage inputs Y_i, each a ``(v, theta, u)`` triple of lists.
    """
    from types import SimpleNamespace

    from lagas.core import SetupKind

    n = state.n_cells
    y0 = [*state.v, *state.theta, *state.u]
    stages, rates = [], []
    for i in range(len(b)):
        y = [
            y0[m] + dt * sum(a[i][j] * rates[j][m] for j in range(i))
            for m in range(len(y0))
        ]
        stages.append((y[:n], y[n : 2 * n], y[2 * n :]))
        stage = SimpleNamespace(n_cells=n, v=y[:n], theta=y[n : 2 * n], u=y[2 * n :])
        dv, du, dth = rhs(stage, grid, params, setup)
        k = [*dv, *dth, *du]
        if sources is not None:
            sv, su, sth = (rows[0] for rows in sources([state.t + c[i] * dt]))
            extra = [*sv, *sth, *su]
            if setup is not SetupKind.CAUCHY:
                extra[2 * n] = 0.0  # the wall rate stays pinned under forcing
            k = [k[m] + extra[m] for m in range(len(k))]
        rates.append(k)
    y = [y0[m] + dt * sum(b[i] * rates[i][m] for i in range(len(b))) for m in range(len(y0))]
    return (y[:n], y[n : 2 * n], y[2 * n :]), stages


def cumulative_integrals(records):
    """(cum_D, cum_df8, cum_z4) of each record: trapezoids of D_visc + D_heat, df8_rate
    and z4_rate over the record times, summed in a plain loop from the first record."""
    totals, rows = [0.0, 0.0, 0.0], []
    for i, record in enumerate(records):
        if i > 0:
            prev = records[i - 1]
            h = record.t - prev.t
            totals[0] += 0.5 * ((record.D_visc + record.D_heat) + (prev.D_visc + prev.D_heat)) * h
            totals[1] += 0.5 * (record.df8_rate + prev.df8_rate) * h
            totals[2] += 0.5 * (record.z4_rate + prev.z4_rate) * h
        rows.append(tuple(totals))
    return rows


def summarize(records):
    """summary.json's record-derived sections, by explicit loops over the records."""
    e0 = records[0].E
    last = records[-1]

    def extreme(name, larger):
        best = getattr(records[0], name)
        for r in records[1:]:
            value = getattr(r, name)
            if (value > best) if larger else (value < best):
                best = value
        return best

    def final_over_max(name):
        peak = extreme(name, True)
        if peak > 0.0:
            return getattr(last, name) / peak
        return 0.0

    start = math.floor(len(records) * 0.8)
    tail_monotone = True
    for i in range(start + 1, len(records)):
        if records[i].lpinf_dev > records[i - 1].lpinf_dev * 1.01 + 1e-14:
            tail_monotone = False

    max_defect, min_defect = -math.inf, math.inf
    for r in records:
        defect = r.E + r.cum_D - e0
        if defect > max_defect:
            max_defect = defect
        if defect < min_defect:
            min_defect = defect
    tolerance = e0 * 1e-3 + 1e-6

    df8_tail_growth = 0.0
    if last.cum_df8 != 0.0:
        df8_tail_growth = (last.cum_df8 - records[start].cum_df8) / last.cum_df8

    return {
        "records": len(records),
        "bounds": {
            "v": [extreme("v_min", False), extreme("v_max", True)],
            "theta": [extreme("theta_min", False), extreme("theta_max", True)],
        },
        "decay": {
            "linf_initial": records[0].lpinf_dev,
            "linf_max": extreme("lpinf_dev", True),
            "linf_final": last.lpinf_dev,
            "final_over_max": final_over_max("lpinf_dev"),
            "tail_monotone": tail_monotone,
        },
        "h1_final_over_max": {
            "vx": final_over_max("vx_l2"),
            "ux": final_over_max("ux_l2"),
            "thetax": final_over_max("thetax_l2"),
        },
        "entropy_audit": {
            "initial": e0,
            "max_defect": max_defect,
            "min_defect": min_defect,
            "tolerance": tolerance,
            "ok": max_defect <= tolerance,
        },
        "energy_balance_residual": last.energy_balance_residual,
        "int_u4_max": extreme("int_u4", True),
        "df8_tail_growth": df8_tail_growth,
        "max_outer_deviation": extreme("outer_dev", True),
    }


def manufactured_sources(fields, decay, params, xs, t):
    """Point-by-point forcings of a manufactured solution, in the closed forms
    of the governing system (not the separable coefficient form).

    ``fields`` gives (v, u, theta), each ``None`` for its rest value, or
    ``("pulse", amplitude, center, width)`` for ``amplitude * exp(-z^2)``
    with ``z = (x - center) / width``, or ``("sine", amplitude)`` for
    ``amplitude * sin(x)``; every deviation is scaled by exp(-decay*t).
    Returns the mass, momentum and thermal (c_v*theta_t) source lists.
    """
    e = math.exp(-decay * t)

    def partials(field, rest, x):
        """(value, d/dt, d/dx, d2/dx2) of one field at one point."""
        if field is None:
            return rest, 0.0, 0.0, 0.0
        if field[0] == "sine":
            a = field[1]
            f, f_x, f_xx = a * math.sin(x), a * math.cos(x), -a * math.sin(x)
        else:
            _, a, center, width = field
            z = (x - center) / width
            f = a * math.exp(-z * z)
            f_x = f * (-2.0 * z / width)
            f_xx = f * (4.0 * z * z - 2.0) / (width * width)
        return rest + e * f, -decay * e * f, e * f_x, e * f_xx

    s_v, s_u, s_th = [], [], []
    for x in xs:
        v, v_t, v_x, _ = partials(fields[0], 1.0, x)
        _, u_t, u_x, u_xx = partials(fields[1], 0.0, x)
        th, th_t, th_x, th_xx = partials(fields[2], 1.0, x)
        s_v.append(v_t - u_x)
        p_x = params.R * (th_x / v - th * v_x / (v * v))
        s_u.append(u_t + p_x - params.mu * (u_xx / v - u_x * v_x / (v * v)))
        s_th.append(
            params.c_v * th_t
            + params.R * (th / v) * u_x
            - params.kappa * (th_xx / v - th_x * v_x / (v * v))
            - params.mu * u_x * u_x / v
        )
    return s_v, s_u, s_th
