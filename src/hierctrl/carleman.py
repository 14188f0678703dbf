"""Carleman weight construction, verification, and observability estimates.

The spatial weight eta is built from a monotone piecewise-cubic
reparameterization of the parabola m(L - m), which places the unique
interior critical point at a prescribed center.  The exponential weights
follow the closed forms with the sharp time factor sqrt(t(T-t)) or its
flattened variant ell(t); endpoint levels carry the limit conventions
(xi capped, exp(2 s alpha) exactly zero).  Weighted integrals take the
weights in log form, finite by construction, through mesh.integrate.

Ratio reports and the observability estimator are diagnostic: they assert
finiteness and positivity, never the inequalities' constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import CaseMismatch, InvalidCenter
from .hum import solve_coupled_adjoint
from .mesh import (SubdomainMask, build_mask, check_field, full_mask, integrate, norm_h, st_gradient,
                   st_second_differences)
from .operators import TimeStepper, extended_laplacian

XI_CAP = 1e30
ALPHA_FLOOR = -1e30


def default_parameters(T):
    """Default parameters: lambda = 2, s = 2(sqrt(T) + T)."""
    return 2.0, 2.0 * (math.sqrt(T) + T)


class _CubicHermite:
    """C1 piecewise cubic through three knots (xs, ys) with slopes ds."""

    def __init__(self, xs, ys, ds):
        self.xs = np.array(xs)
        self.ys = np.array(ys)
        self.ds = np.array(ds)

    def __call__(self, x):
        """Value and derivative at x."""
        x = np.asarray(x, dtype=float)
        k = np.where(x <= self.xs[1], 0, 1)
        a = self.xs[k]
        b = self.xs[k + 1]
        h = b - a
        t = (x - a) / h
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        value = h00 * self.ys[k] + h10 * h * self.ds[k] + h01 * self.ys[k + 1] + h11 * h * self.ds[k + 1]
        d00 = 6 * t * (t - 1) / h
        d10 = (1 - t) * (1 - 3 * t)
        d01 = -d00
        d11 = t * (3 * t - 2)
        deriv = d00 * self.ys[k] + d10 * self.ds[k] + d01 * self.ys[k + 1] + d11 * self.ds[k + 1]
        return value, deriv


class _MonotoneCubic(_CubicHermite):
    """C1 piecewise-cubic bijection of [0, L] with prescribed half-crossing.

    m(0) = 0, m(L) = L, m(center) = L/2, m' > 0.  End slopes are the
    secant slopes, the interior slope their harmonic mean (Fritsch-Carlson
    monotone region), which keeps the derivative strictly positive.
    """

    def __init__(self, L, center):
        if not (0.0 < center < L):
            raise InvalidCenter(f"critical-point center {center} must be strictly inside (0, {L})")
        s1 = (L / 2.0) / center
        s2 = (L / 2.0) / (L - center)
        dmid = 2.0 * s1 * s2 / (s1 + s2)
        super().__init__([0.0, center, L], [0.0, L / 2.0, L], [s1, dmid, s2])


class _WindowedRemap(_CubicHermite):
    """Monotone bijection of [0, L]: identity outside (w0, w1), moves c2 to c1."""

    def __init__(self, L, w0, w1, c_from, c_to):
        if not (0.0 <= w0 < c_from < w1 <= L) or not (w0 < c_to < w1):
            raise InvalidCenter("remap window must contain both centers strictly")
        self.w0, self.w1 = w0, w1
        s1 = (c_to - w0) / (c_from - w0)
        s2 = (w1 - c_to) / (w1 - c_from)
        dmid = 2.0 * s1 * s2 / (s1 + s2)
        for d, s in ((1.0, s1), (dmid, s1), (dmid, s2), (1.0, s2)):
            if d > 3.0 * s:
                raise InvalidCenter("remap window too tight for a monotone reparameterization")
        super().__init__([w0, c_from, w1], [w0, c_to, w1], [1.0, dmid, 1.0])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        value = x.copy()
        deriv = np.ones_like(x)
        inside = (x > self.w0) & (x < self.w1)
        value[inside], deriv[inside] = super().__call__(x[inside])
        return value, deriv


class EtaFunction:
    """Spatial Carleman weight with analytic gradient.

    Per axis eta_ax = m(x)(L - m(x)); in 2D the product of the two axis
    factors.  Positive inside, zero on the boundary, unique interior
    critical point at the requested center (gradients vanish at corners in
    2D; those nodes are excluded from scans).
    """

    def __init__(self, grid, center, remaps=None):
        self.grid = grid
        center = (center,) if np.isscalar(center) else tuple(center)
        if len(center) != grid.dim:
            raise InvalidCenter(f"center needs {grid.dim} coordinates")
        self.center = center
        self.maps = []
        for ax, c in enumerate(center):
            if remaps is None or remaps[ax] is None:
                self.maps.append((_MonotoneCubic(grid.lengths[ax], c), None))
            else:
                remap, base_center = remaps[ax]
                self.maps.append((_MonotoneCubic(grid.lengths[ax], base_center), remap))
        self.sup = float(np.prod([L * L / 4.0 for L in grid.lengths]))

    def _axis_m(self, ax, x):
        base, remap = self.maps[ax]
        if remap is None:
            return base(x)
        y, dy = remap(x)
        m, dm = base(y)
        return m, dm * dy

    def _axis_factor(self, ax, x):
        L = self.grid.lengths[ax]
        m, dm = self._axis_m(ax, x)
        return m * (L - m), dm * (L - 2.0 * m)

    def value(self, *coords):
        vals = [self._axis_factor(ax, np.asarray(c, dtype=float))[0] for ax, c in enumerate(coords)]
        out = vals[0]
        for v in vals[1:]:
            out = out * v
        return out

    def gradient(self, *coords):
        facs = []
        ders = []
        for ax, c in enumerate(coords):
            f, d = self._axis_factor(ax, np.asarray(c, dtype=float))
            facs.append(f)
            ders.append(d)
        grads = []
        for ax in range(self.grid.dim):
            g = ders[ax]
            for other in range(self.grid.dim):
                if other != ax:
                    g = g * facs[other]
            grads.append(g)
        return tuple(grads)

    def gradient_on_nodes(self):
        return self.gradient(*self.grid.meshes())


class WeightForm:
    """Closed-form evaluators for (alpha, xi) at arbitrary points.

    The time factor r(t) is sqrt(t(T - t)) ("sharp") or its flattened
    variant ell(t) = T/2 for t <= T/2 ("ell-modified"); the weights are
    singular where r vanishes.
    """

    def __init__(self, eta_fn: EtaFunction, lam, s, variant="sharp"):
        if variant not in ("sharp", "ell-modified"):
            raise ValueError(f"unknown variant {variant!r}")
        self.eta_fn = eta_fn
        self.lam = float(lam)
        self.s = float(s)
        self.variant = variant
        self.M = eta_fn.sup
        self.B = math.exp(4.0 * self.lam * self.M)
        self.T = eta_fn.grid.T

    def _r(self, t):
        t = np.asarray(t, dtype=float)
        if self.variant == "sharp":
            return np.sqrt(t * (self.T - t))
        return np.where(t <= self.T / 2.0, self.T / 2.0, np.sqrt(t * (self.T - t)))

    def singular(self, t):
        """Time levels where r(t) vanishes: both endpoints, or only t = T for ell."""
        t = np.asarray(t, dtype=float)
        if self.variant == "sharp":
            return (t <= 0.0) | (t >= self.T)
        return t >= self.T

    def _r_t(self, t):
        t = np.asarray(t, dtype=float)
        rt = (self.T - 2.0 * t) / (2.0 * np.sqrt(t * (self.T - t)))
        if self.variant == "sharp":
            return rt
        return np.where(t <= self.T / 2.0, 0.0, rt)

    def _A(self, *coords):
        eta = self.eta_fn.value(*coords)
        return np.exp(self.lam * (2.0 * self.M + eta))

    def xi(self, coords, t):
        return self._A(*coords) / self._r(t)

    def alpha_t(self, coords, t):
        r = self._r(t)
        return -(self._A(*coords) - self.B) * self._r_t(t) / (r * r)

    def xi_t(self, coords, t):
        r = self._r(t)
        return -self._A(*coords) * self._r_t(t) / (r * r)

    def grad_alpha(self, coords, t):
        grads = self.eta_fn.gradient(*coords)
        A = self._A(*coords)
        r = self._r(t)
        return tuple(self.lam * g * A / r for g in grads)


def build_weights(eta_fn: EtaFunction, lam, s, variant="sharp"):
    """Sample the closed-form weights on all nodes and time levels, as two
    (nt+1, *nx) arrays alpha and xi.

    Singular levels carry xi = XI_CAP and alpha = ALPHA_FLOOR, which makes
    exp(2 s alpha) exactly zero there.  OverflowError when a weight off the
    singular levels is not finite, as on a horizon T so short that r
    underflows to 0 there.
    """
    grid = eta_fn.grid
    form = WeightForm(eta_fn, lam, s, variant)
    t = grid.times().reshape((-1,) + (1,) * grid.dim)
    singular = form.singular(t)
    A = form._A(*grid.meshes())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # checked finite below
        r = form._r(t)
        alpha = np.where(singular, ALPHA_FLOOR, (A - form.B) / r)
        xi = np.where(singular, XI_CAP, A / r)
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(xi))):
        raise OverflowError(f"the {variant} Carleman weights are not finite at T = {grid.T}")
    return check_field(grid, alpha), check_field(grid, xi)


@dataclass
class CarlemanWeights:
    """The weights of one geometry case.  etas is the pair eta^(1), eta^(2),
    one EtaFunction twice in the shared case; alpha and xi are the sharp
    weights of eta^(1) and log_theta the log of the observability weight,
    full-node (nt+1, *nx) arrays."""

    grid: object
    case: str
    lam: float
    s: float
    etas: tuple
    alpha: np.ndarray
    xi: np.ndarray
    omega0: SubdomainMask
    log_theta: np.ndarray


def _center_box(grid, center):
    box = []
    for ax, c in enumerate(center):
        r = 0.12 * grid.lengths[ax]
        box.append((max(c - r, grid.h[ax] * 0.5), min(c + r, grid.lengths[ax] - grid.h[ax] * 0.5)))
    return tuple(box)


def build_carleman_weights(grid, case="shared", lam=None, s=None, center=None,
                           center2=None, window=None) -> CarlemanWeights:
    """Construct all weight fields for the requested geometry case.

    distinct: a pair eta^(1), eta^(2) equal outside the remap window
    strips, equal sup norms, with critical points at center / center2.
    shared is the same construction with center2 = center: no axis is
    remapped, so eta^(2) is eta^(1).  log_theta is the log of
    theta = xi~^3 exp(s alpha~) from the ell-modified weights, min over the
    pair; finite everywhere, and on the terminal level the floored alpha~
    makes theta exactly zero.
    """
    if lam is None or s is None:
        dl, ds = default_parameters(grid.T)
        lam = dl if lam is None else lam
        s = ds if s is None else s
    if center is None:
        center = tuple(L / 2.0 for L in grid.lengths)
    if case == "shared":
        center2 = center
    elif case != "distinct":
        raise CaseMismatch(f"unknown case {case!r}")
    elif center2 is None:
        raise CaseMismatch("distinct case needs a second critical-point center")
    c1 = (center,) if np.isscalar(center) else tuple(center)
    c2 = (center2,) if np.isscalar(center2) else tuple(center2)
    eta1 = EtaFunction(grid, c1)
    remaps = []
    for ax, (a, b) in enumerate(zip(c1, c2)):  # a c2 of the wrong length fails in EtaFunction
        if a == b:
            remaps.append(None)
            continue
        if window is None:
            lo = max(min(a, b) - 0.2 * grid.lengths[ax], 0.0)
            hi = min(max(a, b) + 0.2 * grid.lengths[ax], grid.lengths[ax])
        else:
            lo, hi = window[ax] if not np.isscalar(window[0]) else window
        remaps.append((_WindowedRemap(grid.lengths[ax], lo, hi, b, a), a))
    omega0 = build_mask(grid, _center_box(grid, c1))
    if c1 == c2:
        eta2 = eta1
    else:
        eta2 = EtaFunction(grid, c2, remaps=remaps)
        omega0 = omega0.union(build_mask(grid, _center_box(grid, c2)))

    def log_theta_of(eta):
        alpha_ell, xi_ell = build_weights(eta, lam, s, "ell-modified")
        return s * alpha_ell + 3.0 * np.log(xi_ell)

    log_theta1 = log_theta_of(eta1)
    log_theta2 = log_theta1 if eta2 is eta1 else log_theta_of(eta2)
    alpha, xi = build_weights(eta1, lam, s, "sharp")
    return CarlemanWeights(grid=grid, case=case, lam=lam, s=s, etas=(eta1, eta2), alpha=alpha, xi=xi,
                           omega0=omega0, log_theta=check_field(grid, np.minimum(log_theta1, log_theta2)))


def check_case(spec, case):
    """The geometry each case assumes: shared observation regions and
    targets are identical; distinct ones meet the leader region differently."""
    if case == "shared":
        same_mask = np.array_equal(spec.target_masks[0].indicator, spec.target_masks[1].indicator)
        same_target = np.array_equal(spec.targets[0], spec.targets[1])  # interior: what every solve reads
        if not (same_mask and same_target):
            raise CaseMismatch("shared case requires identical observation regions and targets")
    elif case == "distinct":
        i1 = spec.target_masks[0].indicator & spec.leader_mask.indicator
        i2 = spec.target_masks[1].indicator & spec.leader_mask.indicator
        if np.array_equal(i1, i2):
            raise CaseMismatch("distinct case requires different intersections with the leader region")


def check_target_condition(spec, log_theta):
    """Weighted target-compatibility integrals per follower.

    Returns [(value, infinite)] of the theta^{-2}-weighted squared
    deviation of the shifted targets, interior arrays, over each
    observation region; log_theta is a full-node (nt+1, *nx) array.
    Where theta vanishes on the terminal level the integrand is zero (the
    endpoint convention); a value beyond the range of a double is inf.
    """
    grid = spec.grid
    log_weight = -2.0 * log_theta
    out = []
    for i in range(2):
        sq = grid.from_interior_levels(spec.targets[i] ** 2)
        sq[-1, np.exp(log_theta[-1]) == 0.0] = 0.0
        value = integrate(sq, spec.target_masks[i], log_weight=log_weight)
        out.append((value, math.isinf(value)))
    return out


@dataclass
class WeightPropertyReport:
    identity_max_rel: float
    identity_ok: bool
    xi_inv_ok: bool
    time_bound_strict_ok: bool
    time_bound_relaxed_ok: bool
    notes: list = dc_field(default_factory=list)


def check_weight_properties(weights: CarlemanWeights, n_samples=100, seed=0) -> WeightPropertyReport:
    """Pointwise verification of the closed-form properties of the sharp weights.

    Checks grad alpha = lambda xi grad eta, xi^{-1} <= T/2, and
    |alpha_t| + |xi_t| <= (T/2) xi^3 (strict) with the relaxed T xi^3
    fallback, at random interior sample points with analytic derivatives.
    grad xi = grad alpha holds by the closed form, as alpha and xi differ
    by B/r(t) with B a constant, so it is not checked apart.
    """
    grid = weights.grid
    eta = weights.etas[0]
    form = WeightForm(eta, weights.lam, weights.s, "sharp")
    rng = np.random.default_rng(seed)
    coords = tuple(rng.uniform(0.02 * L, 0.98 * L, n_samples) for L in grid.lengths)
    ts = rng.uniform(0.02 * grid.T, 0.98 * grid.T, n_samples)
    grads_eta = eta.gradient(*coords)
    xi = form.xi(coords, ts)
    ga = form.grad_alpha(coords, ts)
    max_rel = 0.0
    for ax in range(grid.dim):
        ref = weights.lam * xi * grads_eta[ax]
        scale = np.maximum(np.abs(ref), 1e-300)
        max_rel = max(max_rel, float(np.max(np.abs(ga[ax] - ref) / scale)))
    xi_inv_max = float(np.max(1.0 / xi))
    # |alpha_t| + |xi_t| <= c xi^3 (1 + 1e-12), in logs: xi^3 overflows for large lambda
    rate = np.abs(form.alpha_t(coords, ts)) + np.abs(form.xi_t(coords, ts))
    log_rate = np.log(rate) - 3.0 * np.log(xi) - math.log1p(1e-12)
    strict = bool(np.all(log_rate <= math.log(grid.T / 2.0)))
    relaxed = bool(np.all(log_rate <= math.log(grid.T)))
    notes = []
    if grid.dim == 2:
        notes.append("corner nodes excluded from |grad eta| > 0 scans (product construction)")
    return WeightPropertyReport(
        identity_max_rel=max_rel,
        identity_ok=max_rel <= 1e-12,
        xi_inv_ok=xi_inv_max <= grid.T / 2.0 + 1e-15,
        time_bound_strict_ok=strict,
        time_bound_relaxed_ok=relaxed,
        notes=notes,
    )


def eta_gradient_scan(weights: CarlemanWeights, exclusion_radius):
    """Min |grad eta| over interior nodes outside balls around the centers.

    2D corner nodes are boundary nodes and never enter (interior scan).
    """
    grid = weights.grid
    grads = weights.etas[0].gradient_on_nodes()
    mag = np.sqrt(sum(g * g for g in grads))
    keep = grid.interior_bool()
    meshes = grid.meshes()
    for fn in weights.etas:
        dist2 = sum((meshes[ax] - fn.center[ax]) ** 2 for ax in range(grid.dim))
        keep = keep & (dist2 > exclusion_radius**2)
    if not keep.any():
        return 0.0
    return float(mag[keep].min())


@dataclass
class RatioReport:
    samples: list
    skipped: int

    @property
    def ratios(self):
        return [rec["ratio"] for rec in self.samples]

    @property
    def max_ratio(self):
        return max(self.ratios) if self.samples else math.nan

    @property
    def median_ratio(self):
        return float(np.median(self.ratios)) if self.samples else math.nan


def carleman_ratio_report(weights: CarlemanWeights, n_samples=20, seed=0) -> RatioReport:
    """Numerical left/right evaluation of the weighted energy inequality.

    Solves the pure backward biharmonic problem -z_t + Lap^2 z = g for
    random data, evaluates the five weighted energies against the local
    observation on weights.omega0 plus source terms, and reports the
    ratios.  A sample with a side that is 0 or inf in a double is skipped.
    """
    grid, lam, s = weights.grid, weights.lam, weights.s
    zero = np.zeros((grid.nt + 1, grid.n_interior))
    stepper = TimeStepper(grid, zero, (zero,) * grid.dim)
    ext = extended_laplacian(grid)
    rng = np.random.default_rng(seed)
    full = full_mask(grid)
    shape = (grid.nt + 1,) + grid.nx
    # log of xi^k exp(2 s alpha), k = 0..7
    log_w = [2.0 * s * weights.alpha + k * np.log(weights.xi) for k in range(8)]

    def weighted(k, energy, mask=full):
        return integrate(energy, mask, log_weight=log_w[k])

    samples = []
    skipped = 0
    for _ in range(n_samples):
        g_int = rng.standard_normal((grid.nt + 1, grid.n_interior))
        g_full = grid.from_interior_levels(g_int)
        # backward march: (I + dt Lap^2)' z^{j-1} = z^j + dt g^j
        Z = stepper.march_backward(rng.standard_normal(grid.n_interior), g_int)
        z_full = grid.from_interior_levels(Z)

        grads_sq = sum(g * g for g in st_gradient(grid, z_full))
        # Laplacian via the mirror-ghost rows: correct next to the walls
        lap = (ext @ Z.T).T.reshape(shape)
        d2 = st_second_differences(grid, z_full)
        hess_sq = sum(d * d for d in d2[:grid.dim])
        if grid.dim == 2:  # the mixed entry appears twice in the Hessian
            hess_sq = hess_sq + 2.0 * d2[2] * d2[2]
        gl_sq = sum(g * g for g in st_gradient(grid, lap))
        lhs = s**6 * lam**8 * weighted(6, z_full**2)
        lhs += s**4 * lam**6 * weighted(4, grads_sq)
        lhs += s**3 * lam**4 * weighted(3, lap * lap)
        lhs += s**2 * lam**4 * weighted(2, hess_sq)
        lhs += s * lam**2 * weighted(1, gl_sq)

        rhs = s**7 * lam**8 * weighted(7, z_full**2, weights.omega0)
        rhs += weighted(0, g_full**2)
        if not (0.0 < lhs < math.inf and 0.0 < rhs < math.inf):
            skipped += 1
            continue
        samples.append({"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs})
    return RatioReport(samples=samples, skipped=skipped)


@dataclass
class ObservabilityReport:
    ratios: list
    denominators: list
    resampled: int
    case: str

    @property
    def max_ratio(self):
        return max(self.ratios) if self.ratios else math.nan

    @property
    def all_finite(self):
        return all(np.isfinite(r) for r in self.ratios)

    @property
    def all_denominators_positive(self):
        return all(d > 0 for d in self.denominators)


def estimate_observability(spec, weights: CarlemanWeights, n_samples=50, seed=0,
                           tol_rel=1e-10) -> ObservabilityReport:
    """Sample the observability quotient of the coupled adjoint system.

    R(psi0) = (||psi(0)||^2 + int int theta^2 |obs|^2) / int int_O |psi|^2
    with obs the weighted companion sum on the shared observation region or
    the per-follower companions on their own regions.
    """
    grid = spec.grid
    rng = np.random.default_rng(seed)
    ratios, dens = [], []
    resampled = 0
    log_th2 = 2.0 * weights.log_theta
    for _ in range(n_samples):
        psi0_int = rng.standard_normal(grid.n_interior)
        while not np.any(psi0_int):
            resampled += 1
            psi0_int = rng.standard_normal(grid.n_interior)
        st = solve_coupled_adjoint(spec, psi0_int, tol_rel=tol_rel)
        num = norm_h(grid, st.psi[0]) ** 2
        if weights.case == "shared":
            obs = spec.alpha[0] * st.etas[0] + spec.alpha[1] * st.etas[1]
            num += integrate(grid.from_interior_levels(obs**2), spec.target_masks[0], log_weight=log_th2)
        else:
            for i, eta in enumerate(st.etas):
                num += integrate(grid.from_interior_levels(eta**2), spec.target_masks[i], log_weight=log_th2)
        den = integrate(grid.from_interior_levels(st.psi**2), spec.leader_mask)
        dens.append(den)
        ratios.append(num / den if den > 0 else math.inf)
    return ObservabilityReport(ratios=ratios, denominators=dens,
                               resampled=resampled, case=weights.case)
